"""Arbitrary-precision real and complex enclosures.

A ``RealBall`` is a pair of mpf endpoints, and each operation is one call of
``mpmath.libmp.libmpi`` at the working precision: the calls, and so the
endpoints, that ``mpmath.iv`` arithmetic makes, without its conversion layer.
Every operation produces an enclosure of the exact result at the current
working precision; nothing here ever rounds a decision the wrong way.
Undecidable predicates return None so callers can escalate precision.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (finf, fnan, fninf, from_float, from_int, libmpi, mpf_lt, mpf_pi,
                          round_ceiling, round_floor, to_int)

from .config import working_precision


def _pair(a, b) -> tuple:
    """The endpoint pair (a, b), all of R when either is NaN, as in ``iv.mpf``."""
    if a == fnan or b == fnan:
        return fninf, finf
    if mpf_lt(b, a):
        raise ValueError("interval endpoints out of order")
    return a, b


def _endpoints(x) -> tuple:
    """The pair that ``iv.mpf`` makes of an int, Fraction, float, decimal
    string or mpf x."""
    if isinstance(x, RealBall):
        return x.v
    prec = working_precision()
    if isinstance(x, int):
        return from_int(x, prec, round_floor), from_int(x, prec, round_ceiling)
    if isinstance(x, Fraction):
        return libmpi.mpi_div(_endpoints(x.numerator), _endpoints(x.denominator), prec)
    if isinstance(x, float):
        return _pair(from_float(x, prec, round_floor), from_float(x, prec, round_ceiling))
    if isinstance(x, str):
        return libmpi.mpi_from_str(x, prec)
    return _pair(x._mpf_, x._mpf_)


class RealBall:
    """A closed real interval guaranteed to contain one exact value: ``v`` is
    its pair of raw mpf endpoints."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = _endpoints(v)

    @classmethod
    def _raw(cls, v) -> "RealBall":
        out = object.__new__(cls)
        out.v = v
        return out

    @classmethod
    def from_endpoints(cls, lo, hi) -> "RealBall":
        """[lo, hi] with lo rounded down and hi up, each converted as by
        ``RealBall``."""
        return cls._raw(_pair(_endpoints(lo)[0], _endpoints(hi)[1]))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return RealBall._raw(libmpi.mpi_add(self.v, _endpoints(other), working_precision()))

    __radd__ = __add__

    def __sub__(self, other):
        return RealBall._raw(libmpi.mpi_sub(self.v, _endpoints(other), working_precision()))

    def __rsub__(self, other):
        return RealBall._raw(libmpi.mpi_sub(_endpoints(other), self.v, working_precision()))

    def __mul__(self, other):
        return RealBall._raw(libmpi.mpi_mul(self.v, _endpoints(other), working_precision()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return RealBall._raw(libmpi.mpi_div(self.v, _endpoints(other), working_precision()))

    def __rtruediv__(self, other):
        return RealBall._raw(libmpi.mpi_div(_endpoints(other), self.v, working_precision()))

    def __neg__(self):
        return RealBall._raw(libmpi.mpi_neg(self.v, working_precision()))

    def __pos__(self):
        """This ball rounded outward to the working precision."""
        return RealBall._raw(libmpi.mpi_pos(self.v, working_precision()))

    def __abs__(self):
        return RealBall._raw(libmpi.mpi_abs(self.v, working_precision()))

    def __pow__(self, e: int):
        return RealBall._raw(libmpi.mpi_pow_int(self.v, e, working_precision()))

    def sqrt(self) -> "RealBall":
        return RealBall._raw(libmpi.mpi_sqrt(self.v, working_precision()))

    def cbrt(self) -> "RealBall":
        if not self.is_positive():
            raise ValueError("cbrt implemented for positive enclosures only")
        return (self.log() / 3).exp()

    def exp(self) -> "RealBall":
        return RealBall._raw(libmpi.mpi_exp(self.v, working_precision()))

    def log(self) -> "RealBall":
        return RealBall._raw(libmpi.mpi_log(self.v, working_precision()))

    # -- geometry --------------------------------------------------------

    @property
    def lower(self) -> mpf:
        return mp.make_mpf(self.v[0])

    @property
    def upper(self) -> mpf:
        return mp.make_mpf(self.v[1])

    def mid(self) -> mpf:
        with mp.workprec(working_precision() + 16):
            return (self.lower + self.upper) / 2

    def rad(self) -> mpf:
        with mp.workprec(working_precision() + 16):
            return (self.upper - self.lower) / 2

    def __float__(self):
        return float(self.mid())

    def __repr__(self):
        return f"RealBall({mp.nstr(self.mid(), 17)} +/- {mp.nstr(self.rad(), 3)})"

    # -- predicates ------------------------------------------------------

    def contains_zero(self) -> bool:
        return self.lower <= 0 <= self.upper

    def is_positive(self) -> bool:
        return self.lower > 0

    def is_negative(self) -> bool:
        return self.upper < 0

    def sign(self) -> int | None:
        """Definite sign, or None when the enclosure straddles zero."""
        if self.is_positive():
            return 1
        if self.is_negative():
            return -1
        if self.lower == 0 and self.upper == 0:
            return 0
        return None

    def overlaps(self, other: "RealBall") -> bool:
        return not (self.upper < other.lower or other.upper < self.lower)

    def contains(self, x) -> bool:
        b = RealBall(x) if not isinstance(x, RealBall) else x
        return self.lower <= b.lower and b.upper <= self.upper

    def floor_strict(self) -> int | None:
        """The integer n with [self] inside [n, n+1), or None if undecidable."""
        if not (mp.isfinite(self.lower) and mp.isfinite(self.upper)):
            return None
        # exact: math.floor would round an mpf through float64
        lo, hi = (to_int(x, "f") for x in self.v)
        return lo if lo == hi else None


class ComplexBall:
    """Rectangle enclosure re + i*im with RealBall components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re if isinstance(re, RealBall) else RealBall(re)
        self.im = im if isinstance(im, RealBall) else RealBall(im)

    def __add__(self, other):
        if isinstance(other, ComplexBall):
            return ComplexBall(self.re + other.re, self.im + other.im)
        return ComplexBall(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ComplexBall):
            return ComplexBall(self.re - other.re, self.im - other.im)
        return ComplexBall(self.re - other, self.im)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ComplexBall(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ComplexBall):
            return ComplexBall(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)
        return ComplexBall(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ComplexBall(self.re / other, self.im / other)

    def abs2(self) -> RealBall:
        # even powers, not self-multiplication: [-1,2]*[-1,2] would go negative
        return self.re ** 2 + self.im ** 2

    def mid(self):
        return mp.mpc(self.re.mid(), self.im.mid())

    def __repr__(self):
        return f"ComplexBall({self.re!r}, {self.im!r})"


def ball_pi() -> RealBall:
    prec = working_precision()
    return RealBall._raw((mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)))


def _eliminate(A: list[list[RealBall]]) -> tuple[int, list]:
    """Gauss-Jordan elimination of the square matrix ``A`` in place, pivoting
    on the largest midpoint.  Returns the sign of the row swaps and, per
    step k, the pivot row and the factors f_i = A[i][k] / A[k][k] (None at
    i = k), the record that ``BallElimination.solve`` replays.

    Raises ArithmeticError when a pivot straddles zero; callers escalate the
    working precision in that case.
    """
    n = len(A)
    sign = 1
    steps = []
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(A[i][k].mid()))
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        if A[k][k].contains_zero():
            raise ArithmeticError("singular-looking pivot in interval elimination")
        factors = [None] * n
        for i in range(n):
            if i != k:
                f = factors[i] = A[i][k] / A[k][k]
                for j in range(k, n):
                    A[i][j] = A[i][j] - f * A[k][j]
        steps.append((piv, factors))
    return sign, steps


class BallElimination:
    """One elimination of a square ball matrix, kept to solve many systems.

    ``solve(b)`` replays the recorded swaps and updates b_i - f_i b_k on b,
    then divides by the kept pivots.  At the precision the elimination was
    made at, these are the operations, in the order, that eliminating the
    matrix augmented by b would make, so each enclosure equals that one
    endpoint for endpoint; at any other precision every step still rounds
    outward, so the result still encloses the solution.
    """

    __slots__ = ("sign", "pivots", "steps")

    def __init__(self, M: list[list[RealBall]]):
        A = [row[:] for row in M]
        self.sign, self.steps = _eliminate(A)
        self.pivots = [A[k][k] for k in range(len(A))]

    @property
    def det(self) -> RealBall:
        """Enclosure of the determinant: the signed product of the pivots."""
        det = RealBall(self.sign)
        for p in self.pivots:
            det = det * p
        return det

    def solve(self, b: list[RealBall]) -> list[RealBall]:
        """Enclosure of the solution of M x = b."""
        x = list(b)
        for k, (piv, factors) in enumerate(self.steps):
            x[k], x[piv] = x[piv], x[k]
            for i, f in enumerate(factors):
                if f is not None:
                    x[i] = x[i] - f * x[k]
        return [xi / p for xi, p in zip(x, self.pivots)]


def ball_det(M: list[list[RealBall]]) -> RealBall:
    """Enclosure of the determinant of a square ball matrix."""
    return BallElimination(M).det
