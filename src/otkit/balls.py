"""Arbitrary-precision real and complex enclosures.

Thin wrappers over ``mpmath.iv`` intervals.  Every operation produces an
enclosure of the exact result at the current working precision; nothing here
ever rounds a decision the wrong way. Undecidable predicates return None so
callers can escalate precision.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import iv, mp, mpf
from mpmath.libmp import to_int

from .config import working_precision


class RealBall:
    """A closed real interval guaranteed to contain one exact value."""

    __slots__ = ("v",)

    def __init__(self, v):
        if isinstance(v, RealBall):
            self.v = v.v
        elif isinstance(v, Fraction):
            self.v = iv.mpf(v.numerator) / iv.mpf(v.denominator)
        else:
            self.v = iv.mpf(v)

    @classmethod
    def _raw(cls, ivmpf) -> "RealBall":
        out = object.__new__(cls)
        out.v = ivmpf
        return out

    @classmethod
    def from_endpoints(cls, lo, hi) -> "RealBall":
        return cls._raw(iv.mpf([lo, hi]))

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RealBall):
            return other.v
        if isinstance(other, Fraction):
            return iv.mpf(other.numerator) / iv.mpf(other.denominator)
        return iv.mpf(other)

    def __add__(self, other):
        return RealBall._raw(self.v + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return RealBall._raw(self.v - self._coerce(other))

    def __rsub__(self, other):
        return RealBall._raw(self._coerce(other) - self.v)

    def __mul__(self, other):
        return RealBall._raw(self.v * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return RealBall._raw(self.v / self._coerce(other))

    def __rtruediv__(self, other):
        return RealBall._raw(self._coerce(other) / self.v)

    def __neg__(self):
        return RealBall._raw(-self.v)

    def __abs__(self):
        return RealBall._raw(abs(self.v))

    def __pow__(self, e: int):
        return RealBall._raw(self.v ** e)

    def sqrt(self) -> "RealBall":
        return RealBall._raw(iv.sqrt(self.v))

    def cbrt(self) -> "RealBall":
        if not self.is_positive():
            raise ValueError("cbrt implemented for positive enclosures only")
        return RealBall._raw(iv.exp(iv.log(self.v) / 3))

    def exp(self) -> "RealBall":
        return RealBall._raw(iv.exp(self.v))

    def log(self) -> "RealBall":
        return RealBall._raw(iv.log(self.v))

    # -- geometry --------------------------------------------------------
    # mpmath's iv accessors (.a, .b, .mid, .delta) round through the global
    # mp context (53 bits by default); go through the raw endpoint data.

    @property
    def lower(self) -> mpf:
        return mp.make_mpf(self.v._mpi_[0])

    @property
    def upper(self) -> mpf:
        return mp.make_mpf(self.v._mpi_[1])

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
        lo, hi = (to_int(x, "f") for x in self.v._mpi_)
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
    return RealBall._raw(+iv.pi)


def _eliminate(A: list[list[RealBall]]) -> int:
    """Gauss-Jordan elimination of the square left block of ``A`` in place,
    pivoting on the largest midpoint; returns the sign of the row swaps.

    Raises ArithmeticError when a pivot straddles zero; callers escalate the
    working precision in that case.
    """
    n = len(A)
    sign = 1
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(A[i][k].mid()))
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        if A[k][k].contains_zero():
            raise ArithmeticError("singular-looking pivot in interval elimination")
        for i in range(n):
            if i != k:
                f = A[i][k] / A[k][k]
                for j in range(k, len(A[k])):
                    A[i][j] = A[i][j] - f * A[k][j]
    return sign


def ball_det(M: list[list[RealBall]]) -> RealBall:
    """Enclosure of the determinant: the signed product of the pivots."""
    A = [row[:] for row in M]
    det = RealBall(_eliminate(A))
    for k in range(len(A)):
        det = det * A[k][k]
    return det


def ball_solve(M: list[list[RealBall]], b: list[RealBall]) -> list[RealBall]:
    """Enclosure of the solution of a well-conditioned square system."""
    A = [row[:] + [b[i]] for i, row in enumerate(M)]
    _eliminate(A)
    n = len(A)
    return [A[i][n] / A[i][i] for i in range(n)]
