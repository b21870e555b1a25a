"""Number-field orders: the monogenic ring Z[T]/(f) and its enlargements.

A ``SubOrder`` stores its basis as columns over the power basis with a common
denominator, plus exact structure constants.  Maximalization is the classic
radical/multiplier-ring loop at each prime whose square divides the
discriminant; an unfactored discriminant cofactor makes the result
"uncertified" rather than wrong.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import intmat
from .factorint import square_divisor_primes
from .intmat import det_bareiss, hnf, kernel_mod_p
from .polynomials import (IntPolynomial, is_irreducible, poly_discriminant, sturm_count,
                          sturm_sequence)


class ReduciblePolynomialError(ValueError):
    def __init__(self, poly: IntPolynomial, factor: IntPolynomial | None):
        self.poly = poly
        self.factor = factor
        msg = f"{poly.format()} is not irreducible"
        if factor is not None:
            msg += f" (factor: {factor.format()})"
        super().__init__(msg)


class Signature:
    __slots__ = ("s", "t")

    def __init__(self, s: int, t: int):
        self.s = s
        self.t = t

    def __iter__(self):
        return iter((self.s, self.t))

    def __eq__(self, other):
        return (self.s, self.t) == (other.s, other.t) if isinstance(other, Signature) \
            else (self.s, self.t) == tuple(other)

    def __repr__(self):
        return f"Signature(s={self.s}, t={self.t})"


def signature(f: IntPolynomial) -> Signature:
    """Real/complex place counts of Q[T]/(f), by exact Sturm count; raises
    NotSquarefreeError when f has a repeated root."""
    s = sturm_count(sturm_sequence(f), None, None)
    n = f.degree
    if (n - s) % 2:
        raise ArithmeticError("inconsistent real root count")
    return Signature(s, (n - s) // 2)


class MonogenicOrder:
    """The power-basis order Z[T]/(f) for monic irreducible f."""

    def __init__(self, f: IntPolynomial, disc_f: int):
        self.f = f
        self.n = f.degree
        self.disc_f = disc_f
        self._power = None

    def power_suborder(self) -> "SubOrder":
        if self._power is None:
            self._power = SubOrder(self, intmat.identity(self.n), 1)
        return self._power

    def __repr__(self):
        return f"MonogenicOrder({self.f.format()!r}, disc={self.disc_f})"


def build_order(f: IntPolynomial) -> MonogenicOrder:
    """Validate (monic, irreducible) and build the power-basis order."""
    if not f.is_monic():
        raise ValueError("defining polynomial must be monic")
    if f.degree < 2:
        raise ValueError("defining polynomial must have degree >= 2")
    ok, witness = is_irreducible(f)
    if not ok:
        raise ReduciblePolynomialError(f, witness)
    return MonogenicOrder(f, poly_discriminant(f))


class OrderElement:
    __slots__ = ("order", "coords")

    def __init__(self, order: "SubOrder", coords):
        self.order = order
        self.coords = tuple(int(c) for c in coords)
        if len(self.coords) != order.n:
            raise ValueError("coordinate length mismatch")

    def __eq__(self, other):
        return (isinstance(other, OrderElement) and other.order is self.order
                and other.coords == self.coords)

    def __hash__(self):
        return hash((id(self.order), self.coords))

    def __add__(self, other):
        if isinstance(other, int):
            other = other * self.order.one()
        return OrderElement(self.order, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        return OrderElement(self.order, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return OrderElement(self.order, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, int):
            return OrderElement(self.order, [other * a for a in self.coords])
        return self.order.multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return self.order.power(self, e)

    def is_pm_one(self) -> bool:
        return self == self.order.one() or self == -self.order.one()

    def __repr__(self):
        return f"OrderElement{self.coords}"


class SubOrder:
    """An order given by a basis over the power basis (columns / denominator)."""

    def __init__(self, ambient: MonogenicOrder, basis_num, den: int):
        self.ambient = ambient
        self.n = ambient.n
        g = gcd(den, *(v for row in basis_num for v in row))
        if g > 1:
            basis_num = [[v // g for v in row] for row in basis_num]
            den //= g
        self.basis_num = hnf(basis_num)
        if not intmat.hnf_is_full_rank(self.basis_num):
            raise ValueError("order basis is not of full rank")
        self.den = den
        det = intmat.lattice_det(self.basis_num)
        index_sq = Fraction(den ** self.n, det)
        if index_sq.denominator != 1:
            raise ValueError("basis does not contain the power-basis order")
        self.index = int(index_sq)
        disc = Fraction(ambient.disc_f, self.index ** 2)
        if disc.denominator != 1:
            raise ValueError("discriminant-index relation failed")
        self.disc = int(disc)
        self._binv, self._binv_den = intmat.solve(self.basis_num, intmat.identity(self.n))
        self._table = self._structure_constants()
        self._one = self.from_power_coords([1] + [0] * (self.n - 1))
        if self._one is None:
            raise ValueError("order does not contain 1")

    # -- construction ------------------------------------------------------

    def _power_product(self, ci, cj):
        """Product of two power-coordinate integer vectors, reduced mod f."""
        f = self.ambient.f
        n = self.n
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(ci):
            if a:
                for j, b in enumerate(cj):
                    if b:
                        prod[i + j] += a * b
        # reduce degrees >= n using T^n = -(f - T^n)
        for d in range(2 * n - 2, n - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for k in range(n):
                    prod[d - n + k] -= c * f.coeffs[k]
        return prod[:n]

    def _structure_constants(self):
        n = self.n
        cols = [[self.basis_num[r][c] for r in range(n)] for c in range(n)]
        table = [[None] * n for _ in range(n)]
        d2 = self.den * self.den
        for i in range(n):
            for j in range(i, n):
                z = self._basis_coords(self._power_product(cols[i], cols[j]), d2)
                if z is None:
                    raise ValueError("basis is not multiplicatively closed")
                table[i][j] = tuple(z)
                table[j][i] = tuple(z)
        return table

    def _basis_coords(self, vec, den: int) -> list[int] | None:
        """Coordinates of the power-basis vector ``vec / den`` in this basis, or
        None when they are not integral."""
        out = []
        for row in self._binv:
            q, r = divmod(sum(a * b for a, b in zip(row, vec)) * self.den,
                          self._binv_den * den)
            if r:
                return None
            out.append(q)
        return out

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> OrderElement:
        return OrderElement(self, coords)

    def one(self) -> OrderElement:
        return self._one

    def zero(self) -> OrderElement:
        return OrderElement(self, [0] * self.n)

    def tbar(self) -> OrderElement:
        """The image of T in this order (always present: Z[T] sits inside)."""
        e = self.from_power_coords([0, 1] + [0] * (self.n - 2))
        assert e is not None
        return e

    def from_power_coords(self, vec, den: int = 1) -> OrderElement | None:
        """Coerce a power-basis vector (over den) into this order, or None."""
        out = self._basis_coords(vec, den)
        return None if out is None else OrderElement(self, out)

    def to_power_fractions(self, x: OrderElement) -> list[Fraction]:
        return [Fraction(sum(self.basis_num[r][c] * x.coords[c] for c in range(self.n)),
                         self.den) for r in range(self.n)]

    def multiply(self, x: OrderElement, y: OrderElement) -> OrderElement:
        n = self.n
        out = [0] * n
        for i, a in enumerate(x.coords):
            if a:
                for j, b in enumerate(y.coords):
                    if b:
                        t = self._table[i][j]
                        c = a * b
                        for r in range(n):
                            out[r] += c * t[r]
        return OrderElement(self, out)

    def power(self, x: OrderElement, e: int) -> OrderElement:
        if e < 0:
            inv = self.inverse_unit(x)
            return self.power(inv, -e)
        out = self.one()
        base = x
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def power_product(self, gens, exps) -> OrderElement:
        """The product of ``g ** e`` over paired generators and exponents."""
        out = self.one()
        for g, e in zip(gens, exps):
            if e:
                out = out * g ** e
        return out

    def inverse_unit(self, u: OrderElement) -> OrderElement:
        """Inverse of a unit (norm +-1) inside the order."""
        M = self.mult_matrix(u)
        x = intmat.solve_int(M, list(self.one().coords))
        if x is None:
            raise ValueError("element is not a unit of the order")
        return OrderElement(self, x)

    def divide_exact(self, x: OrderElement, y: OrderElement) -> OrderElement | None:
        """x / y inside the order, or None when the quotient is not integral."""
        M = self.mult_matrix(y)
        sol = intmat.solve_int(M, list(x.coords))
        return OrderElement(self, sol) if sol is not None else None

    # -- linear invariants ---------------------------------------------------

    def mult_matrix(self, x: OrderElement):
        n = self.n
        M = [[0] * n for _ in range(n)]
        for j in range(n):
            for i, a in enumerate(x.coords):
                if a:
                    t = self._table[i][j]
                    for r in range(n):
                        M[r][j] += a * t[r]
        return M

    def norm(self, x: OrderElement) -> int:
        return det_bareiss(self.mult_matrix(x))

    def trace(self, x: OrderElement) -> int:
        M = self.mult_matrix(x)
        return sum(M[i][i] for i in range(self.n))

    def is_unit(self, x: OrderElement) -> bool:
        return abs(self.norm(x)) == 1

    # -- serialization ---------------------------------------------------------

    def to_dict(self, certified: bool = True) -> dict:
        return {
            "f": self.ambient.f.format(),
            "basis_num": [[str(v) for v in row] for row in self.basis_num],
            "den": self.den,
            "disc": str(self.disc),
            "index": str(self.index),
            "certified": certified,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SubOrder":
        mo = build_order(IntPolynomial.parse(d["f"]))
        basis = [[int(v) for v in row] for row in d["basis_num"]]
        return cls(mo, basis, int(d["den"]))

    def __repr__(self):
        return (f"SubOrder(f={self.ambient.f.format()!r}, index={self.index}, "
                f"disc={self.disc})")


# -- maximalization -----------------------------------------------------------


def _p_radical(order: SubOrder, p: int):
    """HNF basis (in order coordinates) of the radical of p in the order."""
    n = order.n
    e = 1
    q = p
    while q < n:
        q *= p
        e += 1
    cols = []
    for i in range(n):
        b = order.element([1 if j == i else 0 for j in range(n)])
        w = _power_mod_p(order, b, p ** e, p)
        cols.append(w)
    F = [[cols[j][i] % p for j in range(n)] for i in range(n)]
    ker = kernel_mod_p(F, p)
    gens = [[v[i] for i in range(n)] for v in ker]
    stacked = [[p if i == j else 0 for j in range(n)] for i in range(n)]
    for g in gens:
        for i in range(n):
            stacked[i].append(g[i])
    return hnf(stacked)


def _power_mod_p(order: SubOrder, x: OrderElement, e: int, p: int):
    out = [c % p for c in order.one().coords]
    base = [c % p for c in x.coords]
    while e:
        if e & 1:
            out = _mul_mod_p(order, out, base, p)
        e >>= 1
        if e:
            base = _mul_mod_p(order, base, base, p)
    return out


def _mul_mod_p(order: SubOrder, a, b, p: int):
    n = order.n
    out = [0] * n
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if bv:
                    t = order._table[i][j]
                    c = av * bv
                    for r in range(n):
                        out[r] = (out[r] + c * t[r]) % p
    return out


def _p_enlarge(order: SubOrder, p: int) -> SubOrder | None:
    """One multiplier-ring step at p; None when the order is already p-maximal."""
    n = order.n
    U = _p_radical(order, p)
    Uinv, d = intmat.solve(U, intmat.identity(n))
    Vs = []
    for i in range(n):
        Mi = order.mult_matrix(order.element([1 if j == i else 0 for j in range(n)]))
        V = intmat.mat_mul(intmat.mat_mul(Uinv, Mi), U)
        if any(v % d for row in V for v in row):
            raise ArithmeticError("radical is not an ideal of the order")
        Vs.append([[v // d for v in row] for row in V])
    big = [[Vs[i][r][c] % p for i in range(n)] for r in range(n) for c in range(n)]
    ker = kernel_mod_p(big, p)
    if not ker:
        return None
    cols = [[p if i == j else 0 for j in range(n)] for i in range(n)]
    for v in ker:
        for i in range(n):
            cols[i].append(v[i] % p)
    H = hnf(cols)
    # new basis over the power basis: B * H / (den * p)
    newb = intmat.mat_mul(order.basis_num, H)
    return SubOrder(order.ambient, newb, order.den * p)


def maximalize(mo: MonogenicOrder):
    """Enlarge Z[T]/(f) to the maximal order at every reachable prime.

    Returns ``(order, index, certified)``.  ``certified`` is False when the
    square part of the discriminant could not be fully factored, in which
    case the returned order is maximal at all primes found but maximality
    overall is unverified.
    """
    primes, complete, _cofactor = square_divisor_primes(mo.disc_f)
    order = mo.power_suborder()
    for p in primes:
        while True:
            if order.disc % (p * p):
                break
            bigger = _p_enlarge(order, p)
            if bigger is None:
                break
            order = bigger
    return order, order.index, complete
