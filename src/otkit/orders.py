"""Number-field orders: the monogenic ring Z[T]/(f) and its enlargements.

Every order, Z[T]/(f) included, is a ``SubOrder``: f, disc f, a basis as
columns over the power basis with a common denominator, and exact structure
constants, built when something first multiplies; an ``IdealHNF`` is an
integral ideal of one, in Hermite normal form.  Maximalization tests each
prime whose square divides the discriminant by Dedekind's criterion and runs
the classic radical/multiplier-ring loop only at the primes that fail it; an
unfactored discriminant cofactor makes the result "uncertified" rather than
wrong.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_gcd, gf_quo, gf_sqf_part

from . import intmat
from .factorint import trial_factor
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


Signature = namedtuple("Signature", "s t")


def signature(f: IntPolynomial) -> Signature:
    """Real/complex place counts of Q[T]/(f), by exact Sturm count; raises
    NotSquarefreeError when f has a repeated root."""
    s = sturm_count(sturm_sequence(f), None, None)
    n = f.degree
    if (n - s) % 2:
        raise ArithmeticError("inconsistent real root count")
    return Signature(s, (n - s) // 2)


def build_order(f: IntPolynomial) -> SubOrder:
    """Validate (monic, irreducible) and build the power-basis order Z[T]/(f)."""
    if not f.is_monic():
        raise ValueError("defining polynomial must be monic")
    if f.degree < 2:
        raise ValueError("defining polynomial must have degree >= 2")
    ok, witness = is_irreducible(f)
    if not ok:
        raise ReduciblePolynomialError(f, witness)
    return SubOrder(f, poly_discriminant(f), intmat.identity(f.degree), 1)


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
        return self.order.power_product([self], [e])

    def is_pm_one(self) -> bool:
        return self == self.order.one() or self == -self.order.one()

    def __repr__(self):
        return f"OrderElement{self.coords}"


class SubOrder:
    """An order of Q[T]/(f) given by a basis over the power basis (columns /
    denominator); Z[T]/(f) itself has basis I and denominator 1."""

    def __init__(self, f: IntPolynomial, disc_f: int, basis_num, den: int):
        self.f = f
        self.n = f.degree
        self.disc_f = disc_f
        g = gcd(den, *(v for row in basis_num for v in row))
        if g > 1:
            basis_num = [[v // g for v in row] for row in basis_num]
            den //= g
        self.basis_num = hnf(basis_num)
        self.den = den
        det = intmat.lattice_det(self.basis_num)   # ValueError below full rank
        index_sq = Fraction(den ** self.n, det)
        if index_sq.denominator != 1:
            raise ValueError("basis does not contain the power-basis order")
        self.index = int(index_sq)
        disc = Fraction(disc_f, self.index ** 2)
        if disc.denominator != 1:
            raise ValueError("discriminant-index relation failed")
        self.disc = int(disc)
        self._binv, self._binv_den = intmat.solve(self.basis_num, intmat.identity(self.n))
        self._one = self.from_power_coords([1] + [0] * (self.n - 1))
        if self._one is None:
            raise ValueError("order does not contain 1")

    @cached_property
    def disc_factors(self):
        """``trial_factor(disc_f)``, computed once per order."""
        return trial_factor(self.disc_f)

    # -- construction ------------------------------------------------------

    @cached_property
    def _table(self):
        """Structure constants: the product of basis elements i and j in this
        basis, from the ``IntPolynomial`` product of their columns reduced
        by f.  Raises ValueError when the basis is not multiplicatively
        closed."""
        n = self.n
        cols = [IntPolynomial([self.basis_num[r][c] for r in range(n)]) for c in range(n)]
        table = [[None] * n for _ in range(n)]
        d2 = self.den * self.den
        for i in range(n):
            for j in range(i, n):
                rem = (cols[i] * cols[j]).divmod_monic(self.f)[1].coeffs
                z = self._basis_coords(rem + (0,) * (n - len(rem)), d2)
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

    def _mul_coords(self, xs, ys) -> list[int]:
        """The product of two coordinate vectors, as a coordinate list."""
        n = self.n
        table = self._table   # one descriptor lookup, not one per product
        out = [0] * n
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    if b:
                        t = table[i][j]
                        c = a * b
                        for r in range(n):
                            out[r] += c * t[r]
        return out

    def multiply(self, x: OrderElement, y: OrderElement) -> OrderElement:
        return OrderElement(self, self._mul_coords(x.coords, y.coords))

    def power_product(self, gens, exps) -> OrderElement:
        """The product of ``g ** e`` over paired generators and exponents."""
        out = self.one()
        for g, e in zip(gens, exps):
            out = intmat.power(g if e >= 0 else self.inverse_unit(g), abs(e),
                               self.multiply, out)
        return out

    def inverse_unit(self, u: OrderElement) -> OrderElement:
        """Inverse of a unit (norm +-1) inside the order."""
        inv = self.divide_exact(self.one(), u)
        if inv is None:
            raise ValueError("element is not a unit of the order")
        return inv

    def divide_exact(self, x: OrderElement, y: OrderElement) -> OrderElement | None:
        """x / y inside the order, or None when the quotient is not integral."""
        M = self.mult_matrix(y)
        sol = intmat.solve_int(M, list(x.coords))
        return OrderElement(self, sol) if sol is not None else None

    # -- linear invariants ---------------------------------------------------

    def mult_matrix(self, x: OrderElement):
        n = self.n
        table = self._table
        M = [[0] * n for _ in range(n)]
        for j in range(n):
            for i, a in enumerate(x.coords):
                if a:
                    t = table[i][j]
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

    def __repr__(self):
        return (f"SubOrder(f={self.f.format()!r}, index={self.index}, "
                f"disc={self.disc})")


class IdealHNF:
    """An integral ideal of an order: the canonical column HNF of the lattice
    that ``cols`` (order coordinates) span, which is its key for equality
    within the order and hashing, and whose pivots multiply to its norm
    (Cohen, GTM 138, 4.7)."""

    __slots__ = ("order", "basis", "norm", "_key")

    def __init__(self, order: SubOrder, cols):
        self.order = order
        self.basis = hnf(cols)
        self.norm = intmat.lattice_det(self.basis)   # ValueError below full rank
        self._key = tuple(map(tuple, self.basis))

    def contains(self, x: OrderElement) -> bool:
        return intmat.solve_int(self.basis, list(x.coords)) is not None

    def __eq__(self, other):
        return (isinstance(other, IdealHNF) and other.order is self.order
                and other._key == self._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"IdealHNF(norm={self.norm})"


# -- maximalization -----------------------------------------------------------


def _p_radical(order: SubOrder, p: int):
    """HNF basis (in order coordinates) of the radical of p in the order."""
    n = order.n
    e = 1
    q = p
    while q < n:
        q *= p
        e += 1
    one = [c % p for c in order.one().coords]
    cols = [intmat.power([1 if j == i else 0 for j in range(n)], p ** e,
                         lambda a, b: [c % p for c in order._mul_coords(a, b)], one)
            for i in range(n)]
    F = [[cols[j][i] % p for j in range(n)] for i in range(n)]
    ker = kernel_mod_p(F, p)
    return hnf([[v[i] for v in ker] for i in range(n)], p)


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
    H = hnf([[v[i] for v in ker] for i in range(n)], p)
    # new basis over the power basis: B * H / (den * p)
    newb = intmat.mat_mul(order.basis_num, H)
    bigger = SubOrder(order.f, order.disc_f, newb, order.den * p)
    bigger._table  # every enlarged basis is checked for closure as it is built
    return bigger


def dedekind_maximal(f: IntPolynomial, p: int) -> bool:
    """Whether Z[T]/(f) is maximal at the prime p, by Dedekind's criterion
    (Cohen, GTM 138, Thm. 6.1.4).

    With g = rad(f mod p) and h = (f mod p) / g, both lifted to Z, and
    F = (g h - f) / p, the order is p-maximal exactly when
    gcd(F, g, h) = 1 in F_p[x].  In characteristic p the radical is not
    f / gcd(f, f'), so it is taken from the squarefree decomposition.
    """
    fbar = gf_from_int_poly(f.coeffs[::-1], p)
    g = gf_sqf_part(fbar, p, ZZ)
    h = gf_quo(fbar, g, p, ZZ)
    gh = (IntPolynomial(g[::-1]) * IntPolynomial(h[::-1]) - f).coeffs
    F = gf_from_int_poly([c // p for c in reversed(gh)], p)
    return gf_gcd(gf_gcd(g, h, p, ZZ), F, p, ZZ) == [1]


def maximalize(order: SubOrder):
    """Enlarge Z[T]/(f), given as ``build_order`` makes it, to the maximal
    order at every reachable prime.

    A prime at which Dedekind's criterion finds Z[T] maximal takes no Round 2
    step, so a Z[T] maximal everywhere comes back as the same object.

    Returns ``(order, index, certified)``.  ``certified`` is False when the
    square part of the discriminant could not be fully factored, in which
    case the returned order is maximal at all primes found but maximality
    overall is unverified.
    """
    factors, _, complete = order.disc_factors
    for p in (p for p, e in factors if e >= 2):
        # enlargements at other primes have index prime to p, so every order
        # of the loop agrees with Z[T] at p
        if dedekind_maximal(order.f, p):
            continue
        while True:
            if order.disc % (p * p):
                break
            bigger = _p_enlarge(order, p)
            if bigger is None:
                break
            order = bigger
    return order, order.index, complete
