"""Univariate integer polynomials: exact arithmetic, resultants, Sturm counts.

Coefficients are stored ascending; the polynomial variable is written ``T``
in the text format (``T^3 - T + 1``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from sympy import divisors
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_zz_factor

from .intmat import det_bareiss


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # ---- basics -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({self.format()!r})"

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; works for ints, Fractions, ball types, and
        IntPolynomials (composition: ``f(g)`` is f(g(T)))."""
        if not self.coeffs:
            return 0 * x
        acc = self.coeffs[-1] + 0 * x
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> IntPolynomial:
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def divmod_monic(self, g: IntPolynomial):
        """Quotient and remainder by a monic divisor, exact over Z."""
        if not g.is_monic():
            raise ValueError("divisor must be monic")
        return _divide(self, g)

    # ---- text format ----------------------------------------------------

    _TERM = re.compile(
        r"\s*([+-]?)\s*(?:(\d+)\s*\*?\s*)?(?:T(?:\s*\^\s*(\d+))?)?\s*"
    )

    @classmethod
    def parse(cls, text: str) -> IntPolynomial:
        """Parse ``T^3 - T + 1`` style text (variable ``T``, integer coefficients)."""
        s = text.strip().replace("**", "^")
        if not s:
            raise ValueError("empty polynomial text")
        pos = 0
        terms = {}
        first = True
        while pos < len(s):
            m = cls._TERM.match(s, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
            sign_s, coef_s, exp_s = m.groups()
            if coef_s is None and "T" not in s[m.start():m.end()]:
                raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
            if sign_s == "" and not first:
                raise ValueError(f"missing sign near {s[pos:]!r}")
            sign = -1 if sign_s == "-" else 1
            coef = int(coef_s) if coef_s is not None else 1
            if "T" in s[m.start():m.end()]:
                exp = int(exp_s) if exp_s is not None else 1
            else:
                exp = 0
            terms[exp] = terms.get(exp, 0) + sign * coef
            pos = m.end()
            first = False
        deg = max(terms)
        return cls([terms.get(i, 0) for i in range(deg + 1)])

    def format(self) -> str:
        """Canonical text, descending-degree terms."""
        if self.is_zero():
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "T" if mag == 1 else f"{mag}*T"
            else:
                body = f"T^{e}" if mag == 1 else f"{mag}*T^{e}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


# ---- resultants and discriminants ---------------------------------------


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Exact resultant Res(f, g) via the Sylvester determinant."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    m, n = f.degree, g.degree
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    S = [[0] * size for _ in range(size)]
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        for j, c in enumerate(fc):
            S[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(gc):
            S[n + i][i + j] = c
    return det_bareiss(S)


def poly_discriminant(f: IntPolynomial) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f of degree >= 2.

    For monic f, Res(f, f') is the norm of f'(T) in Z[T]/(f): the determinant
    of multiplication by f' on the power basis, an n x n matrix where the
    Sylvester matrix is (2n - 1)-square.
    """
    if not f.is_monic():
        raise ValueError("discriminant requires a monic polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("discriminant requires degree >= 2")
    c = f.coeffs
    col = [i * c[i] for i in range(1, n + 1)]     # f' on 1, T, ..., T^(n-1)
    cols = []
    for _ in range(n):                            # T^j f' mod f, j = 0..n-1
        cols.append(col)
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [a - top * b for a, b in zip(col, c)]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * det_bareiss(cols)


def _divide(f: IntPolynomial, g: IntPolynomial, scale: int = 1):
    """Quotient and remainder of ``scale * f`` by g over Z.

    The one division loop: divmod by a monic g (scale 1) and the
    pseudo-remainders of the Sturm chain (an even power of lc(g)). Raises
    ArithmeticError when a step is inexact.
    """
    r = [scale * c for c in f.coeffs]
    dg, lead = g.degree, g.leading()
    q = [0] * max(0, len(r) - dg)
    while len(r) > dg:
        c, rest = divmod(r[-1], lead)
        if rest:
            raise ArithmeticError("inexact division over Z")
        d = len(r) - 1 - dg
        q[d] = c
        for i, gv in enumerate(g.coeffs):
            r[i + d] -= c * gv
        while r and r[-1] == 0:
            r.pop()
    return IntPolynomial(q), IntPolynomial(r)


# ---- Sturm sequences -----------------------------------------------------


class NotSquarefreeError(ValueError):
    """Raised for inputs with repeated roots, which have no Sturm chain."""


def sturm_sequence(f: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of f, integer-scaled by positive factors.

    The chain is the one remainder sequence of f and f': its last element is
    gcd(f, f') up to a constant, so NotSquarefreeError is raised when that
    element is not constant.
    """
    seq = [f, f.derivative()]
    while seq[-1].degree > 0:
        a, b = seq[-2], seq[-1]
        # even positive power keeps the sign pattern of the exact remainder
        scale = b.leading() ** (2 * ((a.degree - b.degree + 2) // 2))
        rem = _divide(a, b, scale)[1]
        if rem.is_zero():
            raise NotSquarefreeError(f"{f.format()} has repeated roots")
        g = rem.content()
        seq.append(IntPolynomial([-c // g for c in rem.coeffs]))
    return seq


def _sign_variations(vals) -> int:
    signs = [v for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def sturm_count(chain: list[IntPolynomial], a: Fraction | None,
                b: Fraction | None) -> int:
    """Number of real roots in (a, b] of the polynomial whose Sturm chain is
    ``chain``; None means +-infinity."""
    def variations(x, sign):
        if x is not None:
            return _sign_variations([_sign_at(p, x) for p in chain])
        # the sign of each p at +-infinity: that of its leading term
        return _sign_variations([p.leading() * (sign if p.degree % 2 else 1)
                                 for p in chain])

    return variations(a, -1) - variations(b, 1)


# ---- irreducibility -------------------------------------------------------


def _factors(f: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Irreducible factors over Z with multiplicities (Zassenhaus, via sympy),
    ordered by degree, then multiplicity, then coefficients."""
    _, factors = dup_zz_factor([ZZ(c) for c in reversed(f.coeffs)], ZZ)
    return [(IntPolynomial([int(c) for c in reversed(g)]), k) for g, k in factors]


_DIVISOR_LIMIT = 10 ** 10


def integer_roots(f: IntPolynomial) -> list[int]:
    """All integer roots (for monic f these are all rational roots).

    Divisors of the constant term when it is at most 10^10 in size, else the
    linear factors T - r of the factorization over Z.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    c0 = f.coeffs[0]
    if c0 == 0:
        return sorted({0, *integer_roots(IntPolynomial(f.coeffs[1:]))})
    if abs(c0) <= _DIVISOR_LIMIT:
        return sorted(r for d in divisors(abs(c0)) for r in (d, -d) if f(r) == 0)
    return _linear_roots(_factors(f))


def _linear_roots(factors) -> list[int]:
    """The roots r of the factors T - r in a factor list over Z, sorted."""
    return sorted(-g.coeffs[0] for g, _ in factors if g.coeffs[1:] == (1,))


def _sign_at(f: IntPolynomial, q: "Fraction|int") -> int:
    """The sign of f(a/b) for q = a/b, b > 0: that of sum c_i a^i b^(n-i),
    in integers."""
    a, b = q.numerator, q.denominator
    acc, bp = f.leading(), 1
    for c in reversed(f.coeffs[:-1]):
        bp *= b
        acc = acc * a + c * bp
    return (acc > 0) - (acc < 0)


def is_irreducible(f: IntPolynomial) -> tuple[bool, IntPolynomial | None]:
    """Irreducibility over Q for monic f; returns (flag, witness_factor_or_None).

    The integer-root test is conclusive through degree 3 and gives a linear
    witness; higher degrees without an integer root take one factorization
    over Z, whose first factor is the witness.  A constant term above 10^10
    is factored once, up front, and the integer roots are read off that list.
    """
    if not f.is_monic():
        raise ValueError("irreducibility test expects a monic polynomial")
    n = f.degree
    if n <= 0:
        return False, None
    if n == 1:
        return True, None
    factors = _factors(f) if abs(f.coeffs[0]) > _DIVISOR_LIMIT else None
    roots = integer_roots(f) if factors is None else _linear_roots(factors)
    if roots:
        return False, IntPolynomial([-roots[0], 1])
    if n <= 3:
        return True, None
    factors = factors or _factors(f)
    if len(factors) == 1 and factors[0][1] == 1:
        return True, None
    return False, factors[0][0]
