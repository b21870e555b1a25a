"""Univariate integer polynomials: exact arithmetic, resultants, Sturm counts.

Coefficients are stored ascending; the polynomial variable is written ``T``
in the text format (``T^3 - T + 1``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

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
        """Horner evaluation; works for ints, Fractions, and ball types."""
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

    def primitive(self) -> IntPolynomial:
        g = self.content()
        if g <= 1:
            return self if self.leading() > 0 else -self
        p = IntPolynomial([c // g for c in self.coeffs])
        return p if p.leading() > 0 else -p

    def shift(self, a: int) -> IntPolynomial:
        """Compose with T + a."""
        out = IntPolynomial([self.coeffs[-1]]) if self.coeffs else IntPolynomial([])
        base = IntPolynomial([a, 1])
        for c in reversed(self.coeffs[:-1]):
            out = out * base + IntPolynomial([c])
        return out

    def divmod_monic(self, g: IntPolynomial):
        """Quotient and remainder by a monic divisor, exact over Z."""
        if not g.is_monic():
            raise ValueError("divisor must be monic")
        r = list(self.coeffs)
        dg = g.degree
        q = [0] * max(1, len(r) - dg)
        while len(r) > dg:
            c = r[-1]
            d = len(r) - 1 - dg
            q[d] = c
            for i, gv in enumerate(g.coeffs):
                r[i + d] -= c * gv
            while r and r[-1] == 0:
                r.pop()
        return IntPolynomial(q), IntPolynomial(r)

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
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f of degree >= 2."""
    if not f.is_monic():
        raise ValueError("discriminant requires a monic polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("discriminant requires degree >= 2")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative())


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z (positive leading coefficient)."""
    a, b = f, g
    if a.degree < b.degree:
        a, b = b, a
    if b.is_zero():
        return a.primitive()
    a = a.primitive()
    b = b.primitive()
    while not b.is_zero():
        # pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b
        d = a.degree - b.degree
        if d < 0:
            a, b = b, a
            continue
        scaled = a * (b.leading() ** (d + 1))
        r = list(scaled.coeffs)
        while len(r) - 1 >= b.degree and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < b.degree:
                break
            c = r[-1]
            if c % b.leading():
                raise ArithmeticError("pseudo-division failure")
            q = c // b.leading()
            off = len(r) - 1 - b.degree
            for i, bv in enumerate(b.coeffs):
                r[i + off] -= q * bv
        rem = IntPolynomial(r)
        a, b = b, rem.primitive() if not rem.is_zero() else rem
    return a.primitive()


def is_squarefree(f: IntPolynomial) -> bool:
    return poly_gcd(f, f.derivative()).degree == 0


# ---- Sturm sequences -----------------------------------------------------


def sturm_sequence(f: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of a squarefree polynomial, integer-scaled by positive factors."""
    seq = [f, f.derivative()]
    while seq[-1].degree > 0:
        a, b = seq[-2], seq[-1]
        d = a.degree - b.degree
        lead = b.leading()
        # even positive power keeps the sign pattern of the exact remainder
        scale = lead ** (2 * ((d + 2) // 2))
        r = list((a * scale).coeffs)
        while len(r) - 1 >= b.degree and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < b.degree:
                break
            c = r[-1]
            q, rr = divmod(c, lead)
            if rr:
                raise ArithmeticError("Sturm pseudo-division failure")
            off = len(r) - 1 - b.degree
            for i, bv in enumerate(b.coeffs):
                r[i + off] -= q * bv
        rem = IntPolynomial(r)
        if rem.is_zero():
            break
        nxt = -rem
        g = nxt.content()
        if g > 1:
            nxt = IntPolynomial([c // g for c in nxt.coeffs])
        seq.append(nxt)
    return seq


def _sign_variations(vals) -> int:
    signs = [v for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def sturm_count(f: IntPolynomial, a: Fraction | None, b: Fraction | None) -> int:
    """Number of real roots of squarefree ``f`` in (a, b]; None means +-infinity."""
    seq = sturm_sequence(f)

    def vals_at(x):
        if x is None:
            return None
        return [p(Fraction(x)) for p in seq]

    def vals_at_inf(sign):
        out = []
        for p in seq:
            if p.is_zero():
                out.append(0)
            else:
                lc = p.leading()
                out.append(lc if (sign > 0 or p.degree % 2 == 0) else -lc)
        return out

    va = vals_at(a) if a is not None else vals_at_inf(-1)
    vb = vals_at(b) if b is not None else vals_at_inf(+1)
    return _sign_variations(va) - _sign_variations(vb)


def count_real_roots(f: IntPolynomial) -> int:
    return sturm_count(f, None, None)


# ---- irreducibility -------------------------------------------------------


def integer_roots(f: IntPolynomial) -> list[int]:
    """All integer roots (for monic f these are all rational roots)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    c0 = f.coeffs[0]
    if c0 == 0:
        base = [0]
        g = IntPolynomial(f.coeffs[1:] if len(f.coeffs) > 1 else [])
        return sorted(set(base + (integer_roots(g) if not g.is_zero() else [])))
    if abs(c0) <= 10 ** 10 or not f.is_monic():
        return sorted(r for r in _divisors_signed(c0) if f(r) == 0)
    return _integer_roots_bisect(f)


def _integer_roots_bisect(f: IntPolynomial) -> list[int]:
    """Integer roots of a monic f whose constant term is too big to factor.

    Sturm-isolates the real roots of the squarefree part on half-integer
    endpoints, then binary-searches the one integer candidate per interval.
    """
    g = f
    d = poly_gcd(f, f.derivative())
    if d.degree > 0:
        g, rem = f.divmod_monic(d)
        assert rem.is_zero()
    lead = abs(g.leading())
    M = 1 + max(abs(c) for c in g.coeffs[:-1]) // lead + 1
    half = Fraction(1, 2)
    total = sturm_count(g, -M - half, M + half)
    work = [(-M - half, M + half, total)]
    roots = []
    while work:
        a, b, cnt = work.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            lo, hi = a, b
            s_lo = _sign_at(g, lo)
            while hi - lo > 1:
                m = Fraction(int((lo + hi) / 2)) + half
                if _sign_at(g, m) == s_lo:
                    lo = m
                else:
                    hi = m
            # at most one integer sits strictly inside (lo, hi)
            cand = int(lo + half)
            if g(cand) == 0:
                roots.append(cand)
            continue
        mid = Fraction(int((a + b) / 2)) + half
        if not (a < mid < b):
            mid = (a + b) / 2
            if mid.denominator == 1:
                mid += Fraction(1, 4) if mid + Fraction(1, 4) < b else -Fraction(1, 4)
        left = sturm_count(g, a, mid)
        work.append((a, mid, left))
        work.append((mid, b, cnt - left))
    return sorted(roots)


def _sign_at(f: IntPolynomial, q: "Fraction|int") -> int:
    v = f(q)
    return (v > 0) - (v < 0)


def _divisors_signed(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend([d, -d, n // d, -(n // d)])
        d += 1
    return sorted(set(out))


def _gf_normalize(p, q):
    p = [c % q for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _gf_mulmod(a, b, f, q):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] = (out[i + j] + av * bv) % q
    return _gf_rem(out, f, q)


def _gf_rem(a, f, q):
    a = a[:]
    df = len(f) - 1
    inv = pow(f[-1], -1, q)
    while len(a) - 1 >= df and any(a):
        while a and a[-1] % q == 0:
            a.pop()
        if len(a) - 1 < df:
            break
        c = (a[-1] * inv) % q
        off = len(a) - 1 - df
        for i, fv in enumerate(f):
            a[i + off] = (a[i + off] - c * fv) % q
    return _gf_normalize(a, q)


def _gf_gcd(a, b, q):
    a, b = _gf_normalize(a, q), _gf_normalize(b, q)
    while b:
        a, b = b, _gf_rem(a, b, q)
    if a:
        inv = pow(a[-1], -1, q)
        a = [(c * inv) % q for c in a]
    return a


def _gf_powmod_x(e, f, q):
    """x^e modulo f over F_q."""
    result = [1]
    base = _gf_rem([0, 1], f, q)
    while e:
        if e & 1:
            result = _gf_mulmod(result, base, f, q)
        e >>= 1
        if e:
            base = _gf_mulmod(base, base, f, q)
    return result


def _factor_degrees_mod_p(f: IntPolynomial, p: int) -> list[int] | None:
    """Multiset of irreducible factor degrees of f mod p; None if f mod p is unusable."""
    fp = [c % p for c in f.coeffs]
    if not fp or fp[-1] % p == 0:
        return None
    dfp = [(i * c) % p for i, c in enumerate(fp)][1:]
    if not any(dfp):
        return None
    if len(_gf_gcd(fp, dfp, p)) > 1:
        return None  # not squarefree mod p
    degrees = []
    rest = fp[:]
    d = 0
    while len(rest) - 1 > 0:
        d += 1
        if 2 * d > len(rest) - 1:
            degrees.append(len(rest) - 1)
            break
        w = _gf_powmod_x(p ** d, rest, p)
        xs = [0, 1]
        diff = [0] * max(len(w), 2)
        for i, c in enumerate(w):
            diff[i] = c
        for i, c in enumerate(xs):
            diff[i] = (diff[i] - c) % p
        diff = _gf_normalize(diff, p)
        g = _gf_gcd(rest, diff, p)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            rest = _gf_quotient(rest, g, p)
    return sorted(degrees)


def _gf_quotient(a, b, q):
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, q)
    while len(a) >= len(b) and any(a):
        while a and a[-1] % q == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = (a[-1] * inv) % q
        off = len(a) - len(b)
        out[off] = c
        for i, bv in enumerate(b):
            a[i + off] = (a[i + off] - c * bv) % q
    return _gf_normalize(out, q)


_WITNESS_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_irreducible(f: IntPolynomial) -> tuple[bool, IntPolynomial | None]:
    """Irreducibility over Q for monic f; returns (flag, witness_factor_or_None).

    Strategy: rational-root test (conclusive through degree 3), then modular
    factor-degree patterns, then a full factorization fallback for the rare
    undecided inputs.
    """
    if not f.is_monic():
        raise ValueError("irreducibility test expects a monic polynomial")
    n = f.degree
    if n <= 0:
        return False, None
    if n == 1:
        return True, None
    roots = integer_roots(f)
    if roots:
        return False, IntPolynomial([-roots[0], 1])
    if n <= 3:
        return True, None
    # modular degree-pattern sieve
    possible = set(range(1, n))
    checked = 0
    for p in _WITNESS_PRIMES:
        degs = _factor_degrees_mod_p(f, p)
        if degs is None:
            continue
        checked += 1
        sums = _subset_sums(degs)
        possible &= sums
        if not possible:
            return True, None
        if checked >= 6:
            break
    # fall back to an actual factorization
    import sympy

    x = sympy.Symbol("x")
    expr = sum(int(c) * x ** i for i, c in enumerate(f.coeffs))
    factors = sympy.factor_list(sympy.Poly(expr, x))[1]
    if len(factors) == 1 and factors[0][1] == 1:
        return True, None
    g = factors[0][0]
    coeffs = [int(v) for v in reversed(sympy.Poly(g, x).all_coeffs())]
    return False, IntPolynomial(coeffs)


def _subset_sums(degs) -> set[int]:
    total = sum(degs)
    sums = {0}
    for d in degs:
        sums |= {s + d for s in sums}
    sums.discard(0)
    sums.discard(total)
    return sums
