"""Polynomials over F_p, p prime: Dedekind's criterion and roots mod q.

A polynomial is a list of Python ints in [0, p), constant term first, with
no trailing zeros, so the zero polynomial is ``[]`` and ``len(a) - 1`` is
the degree.  The routines are the classical ones (von zur Gathen and
Gerhard, *Modern Computer Algebra*, chapters 3 and 14): products reduced by
a monic modulus, Euclid's gcd, exact division, the radical through the
derivative and p-th roots, and the roots of a product of distinct linear
factors by equal-degree splitting.
"""

from __future__ import annotations

from itertools import zip_longest


def reduce(coeffs, p: int) -> list[int]:
    """The integer coefficients ``coeffs`` (constant term first) mod p."""
    out = [c % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def sub(a, b, p: int) -> list[int]:
    return reduce([x - y for x, y in zip_longest(a, b, fillvalue=0)], p)


def _mul(a, b) -> list[int]:
    """The product over Z of two nonzero coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _monic(a, p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the nonzero b."""
    m = len(b) - 1
    if len(a) <= m:
        return [], list(a)
    r = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - m)
    for i in range(len(a) - 1, m - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - m] = c
            for j in range(m):
                r[i - m + j] -= c * b[j]
    return q, reduce(r[:m], p)


def _sqrmod(a, f, p: int) -> list[int]:
    """a^2 reduced by the monic f, whose degree exceeds a's."""
    if not a:
        return []
    prod = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            prod[2 * i] += x * x
            x2 = 2 * x
            for j in range(i + 1, len(a)):
                prod[i + j] += x2 * a[j]
    n = len(f) - 1
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(n):
                prod[i - n + j] -= c * f[j]
    return reduce(prod[:n], p)


def xpow(e: int, f, p: int) -> list[int]:
    """x^e reduced by the monic f of degree at least 2: left-to-right binary
    powering, a squaring per bit of e and a shift by x per set bit."""
    n = len(f) - 1
    out = [1]
    for bit in bin(e)[2:]:
        out = _sqrmod(out, f, p)
        if bit == "1" and out:      # out is 0 once x^n = f divides x^i
            out = [0, *out]
            if len(out) > n:
                c = out.pop()
                out = reduce([u - c * v for u, v in zip(out, f)], p)
    return out


def gcd(a, b, p: int) -> list[int]:
    """The monic gcd of a and b; ``[]`` when both are zero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p) if a else []


def quo(a, b, p: int) -> list[int]:
    """a / b for a nonzero b that divides a; ArithmeticError otherwise."""
    q, r = _divmod(a, b, p)
    if r:
        raise ArithmeticError("inexact division in F_p[x]")
    return q


def radical(a, p: int) -> list[int]:
    """The product of the distinct monic irreducible factors of the monic a.

    In characteristic p, w = a / gcd(a, a') leaves out the factors whose
    multiplicity p divides.  What remains of c = gcd(a, a') once w's
    factors are divided out is a p-th power b(x)^p, and a with a' = 0 is
    one, b(x) = sum of a_(ip) x^i, so rad(a) = w rad(b)."""
    if len(a) == 1:
        return [1]
    da = reduce([i * c for i, c in enumerate(a)][1:], p)
    if not da:
        return radical(a[::p], p)
    c = gcd(a, da, p)
    w = quo(a, c, p)
    if len(a) <= p:     # no multiplicity reaches p
        return w
    while len(y := gcd(c, w, p)) > 1:
        c = quo(c, y, p)
    return reduce(_mul(w, radical(c, p)), p)


def _shifted(g, a: int, p: int) -> list[int]:
    """g(x + a), by Horner's rule."""
    out = []
    for c in reversed(g):     # out <- out (x + a) + c
        out = reduce([u + a * v for u, v in zip_longest([c, *out], out, fillvalue=0)], p)
    return out


def linear_roots(g, p: int) -> list[int]:
    """The roots, ascending, of a monic g that is a product of distinct
    linear factors.

    Over F_2 such a g of degree 2 is x^2 + x.  For odd p and e = (p - 1)/2,
    gcd(g(x - a), x^e - 1) keeps the roots r + a with r + a a nonzero
    square.  Some a in F_p splits any two roots, since the nonzero squares
    are not closed under adding the roots' difference, so trying a = 0, 1,
    2, ... ends.
    """
    if len(g) <= 2:
        return [-g[0] % p] if len(g) == 2 else []
    if p == 2:
        return [0, 1]
    e = (p - 1) // 2
    for a in range(p):
        ga = _shifted(g, -a, p)
        h = gcd(ga, sub(xpow(e, ga, p), [1], p), p)
        if 1 < len(h) < len(g):
            roots = linear_roots(h, p) + linear_roots(quo(ga, h, p), p)
            return sorted((r - a) % p for r in roots)
    raise ArithmeticError("not a product of distinct linear factors")
