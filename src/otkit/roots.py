"""Certified root isolation: Sturm bisection over Q, then Newton's method
and one Krawczyk certificate.

Real roots are isolated exactly by one Sturm chain (rational sign-change
intervals, with integer roots made exact).  Complex conjugate pairs start
from floating-point seeds in the upper half plane; the global count
``s + 2t = deg f`` makes the certification exhaustive.  Both kinds are
brought to full width the same way: Newton's method on a point, at a
precision that doubles each step, then one Krawczyk test proves a small
ball around the result.  Should that test fail, a Krawczyk contraction of
the enclosure (or, for a seed, of the smallest square it certifies) does
the work instead.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .balls import ComplexBall, RealBall
from .config import PrecisionError, precision, working_precision
from .polynomials import IntPolynomial, _sign_at, integer_roots, sturm_count, sturm_sequence


MAX_STEPS = 200     # contraction steps per root before refinement gives up


def _parts(z) -> tuple[RealBall, ...]:
    return (z,) if isinstance(z, RealBall) else (z.re, z.im)


def _of_kind(z, parts):
    """A real or complex ball like ``z`` from its parts."""
    return parts[0] if isinstance(z, RealBall) else ComplexBall(*parts)


def _rounded(z):
    """``z`` rounded outward to the working precision (by interval unary plus)."""
    return _of_kind(z, [+b for b in _parts(z)])


def _cauchy_bound(f: IntPolynomial) -> int:
    lead = abs(f.leading())
    m = max(abs(c) for c in f.coeffs[:-1]) if f.degree > 0 else 0
    return 1 + (m + lead - 1) // lead + 1


def _isolate_real(f: IntPolynomial, chain) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals (a, b] for all real roots of f, whose
    Sturm chain is ``chain``."""
    total = sturm_count(chain, None, None)
    if total == 0:
        return []
    M = _cauchy_bound(f)
    work = [(Fraction(-M), Fraction(M), total)]
    done = []
    while work:
        a, b, cnt = work.pop()
        if cnt == 1:
            done.append((a, b))
            continue
        m = (a + b) / 2
        left = sturm_count(chain, a, m)
        if left:
            work.append((a, m, left))
        if cnt - left:
            work.append((m, b, cnt - left))
    done.sort()
    return done


def _bisect(f: IntPolynomial, lo: Fraction, hi: Fraction, narrow):
    """Halve the dyadic interval (lo, hi], which holds one root of f, a
    simple and irrational one, until ``narrow(a, b, k)`` holds for its ends
    a / 2^k and b / 2^k.  The halving runs on those integer numerators."""
    k = max(lo.denominator, hi.denominator).bit_length() - 1
    a, b = int(lo * (1 << k)), int(hi * (1 << k))
    s_hi = _sign_at(f, b, k)     # lo may be another root of f; hi is none
    while not narrow(a, b, k):
        m, a, b, k = a + b, 2 * a, 2 * b, k + 1
        if _sign_at(f, m, k) == s_hi:
            b = m
        else:
            a = m
    return Fraction(a, 1 << k), Fraction(b, 1 << k)


def _quarter(f: IntPolynomial, z: RealBall) -> RealBall:
    """A quarter of the real enclosure z that still holds its root: two exact
    bisection steps."""
    lo, hi = (Fraction(*to_rational(x._mpf_)) for x in (z.lower, z.upper))
    w = (hi - lo) / 4
    return RealBall.from_endpoints(*_bisect(f, lo, hi,
                                            lambda a, b, k: Fraction(b - a, 1 << k) <= w))


def _target(bits: int, z) -> mpf:
    """Width goal for the root in the enclosure z: 2^-bits, relative above 1."""
    ends = [abs(x) for b in _parts(z) for x in (b.lower, b.upper)]
    return mpf(2) ** (-bits) * int(max(1, *ends))


def _width(z) -> mpf:
    return 2 * max(b.rad() for b in _parts(z))


def _krawczyk(f, fp, z):
    """The Krawczyk image K of a real or complex enclosure z, or None when
    f'(z) is centred on zero.

    K = m - y f(m) + (1 - y f'(z)) (z - m) with m the midpoint of z, rounded
    outward, and y the inverse of the midpoint of f'(z), both at the working
    precision, so each step about doubles the correct bits; the interval
    terms make K hold every root in z, and K inside the interior of z proves
    exactly one (R. Krawczyk, Computing 4, 1969).
    """
    D = fp(z)
    with mp.workprec(working_precision()):
        c = [b.mid() for b in _parts(D)]
        det = sum(x * x for x in c)
        if det == 0:
            return None
        # y = 1 / c = conj(c) / |c|^2
        y = _of_kind(z, [RealBall(c[0] / det)] + [RealBall(-x / det) for x in c[1:]])
    m = _rounded(_of_kind(z, [RealBall(b.mid()) for b in _parts(z)]))
    return m - y * f(m) + (1 - y * D) * (z - m)


def _proof(f, fp, z):
    """The Krawczyk image of z when it lies inside z's interior, else None."""
    K = _krawczyk(f, fp, z)
    if K is not None and all(b.lower < k.lower and k.upper < b.upper
                             for b, k in zip(_parts(z), _parts(K))):
        return K
    return None


def _meet(z, K):
    parts = []
    for b, k in zip(_parts(z), _parts(K)):
        lo, hi = max(b.lower, k.lower), min(b.upper, k.upper)
        if lo > hi:
            raise ArithmeticError("root enclosure became empty")
        parts.append(RealBall.from_endpoints(lo, hi))
    return _of_kind(z, parts)


def _contract(f, fp, z, target):
    """Iterate z <- K ∩ z until z is narrower than ``target``; a real z that a
    step narrows by less than a quarter is quartered by exact bisection."""
    for _ in range(MAX_STEPS):
        width = _width(z)
        if width < target:
            return z
        K = _krawczyk(f, fp, z)
        if K is not None:
            z = _meet(z, K)
        if isinstance(z, RealBall) and _width(z) > width * 3 / 4:
            z = _quarter(f, z)
    raise PrecisionError(f"Krawczyk contraction did not reach {mp.nstr(target, 5)}")


def _newton(f, fp, x):
    """The point x (mpf or mpc) after Newton's steps at the rungs of a ladder
    that halves down from the working precision, lowest first, and one more
    at the top: each step about doubles the correct bits."""
    rungs = [working_precision()]
    while rungs[-1] >= 64:
        rungs.append(rungs[-1] // 2)
    for bits in [*reversed(rungs), rungs[0]]:
        with mp.workprec(bits):
            x = x - f(x) / fp(x)
    return x


def _certified(f, fp, x, target, fits):
    """The ball of width target/2 about the point that Newton's method
    reaches from x, met with its Krawczyk image, which then lies inside the
    ball's interior and so proves exactly one root of f in it.  None when a
    Newton step meets f' = 0, when the ball fails ``fits`` or when the
    image does not lie inside."""
    try:
        x = _newton(f, fp, x)
    except ZeroDivisionError:
        return None
    with mp.workprec(working_precision()):
        parts = [RealBall.from_endpoints(c - target / 4, c + target / 4)
                 for c in ((x,) if isinstance(x, mpf) else (x.real, x.imag))]
    ball = parts[0] if len(parts) == 1 else ComplexBall(*parts)
    if not fits(ball):
        return None
    K = _proof(f, fp, ball)
    return _meet(ball, K) if K is not None else None


def _refined(f, fp, z, target):
    """The root enclosure z narrowed below ``target``: a certificate inside z
    from its midpoint, else ``_contract``."""
    if _width(z) < target:
        return z
    x = z.mid() if isinstance(z, RealBall) else mp.mpc(z.re.mid(), z.im.mid())
    fine = _certified(f, fp, x, target,
                      lambda b: all(p.contains(q) for p, q in zip(_parts(z), _parts(b))))
    return fine if fine is not None else _contract(f, fp, z, target)


def _polish(f: IntPolynomial, roots, bits: int) -> list:
    """Every enclosure of a root of f narrowed to about 2^-(bits+16)
    relative width: the one path behind isolation and refinement."""
    fp = f.derivative()
    with precision(bits + 48):
        return [_refined(f, fp, z, _target(bits + 16, z)) for z in roots]


def _seeded(f, fp, z: complex, bits: int) -> ComplexBall:
    """A certified box of width about 2^-(bits+16), relative above 1, around
    the root of f near the float seed z in the upper half plane: a
    certificate from z, else ``_box`` then ``_contract``."""
    target = mpf(2) ** -(bits + 16) * int(max(1, abs(z.real), abs(z.imag)))
    with precision(bits + 48):
        fine = _certified(f, fp, mp.mpc(z), target, lambda b: b.im.is_positive())
    if fine is not None:
        return fine
    with precision(max(bits, 64) + 32):
        box = _box(f, fp, z)
    with precision(bits + 48):
        return _contract(f, fp, box, _target(bits + 16, box))


def _complex_seeds(f: IntPolynomial, t: int) -> list[complex]:
    def upper(roots):
        return sorted((complex(z) for z in roots if z.imag > 0),
                      key=lambda z: (z.real, z.imag))

    try:
        rr = np.roots([float(c) for c in reversed(f.coeffs)])
        if np.all(np.isfinite(rr)):
            ups = upper(rr)
            if len(ups) == t:
                return ups
    except (OverflowError, np.linalg.LinAlgError):
        pass    # a coefficient beyond the float range, or no eigenvalues
    # high-precision fallback, scaled to the coefficient size
    coeff_bits = max(abs(c).bit_length() for c in f.coeffs) + 128
    with mp.workprec(max(192, coeff_bits)):
        rr = mp.polyroots([mp.mpf(c) for c in reversed(f.coeffs)],
                          maxsteps=500, extraprec=coeff_bits)
        return upper([complex(z) for z in rr])


def _box(f, fp, z: complex) -> ComplexBall:
    """The smallest square around a float seed that the Krawczyk test certifies."""
    for scale in (1e-8, 1e-6, 1e-4, 1e-2, 1e-1):
        h = max(abs(z), 1.0) * scale
        if z.imag - h <= 0:
            continue
        box = ComplexBall(RealBall.from_endpoints(z.real - h, z.real + h),
                          RealBall.from_endpoints(z.imag - h, z.imag + h))
        if _proof(f, fp, box) is not None:
            return box
    raise ArithmeticError(f"could not certify a complex root near {z}")


def isolate_roots(f: IntPolynomial, bits: int | None = None) -> list:
    """Certified, disjoint enclosures for every root of monic squarefree ``f``,
    narrowed to about 2^-(bits+16): a RealBall per real root, ascending,
    then a ComplexBall per upper complex root; NotSquarefreeError from its
    Sturm chain otherwise."""
    if not f.is_monic():
        raise ValueError("root isolation expects a monic polynomial")
    if f.degree < 1:
        raise ValueError("root isolation expects degree >= 1")
    chain = sturm_sequence(f)
    bits = bits or working_precision()

    def coarse(a, b, k):
        return (b - a) << 16 <= max(1 << k, abs(a), abs(b))

    exact = integer_roots(f)
    real = []
    with precision(bits + 48):
        for lo, hi in _isolate_real(f, chain):
            r = next((r for r in exact if lo < r <= hi), None)
            real.append(RealBall(r) if r is not None
                        else RealBall.from_endpoints(*_bisect(f, lo, hi, coarse)))

    s = len(real)
    n = f.degree
    if (n - s) % 2:
        raise ArithmeticError("real root count inconsistent with the degree")
    t = (n - s) // 2

    boxes = []
    if t:
        seeds = _complex_seeds(f, t)
        if len(seeds) != t:
            raise ArithmeticError("could not seed the complex roots")
        fp = f.derivative()
        boxes = [_seeded(f, fp, z, bits) for z in seeds]
    real = _polish(f, real, bits)
    upper = sorted(boxes, key=lambda z: (z.re.lower, z.re.upper, z.im.lower, z.im.upper))
    # disjointness across all enclosures is a hard guarantee
    for z, w in combinations(upper, 2):
        if z.re.overlaps(w.re) and z.im.overlaps(w.im):
            raise ArithmeticError("complex enclosures overlap")
    return real + upper
