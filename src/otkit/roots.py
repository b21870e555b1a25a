"""Certified root isolation: Sturm bisection over Q plus Krawczyk rectangles.

Real roots are isolated exactly (rational sign-change intervals, with exact
rational roots split off first), then polished by interval Newton.  Complex
conjugate pairs start from floating-point seeds and are certified by a
Krawczyk test on a rectangle in the upper half plane; the global count
``s + 2t = deg f`` makes the certification exhaustive.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .balls import ComplexBall, RealBall
from .config import PrecisionError, precision, working_precision
from .polynomials import (IntPolynomial, _sign_at, integer_roots, is_squarefree,
                          sturm_count)


MAX_STEPS = 200     # contraction steps per root before refinement gives up


class NotSquarefreeError(ValueError):
    """Raised for inputs with repeated roots, which cannot be isolated."""


def _ball(lo, hi) -> RealBall:
    """Outward enclosure of the rational interval [lo, hi] at the working precision."""
    return RealBall.from_endpoints(RealBall(lo).lower, RealBall(hi).upper)


class EmbeddingSet:
    """Certified enclosures of all roots of a squarefree monic polynomial."""

    def __init__(self, poly: IntPolynomial, precision_bits: int,
                 real_intervals, complex_rects):
        self.poly = poly
        self.precision_bits = precision_bits
        self._real_intervals = real_intervals    # list[(Fraction lo, Fraction hi)]
        self._complex_rects = complex_rects      # list[(Fraction,)*4], im > 0
        with precision(precision_bits):
            self.real = [_ball(lo, hi) for lo, hi in real_intervals]
            self.complex_upper = [ComplexBall(_ball(a, b), _ball(c, d))
                                  for a, b, c, d in complex_rects]

    @property
    def s(self) -> int:
        return len(self.real)

    @property
    def t(self) -> int:
        return len(self.complex_upper)

    def refine(self, precision_bits: int) -> "EmbeddingSet":
        """A new set with every enclosure tightened to the requested precision."""
        if precision_bits <= self.precision_bits:
            return self
        return _polish(self.poly, self._real_intervals, self._complex_rects,
                       precision_bits)

    def __repr__(self):
        return (f"EmbeddingSet({self.poly.format()!r}, s={self.s}, t={self.t}, "
                f"bits={self.precision_bits})")


def _mpf_to_fraction(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


def _cauchy_bound(f: IntPolynomial) -> int:
    lead = abs(f.leading())
    m = max(abs(c) for c in f.coeffs[:-1]) if f.degree > 0 else 0
    return 1 + (m + lead - 1) // lead + 1


def _isolate_real(f: IntPolynomial) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open isolating intervals for all real roots of f (no rational roots)."""
    total = sturm_count(f, None, None)
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
        left = sturm_count(f, a, m)
        if left:
            work.append((a, m, left))
        if cnt - left:
            work.append((m, b, cnt - left))
    done.sort()
    return done


def _bisect(f: IntPolynomial, lo: Fraction, hi: Fraction, narrow):
    """Halve the isolating interval [lo, hi] until ``narrow(lo, hi)`` holds."""
    s_lo = _sign_at(f, lo)
    while not narrow(lo, hi):
        m = (lo + hi) / 2
        if _sign_at(f, m) == s_lo:
            lo = m
        else:
            hi = m
    return lo, hi


def _target(bits: int, ends) -> mpf:
    """Width goal for a root enclosed by ``ends``: 2^-bits, relative above 1."""
    return mpf(2) ** (-bits) * int(max(1, *map(abs, ends)))


def _meet(x: RealBall, y: RealBall) -> tuple[mpf, mpf]:
    lo, hi = max(x.lower, y.lower), min(x.upper, y.upper)
    if lo > hi:
        raise ArithmeticError("root enclosure became empty")
    return lo, hi


def _newton(f, fp, lo: Fraction, hi: Fraction, target):
    """Contract an isolating interval below ``target`` by interval Newton."""
    for _ in range(MAX_STEPS):
        Z = _ball(lo, hi)
        if Z.rad() * 2 < target:
            return lo, hi
        der = fp(Z)
        if not der.contains_zero():
            m = _mpf_to_fraction(Z.mid())
            width = hi - lo
            lo, hi = map(_mpf_to_fraction, _meet(Z, RealBall(m) - RealBall(f(m)) / der))
            if hi - lo <= width * 3 / 4:
                continue
        # f' may vanish on Z, or Newton contracts slowly: two bisection steps
        w = (hi - lo) / 4
        lo, hi = _bisect(f, lo, hi, lambda a, b: b - a <= w)
    raise PrecisionError(f"interval Newton did not reach {mp.nstr(target, 5)}")


def _krawczyk(f, fp, rect) -> tuple[ComplexBall, ComplexBall] | None:
    """The Krawczyk image K of a rectangle Z, and Z; None when f'(Z) is
    centred on zero.

    K = m - y f(m) + (1 - y f'(Z)) (Z - m) with m the midpoint of Z and y the
    inverse of the midpoint of f'(Z) at the working precision, so each step
    about doubles the correct bits; the interval terms make K hold every root
    in Z, and K inside the interior of Z proves exactly one.
    """
    a, b, c, d = rect
    Z = ComplexBall(_ball(a, b), _ball(c, d))
    m = ComplexBall(RealBall(_mpf_to_fraction(Z.re.mid())),
                    RealBall(_mpf_to_fraction(Z.im.mid())))
    D = fp(Z)
    with mp.workprec(working_precision()):
        um, vm = D.re.mid(), D.im.mid()
        det = um * um + vm * vm
        if det == 0:
            return None
        y = ComplexBall(RealBall(um / det), RealBall(-vm / det))
    return m - y * f(m) + (1 - y * D) * (Z - m), Z


def _krawczyk_proves(f, fp, rect) -> bool:
    out = _krawczyk(f, fp, rect)
    if out is None:
        return False
    K, Z = out
    return (Z.re.lower < K.re.lower and K.re.upper < Z.re.upper
            and Z.im.lower < K.im.lower and K.im.upper < Z.im.upper)


def _krawczyk_contract(f, fp, rect, target):
    """Iterate Z <- K ∩ Z until both sides of the rectangle are below ``target``."""
    for _ in range(MAX_STEPS):
        out = _krawczyk(f, fp, rect)
        if out is None:
            raise ArithmeticError("Krawczyk refinement stalled")
        K, Z = out
        (a, b), (c, d) = _meet(Z.re, K.re), _meet(Z.im, K.im)
        rect = tuple(map(_mpf_to_fraction, (a, b, c, d)))
        if (b - a) < target and (d - c) < target:
            return rect
    raise PrecisionError(f"Krawczyk refinement did not reach {mp.nstr(target, 5)}")


def _polish(f: IntPolynomial, real_intervals, complex_rects, bits: int) -> EmbeddingSet:
    """Tighten isolating intervals and certified rectangles of every root of f
    to about 2^-bits relative width: the one path behind isolation and refinement."""
    fp = f.derivative()

    def coarse(a, b):
        return b - a <= max(Fraction(1), abs(a), abs(b)) / (1 << 16)

    real, rects = [], []
    with precision(bits + 48):
        for lo, hi in real_intervals:
            if lo != hi:
                lo, hi = _bisect(f, lo, hi, coarse)
                lo, hi = _newton(f, fp, lo, hi, _target(bits + 16, (lo, hi)))
            real.append((lo, hi))
        for rect in complex_rects:
            rects.append(_krawczyk_contract(f, fp, rect, _target(bits + 16, rect)))
    real.sort()
    rects.sort()
    # disjointness across all enclosures is a hard guarantee
    for (a1, b1, c1, d1), (a2, b2, c2, d2) in combinations(rects, 2):
        if not (b1 < a2 or b2 < a1 or d1 < c2 or d2 < c1):
            raise ArithmeticError("complex enclosures overlap")
    return EmbeddingSet(f, bits, real, rects)


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
    except Exception:
        pass
    # high-precision fallback, scaled to the coefficient size
    coeff_bits = max(abs(c).bit_length() for c in f.coeffs) + 128
    with mp.workprec(max(192, coeff_bits)):
        rr = mp.polyroots([mp.mpf(c) for c in reversed(f.coeffs)],
                          maxsteps=500, extraprec=coeff_bits)
        return upper([complex(z) for z in rr])


def _box(f, fp, z: complex) -> tuple:
    """The smallest square around a float seed that the Krawczyk test certifies."""
    for scale in (1e-8, 1e-6, 1e-4, 1e-2, 1e-1):
        h = max(abs(z), 1.0) * scale
        if z.imag - h <= 0:
            continue
        rect = tuple(map(Fraction, (z.real - h, z.real + h, z.imag - h, z.imag + h)))
        if _krawczyk_proves(f, fp, rect):
            return rect
    raise ArithmeticError(f"could not certify a complex root near {z}")


def isolate_roots(f: IntPolynomial, precision_bits: int | None = None) -> EmbeddingSet:
    """Certified, disjoint enclosures for every root of monic squarefree ``f``."""
    if not f.is_monic():
        raise ValueError("root isolation expects a monic polynomial")
    if f.degree < 1:
        raise ValueError("root isolation expects degree >= 1")
    if not is_squarefree(f):
        raise NotSquarefreeError(f"{f.format()} has repeated roots")
    bits = precision_bits or working_precision()

    exact = integer_roots(f)
    g = f
    for r in exact:
        g, rem = g.divmod_monic(IntPolynomial([-r, 1]))
        assert rem.is_zero()
    real = [(Fraction(r), Fraction(r)) for r in exact]
    if g.degree >= 1:
        real += _isolate_real(g)

    s = len(real)
    n = f.degree
    if (n - s) % 2:
        raise ArithmeticError("real root count inconsistent with the degree")
    t = (n - s) // 2

    rects = []
    if t:
        seeds = _complex_seeds(f, t)
        if len(seeds) != t:
            raise ArithmeticError("could not seed the complex roots")
        fp = f.derivative()
        with precision(max(bits, 64) + 32):
            rects = [_box(f, fp, z) for z in seeds]
    return _polish(f, real, rects, bits)
