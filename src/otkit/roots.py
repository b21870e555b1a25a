"""Certified root isolation: Sturm bisection over Q plus Krawczyk rectangles.

Real roots are isolated exactly (rational sign-change intervals, with exact
rational roots split off first), then polished by interval Newton.  Complex
conjugate pairs start from floating-point seeds and are certified by a
Krawczyk test on a rectangle in the upper half plane; the global count
``s + 2t = deg f`` makes the certification exhaustive.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from .balls import ComplexBall, RealBall
from .config import precision, working_precision
from .polynomials import (IntPolynomial, _sign_at, integer_roots, is_squarefree,
                          sturm_count)


class NotSquarefreeError(ValueError):
    """Raised for inputs with repeated roots, which cannot be isolated."""


class EmbeddingSet:
    """Certified enclosures of all roots of a squarefree monic polynomial."""

    def __init__(self, poly: IntPolynomial, precision_bits: int,
                 real_intervals, complex_rects):
        self.poly = poly
        self.precision_bits = precision_bits
        self._real_intervals = real_intervals    # list[(Fraction lo, Fraction hi)]
        self._complex_rects = complex_rects      # list[(Fraction,)*4], im > 0
        with precision(precision_bits):
            self.real = [RealBall.from_endpoints(RealBall(lo).lower, RealBall(hi).upper)
                         for lo, hi in real_intervals]
            self.complex_upper = [
                ComplexBall(RealBall.from_endpoints(RealBall(a).lower, RealBall(b).upper),
                            RealBall.from_endpoints(RealBall(c).lower, RealBall(d).upper))
                for a, b, c, d in complex_rects
            ]

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
        return isolate_roots(self.poly, precision_bits,
                             _seed_real=self._real_intervals,
                             _seed_complex=self._complex_rects)

    def __repr__(self):
        return (f"EmbeddingSet({self.poly.format()!r}, s={self.s}, t={self.t}, "
                f"bits={self.precision_bits})")


def _mpf_to_fraction(x) -> Fraction:
    if not hasattr(x, "_mpf_"):
        return Fraction(float(x))
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    m = -man if sign else man
    return Fraction(m << exp) if exp >= 0 else Fraction(m, 1 << -exp)


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


def _bisect_to(f: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction):
    s_lo = _sign_at(f, lo)
    while hi - lo > width:
        m = (lo + hi) / 2
        if _sign_at(f, m) == s_lo:
            lo = m
        else:
            hi = m
    return lo, hi


def _bisect_relative(f: IntPolynomial, lo: Fraction, hi: Fraction, rel_bits: int = 16):
    """Bisect until the width is small relative to the located root's scale."""
    s_lo = _sign_at(f, lo)
    while True:
        scale = max(Fraction(1), abs(lo), abs(hi))
        if hi - lo <= scale / (1 << rel_bits):
            return lo, hi
        m = (lo + hi) / 2
        if _sign_at(f, m) == s_lo:
            lo = m
        else:
            hi = m


def _newton_polish(f: IntPolynomial, lo: Fraction, hi: Fraction, bits: int):
    """Contract an isolating interval to ~2^-bits relative width by interval Newton."""
    fp = f.derivative()
    scale = max(1, abs(lo), abs(hi))
    target = mpf(2) ** (-bits) * int(scale) if scale > 1 else mpf(2) ** (-bits)
    with precision(bits + 32):
        for _ in range(200):
            Z = RealBall.from_endpoints(RealBall(lo).lower, RealBall(hi).upper)
            if Z.rad() * 2 < target:
                break
            m = _mpf_to_fraction(Z.mid())
            der = fp(Z)
            if der.contains_zero():
                lo, hi = _bisect_to(f, lo, hi, (hi - lo) / 4)
                continue
            N = RealBall(m) - RealBall(f(m)) / der
            new_lo = max(RealBall(lo).lower, N.lower)
            new_hi = min(RealBall(hi).upper, N.upper)
            if new_lo > new_hi:
                raise ArithmeticError("interval Newton produced an empty intersection")
            plo, phi = lo, hi
            lo, hi = _mpf_to_fraction(new_lo), _mpf_to_fraction(new_hi)
            if (phi - plo) and (hi - lo) > (phi - plo) * 3 / 4:
                lo, hi = _bisect_to(f, lo, hi, (hi - lo) / 4)
    return lo, hi


def _eval_complex(f: IntPolynomial, z: ComplexBall) -> ComplexBall:
    acc = ComplexBall(RealBall(f.coeffs[-1]), RealBall(0))
    for c in reversed(f.coeffs[:-1]):
        acc = acc * z + ComplexBall(RealBall(c), RealBall(0))
    return acc


def _krawczyk_step(f, fp, rect) -> tuple | None:
    """One Krawczyk contraction; returns the image rectangle, or None on failure."""
    a, b, c, d = rect
    Z = ComplexBall(RealBall.from_endpoints(RealBall(a).lower, RealBall(b).upper),
                    RealBall.from_endpoints(RealBall(c).lower, RealBall(d).upper))
    mx = _mpf_to_fraction(Z.re.mid())
    my = _mpf_to_fraction(Z.im.mid())
    m = ComplexBall(RealBall(mx), RealBall(my))
    Fm = _eval_complex(f, m)
    D = _eval_complex(fp, Z)
    u, v = D.re, D.im
    # midpoint Jacobian inverse (floats suffice; rigor comes from the interval terms)
    um, vm = u.mid(), v.mid()
    det = um * um + vm * vm
    if det == 0:
        return None
    y11, y12 = um / det, vm / det
    y21, y22 = -vm / det, um / det
    # K = m - Y F(m) + (I - Y J(Z)) (Z - m), with J(Z) = [[u, -v], [v, u]]
    r11 = RealBall(1) - (RealBall(y11) * u + RealBall(y12) * v)
    r12 = RealBall(y11) * v - RealBall(y12) * u
    r21 = -(RealBall(y21) * u + RealBall(y22) * v)
    r22 = RealBall(1) - (RealBall(y22) * u - RealBall(y21) * v)
    dx = Z.re - RealBall(mx)
    dy = Z.im - RealBall(my)
    kx = RealBall(mx) - (RealBall(y11) * Fm.re + RealBall(y12) * Fm.im) \
        + r11 * dx + r12 * dy
    ky = RealBall(my) - (RealBall(y21) * Fm.re + RealBall(y22) * Fm.im) \
        + r21 * dx + r22 * dy
    return kx, ky, Z


def _krawczyk_verify(f, fp, rect) -> bool:
    out = _krawczyk_step(f, fp, rect)
    if out is None:
        return False
    kx, ky, Z = out
    return (Z.re.lower < kx.lower and kx.upper < Z.re.upper
            and Z.im.lower < ky.lower and ky.upper < Z.im.upper)


def _krawczyk_contract(f, fp, rect, bits):
    scale = max(1, *(abs(v) for v in rect))
    target = mpf(2) ** (-bits) * int(scale) if scale > 1 else mpf(2) ** (-bits)
    with precision(bits + 32):
        for _ in range(200):
            out = _krawczyk_step(f, fp, rect)
            if out is None:
                raise ArithmeticError("Krawczyk refinement stalled")
            kx, ky, Z = out
            a = max(Z.re.lower, kx.lower)
            b = min(Z.re.upper, kx.upper)
            c = max(Z.im.lower, ky.lower)
            d = min(Z.im.upper, ky.upper)
            if a > b or c > d:
                raise ArithmeticError("Krawczyk intersection became empty")
            rect = tuple(map(_mpf_to_fraction, (a, b, c, d)))
            if (b - a) < target and (d - c) < target:
                break
    return rect


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


def isolate_roots(f: IntPolynomial, precision_bits: int | None = None,
                  _seed_real=None, _seed_complex=None) -> EmbeddingSet:
    """Certified, disjoint enclosures for every root of monic squarefree ``f``."""
    if not f.is_monic():
        raise ValueError("root isolation expects a monic polynomial")
    if f.degree < 1:
        raise ValueError("root isolation expects degree >= 1")
    if not is_squarefree(f):
        raise NotSquarefreeError(f"{f.format()} has repeated roots")
    bits = precision_bits or working_precision()

    if _seed_real is None:
        exact = [Fraction(r) for r in integer_roots(f)]
        g = f
        for r in exact:
            g, rem = g.divmod_monic(IntPolynomial([-int(r), 1]))
            assert rem.is_zero()
        intervals = _isolate_real(g) if g.degree >= 1 else []
        real_seeds = sorted([(r, r) for r in exact] + intervals)
    else:
        real_seeds = _seed_real
        g = None

    real_out = []
    for lo, hi in real_seeds:
        if lo == hi:
            real_out.append((lo, hi))
            continue
        lo2, hi2 = _bisect_relative(f, lo, hi)
        lo2, hi2 = _newton_polish(f, lo2, hi2, bits + 16)
        real_out.append((lo2, hi2))
    real_out.sort()

    s = len(real_out)
    n = f.degree
    if (n - s) % 2:
        raise ArithmeticError("real root count inconsistent with the degree")
    t = (n - s) // 2

    fp = f.derivative()
    rects = []
    if _seed_complex is not None and len(_seed_complex) == t:
        for rect in _seed_complex:
            rects.append(_krawczyk_contract(f, fp, rect, bits + 16))
    elif t:
        seeds = _complex_seeds(f, t)
        if len(seeds) != t:
            raise ArithmeticError("could not seed the complex roots")
        with precision(max(bits, 64) + 32):
            for z in seeds:
                placed = None
                for scale in (1e-8, 1e-6, 1e-4, 1e-2, 1e-1):
                    h = max(abs(z), 1.0) * scale
                    if z.imag - h <= 0:
                        continue
                    rect = (_mpf_to_fraction(mpf(z.real - h)), _mpf_to_fraction(mpf(z.real + h)),
                            _mpf_to_fraction(mpf(z.imag - h)), _mpf_to_fraction(mpf(z.imag + h)))
                    if _krawczyk_verify(f, fp, rect):
                        placed = rect
                        break
                if placed is None:
                    raise ArithmeticError(f"could not certify a complex root near {z}")
                rects.append(_krawczyk_contract(f, fp, placed, bits + 16))
    rects.sort()

    # disjointness across all enclosures is a hard guarantee
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            a1, b1, c1, d1 = rects[i]
            a2, b2, c2, d2 = rects[j]
            if not (b1 < a2 or b2 < a1 or d1 < c2 or d2 < c1):
                raise ArithmeticError("complex enclosures overlap")

    return EmbeddingSet(f, bits, real_out, rects)
