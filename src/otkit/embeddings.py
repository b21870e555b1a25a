"""Numeric embeddings of order elements, with certified enclosures."""

from __future__ import annotations

from copy import copy
from itertools import permutations, product

import numpy as np
from mpmath import mp, mpf

from . import intmat
from .balls import ComplexBall, RealBall
from .config import PrecisionError, precision, working_precision
from .orders import OrderElement, SubOrder
from .polynomials import IntPolynomial
from .roots import _polish, _rounded, isolate_roots

MAX_BITS = 16384                # the one cap on every escalation
LOG_RADIUS = mpf(2) ** -64      # the widest log enclosure log_vector returns


def _dot(values, coeffs, zero):
    """``zero + sum(v * c)`` over the nonzero integers c, in order."""
    return sum((v * c for v, c in zip(values, coeffs) if c), zero)


def _fixed_point(x: mpf, bits: int) -> int:
    """x * 2^bits, exact when x's exponent allows, else rounded to nearest."""
    man, exp = x.man_exp     # man is |mantissa|
    man = -man if x < 0 else man
    shift = exp + bits
    return man << shift if shift >= 0 else ((man >> (-shift - 1)) + 1) >> 1


class EmbeddingTable:
    """The Minkowski matrix of an order basis, as ball rows: one per real
    place, then a Re and an Im row per complex place (upper root).  Every
    embedding of an element is a dot product of its coordinates with them.
    ``fixed`` holds the same rows as integers: each midpoint times 2^bits,
    exact where its exponent allows, else rounded to nearest.  It is built
    with the table, so each refinement has its own at its own bits, and
    ``nearest`` solves against it with an inverse made on its first call.

    The table owns its precision: ``at(bits)`` is the same table with its
    roots refined, and ``decide`` escalates through those tables.  No other
    code raises an embedding's precision.
    """

    def __init__(self, order: SubOrder):
        self.order = order
        self._finer: dict[int, EmbeddingTable] = {}   # shared by all refinements
        bits = working_precision()
        self._build(bits, isolate_roots(order.f, bits))

    def _build(self, bits: int, roots) -> None:
        """Keep the certified ``roots`` for refinement; round them outward
        to ``bits`` and make the rows from them."""
        self.bits = bits
        self._roots = roots
        with precision(bits):
            rounded = [_rounded(z) for z in roots]
            real = [z for z in rounded if isinstance(z, RealBall)]
            self.s, self.t = len(real), len(rounded) - len(real)
            self.rows = [self._basis_values(r) for r in real]
            for z in rounded[self.s:]:
                vals = self._basis_values(z)
                self.rows += [[v.re for v in vals], [v.im for v in vals]]
            self.fixed = [[_fixed_point(x.mid(), bits) for x in row] for row in self.rows]
        self._inverse = None    # (X, d) with fixed^-1 = X / d, made by nearest

    def at(self, bits: int) -> "EmbeddingTable":
        """This table with at least ``bits`` of precision: itself when it has
        as many, else refined to the first self.bits * 2^k >= bits, but to no
        more than MAX_BITS unless ``bits`` is more."""
        if bits <= self.bits:
            return self
        bits = min(self.bits << ((bits - 1) // self.bits).bit_length(), max(MAX_BITS, bits))
        if bits not in self._finer:
            tb = copy(self)     # the same order and the same shared cache
            tb._build(bits, _polish(self.order.f, self._roots, bits))
            self._finer[bits] = tb
        return self._finer[bits]

    def decide(self, question):
        """``question(tb)`` at tb.bits, for tb this table, then at twice its
        bits and so on, last at the cap: MAX_BITS, or this table's bits if
        more.  Returns the first answer other than None.

        ``question`` returns None exactly when tb's precision cannot decide
        its answer.  Raises PrecisionError when the cap cannot.
        """
        bits, cap = self.bits, max(MAX_BITS, self.bits)
        while True:
            tb = self.at(bits)
            with precision(bits):
                out = question(tb)
            if out is not None:
                return out
            if bits == cap:
                raise PrecisionError(f"undecidable even at {cap} bits")
            bits = min(2 * bits, cap)

    def _basis_values(self, x):
        """Values of the basis elements at the place of the root x."""
        # x * 0 and x * 0 + 1 are exact zero and one balls of x's kind
        powers = [x * 0 + 1]
        for _ in range(self.order.n - 1):
            powers.append(powers[-1] * x)
        return [_dot(powers, col, x * 0) / self.order.den
                for col in zip(*self.order.basis_num)]

    def real_value(self, x: OrderElement, j: int) -> RealBall:
        return _dot(self.rows[j], x.coords, RealBall(0))

    def complex_value(self, x: OrderElement, j: int) -> ComplexBall:
        i = self.s + 2 * j
        return ComplexBall(self.real_value(x, i), self.real_value(x, i + 1))

    def log_vector(self, u: OrderElement) -> list[RealBall]:
        """Weighted log embedding: log|sigma| at real places, 2 log|sigma| at
        complex; each enclosure finite and of radius at most 2^-64."""
        def logs(tb):
            out = [abs(tb.real_value(u, j)).log() for j in range(tb.s)]
            out += [tb.complex_value(u, j).abs2().log() for j in range(tb.t)]
            return out if all(x.upper - x.lower <= 2 * LOG_RADIUS for x in out) else None

        return self.decide(logs)

    def sign_vector(self, u: OrderElement) -> list[int]:
        """Real-place signs of a nonzero u as F2 bits (1 = negative)."""
        def signs(tb):
            sg = [tb.real_value(u, j).sign() for j in range(tb.s)]
            return None if None in sg or 0 in sg else [1 if x < 0 else 0 for x in sg]

        return self.decide(signs)

    def nearest(self, values) -> OrderElement:
        """The exact solution of fixed x = values * 2^bits, rounded to nearest;
        ``values`` (mpf or float) are ordered as the rows.  Raises
        ArithmeticError when ``fixed`` is singular."""
        if self._inverse is None:
            self._inverse = intmat.solve(self.fixed, intmat.identity(self.order.n))
            if self._inverse is None:
                raise ArithmeticError("singular Minkowski matrix")
        X, d = self._inverse
        with mp.workprec(self.bits):
            b = [_fixed_point(mpf(x), self.bits) for x in values]
        # floor(c/d + 1/2) = floor((2c + d) / 2d), for d of either sign
        return OrderElement(self.order, [(2 * c + d) // (2 * d) for c in intmat.mat_vec(X, b)])

    def root_of(self, f: IntPolynomial) -> OrderElement | None:
        """A root of f in the order, or None when none is found.

        f's float roots are assigned to the places in every way (real roots
        in any order, one of each conjugate pair per complex place); each
        assignment gives one ``nearest`` element, checked exactly.  A root
        of an irreducible f of degree n proves that Q[T]/(f) is this field.
        """
        if f.degree != self.order.n:
            return None
        roots = np.roots([float(c) for c in reversed(f.coeffs)])
        roots = roots[np.argsort(np.abs(roots.imag))]
        real = roots[:self.s].real
        upper = [z for z in roots[self.s:] if z.imag > 0]
        if len(upper) != self.t:
            return None
        targets = ([*r, *(p for w in z for p in (w.real, w.imag))]
                   for r in permutations(real)
                   for zs in permutations(upper)
                   for z in product(*((w, w.conjugate()) for w in zs)))
        return next((x for x in map(self.nearest, targets) if f(x) == self.order.zero()), None)
