"""Numeric embeddings of order elements, with certified enclosures."""

from __future__ import annotations

from itertools import permutations, product

import numpy as np
from mpmath import mpf

from .balls import ComplexBall, RealBall
from .config import PrecisionError, precision
from .orders import OrderElement, SubOrder
from .polynomials import IntPolynomial
from .roots import EmbeddingSet, isolate_roots

MAX_BITS = 16384                # the one cap on every escalation
LOG_RADIUS = mpf(2) ** -64      # the widest log enclosure log_vector returns


def _dot(values, coeffs, zero):
    """``zero + sum(v * c)`` over the nonzero integers c, in order."""
    return sum((v * c for v, c in zip(values, coeffs) if c), zero)


class EmbeddingTable:
    """The Minkowski matrix of an order basis, as ball rows: one per real
    place, then a Re and an Im row per complex place (upper root).  Every
    embedding of an element is a dot product of its coordinates with them.

    The table owns its precision: ``at(bits)`` is the same table with its
    roots refined, and ``decide`` escalates through those tables.  No other
    code raises an embedding's precision.
    """

    def __init__(self, order: SubOrder, emb: EmbeddingSet | None = None):
        self.order = order
        self.emb = emb or isolate_roots(order.ambient.f)
        self.bits = self.emb.precision_bits
        self.s = self.emb.s
        self.t = self.emb.t
        self._finer: dict[int, EmbeddingTable] = {}   # shared by all refinements
        with precision(self.bits):
            self.rows = [self._basis_values(r) for r in self.emb.real]
            for z in self.emb.complex_upper:
                vals = self._basis_values(z)
                self.rows += [[v.re for v in vals], [v.im for v in vals]]

    def at(self, bits: int) -> "EmbeddingTable":
        """This table at ``bits`` of precision (itself when it has as many)."""
        if bits <= self.bits:
            return self
        if bits not in self._finer:
            tb = EmbeddingTable(self.order, self.emb.refine(bits))
            tb._finer = self._finer
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

    def minkowski_matrix(self) -> list[list[RealBall]]:
        """Square matrix with basis columns: real rows, then Re/Im rows per complex place."""
        return [row[:] for row in self.rows]

    def float_rows(self):
        """float64 embedding rows for bulk filtering (real rows, complex rows)."""
        mids = np.array([[float(v.mid()) for v in row] for row in self.rows])
        s = self.s
        return mids[:s], mids[s::2] + 1j * mids[s + 1::2]

    def root_of(self, f: IntPolynomial) -> OrderElement | None:
        """A root of f in the order, or None when none is found.

        The float Minkowski system is solved once per assignment of f's
        roots to the places (real roots in any order, one of each conjugate
        pair per complex place); each rounded solution is checked exactly.
        A root of an irreducible f of degree n proves that Q[T]/(f) is this
        field.
        """
        if f.degree != self.order.n:
            return None
        roots = np.roots([float(c) for c in reversed(f.coeffs)])
        roots = roots[np.argsort(np.abs(roots.imag))]
        real = roots[:self.s].real
        upper = [z for z in roots[self.s:] if z.imag > 0]
        if len(upper) != self.t:
            return None
        rows, crows = self.float_rows()
        minkowski = np.vstack([rows, crows.real, crows.imag])
        targets = [np.concatenate([r, np.real(z), np.imag(z)])
                   for r in permutations(real)
                   for zs in permutations(upper)
                   for z in product(*((w, w.conjugate()) for w in zs))]
        sols = np.linalg.solve(minkowski, np.array(targets).T).T
        for x in np.round(sols):
            if np.all(np.abs(x) < 2.0 ** 52):     # else the rounding means nothing
                alpha = OrderElement(self.order, [int(c) for c in x])
                if f(alpha) == self.order.zero():
                    return alpha
        return None
