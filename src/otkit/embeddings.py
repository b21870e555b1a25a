"""Numeric embeddings of order elements, with certified enclosures."""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from .balls import ComplexBall, RealBall
from .orders import OrderElement, SubOrder
from .polynomials import IntPolynomial
from .roots import EmbeddingSet, isolate_roots


def _dot(values, coeffs, zero):
    """``zero + sum(v * c)`` over the nonzero integers c, in order."""
    return sum((v * c for v, c in zip(values, coeffs) if c), zero)


class EmbeddingTable:
    """The Minkowski matrix of an order basis, as ball rows: one per real
    place, then a Re and an Im row per complex place (upper root).  Every
    embedding of an element is a dot product of its coordinates with them."""

    def __init__(self, order: SubOrder, emb: EmbeddingSet | None = None):
        self.order = order
        self.emb = emb or isolate_roots(order.ambient.f)
        self.s = self.emb.s
        self.t = self.emb.t
        self.rows = [self._basis_values(r) for r in self.emb.real]
        for z in self.emb.complex_upper:
            vals = self._basis_values(z)
            self.rows += [[v.re for v in vals], [v.im for v in vals]]

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
        """Weighted log embedding: log|sigma| at real places, 2 log|sigma| at complex."""
        out = [abs(self.real_value(u, j)).log() for j in range(self.s)]
        for j in range(self.t):
            out.append(self.complex_value(u, j).abs2().log())
        return out

    def sign_vector(self, u: OrderElement) -> list[int] | None:
        """Real-place signs as F2 bits (1 = negative); None when undecided."""
        bits = []
        for j in range(self.s):
            sg = self.real_value(u, j).sign()
            if sg is None or sg == 0:
                return None
            bits.append(1 if sg < 0 else 0)
        return bits

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
