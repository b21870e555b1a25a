"""Numeric embeddings of order elements, with certified enclosures."""

from __future__ import annotations

import numpy as np

from .balls import ComplexBall, RealBall
from .orders import OrderElement, SubOrder
from .roots import EmbeddingSet


def basis_values(order: SubOrder, emb: EmbeddingSet):
    """Ball values of the order basis at every place.

    Returns ``(real, cplx)`` where ``real[j][c]`` is the value of basis
    element c at the j-th real place and ``cplx[j][c]`` at the j-th complex
    place (upper root).
    """
    n = order.n
    den = order.den
    real = []
    for r in emb.real:
        powers = [RealBall(1)]
        for _ in range(n - 1):
            powers.append(powers[-1] * r)
        row = []
        for c in range(n):
            acc = RealBall(0)
            for k in range(n):
                v = order.basis_num[k][c]
                if v:
                    acc = acc + powers[k] * v
            row.append(acc / den)
        real.append(row)
    cplx = []
    for z in emb.complex_upper:
        powers = [ComplexBall(RealBall(1), RealBall(0))]
        for _ in range(n - 1):
            powers.append(powers[-1] * z)
        row = []
        for c in range(n):
            acc = ComplexBall(RealBall(0), RealBall(0))
            for k in range(n):
                v = order.basis_num[k][c]
                if v:
                    acc = acc + powers[k] * v
            row.append(acc / RealBall(den))
        cplx.append(row)
    return real, cplx


def _dot_real(row, coords) -> RealBall:
    acc = RealBall(0)
    for v, c in zip(row, coords):
        if c:
            acc = acc + v * c
    return acc


def _dot_complex(row, coords) -> ComplexBall:
    acc = ComplexBall(RealBall(0), RealBall(0))
    for v, c in zip(row, coords):
        if c:
            acc = acc + v * c
    return acc


class EmbeddingTable:
    """Cached basis values for repeated element embeddings."""

    def __init__(self, order: SubOrder, emb: EmbeddingSet):
        self.order = order
        self.emb = emb
        self.real, self.cplx = basis_values(order, emb)
        self.s = emb.s
        self.t = emb.t

    def real_value(self, x: OrderElement, j: int) -> RealBall:
        return _dot_real(self.real[j], x.coords)

    def complex_value(self, x: OrderElement, j: int) -> ComplexBall:
        return _dot_complex(self.cplx[j], x.coords)

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
        n = self.order.n
        rows = []
        for j in range(self.s):
            rows.append(list(self.real[j]))
        for j in range(self.t):
            rows.append([v.re for v in self.cplx[j]])
            rows.append([v.im for v in self.cplx[j]])
        assert len(rows) == n
        return rows

    def float_rows(self):
        """float64 embedding rows for bulk filtering (real rows, complex rows)."""
        real = np.array([[float(v.mid()) for v in row] for row in self.real])
        cplx = np.array([[complex(float(v.re.mid()), float(v.im.mid()))
                          for v in row] for row in self.cplx])
        return real, cplx
