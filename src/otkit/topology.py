"""Fundamental-group models: Z^n semidirect Z^r presentations and what they recover.

The group is stored through its commuting integral action matrices.  First
homology comes out of Smith normal form; the commutator-sampling closure is a
second, independent route to the same lattice; and the minimal polynomial of
a generic action word recovers the defining field.
"""

from __future__ import annotations

import json
import random
from itertools import product

from . import intmat
from .balls import ComplexBall, RealBall
from .factorint import is_perfect_square
from .intmat import hnf, minpoly_matrix, snf
from .orders import IdealHNF, Signature, SubOrder, signature
from .polynomials import (IntPolynomial, NotSquarefreeError, is_irreducible,
                          poly_discriminant, resultant)
from .unitgroup import AbelianGroupInvariants


def _entry(v) -> int:
    """A presentation entry: an int, not a float or a bool that int() would round."""
    if type(v) is not int:
        raise ValueError(f"presentation entries must be integers, got {v!r}")
    return v


class GroupPresentation:
    """Z^n acted on by commuting unimodular matrices, one per free generator."""

    def __init__(self, matrices):
        if not matrices:
            raise ValueError("a presentation needs at least one action matrix")
        n = len(matrices[0])
        self._inverses = []
        for M in matrices:
            if len(M) != n or any(len(row) != n for row in M):
                raise ValueError("action matrices must be square of equal size")
            sol = intmat.solve(M, intmat.identity(n))   # M^-1 = X / d, d = det M
            if sol is None or abs(sol[1]) != 1:
                raise ValueError("action matrices must be unimodular")
            X, d = sol
            self._inverses.append([[v // d for v in row] for row in X])
        for i in range(len(matrices)):
            for j in range(i + 1, len(matrices)):
                if intmat.mat_mul(matrices[i], matrices[j]) != \
                        intmat.mat_mul(matrices[j], matrices[i]):
                    raise ValueError("action matrices must commute")
        self.lattice_rank = n
        self.action_matrices = [intmat.copy(M) for M in matrices]
        self._rho: dict[tuple[int, ...], list[list[int]]] = {}

    @property
    def free_rank(self) -> int:
        return len(self.action_matrices)

    def rho(self, exponents) -> list[list[int]]:
        """The action of the exponent vector (negative powers via inverses).

        Memoised per presentation: the matrix of each exponent vector is made
        once and then returned itself, so callers only read it (as mat_vec,
        mat_mul and minpoly_matrix do) and never change it.
        """
        key = tuple(exponents)
        out = self._rho.get(key)
        if out is None:
            out = intmat.identity(self.lattice_rank)
            for M, Minv, e in zip(self.action_matrices, self._inverses, key):
                out = intmat.power(M if e > 0 else Minv, abs(e), intmat.mat_mul, out)
            self._rho[key] = out
        return out

    def to_dict(self) -> dict:
        return {"n": self.lattice_rank,
                "matrices": [[list(row) for row in M] for M in self.action_matrices]}

    @classmethod
    def from_dict(cls, d: dict) -> "GroupPresentation":
        if not isinstance(d, dict):
            raise ValueError("a presentation is a JSON object")
        mats = [[[_entry(v) for v in row] for row in M] for M in d["matrices"]]
        p = cls(mats)
        if p.lattice_rank != _entry(d["n"]):
            raise ValueError("presentation rank disagrees with its matrices")
        return p

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "GroupPresentation":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class SemidirectElement:
    __slots__ = ("u", "v")

    def __init__(self, u, v):
        self.u = tuple(int(x) for x in u)
        self.v = tuple(int(x) for x in v)

    def __eq__(self, other):
        return (self.u, self.v) == (other.u, other.v)

    def __repr__(self):
        return f"SemidirectElement(u={self.u}, v={self.v})"


def presentation_from_field(order: SubOrder, gens) -> GroupPresentation:
    """Action matrices of multiplication by each unit generator."""
    if not gens:
        raise ValueError("a nontrivial unit subgroup is required")
    return GroupPresentation([order.mult_matrix(g) for g in gens])


def group_multiply(a: SemidirectElement, b: SemidirectElement,
                   p: GroupPresentation) -> SemidirectElement:
    u = [x + y for x, y in zip(a.u, intmat.mat_vec(p.rho(a.v), list(b.u)))]
    return SemidirectElement(u, [x + y for x, y in zip(a.v, b.v)])


def group_inverse(a: SemidirectElement, p: GroupPresentation) -> SemidirectElement:
    vinv = [-x for x in a.v]
    u = [-x for x in intmat.mat_vec(p.rho(vinv), list(a.u))]
    return SemidirectElement(u, vinv)


def commutator(a: SemidirectElement, b: SemidirectElement,
               p: GroupPresentation) -> SemidirectElement:
    ab = group_multiply(a, b, p)
    ia = group_inverse(a, p)
    ib = group_inverse(b, p)
    return group_multiply(group_multiply(ab, ia, p), ib, p)


def h1(p: GroupPresentation) -> tuple[int, AbelianGroupInvariants]:
    """First homology of the semidirect product: free rank and torsion."""
    factors, defect = snf(intmat.stack_one_minus(p.action_matrices))
    return p.free_rank + defect, AbelianGroupInvariants(factors)


def commutator_sample_closure(p: GroupPresentation, sample_count: int,
                              seed: int, order: SubOrder) -> IdealHNF:
    """HNF closure of sampled commutator lattice parts, iterated to stability.

    An independent route to the commutator lattice, returned as an ideal of
    ``order`` so that it compares directly with J(U); a closure short of
    full rank raises ValueError.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    n = p.lattice_rank
    r = p.free_rank
    cols: list[list[int]] = []
    basis = None
    stable = 0
    batches = 0
    while stable < 2 and batches < 200:
        batches += 1
        for _ in range(sample_count):
            a = SemidirectElement([rng.randint(-3, 3) for _ in range(n)],
                                  [rng.randint(-2, 2) for _ in range(r)])
            b = SemidirectElement([rng.randint(-3, 3) for _ in range(n)],
                                  [rng.randint(-2, 2) for _ in range(r)])
            c = commutator(a, b, p)
            if any(c.u):
                cols.append(list(c.u))
        if not cols:
            continue
        new_basis = hnf([[col[i] for col in cols] for i in range(n)])
        if new_basis == basis:
            stable += 1
        else:
            stable = 0
            basis = new_basis
            cols = [[new_basis[i][c] for i in range(n)]
                    for c in range(len(new_basis[0]) if new_basis else 0)]
    if basis is None:
        raise ArithmeticError("no nontrivial commutators sampled")
    return IdealHNF(order, basis)


def reconstruct_minpoly(p: GroupPresentation, trials: int = 64,
                        seed: int = 0) -> tuple[IntPolynomial, bool]:
    """Minimal polynomial of a generic action word; flag is False if the
    degree never reached the lattice rank (non-primitive witness).  A
    polynomial of full degree can still factor, when the action's algebra is
    not a field: the caller tests irreducibility."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    n = p.lattice_rank
    r = p.free_rank
    best: IntPolynomial | None = None

    def consider(exps):
        nonlocal best
        if not any(exps):
            return None
        W = p.rho(exps)
        mp_ = IntPolynomial(minpoly_matrix(W))
        if best is None or mp_.degree > best.degree:
            best = mp_
        return mp_ if mp_.degree == n else None

    # the generators themselves first: a generic generator is already primitive
    for i in range(r):
        for sgn in (1, -1):
            exps = [sgn if j == i else 0 for j in range(r)]
            got = consider(exps)
            if got is not None:
                return got, True
    for _ in range(trials):
        exps = [rng.randint(-3, 3) for _ in range(r)]
        got = consider(exps)
        if got is not None:
            return got, True
    # deterministic fallback sweep
    for exps in product(range(-3, 4), repeat=r):
        got = consider(list(exps))
        if got is not None:
            return got, True
    assert best is not None
    return best, False


def cubic_galois_closure_degree(f: IntPolynomial) -> int:
    """3 when the discriminant is a perfect square, else 6 (irreducible cubics)."""
    if f.degree != 3:
        raise ValueError("implemented for cubics only")
    ok, _ = is_irreducible(f)
    if not ok:
        raise ValueError("polynomial must be irreducible")
    return 3 if is_perfect_square(poly_discriminant(f)) else 6


class DegenerateCompositumError(ValueError):
    """The resultant construction collapsed: the compositum has smaller degree."""


def compositum(f: IntPolynomial, g: IntPolynomial) -> tuple[IntPolynomial, Signature]:
    """Minimal polynomial of a primitive element of the compositum, plus signature.

    Tries shifts c = 1, 2, ... for the element (root of g) + c (root of f); a
    shift is accepted when the resultant is squarefree and irreducible.
    Degenerate composita raise instead of silently shrinking.
    """
    okf, _ = is_irreducible(f)
    okg, _ = is_irreducible(g)
    if not (okf and okg):
        raise ValueError("compositum needs irreducible inputs")
    m, n = f.degree, g.degree
    deg = m * n
    last_error = None
    for c in range(1, 9):
        xs = range(-(deg // 2) - 1, deg - deg // 2)
        vals = [resultant(f, g(IntPolynomial([z0, -c]))) for z0 in xs]
        # f, g monic: h = prod (z - b - c a) over the roots a of f, b of g,
        # monic of degree m n
        h = IntPolynomial(intmat.interpolate(xs, vals))
        try:
            sig = signature(h)
        except NotSquarefreeError:
            last_error = DegenerateCompositumError(
                "resultant has repeated factors: compositum is degenerate")
            continue
        okh, _ = is_irreducible(h)
        if not okh:
            last_error = DegenerateCompositumError(
                "resultant factors: compositum is smaller than the product degree")
            continue
        return h, sig
    raise last_error or DegenerateCompositumError("no usable shift found")


def example_compositum_action(order_poly_s: IntPolynomial) -> list[list[int]]:
    """Multiplication-by-S matrix on the product basis S^a T^b (a, b < 3),
    ordered (1, S, S^2, T, T^2, ST, S^2 T, S T^2, S^2 T^2); depends only on
    the S-side minimal polynomial."""
    if order_poly_s.degree != 3 or not order_poly_s.is_monic():
        raise ValueError("S-side polynomial must be a monic cubic")
    c0, c1, c2 = order_poly_s.coeffs[0], order_poly_s.coeffs[1], order_poly_s.coeffs[2]
    # S^3 = -(c2 S^2 + c1 S + c0)
    basis = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)]
    idx = {ab: i for i, ab in enumerate(basis)}
    n = len(basis)
    M = [[0] * n for _ in range(n)]
    for col, (a, b) in enumerate(basis):
        if a < 2:
            M[idx[(a + 1, b)]][col] += 1
        else:
            M[idx[(2, b)]][col] -= c2
            M[idx[(1, b)]][col] -= c1
            M[idx[(0, b)]][col] -= c0
    return M


def mobius_action_check(order: SubOrder, gens, samples: int, table,
                        seed: int = 0) -> dict:
    """Check the upper-triangular matrix action against the affine action.

    The exact part verifies the homomorphism law of (u, w^2) |-> [[w, u/w],
    [0, 1/w]] in the order itself (possible because the units are squares of
    exact elements).  The numeric part compares the Moebius action with
    w^2 z + u at every real place on sampled points, reporting the largest
    enclosure deviation.
    """
    if table.s < 1:
        raise ValueError("needs at least one real place")
    rng = random.Random(seed)
    n = order.n

    def random_pair():
        u = order.element([rng.randint(-4, 4) for _ in range(n)])
        return u, order.power_product(gens, [rng.randint(-2, 2) for _ in gens])

    hom_exact = True
    for _ in range(samples):
        u, w = random_pair()
        ut, wt = random_pair()
        winv, wtinv = order.inverse_unit(w), order.inverse_unit(wt)
        # upper-right entry of the product of phi-images ...
        b = w * (ut * wtinv) + (u * winv) * wtinv
        # ... must match phi of the group product (u + w^2 ut, (w wt)^2)
        u2 = u + (w * w) * ut
        b2 = u2 * (winv * wtinv)
        if b != b2:
            hom_exact = False
    max_dev = 0.0
    for _ in range(samples):
        u, w = random_pair()
        winv = order.inverse_unit(w)
        for j in range(table.s):
            aw = table.real_value(w, j)
            au = table.real_value(u, j)
            awi = table.real_value(winv, j)
            x = RealBall(rng.randint(-50, 50)) / 10
            y = RealBall(rng.randint(1, 100)) / 10
            z = ComplexBall(x, y)
            mob = (z * aw + au * awi) / awi
            direct = z * (aw * aw) + au
            dev = (mob - direct).abs2()
            max_dev = max(max_dev, float(dev.upper) ** 0.5)
    return {"samples": samples, "homomorphism_exact": hom_exact,
            "max_deviation": max_dev}
