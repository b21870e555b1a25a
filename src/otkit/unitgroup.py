"""Unit groups: search, certification, totally positive generators, J(U).

Units are found one way: a sweep of skewed-Minkowski LLL reductions (finds
units of any size in logarithmic steps), which stops as soon as it has r
independent units.  Every numeric decision funnels through exact integer
verification; floats and intervals only steer the search.

Certification alone closes the index of that system, with proven regulator
lower bounds: the quotient regulator/floor bounds the index.  For each prime
k up to the bound, k-th power residue characters at degree-one primes are
linear maps to F_k, and only the classes in their common kernel can be
+-k-th powers; root extraction on those classes either finds a missing root,
which replaces a generator and divides the index by k, or rules k out.  The
bound ends at 1, or at 0 when no proven regulator floor applies.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, product

import numpy as np
from mpmath import mp
from sympy import discrete_log, isprime, primerange
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_edf_zassenhaus, gf_from_int_poly, gf_gcd,
                                     gf_pow_mod, gf_sub)

from . import intmat
from .balls import RealBall, ball_det
from .embeddings import EmbeddingTable
from .intmat import hnf, kernel_mod_p, lattice_det, snf
from .orders import OrderElement, SubOrder, signature


class InsufficientUnitsError(RuntimeError):
    """The search did not reach full unit rank."""


# Proven regulator lower bounds by number of real places (t = 1 fields),
# valid below the listed |disc| ceilings; outside them fall back to the
# universal 1/4 bound (valid except for three degree-6 fields).
FRIEDMAN_FLOORS = {
    1: Fraction(28, 100),
    2: Fraction(367, 1000),
    3: Fraction(6218, 10000),
    4: Fraction(12376, 10000),
    5: Fraction(27822, 10000),
}
FRIEDMAN_CEILINGS = {
    1: 6539,        # 18.7^3
    2: 1679616,     # 36^4
    3: 10 ** 7,
    4: 10 ** 7,
    5: 10 ** 7,
}
UNIVERSAL_FLOOR = Fraction(1, 4)


def _require_real_place(s: int) -> None:
    # with a real place the only roots of unity are +-1, the only torsion the
    # unit lattice knows; the manifolds X(K) need s >= 1 anyway
    if s < 1:
        raise ValueError("unit groups need a real place (s >= 1), got s = 0")


def regulator_floor(s: int, t: int, disc_abs: int, degree: int) -> Fraction | None:
    """Best applicable proven lower bound for the regulator, or None."""
    if t == 1 and s in FRIEDMAN_FLOORS and disc_abs <= FRIEDMAN_CEILINGS[s]:
        return FRIEDMAN_FLOORS[s]
    if degree != 6:
        return UNIVERSAL_FLOOR
    return None


class UnitGroupData:
    """A certified (or flagged) fundamental system with its regulator."""

    def __init__(self, order, generators, regulator, certified_index_bound,
                 totally_positive, table):
        self.order = order
        self.generators = generators
        self.regulator = regulator
        self.certified_index_bound = certified_index_bound
        self.totally_positive_generators = totally_positive
        self.table = table

    @property
    def certified(self) -> bool:
        return self.certified_index_bound == 1


class IdealHNF:
    """An integral ideal as an HNF column lattice inside the order."""

    def __init__(self, order: SubOrder, basis, norm: int):
        self.order = order
        self.basis = basis
        self.norm = norm

    def contains(self, x: OrderElement) -> bool:
        return intmat.solve_hnf(self.basis, list(x.coords)) is not None

    def __eq__(self, other):
        return isinstance(other, IdealHNF) and self.basis == other.basis

    def __repr__(self):
        return f"IdealHNF(norm={self.norm})"


class AbelianGroupInvariants:
    """A finite abelian group by its invariant factors above 1."""

    def __init__(self, factors):
        self.factors = [f for f in factors if f > 1]
        self.order_of_torsion = 1
        for f in self.factors:
            self.order_of_torsion *= f

    def __eq__(self, other):
        return self.factors == other.factors

    def __repr__(self):
        return f"AbelianGroupInvariants(factors={self.factors})"


# -- the unit lattice accumulator ---------------------------------------------


class _UnitLattice:
    """Independent units with float log vectors, which only steer."""

    def __init__(self, order: SubOrder, table: EmbeddingTable, rank: int):
        self.order = order
        self.table = table
        self.rank = rank
        self.gens: list[OrderElement] = []
        self._logs: list[list[float]] = []

    def logs_of(self, exps) -> list[float]:
        """The float log vector of the power product of the generators."""
        return [sum(e * lg[j] for e, lg in zip(exps, self._logs)) for j in range(self.rank)]

    def insert(self, u: OrderElement) -> bool:
        """Append u while the lattice is short of full rank and u's log vector
        is independent of the generators'; False otherwise."""
        if not self.order.is_unit(u):
            raise ValueError("inserting a non-unit into the unit lattice")
        if len(self.gens) >= self.rank or u.is_pm_one():
            return False
        lam = np.array([float(x.mid()) for x in self.table.log_vector(u)[:self.rank]])
        if self.gens:
            A = np.array(self._logs).T
            c, *_ = np.linalg.lstsq(A, lam, rcond=None)
            if np.linalg.norm(lam - A @ c) <= 1e-6 * max(1.0, np.linalg.norm(lam)):
                return False
        self.gens.append(u)
        self._logs.append(list(lam))
        return True

    def adjoin_root(self, w: OrderElement, k: int, cls) -> None:
        """Put w, a unit with w^k = +-prod gens^cls, in place of the generator
        at cls's first nonzero coordinate, which is 1: the new generators
        still give that one, so the index drops by exactly k."""
        j = next(i for i, c in enumerate(cls) if c)
        self._logs[j] = [x / k for x in self.logs_of(cls)]
        self.gens[j] = w


def regulator_of(table: EmbeddingTable, gens) -> RealBall:
    """|det| of the weighted log matrix over the first s+t-1 places."""
    r = len(gens)

    def regulator(tb):
        rows = [tb.log_vector(g)[:r] for g in gens]
        try:
            reg = abs(ball_det([[rows[i][j] for i in range(r)] for j in range(r)]))
        except ArithmeticError:      # a pivot straddles zero
            return None
        return None if reg.contains_zero() else reg

    return table.decide(regulator)


# -- skewed-LLL sweep ----------------------------------------------------------


def _ideal_key(order: SubOrder, x: OrderElement):
    return tuple(tuple(row) for row in hnf(order.mult_matrix(x)))


def _ring_vectors(r: int, radius: int):
    """The integer vectors of sup-norm ``radius`` in Z^r."""
    if r == 1:
        return [(radius,), (-radius,)] if radius else [(0,)]
    return [v for v in product(range(-radius, radius + 1), repeat=r)
            if max(map(abs, v)) == radius]


def _sweep_lll(order: SubOrder, table: EmbeddingTable, weights_log):
    """LLL-reduce the Minkowski lattice with per-place log-weights; returns coord rows."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    n = order.n
    mink = table.minkowski_matrix()
    row_weight = []
    for j in range(table.s):
        row_weight.append(weights_log[j])
    for j in range(table.t):
        row_weight.append(weights_log[table.s + j])
        row_weight.append(weights_log[table.s + j])
    # enough scale bits that the most downweighted row keeps ~160 bits
    spread = max(row_weight) - min(row_weight)
    scale_bits = 320 + int(1.5 * spread)
    with mp.workprec(scale_bits + 64):
        W = [mp.exp(w) for w in row_weight]
        ent = [[mp.mpf(mink[r][c].mid()) * W[r] for c in range(n)] for r in range(n)]
        mx = max(abs(v) for row in ent for v in row)
        scl = mp.mpf(2) ** scale_bits / mx
        Z = [[int(mp.nint(v * scl)) for v in row] for row in ent]
    # rows of the LLL input are the basis element embeddings
    A = DomainMatrix([[ZZ(Z[r][c]) for r in range(n)] for c in range(n)], (n, n), ZZ)
    try:
        _, T = A.lll_transform()
    except Exception:
        return []
    Tm = T.to_Matrix().tolist()
    rows = [[int(v) for v in row] for row in Tm]
    combos = list(rows)
    for i in range(min(4, n)):
        for j in range(i + 1, min(4, n)):
            combos.append([a + b for a, b in zip(rows[i], rows[j])])
            combos.append([a - b for a, b in zip(rows[i], rows[j])])
    return combos


def sweep_units(order: SubOrder, table: EmbeddingTable, lattice: _UnitLattice) -> None:
    """Walk skew directions, harvesting units as equal-ideal element quotients.

    The log-weights step by 1.0 over rings of sup-norm radius up to 220 for
    unit rank 1 (8 above it), and the walk returns as soon as the lattice has
    full rank; closing its index is left to certification.
    """
    s, t = table.s, table.t
    r = s + t - 1
    mults = [1] * s + [2] * t
    norm_bound = int(2 ** ((order.n + 3) / 2) * (2 / 3.14159) ** t
                     * abs(order.disc) ** 0.5) + 8
    reps: dict = {}
    grid_radius_cap = 220 if r == 1 else 8
    for radius in range(0, grid_radius_cap + 1):
        for v in _ring_vectors(r, radius):
            tau = [float(x) for x in v]
            last = -sum(m * x for m, x in zip(mults, tau)) / mults[-1]
            weights = tau + [last]
            for coords in _sweep_lll(order, table, weights):
                if not any(coords):
                    continue
                x = order.element(coords)
                nx = abs(order.norm(x))
                if nx == 0 or nx > norm_bound:
                    continue
                key = _ideal_key(order, x)
                rep = reps.get(key)
                if rep is None:
                    reps[key] = x
                    continue
                q = order.divide_exact(x, rep)
                if q is None or q.is_pm_one():
                    continue
                if lattice.insert(q) and len(lattice.gens) == r:
                    return
    raise InsufficientUnitsError(
        f"insufficient units: {len(lattice.gens)} of unit rank {r} after a sweep "
        f"to radius {grid_radius_cap}")


# -- k-th root refinement -------------------------------------------------------


def _try_kth_root(order: SubOrder, table: EmbeddingTable, v: OrderElement,
                  k: int, logs=None) -> OrderElement | None:
    """A unit w with w^k = +-v, reconstructed from embeddings, or None.

    ``logs`` is v's float log vector at the first s+t-1 places (the unit
    lattice's coordinates); without it, it is read off the table.  The
    Minkowski matrix is inverted once; every choice of one k-th root per
    place (a sign at a real place for even k, a phase at a complex place)
    then costs one matrix-vector product, rounded and checked exactly.
    """
    s, t = table.s, table.t
    if logs is None:
        logs = [float(x.mid()) for x in table.log_vector(v)[:s + t - 1]]
    # the weighted logs of a unit sum to 0, which gives the last place's log
    max_log = max(abs(x) for x in [*logs, sum(logs)])
    even = k % 2 == 0

    # v's coordinates are near e^max_log and its smallest embedding can be
    # near e^-max_log: deciding its signs takes both ranges, and so does
    # every value below, all taken at tb's precision
    def roots_at_places(tb):
        rvals = [tb.real_value(v, j) for j in range(s)]
        signs = [b.sign() for b in rvals]
        if None in signs:
            return None
        # an even power is totally positive: its phases are those of +-v's
        flip = -1 if even and signs and signs[0] < 0 else 1
        with mp.workprec(tb.bits):
            inv = (mp.matrix([[x.mid() for x in row] for row in tb.rows]) ** -1).tolist()
            reals = []
            for sg, b in zip(signs, rvals):
                m = mp.exp(mp.log(abs(b).mid()) / k)
                reals.append((m, -m) if even else (sg * m,))
            cplx = []
            for j in range(t):
                z = tb.complex_value(v, j)
                rho = mp.exp(mp.log(z.abs2().mid()) / (2 * k))
                phi = mp.atan2(flip * z.im.mid(), flip * z.re.mid())
                # the k roots: one, then successive turns by e^(2 pi i / k)
                roots, turn = [mp.rect(rho, phi / k)], mp.expjpi(mp.mpf(2) / k)
                while len(roots) < k:
                    roots.append(roots[-1] * turn)
                cplx.append([(w.real, w.imag) for w in roots])
        return tb.bits, signs, inv, reals, cplx

    bits, signs, inv, reals, cplx = \
        table.at(int(2 * max_log / 0.693) + 160).decide(roots_at_places)
    if even and len(set(signs)) > 1:
        return None  # an even power is totally positive, and +-v is not
    with mp.workprec(bits):
        # the order fixes which of +-w comes back, so the printed generators:
        # sign choices with place 0 varying fastest, then phases
        for combo in product(*reversed(reals), *cplx):
            rhs = [*combo[:s][::-1], *(x for z in combo[s:] for x in z)]
            coords = [int(mp.nint(mp.fdot(row, rhs))) for row in inv]
            if not any(coords):
                continue
            w = order.element(coords)
            wk = w ** k
            if wk == v or wk == -v:
                return w
    return None


# primes q = 1 (mod 2k) whose characters a class must pass before root extraction
CHARACTER_PRIMES = 24


def _roots_mod(f, q: int) -> list[int]:
    """The roots of f in F_q, ascending: the linear factors of gcd(f, T^q - T)."""
    F = gf_from_int_poly(list(reversed(f.coeffs)), q)
    g = gf_gcd(F, gf_sub(gf_pow_mod([1, 0], q, F, q, ZZ), [1, 0], q, ZZ), q, ZZ)
    if len(g) < 2:
        return []
    return sorted(-h[1] % q for h in gf_edf_zassenhaus(g, 1, q, ZZ))


def _character_kernel(order: SubOrder, gens, k: int) -> list[tuple]:
    """The classes cls in F_k^r, first nonzero coordinate 1 and ascending,
    that no k-th power residue character rules out.

    For a prime q = 1 (mod 2k) not dividing the order's denominator and a
    root a of f mod q, T -> a is a ring map O -> F_q, and chi(x) =
    x^((q-1)/k) kills every k-th power and -1.  chi(g) = zeta^d(g) in the
    group of k-th roots of unity, so chi(prod gens^cls) = 1 exactly when
    sum d(g) cls = 0 (mod k): each (q, a) gives one linear row over F_k, and
    only the classes in the common kernel can be +-k-th powers.
    """
    f, den = order.ambient.f, order.den
    r = len(gens)
    kernel = [[int(i == j) for j in range(r)] for i in range(r)]
    rows = []
    qs = (q for q in count(2 * k + 1, 2 * k) if isprime(q) and den % q)
    for _, q in zip(range(CHARACTER_PRIMES), qs):
        if not kernel:
            return []
        e, inv_den = (q - 1) // k, pow(den, -1, q)
        zeta = next(z for h in count(2) if (z := pow(h, e, q)) != 1)
        for a in _roots_mod(f, q):
            powers = [pow(a, j, q) for j in range(order.n)]
            basis = [sum(b * p for b, p in zip(col, powers)) * inv_den % q
                     for col in zip(*order.basis_num)]
            chi = [pow(sum(c * b for c, b in zip(g.coords, basis)), e, q) for g in gens]
            rows.append([discrete_log(q, x, zeta, k, True) for x in chi])
        if rows:
            kernel = kernel_mod_p(rows, k)
    span = (tuple(sum(c * b[i] for c, b in zip(coeffs, kernel)) % k for i in range(r))
            for coeffs in product(range(k), repeat=len(kernel)))
    return sorted(v for v in span if next(filter(None, v), 0) == 1)


# -- certification ---------------------------------------------------------------


def units_from_generators(order: SubOrder, gens,
                          table: EmbeddingTable | None = None) -> UnitGroupData:
    """Wrap a user-supplied multiplicatively independent system, uncertified.

    No reduction, no refinement: the group is exactly the one generated.
    Serves covering-manifold computations, where the group is a subgroup on
    purpose (certified_index_bound = 0).
    """
    table = table or EmbeddingTable(order)
    for g in gens:
        if not order.is_unit(g):
            raise ValueError("supplied generator is not a unit")
    if len(gens) != table.s + table.t - 1:
        raise InsufficientUnitsError("supplied system does not have full rank")
    reg = regulator_of(table, list(gens))
    tp = totally_positive_generators(order, table, list(gens))
    return UnitGroupData(order, list(gens), reg, 0, tp, table)


def certify_units(order: SubOrder, candidates,
                  table: EmbeddingTable | None = None) -> UnitGroupData:
    """Certify the group of an independent system drawn from the candidates.

    The candidates join the lattice smallest log vector first, until it has
    full rank; certification then closes its index.  Units among the
    candidates that are left out are in the certified group whenever the
    bound reaches 1.

    ``certified_index_bound`` is 1 for a certified fundamental system and 0
    when no proven regulator floor applies (degree 6 outside the floors'
    table), where the system is best effort.  A field with no real place
    raises ValueError.
    """
    table = table or EmbeddingTable(order)
    s, t = table.s, table.t
    _require_real_place(s)
    r = s + t - 1
    lattice = _UnitLattice(order, table, r)
    cands = sorted(candidates,
                   key=lambda u: float(np.linalg.norm(
                       [float(x.mid()) for x in table.log_vector(u)[:r]])))
    for u in cands:
        if not order.is_unit(u):
            raise ValueError("candidate is not a unit")
        lattice.insert(u)
    if len(lattice.gens) < r:
        raise InsufficientUnitsError("insufficient units: the candidates are not of full rank")
    return _certify_lattice(order, table, lattice)


def _certify_lattice(order, table, lattice) -> UnitGroupData:
    """Bound the index of the lattice in the unit group and push the bound to 1.

    Each pass bounds the index by regulator / floor.  For each prime k up to
    the bound, root extraction tries the classes gens^cls in the common
    kernel of the residue characters over F_k, and the first root found
    replaces a generator (the lattice's index drops by k).  A pass that finds
    none has ruled out every prime up to the bound, so the index is 1; with
    no proven floor the bound is 0.
    """
    s, t = table.s, table.t
    floor = regulator_floor(s, t, abs(order.disc), order.n)
    while True:
        reg = regulator_of(table, lattice.gens)
        bound = 0 if floor is None else \
            int(mp.floor(reg.upper / mp.mpf(floor.numerator) * floor.denominator))
        roots = ((w, k, cls)
                 for k in primerange(2, bound + 1)
                 for cls in _character_kernel(order, lattice.gens, k)
                 if (w := _try_kth_root(order, table,
                                        order.power_product(lattice.gens, cls), k,
                                        lattice.logs_of(cls))) is not None)
        root = next(roots, None)
        if root is None:
            break
        lattice.adjoin_root(*root)
    tp = totally_positive_generators(order, table, lattice.gens)
    return UnitGroupData(order, list(lattice.gens), reg, min(bound, 1), tp, table)


# -- totally positive subgroup -----------------------------------------------------


def totally_positive_generators(order: SubOrder, table: EmbeddingTable,
                                gens) -> list[OrderElement]:
    """Generators of the totally positive subgroup of <+-1, gens>.

    Their exponent lattice is 2Z^r plus the first r coordinates of the
    kernel of [signs | 1] over F_2 (sign vectors that are all-equal); each
    returned element is verified positive at every real place.
    """
    s = table.s
    r = len(gens)
    sign_cols = [table.sign_vector(g) for g in gens]
    if s == 0:
        return list(gens)
    A = [[sign_cols[j][i] for j in range(r)] + [1] for i in range(s)]
    cols = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for v in kernel_mod_p(A, 2):
        for i in range(r):
            cols[i].append(v[i])
    H = hnf(cols)
    out = []
    for c in range(r):
        u = order.power_product(gens, [H[i][c] for i in range(r)])
        sv = table.sign_vector(u)
        if all(b == 1 for b in sv):
            u = -u
            sv = [0] * s
        if any(sv):
            raise ArithmeticError("sign-kernel element is not totally positive")
        out.append(u)
    return out


# -- the ideal J(U) ------------------------------------------------------------------


def _j_relations(order: SubOrder, gens):
    """The block row [I - M_g | ...] of multiplication matrices over the units g."""
    if not gens:
        raise ValueError("J(U) needs a nontrivial unit subgroup")
    if not all(order.is_unit(g) for g in gens):
        raise ValueError("J(U) generators must be units")
    return intmat.stack_one_minus([order.mult_matrix(g) for g in gens])


def j_ideal(order: SubOrder, gens) -> IdealHNF:
    """HNF of the ideal generated by 1-g over the given units g."""
    H = hnf(_j_relations(order, gens))
    if not intmat.hnf_is_full_rank(H):
        raise ValueError("unit subgroup is trivial: J(U) would be the zero ideal")
    return IdealHNF(order, H, lattice_det(H))


def torsion_group(order: SubOrder, gens) -> AbelianGroupInvariants:
    """Invariant factors of O/J(U) (the torsion part of first homology)."""
    factors, defect = snf(_j_relations(order, gens))
    if defect:
        raise ValueError("unit subgroup is trivial: quotient has free rank")
    return AbelianGroupInvariants(factors)


# -- orchestration --------------------------------------------------------------------


def unit_group(order: SubOrder) -> UnitGroupData:
    """Find and certify the unit group of an order.

    One table, one skewed-LLL sweep to r independent units, one
    certification of their index; every decision the table's precision
    cannot make escalates inside the table.  A field with no real place
    raises ValueError.
    """
    _require_real_place(signature(order.ambient.f).s)
    table = EmbeddingTable(order)
    lattice = _UnitLattice(order, table, table.s + table.t - 1)
    sweep_units(order, table, lattice)
    return _certify_lattice(order, table, lattice)
