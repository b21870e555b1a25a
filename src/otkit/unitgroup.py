"""Unit groups: search, certification, totally positive generators, J(U).

Units are found one way: a sweep of skewed-Minkowski LLL reductions (finds
units of any size in logarithmic steps), which stops as soon as it has r
independent units.  The sweep walks warm chains: each step reduces the basis
its chain reached one step earlier, reweighted and scaled so that its
shortest row keeps a fixed number of bits.  Each step is integer
arithmetic: its LLL input comes from the embedding table's fixed-point rows
(midpoints times 2^bits) and integer weights, and each candidate the sweep
has not met before, up to sign, costs one determinant of its multiplication
matrix, |N(x)|; the HNF that keys its ideal is built only when that norm has
been met before.  Every numeric decision funnels
through exact integer verification; floats and intervals only steer the
search.

Certification alone closes the index of that system, with proven regulator
lower bounds: the quotient regulator/floor bounds the index.  For each prime
k up to the bound, k-th power residue characters at degree-one primes are
linear maps to F_k, and only the classes in their common kernel can be
+-k-th powers; root extraction on those classes either finds a missing root,
which replaces a generator and divides the index by k, or rules k out.  The
bound ends at 1, or at 0 when no proven regulator floor applies.

For cubics with one complex place the floor grows with the discriminant.
Artin's inequality |disc(minpoly e)| < 4e^3 + 24 holds for every unit e > 1
of such a field (Cohen, GTM 138); Z[e] lies in the order O, so
|disc O| < 4e^3 + 24, and the regulator log e of the generator e > 1 of O^*
exceeds (1/3) log((|disc O| - 24)/4).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, product

import numpy as np
from mpmath import mp
from mpmath.libmp import to_rational
from sympy import discrete_log, isprime, primerange
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_edf_zassenhaus, gf_from_int_poly, gf_gcd

from . import intmat
from .balls import RealBall, ball_det
from .config import MIN_PRECISION, precision
from .embeddings import EmbeddingTable
from .intmat import hnf, kernel_mod_p, snf
from .orders import IdealHNF, OrderElement, SubOrder
from .polynomials import IntPolynomial


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
ARTIN_FLOOR_BITS = 32     # Artin's floor is a multiple of 2^-ARTIN_FLOOR_BITS


def _require_real_place(s: int) -> None:
    # with a real place the only roots of unity are +-1, the only torsion the
    # unit lattice knows; the manifolds X(K) need s >= 1 anyway
    if s < 1:
        raise ValueError("unit groups need a real place (s >= 1), got s = 0")


def _artin_floor(disc_abs: int) -> Fraction:
    """(1/3) log((disc_abs - 24)/4), rounded down to a multiple of 2^-32.

    The lower end of a 64-bit interval enclosure, taken exactly: no float
    enters the floor.
    """
    with precision(MIN_PRECISION):
        lower = ((RealBall(disc_abs - 24) / 4).log() / 3).lower
    man, exp = lower.man_exp
    shift = exp + ARTIN_FLOOR_BITS
    return Fraction(man << shift if shift >= 0 else man >> -shift, 2 ** ARTIN_FLOOR_BITS)


def regulator_floor(s: int, t: int, disc_abs: int, degree: int) -> Fraction | None:
    """Best applicable proven lower bound for the regulator, or None.

    ``disc_abs`` is |disc O| of the order whose unit group is bounded; it
    need not be maximal.  For signature (1, 1) (cubics with one complex
    place) and |disc O| > 28 the floor is at least Artin's: a unit e > 1 of
    such a field satisfies |disc(minpoly e)| < 4e^3 + 24 (E. Artin; see
    H. Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    on units of complex cubic fields).  For a generator e > 1 of O^*, Z[e]
    lies in O, so |disc O| <= |disc(minpoly e)| and
    R = log e > (1/3) log((|disc O| - 24)/4).
    """
    if t == 1 and s in FRIEDMAN_FLOORS and disc_abs <= FRIEDMAN_CEILINGS[s]:
        floor = FRIEDMAN_FLOORS[s]
    elif degree != 6:
        floor = UNIVERSAL_FLOOR
    else:
        return None
    if (s, t) == (1, 1) and disc_abs > 28:
        floor = max(floor, _artin_floor(disc_abs))
    return floor


class UnitGroupData:
    """A certified (or flagged) fundamental system with its regulator."""

    def __init__(self, generators, regulator, certified_index_bound,
                 totally_positive, table):
        self.generators = generators
        self.regulator = regulator
        self.certified_index_bound = certified_index_bound
        self.totally_positive_generators = totally_positive
        self.table = table

    @property
    def certified(self) -> bool:
        return self.certified_index_bound == 1


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


# the sweep's LLL input: bits kept by its shortest row, and bits of the
# embeddings beyond those that cancellation and the weights cost
SWEEP_SCALE_BITS = 100
SWEEP_SPARE_BITS = 160


def _ring_vectors(r: int, radius: int):
    """The integer vectors of sup-norm ``radius`` in Z^r."""
    if r == 1:
        return [(radius,), (-radius,)] if radius else [(0,)]
    return [v for v in product(range(-radius, radius + 1), repeat=r)
            if max(map(abs, v)) == radius]


def _sweep_lll(order: SubOrder, table: EmbeddingTable, weights_log, basis):
    """LLL-reduce a chain's basis under per-place log-weights.

    ``basis`` holds integer coordinate rows; the LLL input is their weighted
    embeddings, scaled so that the shortest row keeps SWEEP_SCALE_BITS bits
    whatever the weights.  The embeddings come from the integer rows
    (``fixed``) of ``table.at`` the bits they lose plus SWEEP_SPARE_BITS.
    The input is integer arithmetic: each weight e^w is taken at that
    table's bits as mantissa * 2^exponent and shifted to a common exponent,
    each entry is the exact product of the integer weight and (integer
    row . basis row), and it is rounded to nearest against the shortest
    row's norm N, from ``math.isqrt``.  Returns ``(reduced_basis, candidates)``: the reduced
    rows, then sums and differences of pairs among the first four.  The
    ValueError of ``intmat.lll`` on dependent rows passes through.
    """
    n = order.n
    # an embedding cancels about as many bits as the largest coordinate has,
    # and its weight multiplies the error left by up to e^max(weights): at
    # radius 220 that is 317 bits, without which rank-1 chains lose their way
    need = (max(abs(c) for row in basis for c in row).bit_length() + SWEEP_SPARE_BITS
            + int(max(weights_log) / math.log(2)))
    tb = table.at(need)
    with mp.workprec(tb.bits):
        weights = [mp.exp(w).man_exp for w in weights_log]
    low = min(e for _, e in weights)
    weights = [m << (e - low) for m, e in weights]
    # a complex place's weight scales both its Re and its Im row
    row_weight = [*weights[:table.s], *(w for w in weights[table.s:] for _ in (0, 1))]
    ent = [[w * v for w, v in zip(row_weight, intmat.mat_vec(tb.fixed, b))] for b in basis]
    # entry * 2^SWEEP_SCALE_BITS / N, rounded to nearest
    N = math.isqrt(min(sum(v * v for v in row) for row in ent))
    Z = [[((v << SWEEP_SCALE_BITS + 1) + N) // (2 * N) for v in row] for row in ent]
    rows = intmat.mat_mul(intmat.lll(Z), basis)
    combos = list(rows)
    for i in range(min(4, n)):
        for j in range(i + 1, min(4, n)):
            combos.append([a + b for a, b in zip(rows[i], rows[j])])
            combos.append([a - b for a, b in zip(rows[i], rows[j])])
    return rows, combos


def _entry_ideal(order: SubOrder, entry: list) -> IdealHNF:
    """The ideal of a sweep entry [x, M_x, ideal or None], built on first use."""
    if entry[2] is None:
        entry[2] = IdealHNF(order, entry[1])
    return entry[2]


def sweep_units(order: SubOrder, table: EmbeddingTable, lattice: _UnitLattice) -> None:
    """Walk skew directions, harvesting units as equal-ideal element quotients.

    The log-weights step by 1.0 over rings of sup-norm radius up to 220 for
    unit rank 1 (8 above it), and the walk returns as soon as the lattice has
    full rank; closing its index is left to certification.  The walk is a
    tree of warm chains: radius 0 reduces the identity basis, and every other
    ring vector reduces the basis reached at its predecessor, the vector with
    each coordinate of absolute value equal to the radius one step nearer 0
    (for rank 1, one chain per sign).  Only the previous ring's bases are
    kept.  A step whose LLL fails leaves its chain where it was, and the
    error of an unfinished sweep counts those steps.

    A candidate met before, up to sign, is skipped: it has the same ideal
    and gives the same quotient up to sign, which the lattice, grown since,
    turns down again.  Each new one is keyed by its principal ideal, and
    equal ideals have equal norms: it goes into the bucket of its |N(x)|,
    and only in a bucket that already holds an element are the ideals, the
    ``IdealHNF`` of x's multiplication matrix and those of the earlier
    elements, built, the latter once each.  The rep is the first element
    with x's ideal, as a key by ideal alone would give.
    """
    n, s, t = order.n, table.s, table.t
    r = s + t - 1
    mults = [1] * s + [2] * t
    # |disc| and its square root rounded to 53 bits as in float64, without
    # the float's overflow above 2^1024
    with mp.workprec(53):
        norm_bound = int(2 ** ((order.n + 3) / 2) * (2 / 3.14159) ** t
                         * mp.sqrt(mp.mpf(abs(order.disc)))) + 8
    reps: dict = {}         # |N(x)| -> entries [x, its matrix, its ideal or None]
    seen: set = set()       # the coordinates tried so far, up to sign
    grid_radius_cap = 220 if r == 1 else 8
    steps = failed = 0
    prev: dict = {}
    for radius in range(0, grid_radius_cap + 1):
        ring = {}
        for v in _ring_vectors(r, radius):
            if radius:
                basis = prev[tuple(c - (c > 0) + (c < 0) if abs(c) == radius else c
                                   for c in v)]
            else:
                basis = [[int(i == j) for j in range(n)] for i in range(n)]
            tau = [float(x) for x in v]
            last = -sum(m * x for m, x in zip(mults, tau)) / mults[-1]
            weights = tau + [last]
            steps += 1
            try:
                basis, combos = _sweep_lll(order, table, weights, basis)
            except ValueError:
                failed += 1
                combos = []
            ring[v] = basis
            for coords in combos:
                seen_key = min(tuple(coords), tuple(-c for c in coords))
                if seen_key in seen or not any(coords):
                    continue
                seen.add(seen_key)
                x = order.element(coords)
                M = order.mult_matrix(x)
                norm = abs(intmat.det_bareiss(M))
                if norm > norm_bound:
                    continue
                # the first element with x's ideal has x's norm; a new norm
                # needs no ideal until it repeats
                bucket = reps.setdefault(norm, [])
                ideal = IdealHNF(order, M) if bucket else None
                rep = next((e[0] for e in bucket if _entry_ideal(order, e) == ideal), None)
                if rep is None:
                    bucket.append([x, M, ideal])
                    continue
                q = order.divide_exact(x, rep)
                if q is None or q.is_pm_one():
                    continue
                if lattice.insert(q) and len(lattice.gens) == r:
                    return
        prev = ring
    lost = f"; {failed} of {steps} LLL steps failed" if failed else ""
    raise InsufficientUnitsError(
        f"insufficient units: {len(lattice.gens)} of unit rank {r} after a sweep "
        f"to radius {grid_radius_cap}{lost}")


# -- k-th root refinement -------------------------------------------------------


def _try_kth_root(order: SubOrder, table: EmbeddingTable, v: OrderElement,
                  k: int, logs=None) -> OrderElement | None:
    """A unit w with w^k = +-v, reconstructed from embeddings, or None.

    ``logs`` is v's float log vector at the first s+t-1 places (the unit
    lattice's coordinates); without it, it is read off the table.  Every
    choice of one k-th root per place (a sign at a real place for even k, a
    phase at a complex place) costs one ``nearest`` solve, checked exactly.
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
            reals = []
            for sg, b in zip(signs, rvals):
                m = mp.root(abs(b).mid(), k)
                reals.append((m, -m) if even else (sg * m,))
            cplx = []
            for j in range(t):
                z = flip * tb.complex_value(v, j).mid()
                # the principal root, then successive turns by e^(2 pi i / k),
                # as products: mp.root(z, k, i) and turn ** i each take a log
                # and an exp at the table's bits
                roots, turn = [mp.root(z, k)], mp.root(1, k, 1)
                while len(roots) < k:
                    roots.append(roots[-1] * turn)
                cplx.append([(w.real, w.imag) for w in roots])
        return tb, signs, reals, cplx

    tb, signs, reals, cplx = \
        table.at(int(2 * max_log / 0.693) + 160).decide(roots_at_places)
    if even and len(set(signs)) > 1:
        return None  # an even power is totally positive, and +-v is not
    # the order fixes which of +-w comes back, so the printed generators:
    # sign choices with place 0 varying fastest, then phases
    for combo in product(*reversed(reals), *cplx):
        w = tb.nearest([*combo[:s][::-1], *(x for z in combo[s:] for x in z)])
        wk = w ** k
        if wk == v or wk == -v:
            return w
    return None


# primes q = 1 (mod 2k) whose characters a class must pass before root extraction
CHARACTER_PRIMES = 24


def _roots_mod(f, q: int) -> list[int]:
    """The roots of f in F_q, ascending: the linear factors of gcd(f, T^q - T)."""
    fq = IntPolynomial([c % q for c in f.coeffs])

    def mul(a, b):
        return IntPolynomial([c % q for c in (a * b).divmod_monic(fq)[1].coeffs])

    T = IntPolynomial([0, 1])
    tq_minus_t = intmat.power(T, q, mul, IntPolynomial([1])) - T
    g = gf_gcd(gf_from_int_poly(fq.coeffs[::-1], q),
               gf_from_int_poly(tq_minus_t.coeffs[::-1], q), q, ZZ)
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
    f, den = order.f, order.den
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
    return UnitGroupData(list(gens), reg, 0, tp, table)


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
    cands = list(candidates)
    # before any log vector: a non-unit has no finite one
    if not all(order.is_unit(u) for u in cands):
        raise ValueError("candidate is not a unit")
    cands.sort(key=lambda u: float(np.linalg.norm(
        [float(x.mid()) for x in table.log_vector(u)[:r]])))
    for u in cands:
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
        bound = 0 if floor is None else Fraction(*to_rational(reg.upper._mpf_)) // floor
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
    return UnitGroupData(list(lattice.gens), reg, min(bound, 1), tp, table)


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
    ker = kernel_mod_p(A, 2)
    H = hnf([[v[i] for v in ker] for i in range(r)], 2)
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


def j_ideal(order: SubOrder, gens) -> IdealHNF:
    """The ideal generated by 1-g over the given units g: the HNF of the
    block row [I - M_g | ...] of their multiplication matrices."""
    if not gens:
        raise ValueError("J(U) needs a nontrivial unit subgroup")
    if not all(order.is_unit(g) for g in gens):
        raise ValueError("J(U) generators must be units")
    return IdealHNF(order, intmat.stack_one_minus([order.mult_matrix(g) for g in gens]))


def torsion_group(J: IdealHNF) -> AbelianGroupInvariants:
    """Invariant factors of O/J(U) (the torsion part of first homology),
    read off J's HNF basis, which has the invariants of the relations it
    reduces (Cohen, GTM 138, 2.4)."""
    return AbelianGroupInvariants(snf(J.basis)[0])


# -- orchestration --------------------------------------------------------------------


def unit_group(order: SubOrder) -> UnitGroupData:
    """Find and certify the unit group of an order.

    One table, one skewed-LLL sweep to r independent units, one
    certification of their index; every decision the table's precision
    cannot make escalates inside the table.  A field with no real place
    raises ValueError.
    """
    table = EmbeddingTable(order)
    _require_real_place(table.s)
    lattice = _UnitLattice(order, table, table.s + table.t - 1)
    sweep_units(order, table, lattice)
    return _certify_lattice(order, table, lattice)
