"""Volumes and fundamental domains of the quotient manifolds.

Three independent volume routes: the closed form in discriminant and
regulator, the raw determinant path through Minkowski and log-embedding
matrices, and Monte-Carlo integration of the invariant density over the
fundamental cell.  Plus the torsion bound, the dimension-wise lower bound,
and the minimal-volume scan.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
from mpmath import mp

from .balls import ComplexBall, RealBall, ball_det, ball_pi, ball_solve
from .config import PrecisionError
from .embeddings import EmbeddingTable
from .factorint import trial_factor
from .orders import (ReduciblePolynomialError, SubOrder, build_order, maximalize,
                     signature)
from .polynomials import IntPolynomial, NotSquarefreeError, integer_roots
from .unitgroup import (InsufficientUnitsError, UnitGroupData,
                        torsion_group, unit_group)


def volume_prefactor(s: int) -> Fraction:
    return Fraction(s + 1, 4 ** s * 2 ** (s * s))


def density_prefactor(s: int) -> Fraction:
    return Fraction(s + 1, 2 ** (2 * s + s * s - 1))


@dataclass
class VolumeResult:
    value: RealBall
    s: int
    disc_abs: int
    regulator: RealBall | None
    prefactor: Fraction
    method: str
    stderr: float | None = None
    meta: dict = field(default_factory=dict)

    def __repr__(self):
        return (f"VolumeResult({self.method}: {mp.nstr(self.value.mid(), 10)}"
                + (f" +- {self.stderr:.2e}" if self.stderr else "") + ")")


def ot_volume(s: int, disc_abs: int, regulator: RealBall) -> VolumeResult:
    """Closed-form volume (s+1)/(4^s 2^(s^2)) sqrt|disc| R."""
    if s < 1 or disc_abs <= 0:
        raise ValueError("need s >= 1 and a positive discriminant")
    if not regulator.is_positive():
        raise ValueError("regulator must be positive")
    pref = volume_prefactor(s)
    value = RealBall(Fraction(pref)) * RealBall(disc_abs).sqrt() * regulator
    return VolumeResult(value, s, disc_abs, regulator, pref, "closed_form")


def _log_matrix(table: EmbeddingTable, gens) -> list[list[RealBall]]:
    """s x s matrix of log|sigma_j| columns for the generators.

    Twice these columns are the logs of the squares, which are totally
    positive for any fundamental system and span a lattice of covolume
    exactly 2^s times the regulator; this is the normalization behind the
    closed-form volume.  (The squares of the totally positive generators
    span a finer quantity whenever the unit sign group is nontrivial, so
    they are not used here.)
    """
    cols = [table.log_vector(g)[:table.s] for g in gens]
    return [list(row) for row in zip(*cols)]


def volume_determinant_path(order: SubOrder, units: UnitGroupData,
                            table: EmbeddingTable | None = None) -> VolumeResult:
    """Volume from raw numeric matrices: no discriminant or regulator symbols.

    (1/2^s) * (s+1)/2^(2s+s^2-1) * |det Minkowski| * |det logs of squares|,
    where the logs of the squares have determinant 2^s |det L|.
    """
    table = table or units.table
    if table.t != 1:
        raise ValueError("volume is defined for one complex place")
    s = table.s
    detB = abs(ball_det(_log_matrix(table, units.generators))) * 2 ** s
    detA = abs(ball_det(table.minkowski_matrix()))
    pref = Fraction(1, 2 ** s) * density_prefactor(s)
    value = RealBall(pref) * detA * detB
    return VolumeResult(value, s, abs(order.disc), units.regulator,
                        pref, "determinant_path",
                        meta={"det_minkowski": float(detA.mid()),
                              "det_log_squares": float(detB.mid())})


def metric_det_check(s: int, ys) -> dict:
    """Determinant identity of the metric matrix built from the potential.

    Builds the (s+1) x (s+1) Hermitian-metric matrix at y and compares its
    determinant with (s+1)/2^(2s+s^2-1) * prod y_j^-(s+2).
    """
    if len(ys) != s:
        raise ValueError("expected one y per real place")
    y = [RealBall(v) if not isinstance(v, RealBall) else v for v in ys]
    if any(not v.is_positive() for v in y):
        raise ValueError("y coordinates must be positive")
    phi1 = RealBall(Fraction(1, 2 ** s))
    for v in y:
        phi1 = phi1 / v
    M = [[None] * (s + 1) for _ in range(s + 1)]
    for k in range(s):
        for l in range(s):
            scale = 2 if k == l else 1
            M[k][l] = phi1 * scale / (y[k] * y[l] * 4)
    for k in range(s):
        M[k][s] = RealBall(0)
        M[s][k] = RealBall(0)
    M[s][s] = RealBall(2)
    det = ball_det(M)
    expected = RealBall(density_prefactor(s))
    for v in y:
        expected = expected / (v ** (s + 2))
    rel = abs(det - expected) / expected
    return {"det": det, "expected": expected,
            "relative_deviation": float(rel.upper)}


def torsion_upper_bound(vol, disc_abs: int) -> RealBall:
    """3(z + z^2) with z = exp(2 vol / sqrt|disc|).

    The generator is normalized with real embedding below one, which gives
    the sharper of the two admissible bounds (the one the reference tables
    use).
    """
    v = vol if isinstance(vol, RealBall) else RealBall(vol)
    if not v.is_positive():
        raise ValueError("volume must be positive")
    R = v * 4 / RealBall(disc_abs).sqrt()
    z = (R / 2).exp()
    return (z + z * z) * 3


def volume_lower_bound(s: int) -> RealBall:
    """pi (s+2)^(s+1) / (4^(s+2) 2^(s^2) s!)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    import math

    num = (s + 2) ** (s + 1)
    den = 4 ** (s + 2) * 2 ** (s * s) * math.factorial(s)
    return ball_pi() * RealBall(Fraction(num, den))


def inoue_closed_form(m: int) -> VolumeResult:
    """Closed-form volume of the surface built on the equation order of
    T^3 + mT - 1 with the group generated by the polynomial root."""
    if m < 1:
        raise ValueError("m must be >= 1")
    f = IntPolynomial([-1, m, 0, 1])
    if integer_roots(f):
        raise ValueError("polynomial is reducible")
    D = 4 * m ** 3 + 27
    sqD = RealBall(D).sqrt()
    z = (RealBall(Fraction(1, 2)) + RealBall(3).sqrt() / 18 * sqD).cbrt()
    t = z - RealBall(m) / (z * 3)
    reg = abs(t.log())
    value = sqD / 4 * reg
    return VolumeResult(value, 1, D, reg, Fraction(1, 4), "inoue_closed_form",
                        meta={"m": m, "real_root": float(t.mid())})


# -- fundamental domain ---------------------------------------------------------


@dataclass
class FundamentalDomainData:
    order: SubOrder
    units: UnitGroupData
    table: EmbeddingTable
    eps: list            # generators of the squared totally positive group
    L: list              # s x s ball matrix: log columns of the generators
    A: list              # n x n ball Minkowski matrix (basis columns)
    density: Fraction

    @property
    def s(self) -> int:
        return self.table.s


def fundamental_domain(order: SubOrder, units: UnitGroupData,
                       table: EmbeddingTable | None = None) -> FundamentalDomainData:
    """The cell of the squared-unit group action: unit part spanned by the
    generator log vectors (y scales by sigma(g^2), so r = log(y)/2 shifts by
    one generator log per group step), fibers by the Minkowski cell."""
    table = table or units.table
    if table.t != 1:
        raise ValueError("fundamental domain implemented for one complex place")
    gens = units.generators
    L = _log_matrix(table, gens)
    A = table.minkowski_matrix()
    if abs(ball_det(L)).contains_zero() or abs(ball_det(A)).contains_zero():
        raise PrecisionError("degenerate domain matrices")
    eps = [g * g for g in gens]
    return FundamentalDomainData(order, units, table, eps, L, A,
                                 density_prefactor(table.s))


def _floor_vector(balls) -> list[int] | None:
    out = []
    for b in balls:
        v = b.floor_strict()
        if v is None:
            return None
        out.append(v)
    return out


def reduce_to_domain(point, dom: FundamentalDomainData):
    """Move a point of H^s x C into the fundamental cell.

    ``point`` is a sequence of s+1 complex numbers (the first s with positive
    imaginary part).  Returns ``(reduced_point, (translation, unit_exponents))``
    with the group element acting as z |-> sigma(eps^e) z + sigma(a).
    """
    s = dom.s
    pts = [(_to_ball(z.real), _to_ball(z.imag)) for z in _as_complex_list(point, s)]
    for j in range(s):
        if not pts[j][1].is_positive():
            raise ValueError("upper-half-plane coordinates need positive imaginary part")

    def question(tb):
        try:
            return _reduce_once(pts, dom, tb)
        except ArithmeticError:
            return None

    return dom.table.decide(question)


def _reduce_once(pts, dom, tb):
    """One reduction with the unit and translation values of ``tb``; None
    when a floor or a sign is undecided at its precision."""
    s, order = dom.s, dom.order
    r = [pts[j][1].log() / 2 for j in range(s)]
    beta = ball_solve(dom.L, r)
    ns = _floor_vector(beta)
    if ns is None:
        return None
    w = order.power_product(dom.eps, [-e for e in ns])
    scale_r = [tb.real_value(w, j) for j in range(s)]
    # w is totally positive, yet the floors of alpha below can be decided
    # while a tiny sigma(w) straddles zero
    if not all(v.is_positive() for v in scale_r):
        return None
    scale_c = tb.complex_value(w, 0)
    zs = []
    for j in range(s):
        zs.append((pts[j][0] * scale_r[j], pts[j][1] * scale_r[j]))
    zc = ComplexBall(pts[s][0], pts[s][1]) * scale_c
    # fiber coordinates: x_j (real places) and the complex coordinate
    target = [zs[j][0] for j in range(s)] + [zc.re, zc.im]
    alpha = ball_solve(dom.A, target)
    ms = _floor_vector(alpha)
    if ms is None:
        return None
    a = order.element([-m for m in ms])
    shift_r = [tb.real_value(a, j) for j in range(s)]
    shift_c = tb.complex_value(a, 0)
    reduced = []
    for j in range(s):
        reduced.append(complex(float(zs[j][0] + shift_r[j]), float(zs[j][1])))
    out_c = zc + shift_c
    reduced.append(complex(float(out_c.re.mid()), float(out_c.im.mid())))
    return reduced, (a, [-e for e in ns], w)


def _as_complex_list(point, s):
    pts = [complex(z) for z in point]
    if len(pts) != s + 1:
        raise ValueError("expected s+1 coordinates")
    if not all(map(cmath.isfinite, pts)):
        raise ValueError("coordinates must be finite")
    return pts


def _to_ball(x) -> RealBall:
    return RealBall(mp.mpf(x))


def apply_group_element(point, elem, dom: FundamentalDomainData):
    """Act by (translation a, unit exponents e): z |-> sigma(eps^e) z + sigma(a)."""
    a, exps, *_ = elem
    s = dom.s
    table = dom.table
    w = dom.order.power_product(dom.eps, exps)
    pts = _as_complex_list(point, s)
    out = []
    for j in range(s):
        sc = float(table.real_value(w, j).mid())
        sh = float(table.real_value(a, j).mid())
        out.append(pts[j] * sc + sh)
    scz = table.complex_value(w, 0)
    shz = table.complex_value(a, 0)
    zc = pts[s] * complex(float(scz.re.mid()), float(scz.im.mid())) \
        + complex(float(shz.re.mid()), float(shz.im.mid()))
    out.append(zc)
    return out


def domain_contains(point, dom: FundamentalDomainData) -> bool:
    s = dom.s
    pts = _as_complex_list(point, s)
    Bf = np.array([[float(v.mid()) for v in row] for row in dom.L])
    Af = np.array([[float(v.mid()) for v in row] for row in dom.A])
    r = np.array([0.5 * np.log(pts[j].imag) for j in range(s)])
    beta = np.linalg.solve(Bf, r)
    x = np.array([pts[j].real for j in range(s)] + [pts[s].real, pts[s].imag])
    alpha = np.linalg.solve(Af, x)
    return bool(np.all(beta >= -1e-12) and np.all(beta < 1 + 1e-12)
                and np.all(alpha >= -1e-12) and np.all(alpha < 1 + 1e-12))


# -- Monte Carlo -----------------------------------------------------------------


def check_mc_samples(samples: int) -> None:
    """The one sample-count check of every Monte Carlo volume."""
    if samples < 1000:
        raise ValueError("Monte Carlo runs need at least 10^3 samples")


def mc_volume(dom: FundamentalDomainData, samples: int, seed: int) -> VolumeResult:
    """Monte-Carlo volume: hit-or-miss sampling of the cell in (x, r) coordinates.

    With r = log(y)/2 the invariant density dens/prod(y) dy becomes the
    constant 2^s dens dr, and the 2^s cancels the exact 1/2^s that the
    quotient by the ambient unit group contributes; the estimate is the hit
    fraction times the box volume times dens.  Samples are drawn from a
    counter-based generator keyed by the seed, in fixed-size blocks, so reruns
    with the same (seed, samples) are bit-exact.
    """
    check_mc_samples(samples)
    s = dom.s
    n = dom.order.n
    Bf = np.array([[float(v.mid()) for v in row] for row in dom.L])
    Af = np.array([[float(v.mid()) for v in row] for row in dom.A])
    Binv = np.linalg.inv(Bf)
    Ainv = np.linalg.inv(Af)
    lo = np.concatenate([np.minimum(Af, 0).sum(axis=1), np.minimum(Bf, 0).sum(axis=1)])
    hi = np.concatenate([np.maximum(Af, 0).sum(axis=1), np.maximum(Bf, 0).sum(axis=1)])
    scale = float(np.prod(hi - lo)) * float(dom.density)
    gen = np.random.Generator(np.random.Philox(key=seed))
    hits = 0
    block = 1 << 16
    done = 0
    while done < samples:
        k = min(block, samples - done)
        xr = lo + gen.random((k, n + s)) * (hi - lo)
        alpha = xr[:, :n] @ Ainv.T
        beta = xr[:, n:] @ Binv.T
        hits += int(np.count_nonzero(np.all((alpha >= 0) & (alpha < 1), axis=1)
                                     & np.all((beta >= 0) & (beta < 1), axis=1)))
        done += k
    frac = hits / samples
    est = scale * frac
    stderr = scale * (frac * (1 - frac) / samples) ** 0.5
    value = RealBall.from_endpoints(mp.mpf(est - 3 * stderr), mp.mpf(est + 3 * stderr))
    return VolumeResult(value, s, abs(dom.order.disc), dom.units.regulator,
                        Fraction(1, 2 ** s), "monte_carlo", stderr=stderr,
                        meta={"seed": seed, "samples": samples, "estimate": est})


# -- minimal volume scan -----------------------------------------------------------


@dataclass
class ScanRecord:
    poly: IntPolynomial
    disc: int
    index: int
    regulator: RealBall
    certified: bool
    volume: RealBall
    torsion_factors: list[int]


def _scan_polynomials(degree: int, coeff_bound: int):
    """Monic polynomials of the box with nonzero constant term, in ascending
    order of their coefficient tuples."""
    rng = range(-coeff_bound, coeff_bound + 1)
    for tail in product(rng, repeat=degree):
        if tail[0] == 0:
            continue
        yield IntPolynomial(list(tail) + [1])


def min_volume_scan(s: int, coeff_bound: int, disc_bound: int,
                    certified_only: bool = False) -> list[ScanRecord]:
    """Enumerate fields with signature (s, 1), |disc| bounded, sorted by volume.

    Certified unit systems are required for ordering claims; a field whose
    units stay uncertified only poisons its own record (flagged), never the
    rest.  A polynomial merges into an earlier record only when it has a root
    in that record's maximal order, which proves the fields equal; each field
    keeps its first certified polynomial, else its first polynomial, and its
    unit group is computed once.
    """
    if s not in (1, 2, 3):
        raise ValueError("certified scans cover s in {1, 2, 3}")
    degree = s + 2
    done: list[tuple[ScanRecord, EmbeddingTable]] = []   # one per proven field
    for f in _scan_polynomials(degree, coeff_bound):
        # a cheap exact filter before the irreducibility test in build_order
        try:
            if signature(f) != (s, 1):
                continue
        except NotSquarefreeError:
            continue
        try:
            mo = build_order(f)
        except ReduciblePolynomialError:
            continue
        # index^2 divides disc f, so |disc K| >= |disc f| / (its largest square
        # divisor) once the square part is fully known
        factors, _, complete = trial_factor(mo.disc_f)
        if complete and abs(mo.disc_f) > disc_bound * prod(p ** (e - e % 2)
                                                            for p, e in factors):
            continue
        order, index, order_cert = maximalize(mo)
        if abs(order.disc) > disc_bound:
            continue
        same = next((i for i, (rec, table) in enumerate(done)
                     if rec.disc == order.disc and table.root_of(f) is not None), None)
        if same is not None and done[same][0].certified:
            continue
        try:
            ug = unit_group(order)
        except (InsufficientUnitsError, PrecisionError):
            continue
        tp = ug.totally_positive_generators
        tors = torsion_group(order, tp)
        vol = ot_volume(s, abs(order.disc), ug.regulator)
        rec = ScanRecord(f, order.disc, index, ug.regulator,
                         order_cert and ug.certified, vol.value, tors.factors)
        if same is None:
            done.append((rec, ug.table))
        elif rec.certified:
            done[same] = (rec, ug.table)
    records = sorted((rec for rec, _ in done), key=lambda r: float(r.volume.mid()))
    if certified_only:
        records = [r for r in records if r.certified]
    return records


def field_volumes(order: SubOrder, ug: UnitGroupData, mc_samples: int = 0,
                  seed: int = 0):
    """Closed-form and determinant-path volumes (plus MC when requested)."""
    s = ug.table.s
    closed = ot_volume(s, abs(order.disc), ug.regulator)
    det = volume_determinant_path(order, ug)
    out = {"closed_form": closed, "determinant_path": det}
    if mc_samples:
        dom = fundamental_domain(order, ug)
        out["monte_carlo"] = mc_volume(dom, mc_samples, seed)
    return out
