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
from functools import cached_property
from itertools import product
from math import factorial, log, prod

import numpy as np
from mpmath import mp

from . import intmat
from .balls import BallElimination, ComplexBall, RealBall, ball_det, ball_pi
from .config import PrecisionError
from .embeddings import EmbeddingTable
from .factorint import trial_factor
from .orders import SubOrder, maximalize
from .polynomials import IntPolynomial, is_irreducible, poly_discriminant
from .unitgroup import (InsufficientUnitsError, UnitGroupData, j_ideal,
                        torsion_group, unit_group)


def volume_prefactor(s: int) -> Fraction:
    return Fraction(s + 1, 4 ** s * 2 ** (s * s))


def density_prefactor(s: int) -> Fraction:
    return Fraction(s + 1, 2 ** (2 * s + s * s - 1))


@dataclass
class VolumeResult:
    value: RealBall
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
    return VolumeResult(value, pref, "closed_form")


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


def volume_determinant_path(units: UnitGroupData) -> VolumeResult:
    """Volume from raw numeric matrices: no discriminant or regulator symbols.

    (1/2^s) * (s+1)/2^(2s+s^2-1) * |det Minkowski| * |det logs of squares|,
    where the logs of the squares have determinant 2^s |det L|.
    """
    table = units.table
    if table.t != 1:
        raise ValueError("volume is defined for one complex place")
    s = table.s
    detB = abs(ball_det(_log_matrix(table, units.generators))) * 2 ** s
    detA = abs(ball_det(table.rows))
    pref = Fraction(1, 2 ** s) * density_prefactor(s)
    value = RealBall(pref) * detA * detB
    return VolumeResult(value, pref, "determinant_path",
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
    num = (s + 2) ** (s + 1)
    den = 4 ** (s + 2) * 2 ** (s * s) * factorial(s)
    return ball_pi() * RealBall(Fraction(num, den))


def inoue_closed_form(m: int) -> VolumeResult:
    """Closed-form volume of the surface built on the equation order of
    T^3 + mT - 1 with the group generated by the polynomial root."""
    if m < 1:
        raise ValueError("m must be >= 1")
    D = 4 * m ** 3 + 27
    sqD = RealBall(D).sqrt()
    z = (RealBall(Fraction(1, 2)) + RealBall(3).sqrt() / 18 * sqD).cbrt()
    t = z - RealBall(m) / (z * 3)
    reg = abs(t.log())
    value = sqD / 4 * reg
    return VolumeResult(value, Fraction(1, 4), "inoue_closed_form",
                        meta={"m": m, "real_root": float(t.mid())})


# -- fundamental domain ---------------------------------------------------------


@dataclass
class FundamentalDomainData:
    order: SubOrder
    table: EmbeddingTable
    eps: list            # generators of the squared totally positive group
    L: list              # s x s ball matrix: log columns of the generators
    A: list              # n x n ball Minkowski matrix (basis columns)
    density: Fraction

    @property
    def s(self) -> int:
        return self.table.s

    @cached_property
    def eliminations(self) -> tuple[BallElimination, BallElimination]:
        """The eliminations of L and A, made once and replayed at every
        precision; a cell copied by dataclasses.replace makes its own."""
        return BallElimination(self.L), BallElimination(self.A)


def fundamental_domain(order: SubOrder, units: UnitGroupData) -> FundamentalDomainData:
    """The cell of the squared-unit group action: unit part spanned by the
    generator log vectors (y scales by sigma(g^2), so r = log(y)/2 shifts by
    one generator log per group step), fibers by the Minkowski cell."""
    table = units.table
    if table.t != 1:
        raise ValueError("fundamental domain implemented for one complex place")
    gens = units.generators
    dom = FundamentalDomainData(order, table, [g * g for g in gens],
                                _log_matrix(table, gens), table.rows,
                                density_prefactor(table.s))
    if any(e.det.contains_zero() for e in dom.eliminations):
        raise PrecisionError("degenerate domain matrices")
    return dom


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
    solve_L, solve_A = dom.eliminations
    r = [pts[j][1].log() / 2 for j in range(s)]
    beta = solve_L.solve(r)
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
    alpha = solve_A.solve(target)
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


# a binomial tail of mass 0.00135, the normal tail beyond 3 standard errors
MC_EMPTY_TAIL = -log(0.00135)


def check_mc_samples(samples: int) -> None:
    """The one sample-count check of every Monte Carlo volume."""
    if samples < 1000:
        raise ValueError("Monte Carlo runs need at least 10^3 samples")


def mc_volume(dom: FundamentalDomainData, samples: int, seed: int) -> VolumeResult:
    """Monte-Carlo volume: hit-or-miss sampling of the cell in (x, r) coordinates.

    With r = log(y)/2 the invariant density dens/prod(y) dy becomes the
    constant 2^s dens dr, and the 2^s cancels the exact 1/2^s that the
    quotient by the full unit group contributes; the estimate is the hit
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
    width = hi - lo
    scale = float(np.prod(width)) * float(dom.density)
    gen = np.random.Generator(np.random.Philox(key=seed))
    hits = 0
    block = min(1 << 16, samples)
    buf = np.empty((block, n + s))
    alpha_buf = np.empty((block, n))
    beta_buf = np.empty((block, s))
    inside_buf = np.empty(block, dtype=bool)
    done = 0
    while done < samples:
        k = min(block, samples - done)
        xr, alpha, beta, inside = buf[:k], alpha_buf[:k], beta_buf[:k], inside_buf[:k]
        gen.random(out=xr)
        xr *= width         # lo + u * width, bit for bit: addition commutes
        xr += lo
        np.matmul(xr[:, :n], Ainv.T, out=alpha)
        np.matmul(xr[:, n:], Binv.T, out=beta)
        inside.fill(True)
        for col in (*alpha.T, *beta.T):
            inside &= col >= 0
            inside &= col < 1
        hits += int(np.count_nonzero(inside))
        done += k
    frac = hits / samples
    est = scale * frac
    stderr = scale * (frac * (1 - frac) / samples) ** 0.5
    if 0 < hits < samples:
        lo_v, hi_v = est - 3 * stderr, est + 3 * stderr
    else:
        # the binomial ball is a point here: take the one-sided bound with the
        # tail mass of 3 standard errors, as P(no hit) = (1 - p)^N <= e^(-N p)
        q = MC_EMPTY_TAIL / samples
        lo_v, hi_v = (0.0, scale * q) if hits == 0 else (scale * (1 - q), scale)
    value = RealBall.from_endpoints(mp.mpf(lo_v), mp.mpf(hi_v))
    return VolumeResult(value, Fraction(1, 2 ** s), "monte_carlo", stderr=stderr,
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

    Each mirror pair is settled once.  The box is closed under f -> f* =
    (-1)^n f(-T), and T -> -T maps Z[T]/(f) onto Z[T]/(f*), so f* has the
    same disc f, irreducibility, maximal order disc and index, and -alpha
    lies in every order that holds a root alpha of f.  Every filter reads
    only those, and root_of finds -alpha where it found alpha, so f* ends
    as f did and is skipped.  The exceptions are a unit_group that raised
    for f and an uncertified record from f: there f* may still end
    otherwise, so it is scanned in full.
    """
    if s not in (1, 2, 3):
        raise ValueError("certified scans cover s in {1, 2, 3}")
    degree = s + 2
    done: list[tuple[ScanRecord, EmbeddingTable]] = []   # one per proven field
    settled: set[tuple[int, ...]] = set()   # mirrors whose outcome f fixed
    for f in _scan_polynomials(degree, coeff_bound):
        if f.coeffs in settled:
            continue
        mirror = tuple(-c if (degree - i) % 2 else c for i, c in enumerate(f.coeffs))
        if mirror != f.coeffs:
            settled.add(mirror)
        # cheap exact filters before the irreducibility test: the sign of
        # disc f, then its square part.  disc f = 0 exactly when f has a
        # repeated root, and otherwise sign(disc f) = (-1)^t for t complex
        # pairs (Stickelberger).  Degree s + 2 <= 5 allows t <= 2, so disc f
        # < 0 is signature (s, 1); at degree 6 it would also admit t = 3.
        disc_f = poly_discriminant(f)
        if disc_f >= 0:
            continue
        # for irreducible f, index^2 divides disc f, so |disc K| >= |disc f| /
        # (its largest square divisor) once the square part is fully known;
        # the filter drops only reducible f and fields beyond the bound
        factors, _, complete = trial_factor(disc_f)
        if complete and abs(disc_f) > disc_bound * prod(p ** (e - e % 2)
                                                         for p, e in factors):
            continue
        if not is_irreducible(f)[0]:
            continue
        order, index, order_cert = maximalize(
            SubOrder(f, disc_f, intmat.identity(degree), 1))
        if abs(order.disc) > disc_bound:
            continue
        same = next((i for i, (rec, table) in enumerate(done)
                     if rec.disc == order.disc and table.root_of(f) is not None), None)
        if same is not None and done[same][0].certified:
            continue
        try:
            ug = unit_group(order)
        except (InsufficientUnitsError, PrecisionError):
            settled.discard(mirror)
            continue
        tors = torsion_group(j_ideal(order, ug.totally_positive_generators))
        vol = ot_volume(s, abs(order.disc), ug.regulator)
        rec = ScanRecord(f, order.disc, index, ug.regulator,
                         order_cert and ug.certified, vol.value, tors.factors)
        if not rec.certified:
            settled.discard(mirror)
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
    det = volume_determinant_path(ug)
    out = {"closed_form": closed, "determinant_path": det}
    if mc_samples:
        dom = fundamental_domain(order, ug)
        out["monte_carlo"] = mc_volume(dom, mc_samples, seed)
    return out
