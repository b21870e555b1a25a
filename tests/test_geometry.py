import random
from dataclasses import replace
from functools import cached_property
from hashlib import sha256
from math import prod

import pytest
from mpmath import mp

import otkit.geometry
import otkit.orders
import otkit.polynomials
from otkit.balls import RealBall
from otkit.embeddings import EmbeddingTable
from otkit.factorint import trial_factor
from otkit.geometry import (MC_EMPTY_TAIL, _scan_polynomials, apply_group_element, domain_contains,
                            fundamental_domain, inoue_closed_form, mc_volume,
                            metric_det_check, min_volume_scan, ot_volume,
                            reduce_to_domain, torsion_upper_bound,
                            volume_determinant_path, volume_lower_bound)
from otkit.orders import SubOrder, build_order, signature
from otkit.polynomials import IntPolynomial, NotSquarefreeError, poly_discriminant
from otkit.unitgroup import InsufficientUnitsError, units_from_generators

P = IntPolynomial


def test_closed_form_disc23(disc23):
    order, _, _, ug = disc23
    v = ot_volume(1, 23, ug.regulator)
    assert abs(float(v.value.mid()) - 0.337146) < 1e-5
    assert str(v.prefactor) == "1/4"


def test_determinant_path_agrees(disc23, quartic275):
    for order, _, _, ug in (disc23, quartic275):
        closed = ot_volume(ug.table.s, abs(order.disc), ug.regulator)
        det = volume_determinant_path(ug)
        assert closed.value.overlaps(det.value)
    # |det Minkowski|^2 ~ disc/4^t
    det = volume_determinant_path(disc23[3])
    ratio = det.meta["det_minkowski"] ** 2 / (23 / 4)
    assert abs(ratio - 1) < 2 ** -40
    # |det of squared-generator logs| = 2^s R
    for order, _, _, ug in (disc23, quartic275):
        d = volume_determinant_path(ug)
        s = ug.table.s
        want = 2 ** s * float(ug.regulator.mid())
        assert abs(d.meta["det_log_squares"] - want) < 1e-12 * want


@pytest.mark.parametrize("poly", [
    # the generator's real embedding is about e^-62, its square's e^-125,
    # whose 192-bit enclosure touches zero
    "T^3 + 2*T + 2000",
    # the embedding e^-96 of a generator with 21-digit coordinates needs the
    # 384 bits that the unit search escalated the table's roots to
    "T^3 - 3*T^2 - 3*T - 166",
])
def test_large_unit_cell_and_determinant_path_are_finite(fields, poly):
    order, _, _, ug = fields(poly)
    dom = fundamental_domain(order, ug)
    assert all(mp.isfinite(v.lower) and mp.isfinite(v.upper)
               for row in dom.L for v in row)
    det = volume_determinant_path(ug).value
    assert mp.isfinite(det.lower) and mp.isfinite(det.upper)
    assert det.overlaps(ot_volume(1, abs(order.disc), ug.regulator).value)
    # the reduction decides sigma(w) and its floors on refined rows
    rng = random.Random(poly)
    for _ in range(10):
        pt = [complex(rng.uniform(-5, 5), rng.uniform(0.05, 6)),
              complex(rng.uniform(-5, 5), rng.uniform(-5, 5))]
        red, _ = reduce_to_domain(pt, dom)
        assert domain_contains(red, dom)


@pytest.mark.parametrize("point", [
    [complex(0.5, float("inf")), complex(1, 1)],     # inf imaginary part
    [complex(float("nan"), 1), complex(1, 1)],       # NaN real part
    [complex(0.5, 1), complex(float("inf"), 0)],     # inf complex coordinate
], ids=["inf-imag", "nan-real", "inf-complex"])
def test_non_finite_points_rejected(disc23, point):
    order, _, _, ug = disc23
    dom = fundamental_domain(order, ug)
    with pytest.raises(ValueError, match="finite"):
        reduce_to_domain(point, dom)
    with pytest.raises(ValueError, match="finite"):
        domain_contains(point, dom)
    with pytest.raises(ValueError, match="finite"):
        apply_group_element(point, (order.zero(), [1]), dom)


def test_mc_volume_quartic(quartic275):
    order, _, _, ug = quartic275
    dom = fundamental_domain(order, ug)
    v = mc_volume(dom, 300_000, seed=5)
    closed = float(ot_volume(2, 275, ug.regulator).value.mid())
    assert abs(v.meta["estimate"] - closed) <= 3 * v.stderr


def test_metric_det_check_values():
    r = metric_det_check(1, [1])
    assert abs(float(r["det"].mid()) - 0.5) < 1e-30
    assert r["relative_deviation"] < 2 ** -64
    rng = random.Random(8)
    for s in (1, 2, 3, 4):
        ys = [rng.uniform(0.2, 4.0) for _ in range(s)]
        out = metric_det_check(s, ys)
        assert out["relative_deviation"] < 2 ** -64


def test_metric_inner_bracket_s2():
    # the 2x2 inner bracket [[2,1],[1,2]] has determinant 3 = s + 1
    assert 2 * 2 - 1 * 1 == 3


def test_torsion_bound_examples(fields):
    rows = {1: (4, 13.54), 4: (32, 122.47), 8: (2, 11.07)}
    for m, (tors, bound) in rows.items():
        order, _, _, ug = fields(P([-m, 8, 0, 1]))
        vol = ot_volume(1, abs(order.disc), ug.regulator)
        b = torsion_upper_bound(vol.value, abs(order.disc))
        assert abs(float(b.mid()) - bound) < 0.011
        assert tors <= float(b.upper)


def test_volume_lower_bound_values():
    lb = volume_lower_bound(1)
    import math

    assert abs(float(lb.mid()) - 9 * math.pi / 128) < 1e-15
    assert float(lb.mid()) < 0.337146
    for s in range(1, 9):
        assert volume_lower_bound(s).is_positive()


def test_lower_bound_variant_identity():
    # pi (s+1)(s+2)^(s+2) / (4^(s+2) 2^(s^2) (s+2)!) equals the direct form
    import math
    from fractions import Fraction

    for s in range(1, 7):
        direct = Fraction((s + 2) ** (s + 1),
                          4 ** (s + 2) * 2 ** (s * s) * math.factorial(s))
        variant = Fraction((s + 1) * (s + 2) ** (s + 2),
                           4 ** (s + 2) * 2 ** (s * s) * math.factorial(s + 2))
        assert direct == variant


def test_inoue_matches_determinant_path():
    for m in (1, 2, 9, 20):
        f = P([-1, m, 0, 1])
        po = build_order(f)
        table = EmbeddingTable(po)
        supplied = units_from_generators(po, [po.tbar()], table=table)
        vi = inoue_closed_form(m)
        vd = volume_determinant_path(supplied)
        rel = abs(float(vi.value.mid()) - float(vd.value.mid())) \
            / float(vi.value.mid())
        assert rel < 1e-9
    # m = 1: the root is the real root of T^3 + T - 1
    assert abs(inoue_closed_form(1).meta["real_root"] - 0.6823278038280193) < 1e-12


def test_inoue_squarefree_case_is_the_manifold_volume(fields):
    # 4 m^3 + 27 squarefree: the equation order is maximal, its root is the
    # fundamental totally positive unit, and the covering is trivial
    for m in (1, 2):
        assert 4 * m ** 3 + 27 in (31, 59)
        order, index, cert, ug = fields(P([-1, m, 0, 1]))
        assert index == 1
        vi = inoue_closed_form(m)
        vo = ot_volume(1, abs(order.disc), ug.regulator)
        assert vi.value.overlaps(vo.value)


def test_quartic_volume_not_monotone_in_disc(fields):
    # |disc| 6656 field has a larger volume than the |disc| 12675 field
    o1, _, _, ug1 = fields("T^4 - 4*T + 1")
    o2, _, _, ug2 = fields("T^4 - 8*T^3 - T - 1")
    assert (abs(o1.disc), abs(o2.disc)) == (6656, 12675)
    v1 = ot_volume(2, 6656, ug1.regulator)
    v2 = ot_volume(2, 12675, ug2.regulator)
    assert float(v1.value.mid()) > float(v2.value.mid())
    assert abs(float(v1.value.mid()) - 5.3600) < 1e-3
    assert abs(float(v2.value.mid()) - 4.6792) < 1e-3


def test_reduction_fixes_interior_points(disc23):
    order, _, _, ug = disc23
    dom = fundamental_domain(order, ug)
    pt = [complex(0.3, 2.1), complex(-1.2, 0.8)]
    red, _ = reduce_to_domain(pt, dom)
    again, elem = reduce_to_domain(red, dom)
    a, exps, _ = elem
    assert a == order.zero()
    assert all(e == 0 for e in exps)
    assert all(abs(x - y) < 1e-9 for x, y in zip(red, again))


def test_reduction_properties(disc23):
    order, _, _, ug = disc23
    dom = fundamental_domain(order, ug)
    rng = random.Random(17)
    for _ in range(25):
        pt = [complex(rng.uniform(-4, 4), rng.uniform(0.05, 5)),
              complex(rng.uniform(-4, 4), rng.uniform(-4, 4))]
        red, elem = reduce_to_domain(pt, dom)
        assert domain_contains(red, dom)
        red2, _ = reduce_to_domain(red, dom)
        assert all(abs(a - b) < 1e-8 for a, b in zip(red, red2))
        g = (order.element([rng.randint(-3, 3) for _ in range(3)]),
             [rng.randint(-2, 2)], None)
        red3, _ = reduce_to_domain(apply_group_element(pt, g, dom), dom)
        assert all(abs(a - b) < 1e-6 for a, b in zip(red, red3))


def test_reduction_verifies_group_element(disc23):
    order, _, _, ug = disc23
    dom = fundamental_domain(order, ug)
    pt = [complex(0.37, 1.9), complex(-0.4, 2.2)]
    red, elem = reduce_to_domain(pt, dom)
    back = apply_group_element(pt, elem, dom)
    assert all(abs(a - b) < 1e-9 for a, b in zip(red, back))


def test_mc_volume_within_three_sigma(disc23):
    order, _, _, ug = disc23
    dom = fundamental_domain(order, ug)
    v = mc_volume(dom, 100_000, seed=7)
    closed = float(ot_volume(1, 23, ug.regulator).value.mid())
    assert abs(v.meta["estimate"] - closed) <= 3 * v.stderr
    # reproducibility: identical seed, identical stream
    v2 = mc_volume(dom, 100_000, seed=7)
    assert v2.meta["estimate"] == v.meta["estimate"]
    with pytest.raises(ValueError):
        mc_volume(dom, 10, seed=1)


@pytest.mark.parametrize("poly, samples, seed, estimate", [
    # the block edges 2^16 - 1, 2^16 and 2^16 + 1 are deliberate
    ("T^3 - T + 1", 65535, 7, 0.3382069888939758),
    ("T^3 - T + 1", 65536, 7, 0.3382222486143635),
    ("T^3 - T + 1", 65537, 7, 0.338217087831163),
    ("T^3 - T + 1", 200003, 2 ** 64 + 9, 0.33547868747180937),
    ("T^4 - T^3 + 2*T - 1", 65537, 7, 0.069880079680082),
    ("T^4 - T^3 + 2*T - 1", 1000, 3, 0.07445164672686445),
])
def test_mc_volume_stream_is_pinned(fields, poly, samples, seed, estimate):
    # the Philox stream, its blocks and the hit test fix every estimate bit
    # for bit; a kernel change that moves one fails here
    order, _, _, ug = fields(poly)
    assert mc_volume(fundamental_domain(order, ug), samples, seed).meta["estimate"] \
        == estimate


def test_mc_volume_ball_when_every_sample_hits(disc23):
    # unit matrices make the cell its own box: every sample hits, and the
    # binomial ball, a point there, becomes [scale (1 - q/N), scale]
    order, _, _, ug = disc23
    dom = fundamental_domain(order, ug)
    def unit(k):
        return [[RealBall(int(i == j)) for j in range(k)] for i in range(k)]

    box = replace(dom, L=unit(dom.s), A=unit(order.n))
    v = mc_volume(box, 1000, seed=4)
    scale = float(dom.density)
    assert v.meta["estimate"] == scale and v.stderr == 0.0
    assert float(v.value.upper) == scale
    assert float(v.value.lower) == scale * (1 - MC_EMPTY_TAIL / 1000)


def _reductions(fields, poly, count):
    """Reduced points, translations and unit exponents of ``count`` seeded
    points of ``poly``'s cell, or the error each one raised, as text."""
    order, _, _, ug = fields(poly)
    dom = fundamental_domain(order, ug)
    rng = random.Random(f"reduce/{poly}")
    out = []
    for i in range(count):
        # every tenth point lies below the real axis (ValueError), and points
        # 4 and 14 have a coordinate of 10^300, whose floors stay undecided
        # up to the precision cap (PrecisionError)
        ys = [rng.uniform(0.05, 6) * (-1 if i % 10 == 9 else 1) for _ in range(dom.s)]
        pt = [complex(rng.uniform(-5, 5), y) for y in ys] \
            + [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))]
        if i in (4, 14):
            pt[0 if i == 4 else -1] += 1e300
        try:
            red, (a, exps, _) = reduce_to_domain(pt, dom)
            out.append(f"{[repr(z) for z in red]} {a.coords} {exps}")
        except (ValueError, ArithmeticError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(out)


@pytest.mark.parametrize("poly, digest", [
    ("T^3 - T + 1", "dacec7dfd665f6192da540c541ff2ee8"),
    ("T^4 - T^3 + 2*T - 1", "7afebb20c6a9ffb73d48a9c184274cb7"),
    ("T^3 - 2*T - 7", "aadd59825709418992cfa21de1f571a6"),
    # the reduction escalates to 384 bits on this cell
    ("T^3 + 2*T + 2000", "6a9ec52c08a3ede397a311cab3ef2fa8"),
])
def test_reduction_is_pinned(fields, poly, digest):
    # sha256 of 40 reductions, each solve made by eliminating the matrix
    # augmented by its right-hand side; at the precision the cell was made at
    # the kept eliminations replay the same operations, and every floor and
    # error is the same at the precisions escalation reaches
    text = _reductions(fields, poly, 40)
    assert sha256(text.encode()).hexdigest()[:32] == digest


def test_cell_eliminates_each_matrix_once(fields, monkeypatch):
    # the 40 points escalate up to the cap, and every rung replays the
    # eliminations of L and A that fundamental_domain made
    made = []

    class Counted(otkit.geometry.BallElimination):
        def __init__(self, M):
            made.append(len(M))
            super().__init__(M)

    monkeypatch.setattr(otkit.geometry, "BallElimination", Counted)
    text = _reductions(fields, "T^3 + 2*T + 2000", 40)
    assert "PrecisionError" in text
    assert made == [1, 3]


def test_mc_volume_large_cell_is_sharp(fields):
    # a regulator of 7.4 spans y over e^15; sampling in r = log(y)/2 keeps the
    # estimate light-tailed
    order, _, _, ug = fields("T^3 - 2*T - 7")
    v = mc_volume(fundamental_domain(order, ug), 1_000_000, seed=42)
    closed = float(ot_volume(1, abs(order.disc), ug.regulator).value.mid())
    assert v.stderr < 0.01 * closed
    assert abs(v.meta["estimate"] - closed) <= 3 * v.stderr


def test_scan_s1_smoke():
    records = min_volume_scan(1, 3, 100)
    assert records
    assert records[0].disc == -23
    assert abs(float(records[0].volume.mid()) - 0.337146) < 1e-5
    assert all(records[i].volume.mid() <= records[i + 1].volume.mid()
               for i in range(len(records) - 1))
    lb = float(volume_lower_bound(1).mid())
    assert all(float(r.volume.mid()) > lb for r in records)
    with pytest.raises(ValueError):
        min_volume_scan(4, 2, 100)


def test_scan_absurd_bounds_empty():
    assert min_volume_scan(1, 1, 5) == []


def test_scan_polynomials_ascend():
    tails = [tuple(f.coeffs) for f in _scan_polynomials(3, 2)]
    assert tails == sorted(tails) and len(set(tails)) == len(tails)
    assert all(t[0] != 0 and t[-1] == 1 for t in tails)


def test_scan_maximalizes_only_within_the_disc_bound(monkeypatch):
    # |disc K| >= |disc f| / (largest square divisor), since index^2 | disc f
    maximalize = otkit.geometry.maximalize
    bounds = []

    def checked(mo):
        factors, _, complete = trial_factor(mo.disc_f)
        square = prod(p ** (e - e % 2) for p, e in factors)
        bounds.append(abs(mo.disc_f) // square if complete else 0)
        return maximalize(mo)

    monkeypatch.setattr(otkit.geometry, "maximalize", checked)
    records = min_volume_scan(1, 3, 100)
    assert records and bounds and max(bounds) <= 100


def test_scan_computes_each_unit_group_once(monkeypatch):
    calls = []
    unit_group = otkit.geometry.unit_group

    def counted(order, *args, **kwargs):
        calls.append(order.f)
        return unit_group(order, *args, **kwargs)

    monkeypatch.setattr(otkit.geometry, "unit_group", counted)
    records = min_volume_scan(1, 3, 100)
    assert all(r.certified for r in records)
    assert calls == [r.poly for r in sorted(records, key=lambda r: r.poly.coeffs)]


# the records of min_volume_scan(2, 2, 500) and their volumes
S2_RECORDS = [
    ("T^4 + T^3 - 2*T - 1", -275, 1, True, []),
    ("T^4 - T - 1", -283, 1, True, []),
    ("T^4 + T^3 - T^2 - T - 1", -331, 1, True, []),
    ("T^4 - T^2 - 1", -400, 1, True, []),
    ("T^4 + 2*T^3 - T^2 - 2*T - 1", -448, 1, True, []),
    ("T^4 - T^3 - 2*T^2 - 2*T - 1", -475, 1, True, []),
    ("T^4 + T^3 - 2*T^2 - 2*T - 1", -491, 1, True, []),
]
S2_VOLUMES = [0.07174488548507201, 0.074558174331991257, 0.092147414677493359,
              0.11969486939755449, 0.13837779888502558, 0.14735074261974931,
              0.16451603457045856]


def _assert_s2_records(records):
    assert [(r.poly.format(), r.disc, r.index, r.certified, r.torsion_factors)
            for r in records] == S2_RECORDS
    assert all(abs(float(r.volume.mid()) - v) < 1e-15 for r, v in zip(records, S2_VOLUMES))


def test_scan_tests_irreducibility_after_the_square_part_filter(monkeypatch):
    # the disc-sign and square-part filters drop most polynomials before the
    # irreducibility test (346 calls when it came first)
    calls = []
    is_irreducible = otkit.polynomials.is_irreducible

    def counted(f):
        calls.append(f)
        return is_irreducible(f)

    for mod in (otkit.polynomials, otkit.orders, otkit.geometry):
        if getattr(mod, "is_irreducible", None) is is_irreducible:
            monkeypatch.setattr(mod, "is_irreducible", counted)
    records = min_volume_scan(2, 2, 500)
    assert len(calls) <= 260
    _assert_s2_records(records)


def test_scan_work_per_candidate(monkeypatch):
    # the sign of disc f replaces the signature, Dedekind's criterion leaves
    # Round 2 to the primes where Z[T] is not maximal, and Z[T] builds its
    # structure constants only when something multiplies (149 Round 2 steps,
    # 143 tables and 500 signatures before)
    steps, tables, signatures = [], [], []
    p_enlarge = otkit.orders._p_enlarge
    monkeypatch.setattr(otkit.orders, "_p_enlarge",
                        lambda order, p: steps.append(p) or p_enlarge(order, p))
    build = SubOrder._table.func
    table = cached_property(lambda order: tables.append(order) or build(order))
    table.__set_name__(SubOrder, "_table")
    monkeypatch.setattr(SubOrder, "_table", table)
    monkeypatch.setattr(otkit.orders, "signature",
                        lambda f: signatures.append(f) or signature(f))
    records = min_volume_scan(2, 2, 500)
    assert len(steps) <= 10
    assert len(tables) <= 17
    assert signatures == []
    _assert_s2_records(records)


def test_disc_sign_is_the_scan_signature():
    # sign(disc f) = (-1)^t for squarefree f, disc f = 0 for a repeated root;
    # t <= 2 at the scanned degrees 3, 4 and 5
    for s, bound in ((1, 6), (2, 2), (3, 2)):
        for f in _scan_polynomials(s + 2, bound):
            try:
                wanted = tuple(signature(f)) == (s, 1)
            except NotSquarefreeError:
                wanted = False
            assert (poly_discriminant(f) < 0) is wanted, f
    for s in (0, 4):
        with pytest.raises(ValueError):
            min_volume_scan(s, 2, 100)


def _mirror(f):
    """(-1)^n f(-T): the coefficient of T^i changes sign when n - i is odd."""
    n = f.degree
    return P([-c if (n - i) % 2 else c for i, c in enumerate(f.coeffs)])


def test_scan_settles_each_mirror_pair_once(monkeypatch):
    # f and (-1)^n f(-T) share disc f, irreducibility and the maximal order
    # disc, so the second of a pair is not tested again (137 maximalize
    # calls and 260 irreducibility tests when both were)
    maximalized, tested = [], []
    maximalize = otkit.geometry.maximalize
    is_irreducible = otkit.geometry.is_irreducible
    monkeypatch.setattr(otkit.geometry, "maximalize",
                        lambda mo: maximalized.append(mo.f) or maximalize(mo))
    monkeypatch.setattr(otkit.geometry, "is_irreducible",
                        lambda f: tested.append(f) or is_irreducible(f))
    records = min_volume_scan(2, 2, 500)
    assert len(maximalized) <= 72
    assert len(tested) <= 135
    assert all(_mirror(f) == f or _mirror(f) not in tested for f in tested)
    _assert_s2_records(records)


# the first polynomial of the disc -23 field in min_volume_scan(1, 3, 100),
# and its mirror, which comes later in the box
FIRST_23 = P.parse("T^3 - 2*T^2 - 3*T - 1")
MIRROR_23 = P.parse("T^3 + 2*T^2 - 3*T + 1")


@pytest.mark.parametrize("outcome", ["raises", "uncertified"])
def test_scan_retries_an_unsettled_mirror(monkeypatch, outcome):
    # the mirror is skipped only once its twin's outcome is final: when the
    # unit group fails or stays uncertified for every polynomial of the field
    # but MIRROR_23, the field's record still comes from MIRROR_23
    assert _mirror(FIRST_23) == MIRROR_23
    calls = []
    unit_group = otkit.geometry.unit_group

    def failing(order, *args, **kwargs):
        if order.disc == -23:
            calls.append(order.f)
        if order.disc != -23 or order.f == MIRROR_23:
            return unit_group(order, *args, **kwargs)
        if outcome == "raises":
            raise InsufficientUnitsError("stand-in failure")
        ug = unit_group(order, *args, **kwargs)
        ug.certified_index_bound = 2
        return ug

    monkeypatch.setattr(otkit.geometry, "unit_group", failing)
    records = min_volume_scan(1, 3, 100)
    field = [r for r in records if r.disc == -23]
    assert [(r.poly, r.certified) for r in field] == [(MIRROR_23, True)]
    assert len(records) == 7 and all(r.certified for r in records)
    assert calls[0] == FIRST_23 and calls[-1] == MIRROR_23


def test_scan_box_is_closed_under_the_mirror():
    # the mirror fixes f exactly when the coefficients of T^(n-1), T^(n-3),
    # ... vanish
    for n, bound in ((3, 3), (4, 2), (5, 1)):
        box = set(_scan_polynomials(n, bound))
        assert {_mirror(f) for f in box} == box
        fixed = {f for f in box
                 if all(f.coeffs[i] == 0 for i in range(n - 1, -1, -2))}
        assert fixed == {f for f in box if _mirror(f) == f}
