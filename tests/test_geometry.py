import random
from math import prod

import pytest
from mpmath import mp

import otkit.geometry
from otkit.embeddings import EmbeddingTable
from otkit.factorint import trial_factor
from otkit.geometry import (_scan_polynomials, apply_group_element, domain_contains,
                            fundamental_domain, inoue_closed_form, mc_volume,
                            metric_det_check, min_volume_scan, ot_volume,
                            reduce_to_domain, torsion_upper_bound,
                            volume_determinant_path, volume_lower_bound)
from otkit.orders import build_order
from otkit.polynomials import IntPolynomial
from otkit.roots import isolate_roots
from otkit.unitgroup import units_from_generators

P = IntPolynomial


def test_closed_form_disc23(disc23):
    order, _, _, ug = disc23
    v = ot_volume(1, 23, ug.regulator)
    assert abs(float(v.value.mid()) - 0.337146) < 1e-5
    assert str(v.prefactor) == "1/4"


def test_determinant_path_agrees(disc23, quartic275):
    for order, _, _, ug in (disc23, quartic275):
        closed = ot_volume(ug.table.s, abs(order.disc), ug.regulator)
        det = volume_determinant_path(order, ug)
        assert closed.value.overlaps(det.value)
    # |det Minkowski|^2 ~ disc/4^t
    det = volume_determinant_path(disc23[0], disc23[3])
    ratio = det.meta["det_minkowski"] ** 2 / (23 / 4)
    assert abs(ratio - 1) < 2 ** -40
    # |det of squared-generator logs| = 2^s R
    for order, _, _, ug in (disc23, quartic275):
        d = volume_determinant_path(order, ug)
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
    det = volume_determinant_path(order, ug).value
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
        po = build_order(f).power_suborder()
        table = EmbeddingTable(po, isolate_roots(f))
        supplied = units_from_generators(po, [po.tbar()], table=table)
        vi = inoue_closed_form(m)
        vd = volume_determinant_path(po, supplied)
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
        calls.append(order.ambient.f)
        return unit_group(order, *args, **kwargs)

    monkeypatch.setattr(otkit.geometry, "unit_group", counted)
    records = min_volume_scan(1, 3, 100)
    assert all(r.certified for r in records)
    assert calls == [r.poly for r in sorted(records, key=lambda r: r.poly.coeffs)]
