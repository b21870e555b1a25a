"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Time limits are asserted; tolerances are pinned here and nowhere else.
Float cells of the reference tables are compared truncation-aware because
the sources print truncated digits (see tables module).
"""

import random
import time

import pytest
from mpmath import mp

from conftest import field_data
from otkit.embeddings import EmbeddingTable
from otkit.geometry import (fundamental_domain, inoue_closed_form, mc_volume,
                            metric_det_check, min_volume_scan, ot_volume,
                            reduce_to_domain, apply_group_element,
                            domain_contains, torsion_upper_bound,
                            volume_determinant_path, volume_lower_bound)
from otkit.intmat import hnf
from otkit.orders import ReduciblePolynomialError, build_order, maximalize, signature
from otkit.polynomials import IntPolynomial, poly_discriminant
from otkit.tables import _float_cell_ok, load_expected
from otkit.topology import (commutator_sample_closure, compositum,
                            example_compositum_action, h1,
                            presentation_from_field, reconstruct_minpoly)
from otkit.unitgroup import (j_ideal, torsion_group, unit_group,
                             units_from_generators)

P = IntPolynomial


def _report(num, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2}: {status}  ({elapsed:6.1f}s / limit {limit}s)  {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def _published_torsion(f, convention):
    order, index, cert, ug = field_data(f)
    g = ug.totally_positive_generators
    if convention == "alt":
        return j_ideal(order, [-g[0]]).norm
    return j_ideal(order, g).norm


def test_criterion_1_torsion_tables():
    t0 = time.perf_counter()
    data = load_expected()["computeJ"]
    ok = True
    details = []
    want_F = {1: 1, 2: 4, 3: 9, 4: 8, 5: 19, 7: 17}
    want_H = {2: 2, 3: 18, 5: 16, 6: 330, 7: 1526}
    for m, want in want_F.items():
        conv = data["F"][str(m)]["convention"]
        got = _published_torsion(P([m, -1, 0, 1]), conv)
        if got != want:
            ok = False
            details.append(f"F_{m}: {got} != {want}")
    for m, want in want_H.items():
        conv = data["H"][str(m)]["convention"]
        got = _published_torsion(P([-m, -2, 0, 1]), conv)
        if got != want:
            ok = False
            details.append(f"H_{m}: {got} != {want}")
    with pytest.raises(ReduciblePolynomialError):
        build_order(P([6, -1, 0, 1]))
    _report(1, ok, time.perf_counter() - t0, 10, "; ".join(details) or
            "F(1..5,7) and H(2,3,5,6,7) columns exact")


def test_criterion_2_large_torsion():
    t0 = time.perf_counter()
    from otkit.factorint import trial_factor

    order, index, cert, ug = field_data("T^3 + 2*T + 2000")
    J = j_ideal(order, ug.totally_positive_generators)
    factors, cofactor, _ = trial_factor(J.norm)
    want = [(2, 2), (5, 2), (7, 1), (967, 1), (1649120827309715616889, 1)]
    ok = factors == want and cofactor == 1 and ug.certified_index_bound == 1
    _report(2, ok, time.perf_counter() - t0, 30,
            f"|J| = {J.norm} with exact factor list")


def test_criterion_3_disc23_volume():
    t0 = time.perf_counter()
    order, index, cert = maximalize(build_order(P.parse("T^3 - T + 1")))
    ug = unit_group(order)
    reg = float(ug.regulator.mid())
    vol = float(ot_volume(1, 23, ug.regulator).value.mid())
    ok = abs(reg - 0.28119957432) <= 1e-9 and abs(vol - 0.337146) <= 1e-5
    _report(3, ok, time.perf_counter() - t0, 1,
            f"R = {reg:.11f}, vol = {vol:.6f}")


def _random_cubics(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = P([rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6), 1])
        if f.coeffs[0] == 0:
            continue
        try:
            build_order(f)
        except (ReduciblePolynomialError, ValueError):
            continue
        sig = signature(f)
        if (sig.s, sig.t) != (1, 1):
            continue
        out.append(f)
    return out


def test_criterion_4_two_path_h1():
    t0 = time.perf_counter()
    fields = _random_cubics(20, seed=4511)
    ok = True
    bad = []
    for i, f in enumerate(fields):
        order, index, cert, ug = field_data(f)
        gens = ug.totally_positive_generators
        t_units = torsion_group(j_ideal(order, gens))
        p = presentation_from_field(order, gens)
        _, t_snf = h1(p)
        J = j_ideal(order, gens)
        closure = commutator_sample_closure(p, 48, seed=100 + i, order=order)
        if not (t_units == t_snf and closure == J
                and J.norm == t_units.order_of_torsion):
            ok = False
            bad.append(f.format())
    _report(4, ok, time.perf_counter() - t0, 60,
            f"20 random cubics, three-path equality" + ("; bad: " + ", ".join(bad) if bad else ""))


def test_criterion_5_prescribed_torsion_family():
    t0 = time.perf_counter()
    ok = True
    details = []
    for m in range(1, 51):
        f = P([-1, m, 0, 1])
        po = build_order(f)
        pres = presentation_from_field(po, [po.tbar()])
        free, tors = h1(pres)
        if not (free == 1 and tors.factors == ([m] if m > 1 else [])):
            ok = False
            details.append(f"h1 m={m}")
        table = EmbeddingTable(po)
        supplied = units_from_generators(po, [po.tbar()], table=table)
        vi = inoue_closed_form(m)
        vd = volume_determinant_path(supplied)
        rel = abs(float(vi.value.mid()) - float(vd.value.mid())) / float(vi.value.mid())
        if rel > 1e-9:
            ok = False
            details.append(f"vol m={m} rel={rel:.2e}")
    want_idx = {8: (5, 2), 16: (1, 1), 24: (1, 1), 32: (1, 1), 40: (1, 1),
                48: (1, 1), 56: (31, 2), 64: (1, 1), 72: (33, 2)}
    for m, (oi, ui) in want_idx.items():
        order, index, cert, ug = field_data(P([-1, m, 0, 1]))
        log_t = abs(abs(ug.table.real_value(order.tbar(), 0)).log())
        got_ui = int(mp.nint((log_t / ug.regulator).mid()))
        if index != oi or got_ui != ui:
            ok = False
            details.append(f"index m={m}: ({index},{got_ui}) != ({oi},{ui})")
    _report(5, ok, time.perf_counter() - t0, 60,
            "; ".join(details) or "H1 = Z + Z/m for m <= 50; volumes to 1e-9; index table exact")


def test_criterion_6_volume_bounds_table():
    t0 = time.perf_counter()
    rows = load_expected()["volumebounds"]["rows"]
    ok = True
    details = []
    for row in rows:
        m = row["m"]
        order, index, cert, ug = field_data(P([-m, 8, 0, 1]))
        tors = j_ideal(order, ug.totally_positive_generators).norm
        if str(tors) != row["torsion"]:
            ok = False
            details.append(f"torsion m={m}")
        vol = ot_volume(1, abs(order.disc), ug.regulator)
        bound = torsion_upper_bound(vol.value, abs(order.disc))
        if not _float_cell_ok(row["vol"], float(vol.value.mid())):
            ok = False
            details.append(f"vol m={m}")
        if not _float_cell_ok(row["bound"], float(bound.mid())):
            ok = False
            details.append(f"bound m={m}")
        if not tors <= float(bound.upper):
            ok = False
            details.append(f"inequality m={m}")
    _report(6, ok, time.perf_counter() - t0, 120,
            "; ".join(details) or "9 rows: torsion exact, floats to display precision, bound >= torsion")


def test_criterion_7_monte_carlo():
    t0 = time.perf_counter()
    order, index, cert, ug = field_data("T^3 - T + 1")
    dom = fundamental_domain(order, ug)
    v = mc_volume(dom, 1_000_000, seed=42)
    closed = float(ot_volume(1, 23, ug.regulator).value.mid())
    dev = abs(v.meta["estimate"] - closed)
    ok = dev <= 3 * v.stderr and v.stderr <= 0.01 * closed
    _report(7, ok, time.perf_counter() - t0, 60,
            f"estimate {v.meta['estimate']:.6f} vs {closed:.6f}, stderr {v.stderr:.2e}")


@pytest.fixture(scope="module")
def scans():
    out = {}
    t0 = time.perf_counter()
    out[1] = min_volume_scan(1, 6, 200)
    out[2] = min_volume_scan(2, 2, 500)
    out[3] = min_volume_scan(3, 2, 4600)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_8_minimal_volume_scans(scans):
    ok = True
    details = []
    s1 = scans[1]
    if not s1 or s1[0].disc != -23 or abs(float(s1[0].volume.mid()) - 0.337146) > 1e-5:
        ok = False
        details.append("s=1 minimum")
    if len(s1) > 1 and not (float(s1[1].volume.mid()) > float(s1[0].volume.mid()) + 1e-6):
        ok = False
        details.append("s=1 uniqueness")
    want2 = [0.0717, 0.0745, 0.0921, 0.1196, 0.1473]
    vols2 = [float(r.volume.mid()) for r in scans[2]]
    pos = 0
    for w in want2:
        while pos < len(vols2) and abs(vols2[pos] - w) > 1e-3:
            pos += 1
        if pos == len(vols2):
            ok = False
            details.append(f"s=2 missing {w}")
            break
        pos += 1
    if not all(r.certified for r in scans[2]):
        ok = False
        details.append("s=2 uncertified record")
    s3 = scans[3]
    if not s3 or abs(s3[0].disc) != 4511 \
            or abs(float(s3[0].volume.mid()) - 0.00515) > 1e-4:
        ok = False
        details.append("s=3 minimum")
    _report(8, ok, scans["elapsed"], 600,
            "; ".join(details) or
            f"s=1 min at -23; s=2 five published volumes in order; s=3 min {float(s3[0].volume.mid()):.5f} at 4511")


def test_criterion_9_reconstruction_round_trip():
    t0 = time.perf_counter()
    polys = ["T^3 + T^2 - 1", "T^3 - T + 2", "T^3 - T + 3", "T^3 - T + 5",
             "T^3 - 2*T - 3", "T^3 - 2*T - 5", "T^3 - 2*T - 6", "T^3 + 8*T - 1",
             "T^3 + 8*T - 4", "T^3 - 2*T - 7"]
    ok = True
    details = []
    for text in polys:
        order, index, cert, ug = field_data(text)
        p = presentation_from_field(order, ug.totally_positive_generators)
        poly, primitive = reconstruct_minpoly(p, trials=16, seed=9)
        if not primitive:
            ok = False
            details.append(f"{text}: non-primitive")
            continue
        r_order, r_index, r_cert = maximalize(build_order(poly))
        r_ug = unit_group(r_order)
        if r_order.disc != order.disc or not r_ug.regulator.overlaps(ug.regulator):
            ok = False
            details.append(f"{text}: round trip broke")
    order, _, _, ug = field_data("T^3 + T^2 - 1")
    p = presentation_from_field(order, ug.totally_positive_generators)
    poly, _ = reconstruct_minpoly(p, trials=16, seed=9)
    if poly not in (P.parse("T^3 + T^2 - 1"), P.parse("T^3 - T - 1")):
        ok = False
        details.append("disc -23 did not recover the generator polynomial")
    _report(9, ok, time.perf_counter() - t0, 30,
            "; ".join(details) or "10 fields: disc equal, regulator overlap; generator recovered")


def test_criterion_10_compositum_example():
    t0 = time.perf_counter()
    f1 = P.parse("T^3 + T + 1")
    h2, sig2 = compositum(f1, P.parse("T^3 - T + 2"))
    h3, sig3 = compositum(f1, P.parse("T^3 - T + 1"))
    ok = (h2.degree == 9 and h3.degree == 9
          and (sig2.s, sig2.t) == (1, 4) and (sig3.s, sig3.t) == (1, 4))
    M2 = example_compositum_action(f1)
    M3 = example_compositum_action(f1)
    ok = ok and M2 == M3
    ok = ok and poly_discriminant(h2) != poly_discriminant(h3)
    _report(10, ok, time.perf_counter() - t0, 30,
            "both composita degree 9 with signature (1,4); matrices identical; discs differ")


def test_criterion_11_identity_suites(scans):
    t0 = time.perf_counter()
    ok = True
    details = []
    rng = random.Random(64)
    # metric determinant identity, 100 draws across s <= 4
    for i in range(100):
        s = rng.randint(1, 4)
        ys = [rng.uniform(0.1, 5.0) for _ in range(s)]
        if metric_det_check(s, ys)["relative_deviation"] >= 2 ** -64:
            ok = False
            details.append(f"metric draw {i}")
            break
    # J(U) + J(V) = J(U V) on 50 pairs
    pool = ["T^3 - T + 2", "T^3 - T + 5", "T^3 - 2*T - 6", "T^3 + 8*T - 4",
            "T^4 - T^3 + 2*T - 1"]
    for i in range(50):
        order, _, _, ug = field_data(pool[i % len(pool)])
        gens = ug.totally_positive_generators
        U = [g ** rng.randint(1, 3) for g in gens]
        V = [g ** rng.randint(1, 3) for g in gens]
        JU, JV = j_ideal(order, U), j_ideal(order, V)
        summed = hnf([ru + rv for ru, rv in zip(JU.basis, JV.basis)])
        if summed != j_ideal(order, U + V).basis:
            ok = False
            details.append(f"ideal sum draw {i}")
            break
    # reduction idempotence and orbit invariance on 10^3 points
    order, _, _, ug = field_data("T^3 - T + 1")
    dom = fundamental_domain(order, ug)
    for i in range(1000):
        pt = [complex(rng.uniform(-5, 5), rng.uniform(0.05, 6)),
              complex(rng.uniform(-5, 5), rng.uniform(-5, 5))]
        red, _ = reduce_to_domain(pt, dom)
        red2, _ = reduce_to_domain(red, dom)
        if not (domain_contains(red, dom)
                and all(abs(a - b) < 1e-8 for a, b in zip(red, red2))):
            ok = False
            details.append(f"idempotence point {i}")
            break
        if i % 10 == 0:
            g = (order.element([rng.randint(-3, 3) for _ in range(3)]),
                 [rng.randint(-2, 2)], None)
            red3, _ = reduce_to_domain(apply_group_element(pt, g, dom), dom)
            if not all(abs(a - b) < 1e-6 for a, b in zip(red, red3)):
                ok = False
                details.append(f"orbit point {i}")
                break
    # dimension-wise lower bound sits below every scanned volume
    for s in (1, 2, 3):
        lb = float(volume_lower_bound(s).mid())
        if not all(float(r.volume.mid()) > lb for r in scans[s]):
            ok = False
            details.append(f"lower bound s={s}")
    _report(11, ok, time.perf_counter() - t0, 600,
            "; ".join(details) or
            "metric 2^-64; 50 ideal sums; 10^3 reductions; lower bounds hold")
