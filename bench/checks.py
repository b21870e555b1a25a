"""Answer checks: every operation's answer is checked before its time counts.

Each ``check_*`` function returns a list of problems; an empty list means the
answer is right.  A wrong answer counts as a failed operation.
"""

from __future__ import annotations

import json
from pathlib import Path

from mpmath import mp

R_DISC23 = 0.28119957432      # regulator of the field of discriminant -23
R_DISC23_TOL = 1e-9
VOL_DISC23 = 0.337146
S2_PUBLISHED = [0.0717, 0.0745, 0.0921, 0.1196, 0.1473]   # s = 2 scan, in order
MC_STDERRS = 5      # a deviation beyond this many standard errors is wrong


def load_expected(root: Path) -> dict:
    path = root / "src" / "otkit" / "data" / "expected_tables.json"
    with open(path) as fh:
        return json.load(fh)


def float_cell_ok(expected: str, got: float, abs_tol: float) -> bool:
    """Published cells print truncated digits: accept truncation or abs_tol."""
    val = float(expected)
    decimals = len(expected.split(".")[1]) if "." in expected else 0
    scale = 10 ** decimals
    return int(got * scale) / scale == val or abs(got - val) <= abs_tol


def _ball(d) -> tuple:
    return mp.mpf(d["mid"]), mp.mpf(d["rad"])


def _overlap(a, b) -> bool:
    """Two printed balls overlap; mids are printed to 24 digits, so allow that."""
    (ma, ra), (mb, rb) = _ball(a), _ball(b)
    slack = mp.mpf(10) ** -22 * max(abs(ma), abs(mb))
    return abs(ma - mb) <= ra + rb + slack


# -- fields ---------------------------------------------------------------------


def check_field(report: dict, panel_poly: str, expected: dict, otkit) -> list[str]:
    """A `field --format json` report, by cross-path identities and pins."""
    with mp.workdps(60):
        return _check_field(report, panel_poly, expected, otkit)


def _check_field(report, panel_poly, expected, otkit) -> list[str]:
    bad = []
    units = report["units"]
    if units["certified_index_bound"] != 1 or not report["order_certified"]:
        bad.append(f"not certified (index bound {units['certified_index_bound']}, "
                   f"order certified {report['order_certified']})")
    J = int(report["J"]["norm"])
    tors = [int(x) for x in report["torsion"]["factors"]]
    tors_order = 1
    for x in tors:
        tors_order *= x
    if int(report["torsion"]["order"]) != tors_order or tors_order != J:
        bad.append(f"SNF torsion order {report['torsion']['order']} != |J| {J}")
    factored = int(report["J"]["cofactor"])
    for p, e in report["J"]["factors"]:
        factored *= int(p) ** e
    if factored != J:
        bad.append("J factor list does not multiply to |J|")
    vols = report["volume"]
    if not _overlap(vols["closed_form"]["value"], vols["determinant_path"]["value"]):
        bad.append("closed-form volume misses the determinant path")
    # H1 of the group presentation, rebuilt from the reported generators
    f = otkit.polynomials.IntPolynomial.parse(report["poly"])
    order, _, _ = otkit.orders.maximalize(otkit.orders.build_order(f))
    if str(order.disc) != report["disc"]:
        bad.append(f"disc {report['disc']} != rebuilt {order.disc}")
    gens = [order.element([int(c) for c in g])
            for g in units["totally_positive_generators"]]
    if not all(order.is_unit(g) for g in gens):
        bad.append("a reported generator is not a unit")
    else:
        pres = otkit.topology.presentation_from_field(order, gens)
        free, h1_tors = otkit.topology.h1(pres)
        if h1_tors.order_of_torsion != J or free != len(gens):
            bad.append(f"H1 torsion {h1_tors.order_of_torsion} != |J| {J}")
    bad += _check_field_pins(report, panel_poly, expected)
    return bad


def _check_field_pins(report, panel_poly, expected) -> list[str]:
    bad = []
    pinned = expected["fields"].get(panel_poly)
    got = (int(report["disc"]), int(report["J"]["norm"]))
    if pinned is not None and got != pinned:
        bad.append(f"(disc, |J|) = {got}, pinned {pinned}")
    reg = float(report["units"]["regulator"]["mid"])
    vol = float(mp.mpf(report["volume"]["closed_form"]["value"]["mid"]))
    if panel_poly == "T^3 + T^2 - 1":
        if abs(reg - R_DISC23) > R_DISC23_TOL or abs(vol - VOL_DISC23) > 1e-5:
            bad.append(f"disc -23: R = {reg}, vol = {vol}")
    elif panel_poly == expected["computeJ"]["big_example"]["poly"]:
        want = [[p, e] for p, e in expected["computeJ"]["big_example"]["factors"]]
        if report["J"]["factors"] != want or report["J"]["cofactor"] != "1" \
                or report["units"]["certified_index_bound"] != 1:
            bad.append(f"|J| factors {report['J']['factors']} != published {want}")
    elif panel_poly == "T^4 - T^3 + 2*T - 1":
        row = next(r for r in expected["minvol"]["rows"] if r["s"] == 2)
        if abs(int(report["disc"])) != row["disc_1st"] \
                or not float_cell_ok(row["vol_1st"], vol, 1e-4):
            bad.append(f"disc -275: disc {report['disc']}, vol {vol}")
    return bad


# -- scans ----------------------------------------------------------------------


def check_scan(s: int, records, expected: dict, lower_bound: float) -> list[str]:
    """One minimal-volume scan against the published minima."""
    bad = []
    vols = [float(r.volume.mid()) for r in records]
    if not records:
        return [f"s={s}: no records"]
    if any(v <= lower_bound for v in vols):
        bad.append(f"s={s}: a volume below the dimension-wise lower bound")
    if vols != sorted(vols):
        bad.append(f"s={s}: records not sorted by volume")
    row = next(r for r in expected["minvol"]["rows"] if r["s"] == s)
    if abs(records[0].disc) != row["disc_1st"] \
            or not float_cell_ok(row["vol_1st"], vols[0], 1e-4):
        bad.append(f"s={s}: minimum {vols[0]} at {records[0].disc}, published"
                   f" {row['vol_1st']} at {row['disc_1st']}")
    if s == 1:
        if records[0].disc != -23 or abs(vols[0] - VOL_DISC23) > 1e-5:
            bad.append("s=1: minimum is not the disc -23 field")
        if len(vols) > 1 and not vols[1] > vols[0] + 1e-6:
            bad.append("s=1: minimum not unique")
    if s == 2:
        pos = 0
        for want in S2_PUBLISHED:
            while pos < len(vols) and abs(vols[pos] - want) > 1e-3:
                pos += 1
            if pos == len(vols):
                bad.append(f"s=2: published volume {want} missing or out of order")
                break
            pos += 1
        if not all(r.certified for r in records):
            bad.append("s=2: uncertified record")
    if s == 3 and (abs(records[0].disc) != 4511 or abs(vols[0] - 0.00515) > 1e-4):
        bad.append("s=3: minimum is not at |disc| 4511")
    return bad


# -- quotient -------------------------------------------------------------------


def check_quotient(ans: dict, field, otkit) -> list[str]:
    """One quotient operation: Monte Carlo, reductions, H1 and reconstruction."""
    bad = []
    if "mc_estimate" in ans:
        est, stderr = ans["mc_estimate"], ans["mc_stderr"]
        if not abs(est - field.closed_volume) <= MC_STDERRS * stderr:
            bad.append(f"MC {est} vs closed form {field.closed_volume}"
                       f" ({(est - field.closed_volume) / stderr:+.1f} stderr)")
        if not stderr <= 0.01 * field.closed_volume:
            bad.append(f"MC stderr {stderr} above 1% of the volume")
    if "reduced" in ans:
        outside = [p for p in ans["reduced"]
                   if not otkit.geometry.domain_contains(p, ans["domain"])]
        if outside:
            bad.append(f"{len(outside)} reduced points outside the cell")
    if "h1_free" in ans:
        bad += _check_h1(ans, field, otkit)
    return bad


def _check_h1(ans: dict, field, otkit) -> list[str]:
    bad = []
    if ans["h1_free"] != len(field.gens) or ans["h1_torsion"] != field.J.norm:
        bad.append(f"H1 = Z^{ans['h1_free']} + torsion {ans['h1_torsion']},"
                   f" |J| = {field.J.norm}")
    if ans["closure"] != field.J:
        bad.append("commutator closure differs from J")
    if not ans["primitive"]:
        bad.append("reconstruction witness not primitive")
    else:
        rebuilt, _, _ = otkit.orders.maximalize(otkit.orders.build_order(ans["minpoly"]))
        if rebuilt.disc != field.order.disc:
            bad.append(f"reconstructed disc {rebuilt.disc} != {field.order.disc}")
    return bad
