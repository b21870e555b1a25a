"""Tests of the benchmark itself: inputs, tracing and the answer checks.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import panel
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
otkit, _ = run.import_otkit(ROOT / "src")


def test_same_seed_same_fields():
    assert panel.fields_pass(7, 0) == panel.fields_pass(7, 0)
    assert panel.fields_pass(7, 0) != panel.fields_pass(8, 0)
    assert panel.fields_pass(7, 0) != panel.fields_pass(7, 1)
    shown = panel.fields_pass(7, 0)
    assert sorted(p for _, p, _ in shown) == sorted(p for _, p, _, _ in panel.PANEL)
    for _, p, q in shown:
        assert q in (p, panel.format_poly(panel.flip(panel.parse_poly(p))))


def test_panel_and_ledger_hold_every_draw_once():
    drawn = [p for polys in panel.draw_panel().values() for p in polys]
    kept = ([p for kind, p, _, _ in panel.PANEL if kind != "anchor"]
            + [p for _, p in panel.LEDGER if p in drawn])
    assert sorted(kept) == sorted(drawn)


def test_format_parse_round_trip():
    for _, p, _, _ in panel.PANEL:
        coeffs = panel.parse_poly(p)
        assert panel.format_poly(coeffs) == p
        assert list(otkit.polynomials.IntPolynomial.parse(p).coeffs) == coeffs


def _cheap_ops(seed):
    fields = workloads.FieldsWorkload(ROOT, seed, otkit)
    fields.prepare()
    p, q = "T^3 + T^2 + 2*T - 7", "T^3 + 4*T^2 + 3*T + 1"
    flipped = panel.format_poly(panel.flip(panel.parse_poly(q)))
    quotient = workloads.QuotientWorkload(ROOT, seed, otkit)
    quotient.prepare()
    return [fields._op("small", p, p), fields._op("small", q, flipped),
            quotient.pass_ops(0)[0]]


def test_traced_and_untraced_answers_agree():
    ops = _cheap_ops(3)
    plain = [run.run_op(op) for op in ops]
    tracer = spans.Tracer()
    traced = [run.run_op(op, tracer, i) for i, op in enumerate(ops)]
    assert all(r["ok"] for r in plain + traced), [r["problems"] for r in plain + traced]
    assert [r["fingerprint"] for r in plain] == [r["fingerprint"] for r in traced]
    stats = tracer.stats
    assert stats["cli.cmd_field"].calls == 2
    assert stats["unitgroup.unit_group"].calls == 2
    assert stats["geometry.mc_volume"].calls == 1
    assert stats["geometry.reduce_to_domain"].calls == workloads.POINTS_PER_OP
    assert len(tracer.spans) == sum(st.calls for st in stats.values())
    assert all(st.self_time <= st.busy + 1e-9 for st in stats.values())
    # the wrappers are gone again
    assert otkit.cli.unit_group is otkit.unitgroup.unit_group
    assert not hasattr(otkit.unitgroup.unit_group, "__wrapped__")


def test_absent_stage_is_reported_not_fatal():
    tracer = spans.Tracer()
    tracer.install([("unitgroup.gone", "otkit.unitgroup", "_no_such_function"),
                    ("lattice.gone", "otkit.unitgroup", "_NoSuchClass.insert")])
    tracer.uninstall()
    assert tracer.absent == ["unitgroup.gone", "lattice.gone"]


def test_checker_flags_a_tampered_answer():
    fields = workloads.FieldsWorkload(ROOT, 0, otkit)
    fields.prepare()
    poly = "T^3 + T^2 + 2*T - 7"
    report = json.loads(workloads._field_report(otkit, poly)["stdout"])
    assert checks.check_field(report, poly, fields.expected, otkit) == []
    wrong = json.loads(json.dumps(report))
    wrong["J"]["norm"] = str(int(report["J"]["norm"]) + 1)
    assert checks.check_field(wrong, poly, fields.expected, otkit)
    wrong = json.loads(json.dumps(report))
    wrong["torsion"]["factors"] = ["7"]
    assert checks.check_field(wrong, poly, fields.expected, otkit)
    wrong = json.loads(json.dumps(report))
    wrong["volume"]["determinant_path"]["value"]["mid"] = "1.5"
    assert checks.check_field(wrong, poly, fields.expected, otkit)


def test_scan_checker_flags_a_wrong_minimum():
    expected = checks.load_expected(ROOT)
    records = otkit.geometry.min_volume_scan(1, 1, 40)
    lower = float(otkit.geometry.volume_lower_bound(1).mid())
    assert checks.check_scan(1, records, expected, lower) == []
    assert checks.check_scan(1, records[1:], expected, lower)


def test_refuses_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_per_layer_metric_is_reported(name):
    result = {"label": "x", "t": 1.0, "ok": False, "summary": None}
    workload = workloads.WORKLOADS[name](ROOT, 0, otkit)
    layer = run.per_layer(spans.Tracer(), workload, [result], [result], [])
    assert list(layer) == [n for n, _ in run.PER_LAYER]


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    result = {"label": "x", "t": 1.0, "ok": True, "summary": {}}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([result], 1.0))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
