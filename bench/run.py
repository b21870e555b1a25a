"""otkit benchmark: one workload per run, every answer checked, metrics by name.

    python3 bench/run.py --workload {fields,scan,quotient} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout: otkit is imported from ./src and
nothing is installed.  One process, one client, closed loop, single thread
(the BLAS thread count is pinned to 1).  A run repeats whole passes of its
workload until about ``--seconds`` have gone (at least one pass); each
operation's time counts only after its answer has been checked.  Times are
the process's processor time, which leaves out the time the host gives to
others; set-up is timed the same way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` the run makes its
passes with each operation run twice back to back, once plain and once with
stage spans installed (see spans.py), alternating which goes first, then
attempts the workload's failure ledger; the metrics are the per-layer ones.
The lines before it give the environment, the workload figures and one line
per failed operation.  The full record, and the spans
of a traced run, are written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PER_LAYER = [
    ("unitgroup.certify.busy_s", "s"),
    ("unitgroup.kth_root.calls", "count"),
    ("unitgroup.kth_root.self_s", "s"),
    ("unitgroup.kth_root.hit_ratio", "ratio"),
    ("unitgroup.sweep_units.busy_s", "s"),
    ("unitgroup.sweep_lll.calls", "count"),
    ("unitgroup.sweep_lll.self_s", "s"),
    ("unitgroup.lattice_insert.calls", "count"),
    ("unitgroup.lattice_insert.self_s", "s"),
    ("embeddings.log_vector.calls", "count"),
    ("embeddings.log_vector.self_s", "s"),
    ("unitgroup.unit_group.calls", "count"),
    ("unitgroup.unit_group.busy_s", "s"),
    ("unitgroup.unit_group.failed", "count"),
    ("unitgroup.unit_group.escalations", "count"),
    ("unitgroup.unit_group.useful_ratio", "ratio"),
    ("unitgroup.j_ideal.self_s", "s"),
    ("unitgroup.torsion_group.self_s", "s"),
    ("roots.isolate_roots.calls", "count"),
    ("roots.isolate_roots.self_s", "s"),
    ("orders.maximalize.calls", "count"),
    ("orders.maximalize.self_s", "s"),
    ("polynomials.is_irreducible.calls", "count"),
    ("polynomials.is_irreducible.self_s", "s"),
    ("cli.cmd_field.self_s", "s"),
    ("factorint.trial_factor.self_s", "s"),
    ("geometry.mc_volume.self_s", "s"),
    ("geometry.reduce_to_domain.calls", "count"),
    ("geometry.reduce_to_domain.self_s", "s"),
    ("geometry.fundamental_domain.self_s", "s"),
    ("geometry.volume_determinant_path.self_s", "s"),
    ("geometry.min_volume_scan.self_s", "s"),
    ("topology.h1.self_s", "s"),
    ("topology.commutator_sample_closure.self_s", "s"),
    ("topology.reconstruct_minpoly.self_s", "s"),
    ("intmat.hnf.calls", "count"),
    ("intmat.hnf.self_s", "s"),
    ("intmat.snf.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    # workload figures of the untraced operations of the traced run
    ("bench.failed_frac", "ratio"),
    ("bench.field_p50_s", "s"),
    ("bench.field_p90_s", "s"),
    ("bench.certified_fields_per_s", "1/s"),
    ("bench.scan_s1_s", "s"),
    ("bench.scan_s2_s", "s"),
    ("bench.scan_s3_s", "s"),
    ("bench.mc_samples_per_s", "1/s"),
    ("bench.reductions_per_s", "1/s"),
    ("bench.h1_reconstruct_s", "s"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("fields", "scan", "quotient"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_otkit(src: Path):
    """Import otkit from the checkout's source tree; returns (package, seconds)."""
    sys.path.insert(0, str(src))
    t0 = process_time()
    import otkit
    import otkit.cli
    import otkit.geometry
    import otkit.orders
    import otkit.polynomials
    import otkit.topology
    import otkit.unitgroup
    elapsed = process_time() - t0
    if Path(otkit.__file__).resolve().parent != (src / "otkit").resolve():
        raise ImportError(f"otkit was imported from {otkit.__file__}, not {src}")
    return otkit, elapsed


def fresh_import_seconds(src: Path) -> float:
    """otkit's import time in a fresh interpreter, timed inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
            "import otkit.cli; print(time.process_time() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def environment(src: Path) -> dict:
    import mpmath
    import numpy
    import sympy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    lines = 0
    for path in sorted((src / "otkit").rglob("*.py")):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "src_otkit_lines": lines}


# -- running operations -------------------------------------------------------------


def run_op(op, tracer=None, op_id: int = 0) -> dict:
    """Time one operation, spans installed if a tracer is given, then check its
    answer (untimed)."""
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install()
    error = None
    answer = None
    t0 = process_time()
    try:
        answer = op.run()
    except Exception as exc:  # the program failed on this input: record it, go on
        error = exc
    t = process_time() - t0
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        outcome, problems = type(error).__name__, [f"{type(error).__name__}: {error}"]
    else:
        try:
            problems = op.check(answer)
        except Exception as exc:  # an answer the checker cannot read is wrong
            problems = [f"unreadable answer: {type(exc).__name__}: {exc}"]
        code = answer.get("code") if isinstance(answer, dict) else None
        outcome = "ok" if not problems else (
            f"exit {code}" if code not in (None, 0) else "wrong answer")
    if problems:
        summary, fingerprint = None, outcome
    else:
        summary = op.summary(answer)
        fingerprint = hashlib.sha256(
            json.dumps(op.fingerprint(answer)).encode()).hexdigest()
    return {"label": op.label, "input": op.input, "t": t, "ok": not problems,
            "outcome": outcome, "problems": problems, "summary": summary,
            "fingerprint": fingerprint}


def run_passes(workload, seconds: float, tracer=None):
    """Whole passes until about ``seconds`` of wall time have gone (at least one).

    Returns (results, traced results, passes).  With a tracer, each operation
    also runs traced right before or after its plain run, by turns, so the
    tracing overhead is measured against seconds of host drift, not minutes.
    """
    results, traced = [], []
    start = perf_counter()
    done = 0
    while True:
        for op in workload.pass_ops(done):
            i = len(results)
            if tracer is None:
                results.append(run_op(op))
            elif i % 2:
                traced.append(run_op(op, tracer, i))
                results.append(run_op(op))
            else:
                results.append(run_op(op))
                traced.append(run_op(op, tracer, i))
        done += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / done > seconds:
            break
    return results, traced, done


def ledger_entry(r: dict) -> dict:
    return {"label": r["label"], "input": r["input"], "outcome": r["outcome"],
            "time_to_failure_s": r["t"], "detail": "; ".join(r["problems"])[:300]}


def details(workload, results) -> dict:
    """Workload figures and the failed share, by name with their units."""
    out = {"failed_frac": {"value": sum(not r["ok"] for r in results) / len(results),
                           "unit": "ratio"}}
    for name, (value, unit) in workload.details(results).items():
        out[name] = {"value": value, "unit": unit}
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_steal_s() -> float | None:
    """Seconds the host's hypervisor ran others on this machine's processors.

    Informational: the processor time the runner measures leaves out steal,
    but a busy host still slows the program, by up to a third here, so a
    run's steal tells host drift from a change in the program.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# -- metrics ------------------------------------------------------------------------------


def end_to_end(results, setup_s: float) -> dict:
    times = [r["t"] for r in results]
    verified = sum(r["ok"] for r in results)
    return {"setup_s": (setup_s, "s"),
            "op_gmean_s": (math.exp(statistics.fmean(math.log(t) for t in times)), "s"),
            "ops_per_s": (verified / sum(times), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def per_layer(tracer, workload, base, traced, ledger) -> dict:
    values = {}
    for name, st in tracer.stats.items():
        values[f"{name}.calls"] = st.calls
        values[f"{name}.failed"] = st.failed
        values[f"{name}.busy_s"] = st.busy
        values[f"{name}.self_s"] = st.self_time
        values[f"{name}.hit_ratio"] = st.hits / st.calls if st.calls else 0.0
        values[f"{name}.escalations"] = st.escalations
    ug_calls = tracer.stats["unitgroup.unit_group"].calls
    useful = workload.useful([r["summary"] for r in traced if r["ok"]])
    values["unitgroup.unit_group.useful_ratio"] = useful / ug_calls if ug_calls else 0.0
    values["trace.overhead_frac"] = (sum(r["t"] for r in traced)
                                     / sum(r["t"] for r in base) - 1.0)
    failures = sum(not r["ok"] for r in traced + ledger)
    values["bench.failed_frac"] = failures / len(traced + ledger)
    for key, (value, _) in workload.details(base).items():
        values[f"bench.{key}"] = value
    return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}


# -- main ---------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("OTKIT_PRECISION"):
        print("OTKIT_PRECISION is set; it changes the work measured. Unset it.",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "otkit" / "__init__.py").is_file():
        print(f"no otkit source tree under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    try:
        otkit, import_s = import_otkit(src)
    except ImportError as exc:
        print(f"cannot import otkit from {src}: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(BENCH))
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, otkit)
    imports = [import_s] + [fresh_import_seconds(src) for _ in range(SETUP_REPEATS - 1)]
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = process_time()
        workload.prepare()
        prep.append(process_time() - t0)
    setup_s = statistics.median(imports) + statistics.median(prep)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(src),
              "setup": {"import_s": imports, "prepare_s": prep}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)

    steal0, wall0 = host_steal_s(), perf_counter()
    if not args.trace:
        results, _, passes = run_passes(workload, args.seconds)
        measured = results
        metrics = end_to_end(results, setup_s)
    else:
        tracer = spans.Tracer()
        results, traced, passes = run_passes(workload, args.seconds, tracer)
        for a, b in zip(results, traced):
            if b["ok"] and a["fingerprint"] != b["fingerprint"]:
                b["ok"] = False
                b["outcome"] = "wrong answer"
                b["problems"] = ["traced answer differs from the untraced one"]
        try:
            ledger = [run_op(op) for op in workload.ledger_ops()]
        except Exception as exc:  # the ledger's own set-up failed: that is a failure too
            ledger = [{"label": "ledger", "input": "set-up", "t": 0.0, "ok": False,
                       "outcome": type(exc).__name__, "problems": [str(exc)]}]
        measured = results + traced
        metrics = per_layer(tracer, workload, results, traced, ledger)
        tracer.write(out_dir / f"{tag}-spans.csv.gz")
        record["absent_stages"] = tracer.absent
        record["spans"] = len(tracer.spans)
        record["ledger"] = [ledger_entry(r) for r in ledger]

    failed = [r for r in measured if not r["ok"]]
    steal1 = host_steal_s()
    record["host"] = {"wall_s": perf_counter() - wall0, "steal_s":
                      None if steal0 is None or steal1 is None else steal1 - steal0}
    record.update({
        "passes": passes,
        "details": details(workload, results),
        "failures": [ledger_entry(r) for r in failed],
        "operations": [{k: r[k] for k in ("label", "input", "t", "outcome")}
                       for r in measured],
    })
    result = {"correct": not failed, "attempted": len(measured), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"details": record["details"]}))
    print(json.dumps({"host": record["host"]}))
    for entry in record["failures"] + record.get("ledger", []):
        print(json.dumps({"failure": entry}))
    if record.get("absent_stages"):
        print(json.dumps({"absent_stages": record["absent_stages"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
