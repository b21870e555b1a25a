"""The three workloads: fields, scan and quotient.

Each workload prepares its untimed state, hands out one pass of operations at
a time, and checks every answer.  An operation is a callable returning an
answer; the runner times the call and nothing else.  Every call into otkit
goes through the module attribute (``otkit.geometry.mc_volume``), so the
spans installed by the traced run see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from time import process_time

from mpmath import mp

import checks
import panel


def _nothing(answer) -> dict:
    return {}


@dataclass
class Op:
    label: str          # what kind of operation (field kind, scan, field poly)
    input: str          # the input as the program receives it
    run: object         # () -> answer
    check: object       # answer -> list of problems
    fingerprint: object  # answer -> JSON-able form, equal for equal answers
    summary: object = _nothing  # answer -> the few figures kept after the check


class Workload:
    name = ""

    def __init__(self, root, seed: int, otkit):
        self.seed = seed
        self.otkit = otkit
        self.expected = checks.load_expected(root)

    def prepare(self):
        """Untimed set-up; run several times to time it."""

    def pass_ops(self, pass_no: int) -> list[Op]:
        raise NotImplementedError

    def ledger_ops(self) -> list[Op]:
        """Inputs that fail today; attempted by the traced run."""
        return []

    def useful(self, summaries) -> int:
        """Useful outcomes among verified answers (records or certified fields)."""
        return len(summaries)

    def details(self, results) -> dict:
        """Figures of this workload alone, {name: (value, unit)}, from untraced
        results."""
        return {}


# -- fields ------------------------------------------------------------------------


class FieldsWorkload(Workload):
    """`otkit field <poly> --format json`, in process, over the fixed panel."""

    name = "fields"

    def prepare(self):
        self.expected["fields"] = {p: (disc, J) for _, p, disc, J in panel.PANEL}
        # warm-up: one small report fills the lazy caches a long-running process shares
        _field_report(self.otkit, panel.PANEL[0][1])

    def _op(self, kind, panel_poly, poly) -> Op:
        otkit, expected = self.otkit, self.expected

        def check(ans):
            if ans["code"] != 0:
                return [f"exit {ans['code']}: {ans['stderr'].strip()[:200]}"]
            return checks.check_field(json.loads(ans["stdout"]), panel_poly,
                                      expected, otkit)

        def fingerprint(ans):
            return [ans["code"], ans["stdout"]]

        return Op(kind, poly, lambda: _field_report(otkit, poly), check, fingerprint)

    def pass_ops(self, pass_no):
        return [self._op(kind, p, shown)
                for kind, p, shown in panel.fields_pass(self.seed, pass_no)]

    def ledger_ops(self):
        return [self._op(kind, p, p) for kind, p in panel.LEDGER]

    def details(self, results):
        times = sorted(r["t"] for r in results)
        ok = [r for r in results if r["ok"]]
        return {"field_p50_s": (_quantile(times, 0.5), "s"),
                "field_p90_s": (_quantile(times, 0.9), "s"),
                "certified_fields_per_s": (len(ok) / sum(times), "1/s")}


def _field_report(otkit, poly: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = otkit.cli.main(["field", poly, "--format", "json"])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# -- scan -----------------------------------------------------------------------------


SCANS = [(1, 6, 200), (2, 2, 500), (3, 2, 4600)]    # (s, coefficient bound, |disc| max)


class ScanWorkload(Workload):
    """`min_volume_scan` with the three published parameter sets."""

    name = "scan"

    def prepare(self):
        self.lower = {s: float(self.otkit.geometry.volume_lower_bound(s).mid())
                      for s, _, _ in SCANS}
        # warm-up: the first scan of a process pays about 1.5 s of lazy set-up
        self.otkit.geometry.min_volume_scan(1, 1, 40)

    def _op(self, s, bound, disc_max) -> Op:
        geometry, expected, lower = self.otkit.geometry, self.expected, self.lower

        def fingerprint(records):
            return [[r.poly.format(), str(r.disc), r.certified,
                     mp.nstr(r.volume.mid(), 12), [str(x) for x in r.torsion_factors]]
                    for r in records]

        return Op(f"scan_s{s}", f"s={s} B={bound} |disc|<={disc_max}",
                  lambda: geometry.min_volume_scan(s, bound, disc_max),
                  lambda recs: checks.check_scan(s, recs, expected, lower[s]),
                  fingerprint, lambda recs: {"records": len(recs)})

    def pass_ops(self, pass_no):
        return [self._op(*p) for p in SCANS]

    def useful(self, summaries):
        return sum(s["records"] for s in summaries)

    def details(self, results):
        out = {}
        for s, _, _ in SCANS:
            times = sorted(r["t"] for r in results if r["label"] == f"scan_s{s}")
            out[f"scan_s{s}_s"] = (_quantile(times, 0.5), "s")
        return out


# -- quotient --------------------------------------------------------------------------


ALL_STAGES = ("mc", "reduce", "h1")
# (field, stages).  The Monte-Carlo estimate of T^3 - 2*T - 7 (regulator 7.4)
# is heavy-tailed at 10^6 samples (standard error 4-80 % of the volume,
# deviations up to 7.6 standard errors), so that stage runs in the ledger.
# On T^3 + 2*T + 2000 the cell's log matrix is not finite at the working
# precision: the estimate is off by tens of standard errors, reduction
# raises PrecisionError, and the rebuilt order of the reconstructed
# polynomial has another discriminant.
QUOTIENT_FIELDS = [("T^3 - T + 1", ALL_STAGES), ("T^4 - T^3 + 2*T - 1", ALL_STAGES),
                   ("T^3 - 2*T - 7", ("reduce", "h1"))]
QUOTIENT_LEDGER = [("T^3 - 2*T - 7", ("mc",)), ("T^3 + 2*T + 2000", ("mc",)),
                   ("T^3 + 2*T + 2000", ("reduce",)), ("T^3 + 2*T + 2000", ("h1",))]
MC_SAMPLES = 10 ** 6
POINTS_PER_OP = 40
COMMUTATOR_SAMPLES = 48
RECONSTRUCT_TRIALS = 16


@dataclass
class QuotientField:
    poly: str
    order: object
    units: object
    gens: list
    J: object
    closed_volume: float
    s: int


class QuotientWorkload(Workload):
    """Fundamental cell, Monte-Carlo volume, point reduction and H1 on fixed
    fields whose unit groups are computed in set-up."""

    name = "quotient"

    def _field(self, poly) -> QuotientField:
        o = self.otkit
        order, _, _ = o.orders.maximalize(
            o.orders.build_order(o.polynomials.IntPolynomial.parse(poly)))
        units = o.unitgroup.unit_group(order)
        gens = units.totally_positive_generators
        J = o.unitgroup.j_ideal(order, gens)
        s = units.table.s
        closed = float(o.geometry.ot_volume(s, abs(order.disc), units.regulator)
                       .value.mid())
        return QuotientField(poly, order, units, gens, J, closed, s)

    def prepare(self):
        self.fields = [(self._field(p), stages) for p, stages in QUOTIENT_FIELDS]

    def _op(self, field: QuotientField, stages, tag: str) -> Op:
        rng = random.Random(f"quotient/{self.seed}/{tag}")
        key = rng.getrandbits(64)
        points = [[complex(rng.uniform(-5, 5), rng.uniform(0.05, 6))
                   for _ in range(field.s)]
                  + [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))]
                  for _ in range(POINTS_PER_OP)]
        otkit = self.otkit

        def fingerprint(ans):
            out = [repr(ans.get("mc_estimate")), repr(ans.get("mc_stderr")),
                   [[repr(z) for z in p] for p in ans.get("reduced", [])]]
            if "h1" in stages:
                out += [ans["h1_free"], str(ans["h1_torsion"]),
                        [[str(v) for v in row] for row in ans["closure"].basis],
                        ans["minpoly"].format(), ans["primitive"]]
            return out

        label = f"{field.poly} [{' '.join(stages)}]"
        def summary(ans):
            return {k: ans[k] for k in ("mc_s", "reduce_s", "h1_chain_s") if k in ans}

        return Op(label, f"{label} key={key}",
                  lambda: _quotient_op(otkit, field, stages, key, points),
                  lambda ans: checks.check_quotient(ans, field, otkit),
                  fingerprint, summary)

    def pass_ops(self, pass_no):
        return [self._op(f, stages, f"{pass_no}/{i}")
                for i, (f, stages) in enumerate(self.fields)]

    def ledger_ops(self):
        fields = {p: self._field(p) for p, _ in QUOTIENT_LEDGER}
        return [self._op(fields[p], stages, f"ledger/{i}")
                for i, (p, stages) in enumerate(QUOTIENT_LEDGER)]

    def details(self, results):
        answers = [r["summary"] for r in results if r["ok"]]
        mc = [a for a in answers if "mc_s" in a]
        red = [a for a in answers if "reduce_s" in a]
        h1 = sorted(a["h1_chain_s"] for a in answers if "h1_chain_s" in a)
        return {"mc_samples_per_s": (_rate(MC_SAMPLES * len(mc), mc, "mc_s"), "1/s"),
                "reductions_per_s":
                (_rate(POINTS_PER_OP * len(red), red, "reduce_s"), "1/s"),
                "h1_reconstruct_s": (_quantile(h1, 0.5), "s")}


def _rate(count: int, answers, key: str) -> float:
    total = sum(a[key] for a in answers)
    return count / total if total else 0.0


def _quotient_op(otkit, field: QuotientField, stages, key: int, points) -> dict:
    """The timed stages on one field; each stage's own processor time rides
    along."""
    geometry, topology = otkit.geometry, otkit.topology
    dom = geometry.fundamental_domain(field.order, field.units)
    out = {"domain": dom}
    if "mc" in stages:
        t1 = process_time()
        mc = geometry.mc_volume(dom, MC_SAMPLES, key)
        out.update(mc_estimate=mc.meta["estimate"], mc_stderr=mc.stderr,
                   mc_s=process_time() - t1)
    if "reduce" in stages:
        t1 = process_time()
        out["reduced"] = [geometry.reduce_to_domain(p, dom)[0] for p in points]
        out["reduce_s"] = process_time() - t1
    if "h1" in stages:
        t1 = process_time()
        pres = topology.presentation_from_field(field.order, field.gens)
        free, tors = topology.h1(pres)
        closure = topology.commutator_sample_closure(pres, COMMUTATOR_SAMPLES,
                                                     seed=key, order=field.order)
        poly, primitive = topology.reconstruct_minpoly(
            pres, trials=RECONSTRUCT_TRIALS, seed=key)
        out.update(h1_free=free, h1_torsion=tors.order_of_torsion, closure=closure,
                   minpoly=poly, primitive=primitive, h1_chain_s=process_time() - t1)
    return out


def _quantile(sorted_values, q: float) -> float:
    """Linear-interpolated quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


WORKLOADS = {w.name: w for w in (FieldsWorkload, ScanWorkload, QuotientWorkload)}
