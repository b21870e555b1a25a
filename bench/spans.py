"""Stage spans recorded from outside the program.

Each stage function of otkit is wrapped by replacing the attribute at every
place it was imported into (``otkit.cli.unit_group``,
``otkit.geometry.unit_group``, ...), or on its class for a method.  Spans
(name, start, end, parent, op id, ok) are kept in memory and written out when
the run ends.  Times are the process's processor time, as the runner times
operations.  A stage name that no longer exists in the program is reported
as absent instead of failing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from time import process_time

# (span name, module, attribute path inside the module)
STAGES = [
    ("cli.cmd_field", "otkit.cli", "cmd_field"),
    ("unitgroup.unit_group", "otkit.unitgroup", "unit_group"),
    ("unitgroup.sweep_units", "otkit.unitgroup", "sweep_units"),
    ("unitgroup.sweep_lll", "otkit.unitgroup", "_sweep_lll"),
    ("unitgroup.certify", "otkit.unitgroup", "_certify_lattice"),
    ("unitgroup.kth_root", "otkit.unitgroup", "_try_kth_root"),
    ("unitgroup.lattice_insert", "otkit.unitgroup", "_UnitLattice.insert"),
    ("unitgroup.j_ideal", "otkit.unitgroup", "j_ideal"),
    ("unitgroup.torsion_group", "otkit.unitgroup", "torsion_group"),
    ("embeddings.log_vector", "otkit.embeddings", "EmbeddingTable.log_vector"),
    ("roots.isolate_roots", "otkit.roots", "isolate_roots"),
    ("orders.maximalize", "otkit.orders", "maximalize"),
    ("polynomials.is_irreducible", "otkit.polynomials", "is_irreducible"),
    ("factorint.trial_factor", "otkit.factorint", "trial_factor"),
    ("geometry.min_volume_scan", "otkit.geometry", "min_volume_scan"),
    ("geometry.mc_volume", "otkit.geometry", "mc_volume"),
    ("geometry.reduce_to_domain", "otkit.geometry", "reduce_to_domain"),
    ("geometry.fundamental_domain", "otkit.geometry", "fundamental_domain"),
    ("geometry.volume_determinant_path", "otkit.geometry", "volume_determinant_path"),
    ("topology.h1", "otkit.topology", "h1"),
    ("topology.commutator_sample_closure", "otkit.topology", "commutator_sample_closure"),
    ("topology.reconstruct_minpoly", "otkit.topology", "reconstruct_minpoly"),
    ("intmat.hnf", "otkit.intmat", "hnf"),
    ("intmat.snf", "otkit.intmat", "snf"),
]

ESCALATION_PARENT = "unitgroup.unit_group"
ESCALATION_CHILD = "roots.isolate_roots"


class Stat:
    __slots__ = ("calls", "failed", "busy", "self_time", "hits", "escalations")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.busy = 0.0        # union of the stage's spans (nested calls once)
        self.self_time = 0.0   # duration minus child spans
        self.hits = 0          # calls that returned something other than None
        self.escalations = 0   # ESCALATION_CHILD calls beyond the first, per call


class Tracer:
    """Span recorder; records while its wrappers are installed."""

    def __init__(self):
        self.op_id = -1
        self.spans: list[tuple] = []
        self.stats: dict[str, Stat] = {name: Stat() for name, _, _ in STAGES}
        self.absent: list[str] = []
        self._stack: list[list] = []     # [span index, name, child time, child count]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple] | None = None   # (owner, attr, original, wrapper)

    # -- installation -------------------------------------------------------

    def install(self, stages=STAGES):
        """Put the wrappers in place; the sites are looked up on the first call."""
        if self._patches is None:
            self._patches = self._find(stages)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches or []):
            setattr(owner, attr, original)

    def _find(self, stages):
        patches = []
        for name, modname, path in stages:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:
                patches.append((owner, attr, original, wrapper))
                continue
            for mod in list(sys.modules.values()):
                modname_ = getattr(mod, "__name__", "") or ""
                if modname_ != "otkit" and not modname_.startswith("otkit."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    # -- recording ----------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, name, 0.0, 0]
        if name == ESCALATION_CHILD:
            for f in reversed(stack):
                if f[1] == ESCALATION_PARENT:
                    f[3] += 1
                    break
        stack.append(frame)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        ok = False
        hit = False
        start = process_time()
        try:
            result = fn(*args, **kwargs)
            ok = True
            hit = result is not None
            return result
        finally:
            end = process_time()
            stack.pop()
            self._depth[name] = depth
            dur = end - start
            st = self.stats[name]
            st.calls += 1
            st.failed += not ok
            st.hits += hit
            st.self_time += dur - frame[2]
            if depth == 0:
                st.busy += dur
            if name == ESCALATION_PARENT:
                st.escalations += max(0, frame[3] - 1)
            if stack:
                stack[-1][2] += dur
            self.spans[index] = (name, start, end, parent, self.op_id, ok)

    def write(self, path):
        """All spans as gzip'd CSV: name,start,end,parent,op,ok."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op,ok\n")
            for name, start, end, parent, op, ok in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op},{int(ok)}\n")
