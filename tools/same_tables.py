"""Record every embedding table ``otkit`` builds on a fixed set of inputs.

Usage::

    python tools/same_tables.py OUT.json
    python tools/same_tables.py --compare A.json B.json

The first form runs the ``otkit`` of the tree this script sits in (``src/``
of its parent directory) in this one process, on ``otkit field <poly>
--format json`` for every ``PANEL`` and ``LEDGER`` field of
``bench/panel.py``, then on ``min_volume_scan`` with the three published
parameter sets (s, B, D) = (1, 6, 200), (2, 2, 500) and (3, 2, 4600).  It
writes one JSON file with one entry per ``EmbeddingTable`` built, the tables
that ``at`` refines included, in the order they were built: the input that
built it, f, the bits, the exact endpoints of every row (each as
``m*2^e``) and the integer rows ``fixed``.

Root isolation and refinement decide every entry, so a change to them that
leaves each table alone gives an equal file (``cmp A.json B.json``).  The
second form lists what differs between two such files: per table, whether
``fixed`` differs, and which row entries differ.  ``bench/`` is only read.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from mpmath import mp  # noqa: E402

from panel import LEDGER, PANEL  # noqa: E402

SCANS = [(1, 6, 200), (2, 2, 500), (3, 2, 4600)]


def _exact(x) -> str:
    if not mp.isfinite(x):
        return str(x)
    man, exp = x.man_exp       # man is |mantissa|
    return "%s%d*2^%d" % ("-" if x < 0 else "", man, exp)


def dump(path: str) -> None:
    import otkit.cli
    from otkit import geometry
    from otkit.embeddings import EmbeddingTable

    tables, source = [], [None]
    build = EmbeddingTable._build

    def recorded(self, bits, roots):
        build(self, bits, roots)
        tables.append({"source": source[0], "f": self.order.f.format(), "bits": bits,
                       "rows": [[[_exact(b.lower), _exact(b.upper)] for b in row]
                                for row in self.rows],
                       "fixed": self.fixed})

    EmbeddingTable._build = recorded
    for poly in [p for _, p, _, _ in PANEL] + [p for _, p in LEDGER]:
        source[0] = f"field {poly}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            otkit.cli.main(["field", poly, "--format", "json"])
    for s, bound, disc_max in SCANS:
        source[0] = f"scan {s} {bound} {disc_max}"
        geometry.min_volume_scan(s, bound, disc_max)
    Path(path).write_text(json.dumps(tables, indent=0) + "\n")
    print(f"{len(tables)} tables -> {path}")


def compare(a_path: str, b_path: str) -> int:
    """Print the differences of two dumps; 0 when they are equal."""
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    if len(a) != len(b):
        print(f"{len(a)} tables against {len(b)}")
        return 1
    differ = 0
    for i, (x, y) in enumerate(zip(a, b)):
        if (x["source"], x["f"], x["bits"]) != (y["source"], y["f"], y["bits"]):
            print(f"table {i}: {x['f']} at {x['bits']} against {y['f']} at {y['bits']}")
            return 1
        rows = [(r, c) for r, (u, v) in enumerate(zip(x["rows"], y["rows"]))
                for c, (p, q) in enumerate(zip(u, v)) if p != q]
        if rows or x["fixed"] != y["fixed"]:
            differ += 1
            print(f"table {i} ({x['source']}; {x['f']} at {x['bits']} bits): "
                  f"fixed {'differs' if x['fixed'] != y['fixed'] else 'equal'}; "
                  f"row entries that differ (row, column): {rows}")
    print(f"{len(a)} tables, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    dump(sys.argv[1])
