"""Record what the ``otkit`` CLI answers on a fixed set of inputs.

Usage::

    python tools/same_answers.py OUT.json

Runs the ``otkit`` of the tree this script sits in (``src/`` of its parent
directory), one fresh process per command, and writes one JSON file:

* ``field``: stdout and exit code of ``otkit field <poly> --format json`` for
  every ``PANEL`` field of ``bench/panel.py`` and for ``T^4 - 2*T^2 - 2``,
  which has a purely imaginary root;
* ``units``: stdout and exit code of ``otkit units <poly> --format json`` for
  ``T^5 - T - c``, c = 1, 3, 5, 7 (two complex places), for the published
  s = 4 and s = 5 minimal-volume fields (unit ranks 4 and 5), and for
  ``T^6 - T - 1`` (degree 6 with no proven regulator floor);
* ``scan``: stdout and exit code of ``otkit scan --format csv`` for
  (s, B, D) = (1, 6, 200), (2, 2, 500) and (3, 2, 4600);
* ``commands``: stdout and exit code of one run each of ``jideal``,
  ``volume``, ``bound``, ``inoue``, ``mcvol``, ``paper-tables prop5index``,
  ``paper-tables computeJ`` (whose "tp" and "alt" cells depend on which
  totally positive generator comes back), ``paper-tables computeJ
  --with-g`` (the degree-7 G column, where the k-th root characters find
  roots mod primes q), ``paper-tables minvol``,
  ``paper-tables volumebounds``, ``paper-tables quartics`` (so every
  reference table is recorded), ``field`` of ``T^3 + 2*T + 2000`` at 64
  bits, ``units`` of ``T^5 - T - 3`` at 1000 bits, ``units`` of ``T^3 - T +
  1`` as CSV (the flattening of nested and list values), ``scan --s 1
  --coeff-bound 2 --disc-max 50`` as JSON, and ``field`` of ``T^4 - 72``
  and ``units`` of ``T^3 - 54`` as JSON (maximal orders of index 72 and 27,
  two Round 2 enlargements at each prime of the index), keyed by the
  command line;
* ``presentation``: for ``T^3 - T + 2`` (unit rank 1) and ``T^4 - T^3 +
  2*T - 1`` (unit rank 2), stdout and exit code of ``h1 --poly ...
  --save-presentation`` into a temporary directory, then of ``h1
  --presentation`` and ``reconstruct --source`` on the saved file, with the
  directory's path replaced by ``<tmp>``; and stdout, stderr and exit code
  of ``reconstruct`` on ``BLOCKS``, a presentation of a product of two real
  quadratic fields, whose witness is refused with exit 2;
* ``reducible``: stderr and exit code of ``otkit field`` on two reducible
  polynomials;
* ``ledger``: exit code and last stderr line (the JSON error, or the
  exception class and message of a traceback) for every ``LEDGER`` field.

Two trees give the same answers when their files are equal: run the script
in each tree and compare the files (``cmp A.json B.json``).  ``bench/`` is
only read.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from panel import LEDGER, PANEL  # noqa: E402

SCANS = [(1, 6, 200), (2, 2, 500), (3, 2, 4600)]
REDUCIBLE = ["T^4 + 3*T^2 + 2", "T^3 - T + 6"]
FIELDS = [poly for _, poly, _, _ in PANEL] + ["T^4 - 2*T^2 - 2"]
UNITS = [f"T^5 - T - {c}" for c in (1, 3, 5, 7)] + [
    "T^6 - T^5 - 2*T^4 + 3*T^3 - T^2 - 2*T + 1",   # the s = 4 minimum
    "T^7 - 3*T^5 - T^4 + T^3 + 3*T^2 + T - 1",     # the s = 5 minimum
    "T^6 - T - 1",
]
COMMANDS = [
    ["jideal", "T^3 - 2*T - 7", "--format", "json"],
    ["volume", "T^4 - T^3 + 2*T - 1", "--format", "json"],
    ["bound", "T^3 + 8*T - 3", "--format", "json"],
    ["inoue", "7", "--format", "json"],
    ["mcvol", "T^3 - T + 1", "--samples", "20000", "--seed", "1", "--format", "json"],
    ["paper-tables", "prop5index"],
    ["paper-tables", "computeJ"],
    ["paper-tables", "computeJ", "--with-g"],
    ["paper-tables", "minvol"],
    ["paper-tables", "volumebounds"],
    ["paper-tables", "quartics"],
    # contraction targets other than the default 192 + 16 bits: this
    # field's table escalates from 64 bits, and 1000 bits from the start
    ["field", "T^3 + 2*T + 2000", "--precision", "64", "--format", "json"],
    ["units", "T^5 - T - 3", "--precision", "1000", "--format", "json"],
    # the CSV flattening of a report, and the JSON scan writer
    ["units", "T^3 - T + 1", "--format", "csv"],
    ["scan", "--s", "1", "--coeff-bound", "2", "--disc-max", "50", "--format", "json"],
    # orders more than one Round 2 step from Z[T] at a prime: index 72 (two
    # enlargements at 2, two at 3) and index 27 (two at 3)
    ["field", "T^4 - 72", "--format", "json"],
    ["units", "T^3 - 54", "--format", "json"],
]
PRESENTED = ["T^3 - T + 2", "T^4 - T^3 + 2*T - 1"]
# two commuting block-diagonal actions on Z^4: Q[actions] is the product of
# the real quadratic fields Q(sqrt 5) and Q(sqrt 3), not a field.  Each
# generator's minimal polynomial has degree 3; the word (-3, -1) reaches
# degree 4 with (T^2 - 18*T + 1)(T^2 - 4*T + 1), which reconstruct refuses
BLOCKS = {"n": 4, "matrices": [
    [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 1], [0, 0, 2, 1]],
]}
WORKERS = 2


def otkit(args: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``otkit`` command."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "otkit.cli", *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def presentation_round_trip() -> dict:
    """Save each field's presentation, then read it back with h1 and
    reconstruct; reconstruct ``BLOCKS`` from a file."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for poly in PRESENTED:
            path = str(Path(tmp) / "p.json")
            steps = {
                "h1 --poly": ["h1", "--poly", poly, "--save-presentation", path,
                              "--format", "json"],
                "h1 --presentation": ["h1", "--presentation", path, "--format", "json"],
                "reconstruct --source": ["reconstruct", path, "--source", poly,
                                         "--format", "json"],
            }
            out[poly] = {}
            for key, args in steps.items():
                rc, stdout, _ = otkit(args)
                out[poly][key] = {"exit": rc, "stdout": stdout.replace(tmp, "<tmp>")}
        path = Path(tmp) / "blocks.json"
        path.write_text(json.dumps(BLOCKS))
        rc, stdout, stderr = otkit(["reconstruct", str(path), "--format", "json"])
        out["blocks"] = {"exit": rc, "stdout": stdout, "stderr": stderr}
    return out


def last_line(text: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    jobs = {}
    for poly in FIELDS:
        jobs[("field", poly)] = ["field", poly, "--format", "json"]
    for poly in UNITS:
        jobs[("units", poly)] = ["units", poly, "--format", "json"]
    for s, b, d in SCANS:
        jobs[("scan", f"{s},{b},{d}")] = ["scan", "--s", str(s), "--coeff-bound",
                                          str(b), "--disc-max", str(d),
                                          "--format", "csv"]
    for args in COMMANDS:
        jobs[("commands", " ".join(args))] = args
    for poly in REDUCIBLE:
        jobs[("reducible", poly)] = ["field", poly]
    for _, poly in LEDGER:
        jobs[("ledger", poly)] = ["field", poly, "--format", "json"]
    with ThreadPoolExecutor(WORKERS) as pool:
        chain = pool.submit(presentation_round_trip)
        results = dict(zip(jobs, pool.map(otkit, jobs.values())))
        presentation = chain.result()
    out: dict = {"field": {}, "scan": {}, "units": {}, "commands": {},
                 "presentation": presentation, "reducible": {}, "ledger": {}}
    for (group, key), (rc, stdout, stderr) in results.items():
        if group in ("field", "scan", "units", "commands"):
            out[group][key] = {"exit": rc, "stdout": stdout}
        elif group == "reducible":
            out[group][key] = {"exit": rc, "stderr": stderr}
        else:
            out[group][key] = {"exit": rc, "stderr_last": last_line(stderr)}
    Path(argv[0]).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
