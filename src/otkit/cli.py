"""Command-line front end, and the only module that formats output.

Subcommands: field, units, jideal, h1, volume, mcvol, inoue, bound, scan,
reconstruct, paper-tables.  Exit codes: 0 success, 1 malformed input, an
output file that cannot be written or internal failure, 2 reducible
polynomial, 3 uncertified units under --certified-only, 4 non-primitive
reconstruction witness.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from mpmath import mp

from .config import DEFAULT_PRECISION, MIN_PRECISION, PrecisionError, precision
from .factorint import factor_string, trial_factor
from .geometry import (check_mc_samples, field_volumes, fundamental_domain,
                       inoue_closed_form, mc_volume, min_volume_scan, ot_volume,
                       torsion_upper_bound)
from .orders import ReduciblePolynomialError, build_order, maximalize, signature
from .polynomials import IntPolynomial, is_irreducible
from .tables import TABLE_NAMES, regenerate
from .topology import (GroupPresentation, cubic_galois_closure_degree, h1,
                       presentation_from_field, reconstruct_minpoly)
from .unitgroup import (InsufficientUnitsError, j_ideal, torsion_group,
                        unit_group)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REDUCIBLE = 2
EXIT_UNCERTIFIED = 3
EXIT_NON_PRIMITIVE = 4

SCAN_CSV_COLUMNS = ["poly", "disc", "index", "regulator", "certified",
                    "volume", "torsion_factors"]
TABLE_CSV_COLUMNS = ["table", "cell", "expected", "got", "status", "note"]


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _parse_poly(text: str) -> IntPolynomial:
    try:
        return IntPolynomial.parse(text)
    except ValueError as exc:
        raise CliError(EXIT_ERROR, f"bad polynomial: {exc}") from exc


def _ball_dict(b) -> dict:
    return {"mid": mp.nstr(b.mid(), 24), "rad": mp.nstr(b.rad(), 6)}


def _field(f: IntPolynomial, args, need: str | None = None):
    """Maximal order and unit group of the field of ``f``: ``(order, index,
    order_cert, ug)``.  The signature is checked before any order or unit
    work: every field needs a real place (s >= 1), ``need="volume"`` also
    t = 1 (volumes, and H1 of a field, whose U of rank s + t - 1 is
    admissible only then) and ``need="bound"`` s = t = 1."""
    try:
        mo = build_order(f)
    except ReduciblePolynomialError as exc:
        raise CliError(EXIT_REDUCIBLE, str(exc)) from exc
    except ValueError as exc:
        raise CliError(EXIT_ERROR, f"bad polynomial: {exc}") from exc
    sig = signature(f)
    if sig.s < 1:
        raise CliError(EXIT_ERROR, "the manifolds need s >= 1 real places, "
                                   f"got (s, t) = ({sig.s}, {sig.t})")
    if need == "volume" and sig.t != 1:
        raise CliError(EXIT_ERROR, "volumes and H1 need one complex place, "
                                   f"got (s, t) = ({sig.s}, {sig.t})")
    if need == "bound" and (sig.s, sig.t) != (1, 1):
        raise CliError(EXIT_ERROR, "torsion bound applies to s = t = 1 fields")
    order, index, order_cert = maximalize(mo)
    try:
        ug = unit_group(order)
    except InsufficientUnitsError as exc:
        raise CliError(EXIT_UNCERTIFIED, str(exc)) from exc
    if args.certified_only and not (ug.certified and order_cert):
        raise CliError(EXIT_UNCERTIFIED,
                       "units not certified fundamental (or order unverified)")
    return order, index, order_cert, ug


def _units_dict(ug) -> dict:
    return {
        "generators": [list(map(str, g.coords)) for g in ug.generators],
        "regulator": _ball_dict(ug.regulator),
        "certified_index_bound": ug.certified_index_bound,
        "totally_positive_generators":
            [list(map(str, g.coords)) for g in ug.totally_positive_generators],
    }


def _volume_dict(v) -> dict:
    out = {"value": _ball_dict(v.value), "method": v.method,
           "prefactor": str(v.prefactor)}
    if v.stderr is not None:
        out["stderr"] = v.stderr
        out.update({k: v.meta[k] for k in ("seed", "samples", "estimate")})
    return out


def cmd_field(args) -> int:
    f = _parse_poly(args.poly)
    order, index, order_cert, ug = _field(f, args, need="volume")
    s, t = ug.table.s, ug.table.t
    gens = ug.totally_positive_generators
    J = j_ideal(order, gens)
    tors = torsion_group(J)
    factors, cofactor, _ = trial_factor(J.norm)
    vols = field_volumes(order, ug, mc_samples=args.samples if args.mc else 0,
                         seed=args.seed)
    if not vols["closed_form"].value.overlaps(vols["determinant_path"].value):
        raise CliError(EXIT_ERROR, "internal inconsistency: volume paths disagree")
    if tors.order_of_torsion != J.norm:
        raise CliError(EXIT_ERROR, "internal inconsistency: |J| != torsion order")
    report = {
        "poly": f.format(),
        "degree": f.degree,
        "signature": {"s": s, "t": t},
        "disc_power_basis": str(order.disc_f),
        "disc": str(order.disc),
        "index": str(index),
        "order_certified": order_cert,
        "units": _units_dict(ug),
        "J": {"norm": str(J.norm),
              "factors": [[str(p), e] for p, e in factors],
              "cofactor": str(cofactor),
              "basis": [[str(v) for v in row] for row in J.basis]},
        "torsion": {"factors": [str(x) for x in tors.factors],
                    "order": str(tors.order_of_torsion)},
        "volume": {k: _volume_dict(v) for k, v in vols.items()},
    }
    if s == 1:
        report["torsion_bound"] = _ball_dict(
            torsion_upper_bound(vols["closed_form"].value, abs(order.disc)))
    _emit(report, args.format, text_renderer=_render_field_text)
    return EXIT_OK


def _render_field_text(report) -> str:
    lines = [
        f"field          {report['poly']}",
        f"signature      (s, t) = ({report['signature']['s']}, {report['signature']['t']})",
        f"disc           {report['disc']}   (power basis {report['disc_power_basis']},"
        f" index {report['index']}, certified {report['order_certified']})",
        f"regulator      {report['units']['regulator']['mid']}"
        f"  (+- {report['units']['regulator']['rad']},"
        f" index bound {report['units']['certified_index_bound']})",
        f"J norm         {report['J']['norm']} = "
        + factor_string([(int(p), e) for p, e in report['J']['factors']],
                        int(report['J']['cofactor'])),
        f"H1 torsion     {' x '.join('Z/' + f for f in report['torsion']['factors']) or 'trivial'}",
    ]
    for name, vol in report["volume"].items():
        extra = f"  (stderr {vol['stderr']:.2e})" if "stderr" in vol else ""
        lines.append(f"vol[{name:<17}] {vol['value']['mid']}{extra}")
    if "torsion_bound" in report:
        lines.append(f"torsion bound  {report['torsion_bound']['mid']}")
    return "\n".join(lines)


def cmd_units(args) -> int:
    order, _, _, ug = _field(_parse_poly(args.poly), args)
    J = j_ideal(order, ug.totally_positive_generators)
    out = _units_dict(ug)
    out["J_norm"] = str(J.norm)
    out["torsion_factors"] = [str(x) for x in torsion_group(J).factors]
    _emit(out, args.format)
    return EXIT_OK


def cmd_jideal(args) -> int:
    f = _parse_poly(args.poly)
    order, _, _, ug = _field(f, args)
    J = j_ideal(order, ug.totally_positive_generators)
    factors, cofactor, _ = trial_factor(J.norm)
    out = {"poly": f.format(), "norm": str(J.norm),
           "factors": [[str(p), e] for p, e in factors],
           "cofactor": str(cofactor), "factorization_complete": cofactor == 1,
           "basis": [[str(v) for v in row] for row in J.basis]}
    _emit(out, args.format)
    return EXIT_OK


def _load_presentation(path: str) -> GroupPresentation:
    try:
        return GroupPresentation.load(path)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_ERROR, f"bad presentation file: {exc}") from exc


def cmd_h1(args) -> int:
    if args.presentation:
        p = _load_presentation(args.presentation)
    else:
        order, _, _, ug = _field(_parse_poly(args.poly), args, need="volume")
        p = presentation_from_field(order, ug.totally_positive_generators)
    if args.save_presentation:
        p.save(args.save_presentation)
    free, tors = h1(p)
    out = {"free_rank": free,
           "torsion_factors": [str(x) for x in tors.factors],
           "torsion_order": str(tors.order_of_torsion),
           "degenerate": free > len(p.action_matrices)}
    _emit(out, args.format)
    return EXIT_OK


def cmd_volume(args) -> int:
    f = _parse_poly(args.poly)
    order, _, _, ug = _field(f, args, need="volume")
    out = {"poly": f.format(), "disc": str(order.disc),
           "regulator": _ball_dict(ug.regulator),
           "volume": {k: _volume_dict(v) for k, v in field_volumes(order, ug).items()}}
    _emit(out, args.format)
    return EXIT_OK


def cmd_mcvol(args) -> int:
    f = _parse_poly(args.poly)
    order, _, _, ug = _field(f, args, need="volume")
    dom = fundamental_domain(order, ug)
    v = mc_volume(dom, args.samples, args.seed)
    closed = ot_volume(dom.s, abs(order.disc), ug.regulator)
    out = {"poly": f.format(), "monte_carlo": _volume_dict(v),
           "closed_form": _volume_dict(closed),
           "agreement_3se": v.value.overlaps(closed.value)}
    _emit(out, args.format)
    return EXIT_OK


def cmd_inoue(args) -> int:
    v = inoue_closed_form(args.m)
    out = {"m": args.m, "volume": _volume_dict(v),
           "real_root": v.meta["real_root"],
           "h1": {"free_rank": 1,
                  "torsion_factors": [str(args.m)] if args.m > 1 else []}}
    _emit(out, args.format)
    return EXIT_OK


def cmd_bound(args) -> int:
    f = _parse_poly(args.poly)
    order, _, _, ug = _field(f, args, need="bound")
    vol = ot_volume(1, abs(order.disc), ug.regulator)
    bound = torsion_upper_bound(vol.value, abs(order.disc))
    tors = torsion_group(j_ideal(order, ug.totally_positive_generators))
    out = {"poly": f.format(), "volume": _volume_dict(vol),
           "torsion_order": str(tors.order_of_torsion),
           "bound": _ball_dict(bound),
           "bound_holds": tors.order_of_torsion <= float(bound.upper)}
    _emit(out, args.format)
    return EXIT_OK


def cmd_scan(args) -> int:
    records = min_volume_scan(args.s, args.coeff_bound, args.disc_max,
                              certified_only=args.certified_only)
    if args.format == "json":
        out = [{"poly": r.poly.format(), "disc": str(r.disc), "index": str(r.index),
                "regulator": _ball_dict(r.regulator), "certified": r.certified,
                "volume": _ball_dict(r.volume),
                "torsion_factors": [str(x) for x in r.torsion_factors]}
               for r in records]
        print(json.dumps(out, indent=1))
    else:
        csv.writer(sys.stdout).writerows(
            [SCAN_CSV_COLUMNS]
            + [[r.poly.format(), str(r.disc), str(r.index),
                mp.nstr(r.regulator.mid(), 15), str(r.certified).lower(),
                mp.nstr(r.volume.mid(), 12),
                " ".join(map(str, r.torsion_factors)) or "1"] for r in records])
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    p = _load_presentation(args.presentation)
    poly, primitive = reconstruct_minpoly(p, trials=args.trials, seed=args.seed)
    # a reducible minimal polynomial means the algebra is not a field
    ok, factor = is_irreducible(poly)
    if not ok:
        raise CliError(EXIT_REDUCIBLE, str(ReduciblePolynomialError(poly, factor)))
    out = {"minpoly": poly.format(), "degree": poly.degree, "primitive": primitive}
    if primitive and poly.degree == 3:
        out["cubic_galois_closure_degree"] = cubic_galois_closure_degree(poly)
    if args.source:
        s_order, _, _, s_ug = _field(_parse_poly(args.source), args)
        if primitive:
            r_order, _, _, r_ug = _field(poly, args)
            out["round_trip"] = {
                "source_disc": str(s_order.disc),
                "rebuilt_disc": str(r_order.disc),
                "disc_match": s_order.disc == r_order.disc,
                "regulator_overlap": s_ug.regulator.overlaps(r_ug.regulator),
            }
    _emit(out, args.format)
    return EXIT_OK if primitive else EXIT_NON_PRIMITIVE


def cmd_paper_tables(args) -> int:
    if args.with_g and args.table != "computeJ":
        raise CliError(EXIT_ERROR, "paper-tables: --with-g applies only to computeJ")
    kw = {"with_g": args.with_g} if args.table == "computeJ" else {}
    checks = regenerate(args.table, **kw)
    rows = [TABLE_CSV_COLUMNS] + [[c.table, c.cell, c.expected, c.got,
                                   "ok" if c.ok else "MISMATCH", c.note]
                                  for c in checks]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    bad = [c for c in checks if not c.ok]
    for c in bad:
        print(f"MISMATCH {c.table}.{c.cell}: expected {c.expected}, got {c.got}",
              file=sys.stderr)
    return EXIT_ERROR if bad else EXIT_OK


def _emit(obj, fmt: str, text_renderer=None):
    if fmt == "csv":
        flat = _flatten(obj)
        csv.writer(sys.stdout).writerows([flat.keys(), flat.values()])
    elif fmt == "text" and text_renderer is not None:
        print(text_renderer(obj))
    else:
        print(json.dumps(obj, indent=1))


def _flatten(obj, prefix=""):
    """A report as one CSV row: dotted keys, lists as JSON text."""
    if isinstance(obj, dict):
        return {key: value for k, v in obj.items()
                for key, value in _flatten(v, f"{prefix}{k}.").items()}
    return {prefix.rstrip("."): json.dumps(obj) if isinstance(obj, list) else obj}


class _Parser(argparse.ArgumentParser):
    """Usage errors end as the JSON error of exit code 1, not argparse's exit 2."""

    def error(self, message):
        raise CliError(EXIT_ERROR, f"{self.prog}: {message}")


def _integer(text: str) -> int:
    # on a ValueError argparse prints the type's private name; give the reason
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _precision_bits(text: str) -> int:
    bits = _integer(text)
    if bits < MIN_PRECISION:
        raise argparse.ArgumentTypeError(
            f"precision must be >= {MIN_PRECISION} bits, got {bits}")
    return bits


def _sample_count(text: str) -> int:
    samples = _integer(text)
    try:
        check_mc_samples(samples)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return samples


def _positive(text: str) -> int:
    n = _integer(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _seed(text: str) -> int:
    # the Monte Carlo generator is keyed by the seed, a 128-bit key
    seed = _integer(text)
    if not 0 <= seed < 2 ** 128:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^128), got {seed}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call
    of ``main``; parsing leaves it unchanged."""
    ap = _Parser(
        prog="otkit",
        description="Arithmetic invariants of the manifolds X(K): torsion, "
                    "regulators, volumes, reconstruction, scans.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, poly=True, fmt=True, units=True,
                mc=False, seed=False):
        """A subcommand with the shared options it reads; every command has
        --precision, ``units`` adds --certified-only."""
        p = sub.add_parser(name, help=help)
        # the command is looked up by name when it runs, so that the parser
        # built once still runs a command wrapped or replaced later
        p.set_defaults(func=func.__name__)
        if poly:
            p.add_argument("poly", help="defining polynomial, e.g. 'T^3 - T + 1'")
        p.add_argument("--precision", type=_precision_bits, default=DEFAULT_PRECISION,
                       help="working precision in bits")
        if fmt:
            p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        if units:
            p.add_argument("--certified-only", action="store_true")
        if mc:
            p.add_argument("--samples", type=_sample_count, default=1_000_000)
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        return p

    p = command("field", cmd_field, "full invariant report for one field",
                mc=True, seed=True)
    p.add_argument("--mc", action="store_true", help="add a Monte-Carlo volume")
    command("units", cmd_units, "unit generators, regulator, J data")
    command("jideal", cmd_jideal, "the ideal generated by 1-u over the units")
    p = command("h1", cmd_h1, "first homology from a field or presentation",
                poly=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--poly", help="defining polynomial")
    source.add_argument("--presentation", help="presentation JSON file")
    p.add_argument("--save-presentation", help="write the field presentation here")
    command("volume", cmd_volume, "closed-form and determinant-path volumes")
    command("mcvol", cmd_mcvol, "Monte-Carlo volume cross-check", mc=True, seed=True)
    p = command("inoue", cmd_inoue,
                "closed-form volume of the prescribed-torsion family",
                poly=False, units=False)
    p.add_argument("m", type=_positive)  # T^3 + mT - 1 is irreducible for m >= 1
    command("bound", cmd_bound, "torsion upper bound from volume and discriminant")
    p = command("scan", cmd_scan, "minimal-volume scan over bounded fields",
                poly=False, units=False)
    p.add_argument("--certified-only", action="store_true")
    p.add_argument("--s", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--coeff-bound", type=_positive, default=2)
    p.add_argument("--disc-max", type=_positive, required=True)
    p = command("reconstruct", cmd_reconstruct,
                "recover the field from a presentation", poly=False, seed=True)
    p.add_argument("presentation", help="presentation JSON file")
    p.add_argument("--source", help="original polynomial for a round-trip check")
    p.add_argument("--trials", type=_positive, default=64)
    p = command("paper-tables", cmd_paper_tables,
                "regenerate a reference table and diff it",
                poly=False, fmt=False, units=False)
    p.add_argument("table", choices=TABLE_NAMES)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--with-g", action="store_true",
                   help="computeJ only: include the slow degree-7 column")
    return ap


def _fail(code: int, message: str) -> int:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with precision(args.precision):
            return globals()[args.func](args)
    except CliError as exc:
        return _fail(exc.code, exc.message)
    except PrecisionError as exc:
        return _fail(EXIT_ERROR, str(exc))
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:  # after BrokenPipeError, an OSError subclass
        return _fail(EXIT_ERROR, str(exc))


if __name__ == "__main__":
    sys.exit(main())
