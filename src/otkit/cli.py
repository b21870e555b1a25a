"""Command-line front end.

Subcommands: field, units, jideal, h1, volume, mcvol, inoue, bound, scan,
reconstruct, paper-tables.  Exit codes: 0 success, 1 malformed input or
internal failure, 2 reducible polynomial, 3 uncertified units under
--certified-only, 4 non-primitive reconstruction witness.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from mpmath import mp

from .config import PrecisionError, RunConfig, precision
from .factorint import factor_string, trial_factor
from .geometry import (SCAN_CSV_COLUMNS, check_mc_samples, field_volumes,
                       fundamental_domain, inoue_closed_form, mc_volume,
                       min_volume_scan, ot_volume, torsion_upper_bound)
from .orders import ReduciblePolynomialError, build_order, maximalize, signature
from .polynomials import IntPolynomial
from .tables import CSV_COLUMNS, TABLE_NAMES, regenerate
from .topology import (GroupPresentation, cubic_galois_closure_degree, h1,
                       presentation_from_field, reconstruct_minpoly)
from .unitgroup import (InsufficientUnitsError, j_ideal, torsion_group,
                        unit_group)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REDUCIBLE = 2
EXIT_UNCERTIFIED = 3
EXIT_NON_PRIMITIVE = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _config(args, mc: bool = False) -> RunConfig:
    """The run's settings; ``mc`` when the command draws Monte Carlo samples."""
    try:
        cfg = RunConfig(precision_bits=args.precision,
                        unit_search_bound=args.bound or 0,
                        mc_samples=args.samples,
                        seed=args.seed,
                        output_format=args.format,
                        certified_only=args.certified_only)
        if mc:
            check_mc_samples(cfg.mc_samples)
    except ValueError as exc:
        raise CliError(EXIT_ERROR, f"bad option: {exc}") from exc
    return cfg


def _parse_poly(text: str) -> IntPolynomial:
    try:
        return IntPolynomial.parse(text)
    except ValueError as exc:
        raise CliError(EXIT_ERROR, f"bad polynomial: {exc}") from exc


def _ball_dict(b) -> dict:
    return {"mid": mp.nstr(b.mid(), 24), "rad": mp.nstr(b.rad(), 6)}


def _build(f: IntPolynomial, volume: bool = False):
    """``build_order(f)`` with the signature checked before any order or unit
    work: every field needs a real place (s >= 1), a volume also t = 1."""
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
    if volume and sig.t != 1:
        raise CliError(EXIT_ERROR, "volumes need one complex place, "
                                   f"got (s, t) = ({sig.s}, {sig.t})")
    return mo


def _field_data(mo, cfg: RunConfig):
    order, index, order_cert = maximalize(mo)
    try:
        ug = unit_group(order, coord_bound=cfg.unit_search_bound or None)
    except InsufficientUnitsError as exc:
        raise CliError(EXIT_UNCERTIFIED, str(exc)) from exc
    if cfg.certified_only and not (ug.certified and order_cert):
        raise CliError(EXIT_UNCERTIFIED,
                       "units not certified fundamental (or order unverified)")
    return order, index, order_cert, ug


def _volume_dict(v) -> dict:
    out = {"value": _ball_dict(v.value), "method": v.method,
           "prefactor": str(v.prefactor)}
    if v.stderr is not None:
        out["stderr"] = v.stderr
        out.update({k: v.meta[k] for k in ("seed", "samples", "estimate")})
    return out


def cmd_field(args) -> int:
    cfg = _config(args, mc=args.mc)
    f = _parse_poly(args.poly)
    with precision(cfg.precision_bits):
        order, index, order_cert, ug = _field_data(_build(f, volume=True), cfg)
        sig = signature(f)
        gens = ug.totally_positive_generators
        J = j_ideal(order, gens)
        tors = torsion_group(order, gens)
        factors, cofactor, _ = trial_factor(J.norm)
        vols = field_volumes(order, ug,
                             mc_samples=cfg.mc_samples if args.mc else 0,
                             seed=cfg.seed)
        bound = torsion_upper_bound(vols["closed_form"].value, abs(order.disc)) \
            if sig.s == 1 and sig.t == 1 else None
        if not vols["closed_form"].value.overlaps(vols["determinant_path"].value):
            raise CliError(EXIT_ERROR, "internal inconsistency: volume paths disagree")
        report = {
            "poly": f.format(),
            "degree": f.degree,
            "signature": {"s": sig.s, "t": sig.t},
            "disc_power_basis": str(order.ambient.disc_f),
            "disc": str(order.disc),
            "index": str(index),
            "order_certified": order_cert,
            "units": ug.to_dict(),
            "J": {"norm": str(J.norm),
                  "factors": [[str(p), e] for p, e in factors],
                  "cofactor": str(cofactor),
                  "basis": [[str(v) for v in row] for row in J.basis]},
            "torsion": {"factors": [str(x) for x in tors.factors],
                        "order": str(tors.order_of_torsion)},
            "volume": {k: _volume_dict(v) for k, v in vols.items()},
        }
        if bound is not None:
            report["torsion_bound"] = _ball_dict(bound)
        if tors.order_of_torsion != J.norm:
            raise CliError(EXIT_ERROR, "internal inconsistency: |J| != torsion order")
    _emit(report, cfg, text_renderer=_render_field_text)
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
    cfg = _config(args)
    f = _parse_poly(args.poly)
    with precision(cfg.precision_bits):
        order, index, order_cert, ug = _field_data(_build(f), cfg)
        gens = ug.totally_positive_generators
        J = j_ideal(order, gens)
        tors = torsion_group(order, gens)
        out = ug.to_dict()
        out["J_norm"] = str(J.norm)
        out["torsion_factors"] = [str(x) for x in tors.factors]
    _emit(out, cfg)
    return EXIT_OK


def cmd_jideal(args) -> int:
    cfg = _config(args)
    f = _parse_poly(args.poly)
    with precision(cfg.precision_bits):
        order, index, order_cert, ug = _field_data(_build(f), cfg)
        J = j_ideal(order, ug.totally_positive_generators)
        factors, cofactor, certified = trial_factor(J.norm)
        out = {"poly": f.format(), "norm": str(J.norm),
               "factors": [[str(p), e] for p, e in factors],
               "cofactor": str(cofactor), "factorization_complete": cofactor == 1,
               "basis": [[str(v) for v in row] for row in J.basis]}
    _emit(out, cfg)
    return EXIT_OK


def cmd_h1(args) -> int:
    cfg = _config(args)
    with precision(cfg.precision_bits):
        if args.presentation:
            try:
                p = GroupPresentation.load(args.presentation)
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
                raise CliError(EXIT_ERROR, f"bad presentation file: {exc}") from exc
        else:
            if not args.poly:
                raise CliError(EXIT_ERROR, "give either --poly or --presentation")
            f = _parse_poly(args.poly)
            order, index, order_cert, ug = _field_data(_build(f), cfg)
            p = presentation_from_field(order, ug.totally_positive_generators)
            if args.save_presentation:
                p.save(args.save_presentation)
        free, tors = h1(p)
        out = {"free_rank": free,
               "torsion_factors": [str(x) for x in tors.factors],
               "torsion_order": str(tors.order_of_torsion),
               "degenerate": free > len(p.action_matrices)}
    _emit(out, cfg)
    return EXIT_OK


def cmd_volume(args) -> int:
    cfg = _config(args)
    f = _parse_poly(args.poly)
    with precision(cfg.precision_bits):
        order, index, order_cert, ug = _field_data(_build(f, volume=True), cfg)
        vols = field_volumes(order, ug)
        out = {"poly": f.format(), "disc": str(order.disc),
               "regulator": _ball_dict(ug.regulator),
               "volume": {k: _volume_dict(v) for k, v in vols.items()}}
    _emit(out, cfg)
    return EXIT_OK


def cmd_mcvol(args) -> int:
    cfg = _config(args, mc=True)
    f = _parse_poly(args.poly)
    with precision(cfg.precision_bits):
        order, index, order_cert, ug = _field_data(_build(f, volume=True), cfg)
        dom = fundamental_domain(order, ug)
        v = mc_volume(dom, cfg.mc_samples, cfg.seed)
        closed = ot_volume(dom.s, abs(order.disc), ug.regulator)
        out = {"poly": f.format(), "monte_carlo": _volume_dict(v),
               "closed_form": _volume_dict(closed),
               "agreement_3se": abs(v.meta["estimate"]
                                    - float(closed.value.mid())) <= 3 * v.stderr}
    _emit(out, cfg)
    return EXIT_OK


def cmd_inoue(args) -> int:
    cfg = _config(args)
    with precision(cfg.precision_bits):
        try:
            v = inoue_closed_form(args.m)
        except ValueError as exc:
            raise CliError(EXIT_REDUCIBLE, str(exc)) from exc
        out = {"m": args.m, "volume": _volume_dict(v),
               "real_root": v.meta["real_root"],
               "h1": {"free_rank": 1,
                      "torsion_factors": [str(args.m)] if args.m > 1 else []}}
    _emit(out, cfg)
    return EXIT_OK


def cmd_bound(args) -> int:
    cfg = _config(args)
    f = _parse_poly(args.poly)
    with precision(cfg.precision_bits):
        mo = _build(f)
        sig = signature(f)
        if (sig.s, sig.t) != (1, 1):
            raise CliError(EXIT_ERROR, "torsion bound applies to s = t = 1 fields")
        order, index, order_cert, ug = _field_data(mo, cfg)
        vol = ot_volume(1, abs(order.disc), ug.regulator)
        bound = torsion_upper_bound(vol.value, abs(order.disc))
        tors = torsion_group(order, ug.totally_positive_generators)
        out = {"poly": f.format(), "volume": _volume_dict(vol),
               "torsion_order": str(tors.order_of_torsion),
               "bound": _ball_dict(bound),
               "bound_holds": tors.order_of_torsion <= float(bound.upper)}
    _emit(out, cfg)
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _config(args)
    with precision(cfg.precision_bits):
        records = min_volume_scan(args.s, args.coeff_bound, args.disc_max,
                                  certified_only=cfg.certified_only)
    if cfg.output_format == "json":
        out = [{"poly": r.poly.format(), "disc": str(r.disc), "index": str(r.index),
                "regulator": _ball_dict(r.regulator), "certified": r.certified,
                "volume": _ball_dict(r.volume),
                "torsion_factors": [str(x) for x in r.torsion_factors]}
               for r in records]
        print(json.dumps(out, indent=1))
    else:
        w = csv.writer(sys.stdout)
        w.writerow(SCAN_CSV_COLUMNS)
        for r in records:
            w.writerow(r.csv_row())
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cfg = _config(args)
    with precision(cfg.precision_bits):
        try:
            p = GroupPresentation.load(args.presentation)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise CliError(EXIT_ERROR, f"bad presentation file: {exc}") from exc
        poly, primitive = reconstruct_minpoly(p, trials=args.trials, seed=cfg.seed)
        out = {"minpoly": poly.format(), "degree": poly.degree,
               "primitive": primitive}
        if primitive and poly.degree == 3:
            out["cubic_galois_closure_degree"] = cubic_galois_closure_degree(poly)
        if args.source:
            src = _parse_poly(args.source)
            s_order, _, _, s_ug = _field_data(_build(src), cfg)
            r_order, _, _, r_ug = (_field_data(_build(poly), cfg) if primitive
                                   else (None,) * 4)
            if primitive:
                out["round_trip"] = {
                    "source_disc": str(s_order.disc),
                    "rebuilt_disc": str(r_order.disc),
                    "disc_match": s_order.disc == r_order.disc,
                    "regulator_overlap": s_ug.regulator.overlaps(r_ug.regulator),
                }
        _emit(out, cfg)
    return EXIT_OK if primitive else EXIT_NON_PRIMITIVE


def cmd_paper_tables(args) -> int:
    cfg = _config(args)
    with precision(cfg.precision_bits):
        kw = {"with_g": args.with_g} if args.table == "computeJ" else {}
        checks = regenerate(args.table, **kw)
    rows = [CSV_COLUMNS] + [c.csv_row() for c in checks]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        w = csv.writer(sys.stdout)
        w.writerows(rows)
    bad = [c for c in checks if not c.ok]
    if bad:
        for c in bad:
            print(f"MISMATCH {c.table}.{c.cell}: expected {c.expected}, got {c.got}",
                  file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _emit(obj, cfg: RunConfig, text_renderer=None):
    if cfg.output_format == "json":
        print(json.dumps(obj, indent=1))
    elif cfg.output_format == "csv":
        w = csv.writer(sys.stdout)
        flat = _flatten(obj)
        w.writerow(flat.keys())
        w.writerow(flat.values())
    else:
        if text_renderer is not None:
            print(text_renderer(obj))
        else:
            print(json.dumps(obj, indent=1))


def _flatten(obj, prefix=""):
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, list):
        out[prefix.rstrip(".")] = json.dumps(obj)
    else:
        out[prefix.rstrip(".")] = obj
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors end as the JSON error of exit code 1, not argparse's exit 2."""

    def error(self, message):
        raise CliError(EXIT_ERROR, f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="otkit",
        description="Arithmetic invariants of the manifolds X(K): torsion, "
                    "regulators, volumes, reconstruction, scans.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, poly=True):
        if poly:
            p.add_argument("poly", help="defining polynomial, e.g. 'T^3 - T + 1'")
        p.add_argument("--precision", type=int,
                       default=RunConfig().precision_bits,
                       help="working precision in bits (env OTKIT_PRECISION)")
        p.add_argument("--bound", type=int, default=0,
                       help="unit coordinate search bound (0 = automatic)")
        p.add_argument("--samples", type=int, default=1_000_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--certified-only", action="store_true")

    p = sub.add_parser("field", help="full invariant report for one field")
    common(p)
    p.add_argument("--mc", action="store_true", help="add a Monte-Carlo volume")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("units", help="unit generators, regulator, J data")
    common(p)
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("jideal", help="the ideal generated by 1-u over the units")
    common(p)
    p.set_defaults(func=cmd_jideal)

    p = sub.add_parser("h1", help="first homology from a field or presentation")
    common(p, poly=False)
    p.add_argument("--poly", help="defining polynomial")
    p.add_argument("--presentation", help="presentation JSON file")
    p.add_argument("--save-presentation", help="write the field presentation here")
    p.set_defaults(func=cmd_h1)

    p = sub.add_parser("volume", help="closed-form and determinant-path volumes")
    common(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("mcvol", help="Monte-Carlo volume cross-check")
    common(p)
    p.set_defaults(func=cmd_mcvol)

    p = sub.add_parser("inoue", help="closed-form volume of the prescribed-torsion family")
    common(p, poly=False)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_inoue)

    p = sub.add_parser("bound", help="torsion upper bound from volume and discriminant")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("scan", help="minimal-volume scan over bounded fields")
    common(p, poly=False)
    p.add_argument("--s", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--coeff-bound", type=int, default=2)
    p.add_argument("--disc-max", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("reconstruct", help="recover the field from a presentation")
    common(p, poly=False)
    p.add_argument("presentation", help="presentation JSON file")
    p.add_argument("--source", help="original polynomial for a round-trip check")
    p.add_argument("--trials", type=int, default=64)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("paper-tables", help="regenerate a reference table and diff it")
    common(p, poly=False)
    p.add_argument("table", choices=TABLE_NAMES)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--with-g", action="store_true",
                   help="include the slow degree-7 column (uncertified)")
    p.set_defaults(func=cmd_paper_tables)

    return ap


def _fail(code: int, message: str) -> int:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        return _fail(exc.code, exc.message)
    except PrecisionError as exc:
        return _fail(EXIT_ERROR, str(exc))
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
