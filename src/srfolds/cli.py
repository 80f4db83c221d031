"""Command-line front end: geodesic endpoints, conjugate-locus scans, self-test.

Subcommands:

    expmap     evaluate the time-t endpoint and momentum of a normal geodesic
    conj-scan  locate and classify conjugate covectors along covector rays
    selftest   run the built-in verification battery

Structures are selected with --structure {grushin, su2, sl2}; coordinate lists
are comma-separated (grushin uses 2 fiber coordinates, the groups use 3 and
are always based at the identity). Output is text, CSV, or JSON; every float
is printed with 12 significant digits so runs diff cleanly. Exit codes:
0 success, 1 computation failure (or self-test failure, or a reader that
closed the output pipe early, as `| head` does), 2 usage error. A
flag value that no input could take (a non-finite --alpha, --scan-points
below 2, an --s-max or --root-tol that is not positive and finite) is a
usage error, found before anything is computed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInput, SrfoldsError
from .grushin import GrushinBase, grushin_adapter, grushin_exp
from .numeric import DEFAULT_RANK_TOL_FACTOR, DEFAULT_ROOT_TOL, DEFAULT_SCAN_POINTS
from .selftest import format_report, run_selftest
from .singularity import PAIRING_TOL, SECOND_ORDER_TOL, scan_ray
from .sl2 import sl2_adapter, sl2_exp
from .su2 import su2_adapter, su2_exp

CSV_HEADER = "s,stratum,order,class,k1,k2,k3,f0,f1"


class _UsageError(Exception):
    """Bad arguments detected after argparse (arity, structure mismatch)."""


def round12(x: float) -> float:
    """Round to 12 significant digits for stable printed artifacts."""
    return float(f"{float(x):.12g}") + 0.0  # + 0.0 turns -0.0 into 0.0


def _fmt(x: float) -> str:
    return f"{round12(x):.12g}"


def _parse_floats(text: str, name: str, arity: int) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"could not parse --{name} {text!r} as comma-separated reals")
    if len(values) != arity:
        raise _UsageError(
            f"--{name} needs {arity} comma-separated values, got {len(values)}")
    return values


def _fiber_dim(structure: str) -> int:
    return 2 if structure == "grushin" else 3


def _versions() -> dict:
    import scipy

    return {"srfolds": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        print(text)
        return
    try:
        Path(out_path).write_text(text + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out_path!r}: {exc.strerror}")


def _render(args, config: dict, results, tolerances: dict, csv_lines: list[str],
            text_lines: list[str]) -> None:
    """Emit the JSON payload, the CSV lines or the text lines, as --format asks."""
    if args.format == "json":
        payload = {"config": config, "results": results,
                   "versions": _versions(), "tolerances": tolerances}
        text = json.dumps(payload, indent=2)
    else:
        text = "\n".join(csv_lines if args.format == "csv" else text_lines)
    _emit(text, args.out)


def _grushin_base(args) -> GrushinBase:
    x0, y0 = _parse_floats(args.base, "base", 2)
    return GrushinBase(alpha=args.alpha, x0=x0, y0=y0)


def _check_structure_flags(args) -> None:
    if args.structure != "grushin":
        if args.alpha is not None:
            raise _UsageError("--alpha only applies to --structure grushin")
        if args.base != "0,0":
            raise _UsageError(f"{args.structure} geodesics start at the identity; "
                              "--base is not configurable")
    if args.alpha is None:
        args.alpha = 1.0
    if not math.isfinite(args.alpha):
        raise _UsageError(f"--alpha must be finite, got {args.alpha!r}")


def _check_scan_flags(args) -> None:
    """Reject the scan options no ray can take; an s_max too small for a ray stays exit 1."""
    if args.scan_points < 2:
        raise _UsageError(f"--scan-points must be at least 2, got {args.scan_points}")
    for flag, value in (("--s-max", args.s_max), ("--root-tol", args.root_tol)):
        if not (value > 0.0 and math.isfinite(value)):
            raise _UsageError(f"{flag} must be positive and finite, got {value!r}")


def cmd_expmap(args) -> int:
    _check_structure_flags(args)
    cov = _parse_floats(args.covector, "covector", _fiber_dim(args.structure))
    config = {"command": "expmap", "structure": args.structure,
              "covector": cov, "t": args.t}
    if args.structure == "grushin":
        base = _grushin_base(args)
        config.update(alpha=args.alpha, base=[base.x0, base.y0])
        state = grushin_exp(base, cov, args.t)
        position = dict(zip(("x", "y"), state.position))
        momentum = dict(zip(("u", "v"), state.momentum))
    else:
        # looked up at call time, so a rebound su2_exp or sl2_exp is the one called
        point, mom = (su2_exp if args.structure == "su2" else sl2_exp)(cov, args.t)
        # a group endpoint's fields are its entries(), in their order
        position = dict(zip((field.name for field in fields(point)), point.entries()))
        momentum = dict(zip(("u", "v", "w"), mom))
    position = {k: round12(v) for k, v in position.items()}
    momentum = {k: round12(v) for k, v in momentum.items()}
    values = (*position.items(), *momentum.items())
    _render(args, config, {"position": position, "momentum": momentum}, {},
            ["name,value", *(f"{k},{_fmt(v)}" for k, v in values)],
            [f"{k} = {_fmt(v)}" for k, v in values])
    return 0


def _record_row(rec) -> dict:
    """One record's printed fields; the kernel pads to 3 entries and the f-values to 2."""
    kernel = [round12(k) for k in rec.kernel_basis[0]] if rec.kernel_basis else []
    k1, k2, k3 = (kernel + [None] * 3)[:3]
    f0, f1 = ([round12(f) for f in rec.f_values] + [None])[:2]
    return {"s": round12(rec.s), "stratum": rec.stratum, "order": rec.order,
            "class": rec.singularity_class.value,
            "k1": k1, "k2": k2, "k3": k3, "f0": f0, "f1": f1,
            "covector": [round12(c) for c in rec.covector]}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def cmd_conj_scan(args) -> int:
    _check_structure_flags(args)
    _check_scan_flags(args)
    dim = _fiber_dim(args.structure)
    directions = [_parse_floats(d, "direction", dim) for d in args.direction]
    config = {"command": "conj-scan", "structure": args.structure,
              "directions": directions, "s_max": args.s_max,
              "scan_points": args.scan_points, "root_tol": args.root_tol}
    if args.structure == "grushin":
        base = _grushin_base(args)
        config.update(alpha=args.alpha, base=[base.x0, base.y0])
        adapter = grushin_adapter(base)
    else:
        adapter = (su2_adapter if args.structure == "su2" else sl2_adapter)()

    all_records = [scan_ray(adapter, d, args.s_max, scan_points=args.scan_points,
                            root_tol=args.root_tol) for d in directions]
    tolerances = {"root_tol": args.root_tol, "pairing_tol": PAIRING_TOL,
                  "second_order_tol": SECOND_ORDER_TOL,
                  "rank_tol_factor": DEFAULT_RANK_TOL_FACTOR}

    rows = [[_record_row(rec) for rec in records]
            for records in all_records]
    # the CSV columns are the row keys the header names, in its order
    csv_lines = [CSV_HEADER]
    csv_lines += [",".join(_csv_cell(row[key]) for key in CSV_HEADER.split(","))
                  for recs in rows for row in recs]
    text_lines = []
    for direction, recs in zip(directions, rows):
        head = ",".join(_fmt(c) for c in direction)
        text_lines.append(f"direction {head}: {len(recs)} conjugate covector(s)")
        for row in recs:
            kern = ",".join(_fmt(row[k]) for k in ("k1", "k2", "k3")
                            if row[k] is not None)
            fvals = ",".join(_fmt(row[k]) for k in ("f0", "f1")
                             if row[k] is not None)
            text_lines.append(f"  s={_fmt(row['s'])}  stratum={row['stratum']}  "
                              f"order={row['order']}  class={row['class']}  "
                              f"kernel=({kern})  f=({fvals})")
    results = [{"direction": d, "records": recs}
               for d, recs in zip(directions, rows)]
    _render(args, config, results, tolerances, csv_lines, text_lines)
    return 0


def cmd_selftest(args) -> int:
    try:
        results = run_selftest(seed=args.seed)
    except InvalidInput as exc:
        # the seed is the battery's one argument
        raise _UsageError(str(exc))
    _emit(format_report(results), args.out)
    return 0 if all(result.passed for result in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srfolds",
        description="Geodesics, conjugate loci, and fold/tangential "
                    "classification for the alpha-Grushin plane, SU(2), and SL(2).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to FILE")

    def add_structure(p: argparse.ArgumentParser) -> None:
        p.add_argument("--structure", choices=("grushin", "su2", "sl2"),
                       required=True)
        p.add_argument("--alpha", type=float, default=None,
                       help="grushin exponent (alpha >= 1); grushin only")
        p.add_argument("--base", default="0,0",
                       help="grushin base point x0,y0 (groups start at identity)")

    p_exp = sub.add_parser("expmap", help="endpoint of a normal geodesic")
    add_structure(p_exp)
    p_exp.add_argument("--covector", required=True,
                       help="initial covector, comma-separated")
    p_exp.add_argument("--t", type=float, default=1.0)
    add_common(p_exp)
    p_exp.set_defaults(func=cmd_expmap)

    p_scan = sub.add_parser("conj-scan",
                            help="scan covector rays for conjugate points")
    add_structure(p_scan)
    p_scan.add_argument("--direction", action="append", required=True,
                        help="ray direction, comma-separated (repeatable)")
    p_scan.add_argument("--s-max", type=float, default=10.0)
    p_scan.add_argument("--scan-points", type=int, default=DEFAULT_SCAN_POINTS,
                        help="uniform scan nodes of a ray; a grushin ray that oscillates "
                             "brackets between the poles of tan_alpha and ignores it")
    p_scan.add_argument("--root-tol", type=float, default=DEFAULT_ROOT_TOL)
    add_common(p_scan)
    p_scan.set_defaults(func=cmd_conj_scan)

    p_self = sub.add_parser("selftest", help="run the verification battery")
    p_self.add_argument("--out", default=None, help="write output to FILE")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (srfolds ... | head); what is left unwritten
        # goes to devnull, so the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SrfoldsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
