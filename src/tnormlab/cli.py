"""Command-line front end.

Subcommands: ``eval`` (evaluate a t-norm or companion at a point),
``verify`` (scaling-equation residual sweep), ``classify`` (family
identification), ``catalog`` (print the six-family table), and
``counterexample`` (hunt a violating triple).

Exit status: 0 on a pass or a successful evaluation, 1 on a failed check with
a witness, 2 on a usage or evaluation error or a grid too large to allocate.

T-norm mini-syntax (one token)::

    min | prod | luk | drastic
    ss:<beta>            Schweizer-Sklar exponent family, beta != 0
    cshelf:<c>           zero below the shelf edge c in (0,1), min above
    osum:[a,e,T;...]     ordinal sum of rescaled summands (each T one of
                         the tokens above)
    expr:<dsl>           expression in x and y, e.g. expr:max(x+y-1,0)

core.parse_spec reads these tokens; the labels in reports are tokens that
read back as the exact spec that made them.

Companions: --f canonical (F(x,y) = T(x,x*y), also the default for
verify), --f catalog (the same companion, accepted only for the six
catalog kinds), or --f-expr '<dsl>'.
The environment variable TNORMLAB_SEED supplies the sweep seed when
--seed is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Iterable, Optional

from . import dsl
from .analysis import (
    GridSpec,
    Report,
    check_gph,
    check_unit_scale,
    find_gph_counterexample,
    residual_csv,
)
from .classify import PreconditionError, classify
from .core import (
    Canonical,
    Catalog,
    CompanionF,
    DomainError,
    Expr,
    TNormSpec,
    eval_companion,
    eval_tnorm,
    parse_spec,
)


def _companion_from_args(args, spec: TNormSpec) -> Optional[CompanionF]:
    if args.f_expr:
        return Expr(dsl.parse(args.f_expr))
    if args.f == "catalog":
        return Catalog(spec)
    if args.f == "canonical":
        return Canonical(spec)
    return None


def _grid_from_args(args) -> GridSpec:
    seed = args.seed
    if seed is None:
        env = os.environ.get("TNORMLAB_SEED")
        seed = int(env, 0) if env else GridSpec.seed
    return GridSpec(points=args.points, eq_tol=args.tol,
                    strict_tol=args.strict_tol, samples=args.samples,
                    seed=seed, step_h=args.step_h)


def _write(args, chunks: Iterable[str]) -> None:
    """Write the text chunks to --out or stdout, ending with a newline."""
    try:
        with (open(args.out, "w", encoding="utf-8") if args.out
              else nullcontext(sys.stdout)) as out:
            tail = ""
            for chunk in chunks:
                out.write(chunk)
                tail = chunk or tail
            if not tail.endswith("\n"):
                out.write("\n")
            out.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`); the verdict's exit code
        # still stands.  Point stdout at devnull so the interpreter's final
        # flush of the unsent rest cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as err:
        # an unwritable --out (no such directory, a directory) is a usage error
        raise OSError(f"cannot write {args.out or 'stdout'}: {err.strerror}") from err


def _emit_report(args, report: Report, spec=None, companion=None,
                 grid: Optional[GridSpec] = None) -> None:
    if args.csv:
        _write(args, residual_csv(spec, companion, grid))
    else:
        _write(args, [report.to_json() if args.json else report.summary()])


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    spec = parse_spec(args.tnorm)
    companion = _companion_from_args(args, spec)
    if companion is None:
        value = eval_tnorm(spec, args.x, args.y)
    else:
        value = eval_companion(companion, args.x, args.y)
    if args.json:
        _write(args, [json.dumps({"command": "eval", "tnorm": args.tnorm,
                                  "x": args.x, "y": args.y, "value": value},
                                 indent=2)])
    else:
        _write(args, [format(value, ".12g")])
    return 0


def _cmd_verify(args) -> int:
    spec = parse_spec(args.tnorm)
    companion = _companion_from_args(args, spec)
    grid = _grid_from_args(args)
    if companion is not None:
        # the boundary axiom forces F(1, t) = t; test that line first
        pre = check_unit_scale(companion, grid)
        if not pre.passed:
            _emit_report(args, pre, spec, companion, grid)
            return 1
    report = check_gph(spec, companion, grid)
    _emit_report(args, report, spec, companion, grid)
    return 0 if report.passed else 1


def _cmd_counterexample(args) -> int:
    spec = parse_spec(args.tnorm)
    grid = _grid_from_args(args)
    report = find_gph_counterexample(spec, grid)
    _emit_report(args, report, spec, None, grid)
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    spec = parse_spec(args.tnorm)
    grid = _grid_from_args(args)
    result = classify(spec, grid, assoc_full=args.assoc_full)
    if args.json:
        _write(args, [result.to_json()])
    else:
        lines = [f"family={result.family}"
                 f" parameter={'-' if result.parameter is None else format(result.parameter, '.12g')}"
                 f" residual={result.residual:.3e}"]
        for entry in result.evidence:
            lines.append(f"  {entry['test']}: "
                         f"{'pass' if entry['passed'] else 'fail'} {entry['detail']}")
        _write(args, ["\n".join(lines)])
    return 0 if result.family != "NotGPH" else 1


_CATALOG_TABLE = [
    {"kind": "Minimum", "spec": "min", "tnorm": "min(x, y)", "companion": "x*y"},
    {"kind": "SchweizerSklar (beta > 0)", "spec": "ss:2",
     "tnorm": "(max(x^b + y^b - 1, 0))^(1/b) on (0,1]^2, else 0",
     "companion": "(max(x^b + (x*y)^b - 1, 0))^(1/b) on (0,1]^2, else 0"},
    {"kind": "Product", "spec": "prod", "tnorm": "x*y", "companion": "x^2*y"},
    {"kind": "SchweizerSklar (beta < 0)", "spec": "ss:-1",
     "tnorm": "(x^b + y^b - 1)^(1/b) on (0,1]^2, else 0",
     "companion": "(x^b + (x*y)^b - 1)^(1/b) on (0,1]^2, else 0"},
    {"kind": "CShelf", "spec": "cshelf:0.5",
     "tnorm": "0 on (0,1)^2 outside [c,1)^2, else min(x, y)",
     "companion": "0 where (x, x*y) is in that zero region, else x*y"},
    {"kind": "Drastic", "spec": "drastic",
     "tnorm": "min(x, y) if max(x, y) = 1, else 0",
     "companion": "0 for x < 1; y at x = 1"},
]


def _cmd_catalog(args) -> int:
    if args.json:
        _write(args, [json.dumps({"families": _CATALOG_TABLE}, indent=2)])
        return 0
    lines = ["Families admitting a companion under T(l*x, l*y) = F(l, T(x, y)):",
             ""]
    for row in _CATALOG_TABLE:
        lines.append(f"{row['kind']}  (e.g. --tnorm {row['spec']})")
        lines.append(f"  T(x, y) = {row['tnorm']}")
        lines.append(f"  F(x, y) = {row['companion']}")
        lines.append("")
    lines.append("Everything else fails verify/counterexample; in particular"
                 " every non-trivial ordinal sum does.")
    _write(args, ["\n".join(lines)])
    return 0


# --------------------------------------------------------------------------
# Parser assembly
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    epilog = "T-norm mini-syntax" + __doc__.split("T-norm mini-syntax", 1)[1]
    parser = argparse.ArgumentParser(
        prog="tnormlab",
        description="Evaluate, verify, and classify t-norms under the"
                    " scaling equation T(l*x, l*y) = F(l, T(x, y)).",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tnorm_p = argparse.ArgumentParser(add_help=False)
    tnorm_p.add_argument("--tnorm", required=True,
                         help="t-norm mini-syntax token (see epilog)")

    comp_p = argparse.ArgumentParser(add_help=False)
    comp_g = comp_p.add_mutually_exclusive_group()
    comp_g.add_argument("--f", choices=["catalog", "canonical"],
                        help="companion source; default for verify is the"
                             " canonical F(x,y) = T(x, x*y)")
    comp_g.add_argument("--f-expr", metavar="DSL",
                        help="companion as a DSL expression in x and y")
    comp_g.add_argument("--f-catalog", dest="f", action="store_const",
                        const="catalog", help="alias for --f catalog")

    grid_p = argparse.ArgumentParser(add_help=False)
    grid_p.add_argument("--points", type=int, default=GridSpec.points,
                        help="grid resolution per axis (default %(default)s)")
    grid_p.add_argument("--tol", type=float, default=GridSpec.eq_tol,
                        help="equality tolerance for sweeps"
                             " (default %(default)s)")
    grid_p.add_argument("--strict-tol", type=float, default=GridSpec.strict_tol,
                        help="tolerance for closed-form identities"
                             " (default %(default)s)")
    grid_p.add_argument("--samples", type=int, default=GridSpec.samples,
                        help="random triples per sweep (default %(default)s)")
    grid_p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="PRNG seed (default: $TNORMLAB_SEED or"
                             f" 0x{GridSpec.seed:X})")
    grid_p.add_argument("--step-h", type=float, default=GridSpec.step_h,
                        help="one-sided probe distance for limit scans"
                             " (default %(default)s)")

    out_p = argparse.ArgumentParser(add_help=False)
    out_p.add_argument("--json", action="store_true", help="JSON report")
    out_p.add_argument("--out", metavar="PATH", help="write output to a file")

    csv_p = argparse.ArgumentParser(add_help=False)
    csv_p.add_argument("--csv", action="store_true",
                       help="CSV dump of the residual at every grid triple")

    p_eval = sub.add_parser("eval", parents=[tnorm_p, comp_p, out_p],
                            help="evaluate T(x, y) or F(x, y) at one point")
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--y", type=float, required=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify",
                              parents=[tnorm_p, comp_p, grid_p, out_p, csv_p],
                              help="sweep the scaling equation residual")
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", parents=[tnorm_p, grid_p, out_p],
                                help="identify the family of a t-norm")
    p_classify.add_argument("--assoc-full", action="store_true",
                            help="associativity over the full points^3 cube")
    p_classify.set_defaults(func=_cmd_classify)

    p_catalog = sub.add_parser("catalog", parents=[out_p],
                               help="print the six-family table")
    p_catalog.set_defaults(func=_cmd_catalog)

    p_counter = sub.add_parser("counterexample",
                               parents=[tnorm_p, grid_p, out_p, csv_p],
                               help="hunt a triple violating the scaling"
                                    " equation")
    p_counter.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except dsl.ParseError as err:
        print(f"tnormlab: expression error {err}", file=sys.stderr)
        return 2
    except (dsl.EvalError, DomainError, PreconditionError, ValueError,
            OSError, MemoryError) as err:
        print(f"tnormlab: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
