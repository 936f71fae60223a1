"""Command-line front end.

Subcommands: convert, validate, oracle, flow, render.  Exit codes:

    0  success (all checks passed)
    1  validation failures
    2  parse or schema error: SchemaError, CountMismatch, SlotReuse, NonNegativeEuler
    3  domain, window or closure violation: every other CoordinateError
    4  unknown or boundary curve for a flow: UnknownCurve, BoundaryCurve
    5  chart failure while rendering: ChartFailure

A failure's code is the ``exit_code`` of the raised error's class; an
unreadable input or unwritable output file (OSError) also exits with 2.
Each failure prints one ``error:`` line to standard error.  All numeric
behaviour is deterministic; the CONVEXPROJ_VERBOSE environment variable
only adds the traceback, for debugging.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback

from . import fileio
from .errors import CoordinateError, DomainViolation, SchemaError, located
from .flags import config_from_fg, oracle_check, reconstruct_monodromy
from .pants import crossratios, internal_consistency, validate_fg_domain
from .render import render_config_svg
from .spectral import check_window
from .surface import (
    bd_to_goldman,
    bulge_flow,
    goldman_to_bd,
    pants_goldman,
    twist_flow,
    validate_closure,
)

ORACLE_GATE = 1e-9


def cmd_convert(args) -> int:
    cf = fileio.load_file(args.input)
    d = cf.decomposition
    if args.to == cf.system:
        out = cf
    elif args.to == fileio.BD:
        out = fileio.file_from_bd(d, goldman_to_bd(d, cf.goldman()))
    else:
        out = fileio.file_from_goldman(d, bd_to_goldman(d, cf.bd()))
    fileio.save_file(args.output, out)
    return 0


def _validate_goldman(cf: fileio.CoordinateFile) -> bool:
    d = cf.decomposition
    ok = True
    for key in sorted(cf.curve_values):
        entry = cf.curve_values[key]
        check = check_window(entry["lambda"], entry["tau"])
        if check:
            print(f"PASS curve {key}: window ok "
                  f"({check.lower:.6g} < tau={entry['tau']:.6g} < {check.upper:.6g})")
        else:
            ok = False
            print(f"FAIL curve {key}: {'; '.join(check.failures)}")
    for key in sorted(cf.pants_values):
        entry = cf.pants_values[key]
        good = entry["s"] > 0 and entry["t"] > 0
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} pants {key}: s={entry['s']:.6g} t={entry['t']:.6g}"
              + ("" if good else " (internal parameters must be positive)"))
    if not ok:
        print("SKIP consistency checks: failures above")
        return ok
    g = cf.goldman()
    for key in sorted(d.pants):
        with located(f"pants {key!r}"):
            report = internal_consistency(pants_goldman(d, g, key))
        # The crossratios grow like s**2, so each identity is judged relative to its value.
        good = all(r > 1.0 and res <= 1e-9 * r
                   for r, res in zip(report.crossratios, report.residuals))
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} pants {key}: crossratio identities, "
              f"max residual {report.max_residual:.3e}")
    return ok


def _validate_bd(cf: fileio.CoordinateFile) -> bool:
    d = cf.decomposition
    b = cf.bd()
    ok = True
    for key in sorted(b.pants):
        f = b.pants[key]
        check = validate_fg_domain(f)
        if check:
            with located(f"pants {key!r}"):
                rho = crossratios(f)
            good = all(r > 1.0 for r in rho)
            ok = ok and good
            print(f"{'PASS' if good else 'FAIL'} pants {key}: lengths positive, "
                  f"crossratios {tuple(round(r, 6) for r in rho)}")
        else:
            ok = False
            print(f"FAIL pants {key}: {'; '.join(check.failures)}")
    report = validate_closure(d, b)
    for key in sorted(report.curves):
        closure = report.curves[key]
        ok = ok and closure.ok
        print(f"{'PASS' if closure.ok else 'FAIL'} curve {key}: closure residuals "
              f"{closure.residuals[0]:.3e} {closure.residuals[1]:.3e}")
    return ok


def cmd_validate(args) -> int:
    cf = fileio.load_file(args.input)
    ok = _validate_goldman(cf) if cf.system == fileio.GOLDMAN else _validate_bd(cf)
    print("all checks passed" if ok else "validation failed")
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    cf = fileio.load_file(args.input)
    if cf.system != fileio.BD:
        raise SchemaError("oracle requires a bd-system file")
    b = cf.bd()
    worst = 0.0
    for key in sorted(b.pants):
        with located(f"pants {key!r}"):
            report = oracle_check(b.pants[key])
            worst = max(worst, report.max_residual)
            print(
                f"pants {key}: shear residuals "
                f"{max(max(report.sigma1_residuals), max(report.sigma2_residuals)):.3e}  "
                f"triangle residual {report.tau_plus_residual:.3e}  "
                f"triangle-sum residual {report.tau_sum_residual:.3e}"
            )
            if args.monodromy:
                eigen = report.eigen
                result = reconstruct_monodromy(report.config, eigen)
                for i, branches in enumerate(result.branches):
                    print(
                        f"pants {key} holonomy {i + 1}: spectrum "
                        f"({eigen[i].lam:.9g}, {eigen[i].mu:.9g}, {eigen[i].nu:.9g})  "
                        f"flag residual {branches[0].flag_residual:.3e}  "
                        f"branches {len(branches)}"
                    )
    print(f"worst residual {worst:.3e}")
    return 0 if worst <= ORACLE_GATE else 1


def cmd_flow(args) -> int:
    cf = fileio.load_file(args.input)
    d = cf.decomposition
    coords = cf.goldman() if cf.system == fileio.GOLDMAN else cf.bd()
    coords = twist_flow(d, coords, args.curve, args.twist)
    coords = bulge_flow(d, coords, args.curve, args.bulge)
    to_file = fileio.file_from_goldman if cf.system == fileio.GOLDMAN else fileio.file_from_bd
    fileio.save_file(args.output, to_file(d, coords))
    return 0


def cmd_render(args) -> int:
    cf = fileio.load_file(args.input)
    if cf.system != fileio.BD:
        raise SchemaError("render requires a bd-system file")
    b = cf.bd()
    if args.pants not in b.pants:
        raise SchemaError(f"no pants {args.pants!r} in this file")
    f = b.pants[args.pants]
    with located(f"pants {args.pants!r}"):
        check = validate_fg_domain(f)
        if not check:
            raise DomainViolation("; ".join(check.failures))
        svg = render_config_svg(config_from_fg(f.sigma1, f.sigma2, f.tau_plus))
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(svg)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="convexproj",
        description="Convert, validate and certify coordinates for convex "
                    "projective structures on surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between goldman and bd coordinates")
    p.add_argument("input")
    p.add_argument("--to", required=True, choices=(fileio.GOLDMAN, fileio.BD))
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("validate", help="window, domain, closure and consistency checks")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="recompute invariants from flag geometry")
    p.add_argument("input")
    p.add_argument("--monodromy", action="store_true",
                   help="also reconstruct boundary holonomy matrices")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("flow", help="twist and/or bulge along an internal curve")
    p.add_argument("input")
    p.add_argument("--curve", required=True)
    p.add_argument("--twist", type=float, default=0.0)
    p.add_argument("--bulge", type=float, default=0.0)
    p.add_argument("output")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("render", help="draw the normalized flag configuration as SVG")
    p.add_argument("input")
    p.add_argument("--pants", required=True)
    p.add_argument("output")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CoordinateError, OSError) as err:
        if os.environ.get("CONVEXPROJ_VERBOSE"):
            traceback.print_exc()
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code if isinstance(err, CoordinateError) else 2


if __name__ == "__main__":
    sys.exit(main())
