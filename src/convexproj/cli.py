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
import gc
import os
import sys
import traceback

from . import fileio
from .errors import CoordinateError, DegenerateConfiguration, DomainViolation, SchemaError, located
from .flags import config_from_fg, oracle_check, reconstruct_monodromy
from .pants import (
    crossratios,
    internal_consistency,
    log_crossratios,
    validate_fg_domain,
)
from .render import render_config_svg
from .spectral import check_window
from .surface import (
    bd_to_goldman,
    bulge_flow,
    closure_from_lengths,
    goldman_to_bd,
    pants_goldman,
    twist_flow,
)

ORACLE_GATE = 1e-9


def cmd_convert(args) -> int:
    cf = fileio.load_file(args.input)
    d = cf.decomposition
    if cf.system == fileio.GOLDMAN:
        out = fileio.file_from_bd(d, goldman_to_bd(d, cf.goldman()))
    else:
        out = fileio.file_from_goldman(d, bd_to_goldman(d, cf.bd()))
    if args.to == cf.system:
        # --to the file's own system refuses what the other direction refuses,
        # then writes the file as it was read
        fileio.dumps(out)
        out = cf
    fileio.save_file(args.output, out)
    return 0


def _validate_goldman(cf: fileio.CoordinateFile) -> bool:
    d, values, ok = cf.decomposition, cf.values, True
    for key in sorted(values.curves):
        lam, tau = values.curves[key]
        check = check_window(lam, tau)
        if check:
            print(f"PASS curve {key}: window ok "
                  f"({check.lower:.6g} < tau={tau:.6g} < {check.upper:.6g})")
        else:
            ok = False
            print(f"FAIL curve {key}: {'; '.join(check.failures)}")
    for key in sorted(values.pants):
        s, t = values.pants[key]
        good = s > 0 and t > 0
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} pants {key}: s={s:.6g} t={t:.6g}"
              + ("" if good else " (internal parameters must be positive)"))
    if not ok:
        print("SKIP consistency checks: failures above")
        return ok
    g = cf.goldman()
    for key in sorted(d.pants):
        with located(f"pants {key!r}"):
            report = internal_consistency(pants_goldman(d, g, key))
        # each residual is a difference of logs, so a relative one
        good = report.max_residual <= 1e-9
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} pants {key}: crossratio identities, "
              f"max residual {report.max_residual:.3e}")
    return ok


def _validate_bd(cf: fileio.CoordinateFile) -> bool:
    d = cf.decomposition
    b = cf.bd()
    ok, lengths = True, {}
    for key in sorted(b.pants):
        f = b.pants[key]
        check = validate_fg_domain(f)
        lengths[key] = check.lengths
        if check:
            try:
                shown = f"crossratios {tuple(round(r, 6) for r in crossratios(f))}"
            except DegenerateConfiguration:
                # a crossratio overflows a float: show all three as logs
                shown = f"log crossratios {tuple(round(r, 6) for r in log_crossratios(f))}"
            print(f"PASS pants {key}: lengths positive, {shown}")
        else:
            ok = False
            print(f"FAIL pants {key}: {'; '.join(check.failures)}")
    # the file's pants keys are its decomposition's, so the closure reuses the lengths
    report = closure_from_lengths(d, lengths)
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
                    flag_residual = branches[0].flag_residual
                    worst = max(worst, flag_residual)
                    print(
                        f"pants {key} holonomy {i + 1}: spectrum "
                        f"({eigen[i].lam:.9g}, {eigen[i].mu:.9g}, {eigen[i].nu:.9g})  "
                        f"flag residual {flag_residual:.3e}  "
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
    fileio.write_text(args.output, svg)
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
    # a command's objects form no cycles: the cyclic collector would walk them for nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CoordinateError, OSError) as err:
        if os.environ.get("CONVEXPROJ_VERBOSE"):
            traceback.print_exc()
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code if isinstance(err, CoordinateError) else 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
