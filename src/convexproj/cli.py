"""Command-line front end.

Subcommands: convert, validate, oracle, flow, render.  Exit codes:

    0  success (all checks passed)
    1  validation failures
    2  a refused command line, after argparse's usage line and message
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

import functools
import gc
import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
# What argparse 3.10 to 3.13.0 reads as a negative number (a later release may read
# more, and such a value is left to argparse); as no option string of ours looks
# like one, argparse takes such a token as an option's value.
NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


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
                for i, (holonomy,) in enumerate(result.branches):
                    worst = max(worst, holonomy.flag_residual)
                    print(
                        f"pants {key} holonomy {i + 1}: spectrum "
                        f"({eigen[i].lam:.9g}, {eigen[i].mu:.9g}, {eigen[i].nu:.9g})  "
                        f"flag residual {holonomy.flag_residual:.3e}"
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


class Command(NamedTuple):
    """One subcommand: its handler, its help line, and its arguments as
    (name, add_argument keywords) pairs, in the order they are declared."""

    handler: Callable[[SimpleNamespace], int]
    help: str
    arguments: tuple[tuple[str, dict], ...]


# The one declaration of the command line: build_parser and match both read it.
COMMANDS = {
    "convert": Command(cmd_convert, "convert between goldman and bd coordinates", (
        ("input", {}),
        ("--to", {"required": True, "choices": (fileio.GOLDMAN, fileio.BD)}),
        ("output", {}),
    )),
    "validate": Command(cmd_validate, "window, domain, closure and consistency checks", (
        ("input", {}),
    )),
    "oracle": Command(cmd_oracle, "recompute invariants from flag geometry", (
        ("input", {}),
        ("--monodromy", {"action": "store_true",
                         "help": "also reconstruct boundary holonomy matrices"}),
    )),
    "flow": Command(cmd_flow, "twist and/or bulge along an internal curve", (
        ("input", {}),
        ("--curve", {"required": True}),
        ("--twist", {"type": float, "default": 0.0}),
        ("--bulge", {"type": float, "default": 0.0}),
        ("output", {}),
    )),
    "render": Command(cmd_render, "draw the normalized flag configuration as SVG", (
        ("input", {}),
        ("--pants", {"required": True}),
        ("output", {}),
    )),
}


@functools.cache
def build_parser():
    """The one parser of the process, unchanged by `parse_args`; argparse loads only here."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="convexproj",
        description="Convert, validate and certify coordinates for convex "
                    "projective structures on surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for argument, keywords in command.arguments:
            p.add_argument(argument, **keywords)
        p.set_defaults(func=command.handler)
    return parser


def match(argv: list) -> SimpleNamespace | None:
    """The attributes of `build_parser().parse_args(argv)`, for a command line that
    argparse reads in one way only; None for any other, which is left to argparse.

    Matched: every token a str, the first a command name, every token that
    starts with "-" one of that command's option strings spelt out in full, each
    valued option followed by a token that passes its choices and type and starts
    with "-" only as a NEGATIVE_NUMBER, exactly the command's positionals, and
    every required option present.  Not matched: -h, abbreviations, --opt=value,
    other values that start with "-", "--", and every command line argparse
    refuses, so that its messages and exit codes are argparse's own.
    """
    if not argv or any(type(token) is not str for token in argv) or argv[0] not in COMMANDS:
        return None
    command = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": command.handler}
    options, positionals, required = {}, [], set()
    for argument, keywords in command.arguments:
        if argument[0] != "-":
            positionals.append(argument)
            continue
        options[argument] = keywords
        flag = keywords.get("action") == "store_true"
        values[argument[2:]] = keywords.get("default", False if flag else None)
        if keywords.get("required"):
            required.add(argument)
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        keywords = options.get(token)
        if keywords is None:
            return None
        required.discard(token)
        if keywords.get("action") == "store_true":
            values[token[2:]] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-" and not NEGATIVE_NUMBER.fullmatch(value):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[token[2:]] = value
    if required or len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    # a command's objects form no cycles: the cyclic collector would walk them for nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = match(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except (CoordinateError, OSError) as err:
        if os.environ.get("CONVEXPROJ_VERBOSE"):
            import traceback
            traceback.print_exc()
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code if isinstance(err, CoordinateError) else 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
