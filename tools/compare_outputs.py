"""Compare what two source trees of convexproj write, byte for byte.

usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC
           [--genus 2 50 500 2000] [--seeds 1 2 3] [--oracle-max-genus 500]

PARENT_SRC and CHANGE_SRC are directories holding the `convexproj` package,
such as the `src/` of two checkouts.  The inputs are the goldman and bd
documents of `perfbench/generate.py` (closed ring chains) for each genus and
seed, its rejection inputs, three goldman documents whose decomposition is
refused (`reject_slots`), four documents at the edges of the coordinates'
range (`edge_inputs`), written once with PARENT_SRC's library, then three
one-pants documents edited from `samples/` that reach the oracle's and
`validate`'s float limits (`pants_edge_inputs`), and the files under
`samples/`.  On each input the script runs `convert` to both systems,
`validate`, `flow` (a twist and a bulge), `render`, `oracle` and `oracle
--monodromy` (the oracle only up to --oracle-max-genus), each side in one
worker process that calls `convexproj.cli.main`.  Each file that `convert`
writes is then validated (its id ends in `.convert_bd.validate` or
`.convert_goldman.validate`), so a change in whether `validate` reads back
what `convert` wrote shows as a difference.  Every command that writes a
file runs a second time (its id ends in `.overwrite`) onto a path that already
holds a longer stale file, so a stale tail left behind, or a failed command
that touched the file, shows as a difference.  Last come the command lines of
ARGV_JOBS on `samples/pants_bd.json` (ids `argv.<kind>`): refusals, other
spellings that argparse accepts, help, and option values that start with "-".
It prints every difference in exit code, stdout, stderr or output file, with up
to MAX_LINES differing lines per stream and a count of the rest, then one
summary line, and exits 1 when anything differs.  Nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SAMPLES = os.path.join(ROOT, "samples")
# The id suffix of a second run onto a stale longer file, and that file's text.
OVERWRITE = ".overwrite"
STALE = b"stale output\n"


def reject_slots(goldman_text: str) -> dict[str, str]:
    """Three documents that fail in `build_decomposition`: the second gluing
    reuses the first one's plus slot, the first gluing's minus slot names an
    unknown pants, and the last gluing is dropped, which leaves its slots unused."""
    docs = {kind: json.loads(goldman_text)
            for kind in ("reject_slot_reuse", "reject_unknown_slot", "reject_unused_slot")}
    reuse = docs["reject_slot_reuse"]["surface"]["gluings"]
    reuse[1]["plus"] = reuse[0]["plus"]
    docs["reject_unknown_slot"]["surface"]["gluings"][0]["minus"][0] = "no_such_pants"
    docs["reject_unused_slot"]["surface"]["gluings"].pop()
    return {kind: json.dumps(doc, indent=2) + "\n" for kind, doc in docs.items()}


def edge_inputs(goldman_text: str, bd_text: str) -> dict[str, str]:
    """Documents whose values lie at the edges of their range, where rounding
    decides the outcome: every curve's tau 1e-9 (relative) inside the lower
    or the upper bound of its window (`edge_lower`, `edge_upper`), and every
    shear and triangle invariant of the bd document, pants and curves,
    multiplied by 10 or 100 (`far_10`, `far_100`; lengths stay positive)."""
    docs = {}
    for kind in ("edge_lower", "edge_upper"):
        doc = json.loads(goldman_text)
        for entry in doc["values"]["curves"].values():
            lam = entry["lambda"]
            lower, upper = 2.0 / math.sqrt(lam), lam + 1.0 / (lam * lam)
            entry["tau"] = upper * (1.0 - 1e-9) if kind == "edge_upper" else lower * (1.0 + 1e-9)
        docs[kind] = doc
    for factor in (10, 100):
        doc = json.loads(bd_text)
        for entry in doc["values"]["pants"].values():
            for key in ("sigma1", "sigma2"):
                entry[key] = [factor * value for value in entry[key]]
            for key in ("tau_plus", "tau_minus"):
                entry[key] *= factor
        for entry in doc["values"]["curves"].values():
            for key in ("sigma1_C", "sigma2_C"):
                entry[key] *= factor
        docs[f"far_{factor}"] = doc
    return {kind: json.dumps(doc, indent=2) + "\n" for kind, doc in docs.items()}


def pants_edge_inputs() -> dict[str, str]:
    """The pants sample with a far-out tuple that the oracle certifies while
    holonomy 3's flag residual is 1.58 (`far_monodromy`), the goldman pants
    sample with s = 1e300, whose crossratios overflow a float (`s_1e300`),
    and the pants sample with a far-out tuple whose converted goldman file
    puts the float crossratio quadratics out of range (`far_identity`)."""
    with open(os.path.join(SAMPLES, "pants_bd.json"), encoding="utf-8") as handle:
        text = handle.read()
    monodromy, identity = json.loads(text), json.loads(text)
    monodromy["values"]["pants"]["P0"] = {"sigma1": [107.0, 4.0, 101.0],
                                          "sigma2": [-340.0, -265.0, -211.0],
                                          "tau_plus": -73.0, "tau_minus": 29.0}
    identity["values"]["pants"]["P0"] = {"sigma1": [-258.0, -57.0, 30.0],
                                         "sigma2": [-89.0, -8.0, -185.0],
                                         "tau_plus": -150.0, "tau_minus": -129.0}
    with open(os.path.join(SAMPLES, "pants_goldman.json"), encoding="utf-8") as handle:
        goldman = json.load(handle)
    goldman["values"]["pants"]["P0"]["s"] = 1e300
    return {kind: json.dumps(doc, indent=2) + "\n"
            for kind, doc in (("far_monodromy", monodromy), ("s_1e300", goldman),
                              ("far_identity", identity))}


def generate(work: str, genera: list[int], seeds: list[int]) -> list[tuple[str, str]]:
    """Write the inputs; return (name, path) pairs.  Runs in a worker process."""
    import numpy as np

    import generate as gen

    inputs = []
    for genus in genera:
        for seed in seeds:
            d, g = gen.closed_surface(genus, seed, "compare")
            name = f"g{genus}_s{seed}"
            goldman, bd = gen.goldman_document(d, g), gen.bd_document(d, g)
            rng = np.random.default_rng([genus, seed])
            for kind, text in (("goldman", goldman), ("bd", bd),
                               ("reject_window", gen.reject_window(goldman, rng)),
                               ("reject_field", gen.reject_field(goldman)),
                               ("reject_closure", gen.reject_closure(bd, rng)),
                               *reject_slots(goldman).items(),
                               *edge_inputs(goldman, bd).items()):
                inputs.append((f"{name}.{kind}", gen.write(os.path.join(work, f"{name}.{kind}.json"),
                                                           text)))
    return inputs


# Command lines on one sample, each run once with the id "argv.<kind>": refusals,
# other spellings argparse accepts, and help, which reach argparse, and two
# well-formed spellings (options first, a repeated option) that reach the CLI's
# matcher.
ARGV_INPUT = os.path.join(SAMPLES, "pants_bd.json")
ARGV_JOBS = {
    "bad_choice": ["convert", ARGV_INPUT, "--to", "cube", "{out}"],
    "missing_option": ["convert", ARGV_INPUT, "{out}"],
    "missing_input": ["validate"],
    "extra_positional": ["validate", ARGV_INPUT, ARGV_INPUT],
    "bad_float": ["flow", ARGV_INPUT, "--curve", "c1", "--twist", "abc", "{out}"],
    "unknown_command": ["transmogrify", ARGV_INPUT],
    "empty": [],
    "abbreviated": ["oracle", ARGV_INPUT, "--mono"],
    "equals": ["convert", ARGV_INPUT, "--to=bd", "{out}"],
    "options_first": ["render", "--pants", "P0", ARGV_INPUT, "{out}"],
    "repeated": ["convert", ARGV_INPUT, "--to", "bd", "--to", "goldman", "{out}"],
    "help": ["-h"],
    "command_help": ["convert", "-h"],
    "negative_twist": ["flow", ARGV_INPUT, "--curve", "c1", "--twist", "-.5", "{out}"],
    "exponent_twist": ["flow", ARGV_INPUT, "--curve", "c1", "--twist", "-1e-3", "{out}"],
    "negative_curve": ["flow", ARGV_INPUT, "--curve", "-5", "--twist", "0.5", "{out}"],
}
# Differing lines shown per stream before the rest are only counted.
MAX_LINES = 10


def commands(inputs: list[tuple[str, str]], oracle_max_genus: int) -> list[tuple[str, list[str]]]:
    """(id, argv) of every command, ending with ARGV_JOBS; "{out}" in an argv is
    the command's output file, and "{dir}" the directory that holds every output file."""
    jobs = []
    for name, path in inputs:
        genus = int(name[1:name.index("_")]) if name.startswith("g") else 0
        curve = "r1" if genus else "c1"
        argvs = {
            "convert_bd": ["convert", path, "--to", "bd", "{out}"],
            "convert_goldman": ["convert", path, "--to", "goldman", "{out}"],
            "validate": ["validate", path],
            "twist": ["flow", path, "--curve", curve, "--twist", "0.25", "{out}"],
            "bulge": ["flow", path, "--curve", curve, "--bulge", "-0.5", "{out}"],
            "flow_unknown": ["flow", path, "--curve", "no_such_curve", "--twist", "1", "{out}"],
            "render": ["render", path, "--pants", "P0", "{out}"],
        }
        if genus <= oracle_max_genus:
            argvs["oracle"] = ["oracle", path]
            argvs["oracle_monodromy"] = ["oracle", path, "--monodromy"]
        for command, argv in argvs.items():
            jobs.append((f"{name}.{command}", argv))
            if "{out}" in argv:
                jobs.append((f"{name}.{command}{OVERWRITE}", argv))
            if command.startswith("convert_"):
                # a file that convert writes must read back
                jobs.append((f"{name}.{command}.validate",
                             ["validate", os.path.join("{dir}", f"{name}.{command}")]))
    return jobs + [(f"argv.{kind}", argv) for kind, argv in ARGV_JOBS.items()]


def prefill(path: str, first: str):
    """Fill ``path`` with a stale text longer than the file ``first`` (if any)."""
    size = os.path.getsize(first) if os.path.exists(first) else 0
    with open(path, "wb") as handle:
        handle.write(STALE * (size // len(STALE) + 2))


def run_jobs(jobs: list[tuple[str, list[str]]], out_dir: str) -> dict:
    """Run each command through cli.main; runs in a worker process."""
    from convexproj import cli

    os.environ.pop("CONVEXPROJ_VERBOSE", None)
    results = {}
    for job, argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        path = os.path.join(out_dir, job)
        if job.endswith(OVERWRITE):
            prefill(path, path[:-len(OVERWRITE)])
        argv = [a.replace("{out}", path).replace("{dir}", out_dir) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code
            except Exception as exc:  # noqa: BLE001 - an escaped error is an output too
                code = f"uncaught {type(exc).__name__}: {exc}"
        results[job] = [code, out.getvalue(), err.getvalue()]
    return results


def worker(argv: list[str]) -> int:
    """`--worker generate SRC WORK SPEC` or `--worker run SRC WORK SPEC`; SPEC is a JSON file."""
    role, src, work, spec = argv
    sys.path[:0] = [src, PERFBENCH]
    with open(spec, encoding="utf-8") as handle:
        request = json.load(handle)
    if role == "generate":
        reply = generate(work, request["genus"], request["seeds"])
    else:
        reply = run_jobs(request["jobs"], os.path.join(work, "out"))
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(reply, handle)
    return 0


def call_worker(role: str, src: str, work: str, request) -> object:
    spec = os.path.join(work, f"{role}.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(request, handle)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", role, src, work, spec],
                   check=True, env=env, cwd=work)
    with open(spec, encoding="utf-8") as handle:
        return json.load(handle)


def line_differences(a: str, b: str) -> list[str]:
    """Each line that differs between two different texts, up to MAX_LINES of
    them, then how many more differ, and the line counts where they differ."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    found = [f"line {i + 1}: {x[:120]!r} != {y[:120]!r}"
             for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y]
    if len(found) > MAX_LINES:
        found[MAX_LINES:] = [f"and {len(found) - MAX_LINES} more lines differ"]
    if len(lines_a) != len(lines_b) or not found:
        found.append(f"{len(lines_a)} lines != {len(lines_b)} lines")
    return found


def read(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return worker(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--genus", type=int, nargs="+", default=[2, 50, 500, 2000])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--oracle-max-genus", type=int, default=500)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent_src), "change": os.path.abspath(args.change_src)}
    for src in sides.values():
        if not os.path.isfile(os.path.join(src, "convexproj", "cli.py")):
            parser.error(f"no convexproj package under {src}")

    work = tempfile.mkdtemp(prefix="compare_outputs-")
    try:
        inputs = [tuple(pair) for pair in call_worker(
            "generate", sides["parent"], work, {"genus": args.genus, "seeds": args.seeds})]
        for kind, text in pants_edge_inputs().items():
            path = os.path.join(work, f"edge.{kind}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            inputs.append((f"edge.{kind}", path))
        inputs += [(f"sample.{name[:-5]}", os.path.join(SAMPLES, name))
                   for name in sorted(os.listdir(SAMPLES))]
        jobs = commands(inputs, args.oracle_max_genus)
        results = {}
        for side, src in sides.items():
            # both sides write to the same paths, so that messages naming them agree
            os.makedirs(os.path.join(work, "out"))
            results[side] = call_worker("run", src, work, {"jobs": jobs})
            os.rename(os.path.join(work, "out"), os.path.join(work, f"out.{side}"))
        differences = 0
        for job, _ in jobs:
            parent, change = results["parent"][job], results["change"][job]
            found = []
            if parent[0] != change[0]:
                found.append(f"exit {parent[0]!r} != {change[0]!r}")
            for k, stream in ((1, "stdout"), (2, "stderr")):
                if parent[k] != change[k]:
                    found += [f"{stream} {line}" for line in line_differences(parent[k], change[k])]
            files = [read(os.path.join(work, f"out.{side}", job)) for side in sides]
            if files[0] != files[1]:
                sizes = ["absent" if f is None else f"{len(f)} bytes" for f in files]
                found.append(f"output file differs ({sizes[0]} != {sizes[1]})")
            for line in found:
                print(f"{job}: {line}")
            differences += bool(found)
        print(f"{len(jobs)} commands on {len(inputs)} inputs: "
              f"{differences} with a difference")
        return 1 if differences else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
