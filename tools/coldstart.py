"""Time the benchmark's cold_start commands on two source trees, in alternating pairs.

usage: python tools/coldstart.py PARENT_SRC CHANGE_SRC [--rounds N]

PARENT_SRC and CHANGE_SRC are directories holding the `convexproj` package,
such as the `src/` of two checkouts.  The commands are those of
`perfbench/workloads.py`'s cold_start: `python -m convexproj validate` on
`samples/genus2_goldman.json`, and `python -m convexproj oracle` on that
sample's bd file, written once with PARENT_SRC's library.  Each round runs
every command once per side in a fresh process, the two sides in alternating
order, with the environment the benchmark gives its children: PYTHONPATH
starts with the side's tree, and OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS are 1.  A command that exits nonzero stops the run.

For each command and side it prints the median, quartiles and minimum of the
wall-clock latency and the median and minimum peak RSS of a child (from
`os.wait4`), and how many of the pairs the change won on each.  The last line
is the same summary as a JSON object.  Many short pairs can resolve a move of
a few percent that the benchmark's 20 s runs on a noisy host cannot.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE = os.path.join(ROOT, "samples", "genus2_goldman.json")
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREADS, "1"))
    return env


def run(src: str, argv: list[str]) -> tuple[float, float]:
    """Run `python -m convexproj ARGV` in a fresh process; return its wall-clock
    seconds and its peak RSS in MB."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "convexproj", *argv], cwd=ROOT,
                             env=child_env(src), stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    # reaped here: Popen must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {child.returncode} under {src}")
    return seconds, usage.ru_maxrss / 1024.0


def summary(seconds: list[float], rss: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_ms": 1e3 * median, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3,
            "min_ms": 1e3 * min(seconds), "rss_median_mb": statistics.median(rss),
            "rss_min_mb": min(rss)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    sides = {"parent": os.path.abspath(args.parent_src), "change": os.path.abspath(args.change_src)}
    for src in sides.values():
        if not os.path.isfile(os.path.join(src, "convexproj", "cli.py")):
            parser.error(f"no convexproj package under {src}")

    with tempfile.TemporaryDirectory(prefix="coldstart-") as work:
        bd = os.path.join(work, "genus2.bd.json")
        subprocess.run([sys.executable, "-m", "convexproj", "convert", SAMPLE, "--to", "bd", bd],
                       cwd=ROOT, env=child_env(sides["parent"]), check=True)
        commands = {"validate": ["validate", SAMPLE], "oracle": ["oracle", bd]}
        taken = {(name, side): ([], []) for name in commands for side in sides}
        for k in range(args.rounds):
            for name, command in commands.items():
                for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                    seconds, rss = run(sides[side], command)
                    taken[name, side][0].append(seconds)
                    taken[name, side][1].append(rss)

    report = {}
    print(f"{args.rounds} alternating pairs per command; latency in ms, peak RSS in MB")
    print(f"{'command':9s} {'side':7s} {'median':>8s} {'q1':>8s} {'q3':>8s} {'min':>8s} "
          f"{'rss med':>8s} {'rss min':>8s}")
    for name in commands:
        for side in sides:
            row = report.setdefault(name, {})[side] = summary(*taken[name, side])
            print(f"{name:9s} {side:7s} " + " ".join(f"{value:8.2f}" for value in row.values()))
        (parent_s, parent_rss), (change_s, change_rss) = taken[name, "parent"], taken[name, "change"]
        faster = sum(c < p for p, c in zip(parent_s, change_s))
        smaller = sum(c < p for p, c in zip(parent_rss, change_rss))
        report[name]["change_won"] = {"latency": faster, "peak_rss": smaller, "pairs": args.rounds}
        print(f"{name}: the change was faster in {faster} of {args.rounds} pairs and had the "
              f"lower peak RSS in {smaller}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
