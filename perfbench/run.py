"""convexproj benchmark: drive the CLI on one workload and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are generated from the seed
into a scratch directory under `.perfbench_out/`, which also receives the
results document (and, with --trace 1, the spans).  One client in one
thread runs the ops closed-loop: `convexproj.cli.main(argv)` in this
process, or `python -m convexproj` in a fresh process for cold_start.  CLI
output goes to in-memory sinks, and every op's exit code and output are
checked.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics from a
traced run (see layers.py), whose end-to-end numbers are not reported.
The lines before it print every metric by name with its unit.
"""

from __future__ import annotations

import os

# Pin the math libraries to one thread before numpy is first imported; the
# subprocesses inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Set-up is repeated at least SETUPS times and for at least SETUP_SECONDS;
# setup_s is the median.
SETUPS = 3
SETUP_SECONDS = 1.0
# Probes of `python -X importtime` per traced run; import times are medians.
IMPORT_PROBES = 5
END_TO_END_UNITS = {"setup_s": "s", "pants_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------------------
# Running one op.


def run_in_process(op, cli):
    from workloads import Outcome

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        except Exception as exc:  # an escaped library error fails the op, not the run
            code = None
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def run_in_subprocess(op, prefix: list[str]):
    from workloads import Outcome

    start = time.perf_counter()
    proc = subprocess.run(prefix + list(op.argv), capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=120)
    seconds = time.perf_counter() - start
    return Outcome(proc.returncode, proc.stdout, proc.stderr, seconds)


class Runner:
    """Executes ops, records (kind, seconds, pants), the op seconds of each
    pass, and failures."""

    def __init__(self, plan, cli, tracer=None, spans_dir=None):
        self.plan = plan
        self.cli = cli
        self.tracer = tracer
        self.spans_dir = spans_dir
        self.records: list[tuple[str, float, int]] = []
        self.pass_seconds: list[float] = []
        self.failures: list[str] = []
        self.kinds: dict[int, str] = {}

    def run(self, op):
        op_id = len(self.kinds) + 1
        self.kinds[op_id] = op.kind
        if self.plan.in_process:
            if self.tracer is not None:
                self.tracer.op_id = op_id
            outcome = run_in_process(op, self.cli)
            if self.tracer is not None:
                self.tracer.counts["stdout_bytes"] += len(outcome.stdout)
        elif self.tracer is not None:
            spans_file = os.path.join(self.spans_dir, f"op{op_id}.json")
            outcome = run_in_subprocess(
                op, [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_file])
            self._merge(spans_file, op_id, len(outcome.stdout))
        else:
            outcome = run_in_subprocess(op, [sys.executable, "-m", "convexproj"])
        self.records.append((op.kind, outcome.seconds, op.pants))
        reason = op.verdict(outcome)
        if reason is not None:
            self.failures.append(f"{op.kind} {' '.join(op.argv)}: {reason}")

    def _merge(self, spans_file: str, op_id: int, stdout_bytes: int):
        """Fold a traced child's spans and counters into this run's tracer."""
        with open(spans_file, encoding="utf-8") as handle:
            child = json.load(handle)
        base = len(self.tracer.spans)
        for name, start, end, parent, _ in child["spans"]:
            self.tracer.spans.append((name, start, end, parent + base if parent >= 0 else -1, op_id))
        for key, value in child["counts"].items():
            self.tracer.counts[key] += value
        self.tracer.counts["stdout_bytes"] += stdout_bytes

    def passes(self, seconds: float = None, count: int = None) -> int:
        """Run whole passes, cycling through the plan, until `seconds` have
        elapsed or `count` passes are done.  Returns the passes run."""
        start = time.perf_counter()
        done = 0
        while (count is None and time.perf_counter() - start < seconds) or \
                (count is not None and done < count):
            first = len(self.records)
            for op in self.plan.passes[done % len(self.plan.passes)]:
                self.run(op)
            self.pass_seconds.append(sum(s for _, s, _ in self.records[first:]))
            done += 1
        return done


# --------------------------------------------------------------------------
# Metrics.


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def op_metrics(runner) -> dict[str, tuple[float, str]]:
    """Per-kind median latencies and the aggregate op metrics."""
    records = runner.records
    out = {}
    by_kind: dict[str, list[float]] = {}
    for kind, seconds, _ in records:
        by_kind.setdefault(kind, []).append(seconds)
    for kind in sorted(by_kind):
        out[f"{kind}_s"] = (statistics.median(by_kind[kind]), "s")
    times = sorted(seconds for _, seconds, _ in records)
    out["op_p50_ms"] = (1e3 * statistics.median(times), "ms")
    out["pass_p50_s"] = (statistics.median(runner.pass_seconds), "s")
    # p99 only when at least ten samples lie beyond it.
    p99 = times[max(0, -(-99 * len(times) // 100) - 1)]
    if sum(1 for t in times if t > p99) >= 10:
        out["op_p99_ms"] = (1e3 * p99, "ms")
    out["pants_per_s"] = (sum(p for _, _, p in records) / sum(times), "1/s")
    out["ops"] = (len(times), "count")
    return out


def import_times() -> dict[str, float]:
    """Median cumulative import time of numpy, and of convexproj without numpy,
    from `python -X importtime`."""
    numpy_s, package_s = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import convexproj.cli"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=120, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        numpy_s.append(cumulative["numpy"])
        package_s.append(cumulative["convexproj"] - cumulative["numpy"])
    return {"numpy": statistics.median(numpy_s), "convexproj": statistics.median(package_s)}


def environment() -> dict[str, str]:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    return {
        "cpu": cpu,
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads": ",".join(f"{v}={os.environ[v]}" for v in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")),
    }


# --------------------------------------------------------------------------
# The two kinds of run.


def set_up(builder, seed: int, work: str):
    """Build the inputs repeatedly; return the last plan and the median time.
    Each build starts with the previous plan released."""
    times = []
    plan = None
    gc.collect()
    while len(times) < SETUPS or sum(times) < SETUP_SECONDS:
        plan = None
        start = time.perf_counter()
        plan = builder(seed, work, ROOT)
        times.append(time.perf_counter() - start)
    return plan, statistics.median(times)


def warm_up(plan, cli, work: str) -> Runner:
    """Untimed ops of every kind this process will run, on small inputs:
    they fill caches and import the lazily loaded parts of numpy, or write
    the bytecode cache for cold_start.  Their checks still count."""
    import workloads

    if not plan.in_process:
        runner = Runner(plan, cli)
        runner.passes(count=1)
        return runner
    warm = os.path.join(work, "warm")
    os.makedirs(warm)
    small = workloads.small_files(0, warm, ROOT, 5)
    runner = Runner(small, cli)
    runner.passes(count=len(small.passes))
    return runner


def measured(plan, cli, seconds: float, setup_s: float) -> dict:
    gc.collect()
    runner = Runner(plan, cli)
    runner.passes(seconds=seconds)
    metrics = op_metrics(runner)
    if not plan.in_process:
        metrics["cold_start_s"] = (1e-3 * metrics["op_p50_ms"][0], "s")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(plan.in_process), "MB")
    attempted = len(runner.records)
    metrics["error_rate"] = (len(runner.failures) / attempted, "ratio")
    final = {name: metrics[name] for name in END_TO_END_UNITS}
    return {"attempted": attempted, "failures": runner.failures, "metrics": metrics,
            "final": final}


def traced(plan, cli, seconds: float, work: str, spans_path: str) -> dict:
    """Same passes untraced, then traced: the difference is the overhead."""
    import layers
    import tracer as tracing

    # One untimed cycle first, so that both sides overwrite existing files.
    prime = Runner(plan, cli)
    prime.passes(count=len(plan.passes))
    plain = Runner(plan, cli)
    passes = plain.passes(seconds=seconds / 2)
    recorder = tracing.Tracer()
    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir)
    runner = Runner(plan, cli, recorder, spans_dir)
    if plan.in_process:
        recorder.install()
    try:
        runner.passes(count=passes)
    finally:
        recorder.uninstall()
    plain_s = sum(s for _, s, _ in plain.records)
    traced_s = sum(s for _, s, _ in runner.records)
    own = tracing.self_times(recorder.spans)
    values = layers.layer_metrics(
        recorder.spans, own, recorder.counts, passes,
        sum(p for _, _, p in runner.records), import_times(),
        (traced_s - plain_s) / passes, 100.0 * (traced_s - plain_s) / plain_s)
    tracing.write_spans(recorder.spans, spans_path)
    metrics = {name: (value, layers.UNITS[name]) for name, value in values.items()}
    sides = (prime, plain, runner)
    return {"attempted": sum(len(r.records) for r in sides),
            "failures": [f for r in sides for f in r.failures],
            "metrics": metrics, "final": metrics, "passes": passes,
            "breakdown": layers.breakdown(recorder.spans, own, runner.kinds),
            "traced_ops": op_metrics(runner)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "convexproj", "cli.py")):
        print(f"error: no convexproj sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from convexproj import cli
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        plan, setup_s = set_up(workloads.WORKLOADS[args.workload], args.seed, work)
        warm = warm_up(plan, cli, work)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            result = traced(plan, cli, args.seconds, work, stem + ".spans.tsv")
        else:
            result = measured(plan, cli, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = warm.failures + result["failures"]
    attempted = len(warm.records) + result["attempted"]
    document = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    for key in ("passes", "breakdown", "traced_ops"):
        if key in result:
            document[key] = result[key]
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=list)

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:42s} {value:.6g} {unit}")
    for kind, top in result.get("breakdown", {}).items():
        print(f"breakdown {kind}: " + ", ".join(f"{n} {s:.4g} s/op" for n, s in top.items()))
    print(f"results document: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["final"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
