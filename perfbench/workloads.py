"""The four workloads: their inputs, their op sequences and each op's check.

A workload's set-up writes its inputs and returns a `Plan`: a list of
passes, each an ordered list of `Op`s.  The runner cycles through the
passes until the measuring time is used up, always finishing the pass it
started, so every run executes the op kinds in the same proportions.

Every op carries the exit code it must produce and a check on its output.
An op fails when either is wrong; failures count in `error_rate`.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Callable, Optional
from xml.etree import ElementTree

import numpy as np

import generate as gen
from convexproj import cli, fileio

# Tolerance pinned for round trips in tests/test_acceptance.py.
ROUND_TRIP_REL = 1e-10
ROUND_TRIP_ABS = 1e-12

LARGE_GENUS = 2000
ORACLE_GENUS = 500
SMALL_FILES = 60

SVG = "http://www.w3.org/2000/svg"


@dataclass(frozen=True)
class Outcome:
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    pants: int
    code: int = 0
    check: Optional[Callable[[Outcome], Optional[str]]] = None

    def verdict(self, outcome: Outcome) -> Optional[str]:
        """None when the op behaved as documented, else the reason it failed."""
        if outcome.code != self.code:
            tail = (outcome.stderr.strip().splitlines() or [""])[-1]
            return f"exit {outcome.code}, expected {self.code} ({tail})"
        return self.check(outcome) if self.check else None


@dataclass(frozen=True)
class Plan:
    passes: list[list[Op]]
    in_process: bool = True


# --------------------------------------------------------------------------
# Output checks.  They read the CLI's output with plain `json`, never with
# the library under test.


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def values_mismatch(got, want, path: str = "values") -> Optional[str]:
    """First place where two value trees differ beyond the round-trip tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in want:
            found = values_mismatch(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            found = values_mismatch(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    if abs(got - want) > ROUND_TRIP_ABS + ROUND_TRIP_REL * abs(want):
        return f"{path}: {got!r} != {want!r}"
    return None


def validated(outcome: Outcome) -> Optional[str]:
    last = (outcome.stdout.strip().splitlines() or [""])[-1]
    return None if last == "all checks passed" else f"validate printed {last!r}"


def failed_validation(outcome: Outcome) -> Optional[str]:
    last = (outcome.stdout.strip().splitlines() or [""])[-1]
    return None if last == "validation failed" else f"validate printed {last!r}"


def refused(outcome: Outcome) -> Optional[str]:
    if not outcome.stderr.startswith("error: ") or "Traceback" in outcome.stderr:
        return f"expected one 'error:' line, got {outcome.stderr[:200]!r}"
    return None


_WORST = re.compile(r"^worst residual (\S+)$", re.MULTILINE)


def certified(pants: int, monodromy: bool):
    def check(outcome: Outcome) -> Optional[str]:
        found = _WORST.search(outcome.stdout)
        if not found:
            return "no worst residual reported"
        worst = float(found.group(1))
        if not worst <= cli.ORACLE_GATE:
            return f"worst residual {worst!r} above the gate {cli.ORACLE_GATE!r}"
        lines = outcome.stdout.count(": shear residuals ")
        holonomies = outcome.stdout.count(" holonomy ")
        if lines != pants or holonomies != (3 * pants if monodromy else 0):
            return f"{lines} pants lines and {holonomies} holonomy lines for {pants} pants"
        return None

    return check


# The checks below hold file paths, not parsed documents, so that the
# benchmark keeps no large object graph alive for the collector to scan
# while the CLI runs.


def converted(path: str, system: str, src: str):
    def check(outcome: Outcome) -> Optional[str]:
        doc = _load(path)
        if doc["system"] != system or doc["surface"] != _load(src)["surface"]:
            return f"{path}: wrong system or surface"
        return None

    return check


def round_trip(path: str, src: str):
    def check(outcome: Outcome) -> Optional[str]:
        doc, source = _load(path), _load(src)
        if doc["system"] != source["system"] or doc["surface"] != source["surface"]:
            return f"{path}: wrong system or surface after the round trip"
        return values_mismatch(doc["values"], source["values"])

    return check


def flowed(src: str, out: str, curve: str, u: float):
    """A twist moves the curve's shear pair by (+u, +u) and nothing else."""

    def check(outcome: Outcome) -> Optional[str]:
        before, after = _load(src), _load(out)
        pair = after["values"]["curves"].get(curve)
        old = before["values"]["curves"][curve]
        if pair is None:
            return f"curve {curve!r} missing after the flow"
        for key in ("sigma1_C", "sigma2_C"):
            if abs(pair[key] - (old[key] + u)) > ROUND_TRIP_ABS + ROUND_TRIP_REL * abs(old[key]):
                return f"{curve}.{key}: {pair[key]!r} is not {old[key]!r} + {u!r}"
        after["values"]["curves"][curve] = old
        if after != before:
            return "the flow changed more than the flowed curve's shear pair"
        return None

    return check


def rendered(path: str):
    """The picture is an SVG document with the four triangles."""

    def check(outcome: Outcome) -> Optional[str]:
        try:
            root = ElementTree.parse(path).getroot()
        except ElementTree.ParseError as err:
            return f"{path} is not XML: {err}"
        triangles = root.findall(f"{{{SVG}}}polygon")
        if root.tag != f"{{{SVG}}}svg" or len(triangles) != 4:
            return f"{path}: root {root.tag!r} with {len(triangles)} polygons"
        return None

    return check


# --------------------------------------------------------------------------
# Op sequences.


def _pants(doc: dict) -> int:
    return len(doc["surface"]["pants"])


def file_ops(work: str, name: str, src: str, source: dict, rng: np.random.Generator) -> list[Op]:
    """Every command on one small file: convert both ways, validate both
    systems, oracle --monodromy, render, flow (when the surface has an
    internal curve), ending in the round-trip check against the source."""
    n = _pants(source)
    base = os.path.join(work, name)
    other = fileio.GOLDMAN if source["system"] == fileio.BD else fileio.BD
    mid, back, svg, flow = (base + ".mid.json", base + ".back.json",
                            base + ".svg", base + ".flow.json")
    bd = mid if other == fileio.BD else src
    to_kind = {fileio.BD: "convert_to_bd", fileio.GOLDMAN: "convert_to_goldman"}
    ops = [
        Op(to_kind[other], ("convert", src, "--to", other, mid), n,
           check=converted(mid, other, src)),
        Op(f"validate_{source['system']}", ("validate", src), n, check=validated),
        Op(f"validate_{other}", ("validate", mid), n, check=validated),
        Op("oracle_monodromy", ("oracle", bd, "--monodromy"), n, check=certified(n, True)),
        Op("render", ("render", bd, "--pants", source["surface"]["pants"][0], svg), n,
           check=rendered(svg)),
    ]
    internal = sorted(g["curve"] for g in source["surface"]["gluings"])
    if internal:
        curve = internal[int(rng.integers(len(internal)))]
        u = float(rng.uniform(-1.0, 1.0))
        ops.append(Op("flow", ("flow", bd, "--curve", curve, "--twist", repr(u), flow), n,
                      check=flowed(bd, flow, curve, u)))
    ops.append(Op(to_kind[source["system"]], ("convert", mid, "--to", source["system"], back), n,
                  check=round_trip(back, src)))
    return ops


REJECTIONS = ("window", "field", "closure_convert", "closure_validate", "curve")


def rejection_op(kind: str, work: str, name: str, goldman_text: str, bd_text: str,
                 rng: np.random.Generator) -> Op:
    """One input the CLI must refuse with its documented exit code."""
    base = os.path.join(work, f"{name}.reject_{kind}")
    out = base + ".out.json"
    n = _pants(json.loads(goldman_text))
    if kind == "window":
        path = gen.write(base + ".json", gen.reject_window(goldman_text, rng))
        return Op("reject_window", ("convert", path, "--to", "bd", out), n,
                  gen.REJECT_WINDOW, refused)
    if kind == "field":
        path = gen.write(base + ".json", gen.reject_field(goldman_text))
        return Op("reject_field", ("validate", path), n, gen.REJECT_FIELD, refused)
    if kind == "curve":
        path = gen.write(base + ".json", bd_text)
        return Op("reject_curve", ("flow", path, "--curve", "no_such_curve", "--twist", "0.5", out),
                  n, gen.REJECT_CURVE, refused)
    path = gen.write(base + ".json", gen.reject_closure(bd_text, rng))
    if kind == "closure_convert":
        return Op("reject_closure_convert", ("convert", path, "--to", "goldman", out), n,
                  gen.REJECT_CLOSURE_CONVERT, refused)
    return Op("reject_closure_validate", ("validate", path), n,
              gen.REJECT_CLOSURE_VALIDATE, failed_validation)


# --------------------------------------------------------------------------
# Workloads.  Each set-up function writes the inputs for `seed` into `work`.


def large_closed(seed: int, work: str, root: str) -> Plan:
    d, g = gen.closed_surface(LARGE_GENUS, seed, "large_closed")
    text = gen.goldman_document(d, g)
    src = gen.write(os.path.join(work, "large.goldman.json"), text)
    bd, back, flow = (os.path.join(work, f"large.{x}.json") for x in ("bd", "back", "flow"))
    rng = gen.rng_for(seed, "large_closed.flow")
    curve = sorted(d.internal_curves())[int(rng.integers(len(d.gluings)))]
    u = float(rng.uniform(-1.0, 1.0))
    n = len(d.pants)
    return Plan([[
        Op("convert_to_bd", ("convert", src, "--to", "bd", bd), n,
           check=converted(bd, fileio.BD, src)),
        Op("validate_bd", ("validate", bd), n, check=validated),
        Op("validate_goldman", ("validate", src), n, check=validated),
        Op("convert_to_goldman", ("convert", bd, "--to", "goldman", back), n,
           check=round_trip(back, src)),
        Op("flow", ("flow", bd, "--curve", curve, "--twist", repr(u), flow), n,
           check=flowed(bd, flow, curve, u)),
    ]])


def oracle_certify(seed: int, work: str, root: str) -> Plan:
    d, g = gen.closed_surface(ORACLE_GENUS, seed, "oracle_certify")
    bd = gen.write(os.path.join(work, "oracle.bd.json"), gen.bd_document(d, g))
    n = len(d.pants)
    return Plan([[
        Op("oracle", ("oracle", bd), n, check=certified(n, False)),
        Op("oracle_monodromy", ("oracle", bd, "--monodromy"), n, check=certified(n, True)),
    ]])


def small_files(seed: int, work: str, root: str, count: int) -> Plan:
    """`count` random genus-2 ring chains, each followed by one rejection
    input (cycling through REJECTIONS), then the sample files."""
    passes = []
    for i in range(count):
        name = f"g2_{i}"
        d, g = gen.closed_surface(2, seed, f"small_batch.{i}")
        text = gen.goldman_document(d, g)
        src = gen.write(os.path.join(work, name + ".goldman.json"), text)
        rng = gen.rng_for(seed, f"small_batch.{i}.ops")
        ops = file_ops(work, name, src, json.loads(text), rng)
        ops.append(rejection_op(REJECTIONS[i % len(REJECTIONS)], work, name, text,
                                gen.bd_document(d, g), rng))
        passes.append(ops)
    samples = os.path.join(root, "samples")
    for i, sample in enumerate(sorted(os.listdir(samples))):
        src = os.path.join(samples, sample)
        rng = gen.rng_for(seed, f"small_batch.sample.{i}")
        passes.append(file_ops(work, sample[:-5], src, _load(src), rng))
    return Plan(passes)


def small_batch(seed: int, work: str, root: str) -> Plan:
    return small_files(seed, work, root, SMALL_FILES)


def cold_start(seed: int, work: str, root: str) -> Plan:
    """`python -m convexproj` in a fresh process per op, on the genus-2 sample."""
    src = os.path.join(root, "samples", "genus2_goldman.json")
    cf = fileio.load_file(src)
    bd = gen.write(os.path.join(work, "genus2.bd.json"),
                   gen.bd_document(cf.decomposition, cf.goldman()))
    n = len(cf.decomposition.pants)
    return Plan([[
        Op("cold_validate", ("validate", src), n, check=validated),
        Op("cold_oracle", ("oracle", bd), n, check=certified(n, False)),
    ]], in_process=False)


WORKLOADS = {
    "large_closed": large_closed,
    "oracle_certify": oracle_certify,
    "small_batch": small_batch,
    "cold_start": cold_start,
}
