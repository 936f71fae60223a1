"""Spans around the public functions of every convexproj module.

The wrappers live here, not in the package: `install` replaces each public
function at every place it is looked up.  Modules import by name
(`cli.goldman_to_bd`, `surface.goldman_to_fg`, `flags.fg_to_goldman`,
`fileio.build_decomposition`, ...), so every module attribute that is the
original function object is rebound, plus the methods that are looked up
on their class (`PantsDecomposition.slot_assignment`,
`CoordinateFile.goldman` / `.bd`).  `uninstall` puts the originals back.

A span is (name, start, end, parent index, op id), kept in memory and
written out by the caller when the run ends.  A few wrappers also add to
named counters (bytes parsed and written, gluings closed, monodromy
branches), read off the call's arguments or result.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) of every function that gets a span.  Span names are
# "<module>.<attribute>".
TRACED = {
    "cli": ("main", "build_parser"),
    "fileio": ("loads", "dumps", "load_file", "save_file", "file_from_goldman", "file_from_bd",
               "CoordinateFile.goldman", "CoordinateFile.bd"),
    "surface": ("build_decomposition", "goldman_to_bd", "bd_to_goldman", "validate_closure",
                "twist_flow", "bulge_flow", "PantsDecomposition.slot_assignment"),
    "pants": ("boundary_lengths", "validate_fg_domain", "fg_to_goldman", "goldman_to_fg",
              "crossratios", "solve_s", "quadratic_value", "internal_consistency"),
    "spectral": ("check_window", "eigen_from_boundary", "boundary_from_eigen",
                 "length_functions", "reverse_orientation"),
    "flags": ("wedge2", "wedge3", "triple_ratio_log", "shear_logs", "config_from_fg",
              "fg_from_config", "oracle_check", "reconstruct_monodromy"),
    "render": ("render_config_svg", "chart_point"),
}


# Counters read off a successful call: span name -> f(args, result) giving
# (counter, increment) pairs.
COUNTERS = {
    "fileio.loads": lambda args, result: (("bytes_read", len(args[0])),),
    "fileio.dumps": lambda args, result: (("bytes_written", len(result)),),
    "surface.validate_closure": lambda args, result: (("closure_gluings", len(args[0].gluings)),),
    "flags.reconstruct_monodromy": lambda args, result: (
        ("holonomies", len(result.branches)),
        ("branches", sum(len(b) for b in result.branches)),
    ),
}


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if counter is not None:
                for key, value in counter(args, result):
                    counts[key] += value
            return result

        return traced

    def install(self):
        """Wrap every function in TRACED at every binding that refers to it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "convexproj" or key.startswith("convexproj."))]
        for module_name, attrs in TRACED.items():
            module = sys.modules[f"convexproj.{module_name}"]
            for attr in attrs:
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, method, self.wrap(name, vars(cls)[method]))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, key, wrapper)

    def _patch(self, owner, key: str, wrapper):
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may in principle overlap one another, so the covered part is
    the length of the union of the children's intervals clipped to the
    parent's interval.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def write_spans(spans, path: str):
    """One tab-separated line per span: index, parent, op id, name, start, end."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tparent\top\tname\tstart\tend\n")
        for index, (name, start, end, parent, op) in enumerate(spans):
            handle.write(f"{index}\t{parent}\t{op}\t{name}\t{start!r}\t{end!r}\n")

