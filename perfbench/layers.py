"""Per-layer metrics of a traced run.

Times are seconds per pass, summed over the traced passes and divided by
their number; `_calls` are calls per pass; `_self_s` is time inside the
function minus time in the traced functions it called.  Other `_s` metrics
include the traced functions called beneath.  `per_pants` ratios of the
flags layer divide by the pants the oracle certified (oracle_check calls);
`surface.us_per_pants` divides by the pants in the ops' input files.
"""

from __future__ import annotations

from collections import defaultdict

# name, unit, better: the per_layer list of BENCHMARK.json, in order.
PER_LAYER = (
    ("cli.self_s", "s/pass", "lower"),
    ("cli.build_parser_s", "s/pass", "lower"),
    ("cli.stdout_bytes", "B/pass", "lower"),
    ("fileio.loads_s", "s/pass", "lower"),
    ("fileio.dumps_s", "s/pass", "lower"),
    ("fileio.view_s", "s/pass", "lower"),
    ("fileio.file_from_s", "s/pass", "lower"),
    ("fileio.bytes_read", "B/pass", "lower"),
    ("fileio.bytes_written", "B/pass", "lower"),
    ("fileio.read_MBps", "MB/s", "higher"),
    ("surface.build_decomposition_s", "s/pass", "lower"),
    ("surface.slot_assignment_calls", "count/pass", "lower"),
    ("surface.slot_assignment_s", "s/pass", "lower"),
    ("surface.goldman_to_bd_self_s", "s/pass", "lower"),
    ("surface.bd_to_goldman_self_s", "s/pass", "lower"),
    ("surface.validate_closure_s", "s/pass", "lower"),
    ("surface.us_per_pants", "us", "lower"),
    ("pants.goldman_to_fg_calls", "count/pass", "lower"),
    ("pants.goldman_to_fg_s", "s/pass", "lower"),
    ("pants.fg_to_goldman_calls", "count/pass", "lower"),
    ("pants.fg_to_goldman_s", "s/pass", "lower"),
    ("pants.validate_fg_domain_s", "s/pass", "lower"),
    ("pants.crossratios_s", "s/pass", "lower"),
    ("pants.internal_consistency_s", "s/pass", "lower"),
    ("pants.boundary_lengths_calls_per_gluing", "count", "lower"),
    ("spectral.eigen_from_boundary_calls", "count/pass", "lower"),
    ("spectral.check_window_s", "s/pass", "lower"),
    ("spectral.reverse_orientation_calls", "count/pass", "lower"),
    ("flags.oracle_check_s", "s/pass", "lower"),
    ("flags.oracle_check_calls", "count/pass", "lower"),
    ("flags.reconstruct_monodromy_s", "s/pass", "lower"),
    ("flags.config_from_fg_calls_per_pants", "count", "lower"),
    ("flags.wedge2_calls_per_pants", "count", "lower"),
    ("flags.shear_logs_s", "s/pass", "lower"),
    ("flags.triple_ratio_log_s", "s/pass", "lower"),
    ("flags.branches_per_holonomy", "count", "lower"),
    ("flags.us_per_pants", "us", "lower"),
    ("render.render_config_svg_s", "s/pass", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.convexproj_s", "s", "lower"),
    ("trace.overhead_s", "s/pass", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans, self_times) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for span, own in zip(spans, self_times):
        entry = out[span[0]]
        entry["calls"] += 1
        entry["total"] += span[2] - span[1]
        entry["self"] += own
    return out


def layer_metrics(spans, self_times, counts, passes: int, input_pants: int,
                  imports: dict[str, float], overhead_s: float,
                  overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER metric, from the spans and counters of `passes` passes."""
    by = summarize(spans, self_times)

    def calls(name):
        return by[name]["calls"] if name in by else 0

    def total(*names):
        return sum(by[n]["total"] for n in names if n in by)

    def own(prefix):
        return sum(v["self"] for k, v in by.items() if k == prefix or k.startswith(prefix + "."))

    closure_lengths = sum(
        1 for span in spans
        if span[0] == "pants.boundary_lengths" and span[3] >= 0
        and spans[span[3]][0] == "surface.validate_closure"
    )
    certified = calls("flags.oracle_check")
    per = 1.0 / passes
    values = {
        "cli.self_s": own("cli.main") * per,
        "cli.build_parser_s": total("cli.build_parser") * per,
        "cli.stdout_bytes": counts.get("stdout_bytes", 0) * per,
        "fileio.loads_s": total("fileio.loads") * per,
        "fileio.dumps_s": total("fileio.dumps") * per,
        "fileio.view_s": total("fileio.CoordinateFile.goldman", "fileio.CoordinateFile.bd") * per,
        "fileio.file_from_s": total("fileio.file_from_goldman", "fileio.file_from_bd") * per,
        "fileio.bytes_read": counts.get("bytes_read", 0) * per,
        "fileio.bytes_written": counts.get("bytes_written", 0) * per,
        "fileio.read_MBps": _ratio(counts.get("bytes_read", 0) / 1e6, total("fileio.load_file")),
        "surface.build_decomposition_s": total("surface.build_decomposition") * per,
        "surface.slot_assignment_calls": calls("surface.PantsDecomposition.slot_assignment") * per,
        "surface.slot_assignment_s": total("surface.PantsDecomposition.slot_assignment") * per,
        "surface.goldman_to_bd_self_s": own("surface.goldman_to_bd") * per,
        "surface.bd_to_goldman_self_s": own("surface.bd_to_goldman") * per,
        "surface.validate_closure_s": total("surface.validate_closure") * per,
        "surface.us_per_pants": 1e6 * _ratio(own("surface"), input_pants),
        "pants.goldman_to_fg_calls": calls("pants.goldman_to_fg") * per,
        "pants.goldman_to_fg_s": total("pants.goldman_to_fg") * per,
        "pants.fg_to_goldman_calls": calls("pants.fg_to_goldman") * per,
        "pants.fg_to_goldman_s": total("pants.fg_to_goldman") * per,
        "pants.validate_fg_domain_s": total("pants.validate_fg_domain") * per,
        "pants.crossratios_s": total("pants.crossratios") * per,
        "pants.internal_consistency_s": total("pants.internal_consistency") * per,
        "pants.boundary_lengths_calls_per_gluing":
            _ratio(closure_lengths, counts.get("closure_gluings", 0)),
        "spectral.eigen_from_boundary_calls": calls("spectral.eigen_from_boundary") * per,
        "spectral.check_window_s": total("spectral.check_window") * per,
        "spectral.reverse_orientation_calls": calls("spectral.reverse_orientation") * per,
        "flags.oracle_check_s": total("flags.oracle_check") * per,
        "flags.oracle_check_calls": certified * per,
        "flags.reconstruct_monodromy_s": total("flags.reconstruct_monodromy") * per,
        "flags.config_from_fg_calls_per_pants": _ratio(calls("flags.config_from_fg"), certified),
        "flags.wedge2_calls_per_pants": _ratio(calls("flags.wedge2"), certified),
        "flags.shear_logs_s": total("flags.shear_logs") * per,
        "flags.triple_ratio_log_s": total("flags.triple_ratio_log") * per,
        "flags.branches_per_holonomy":
            _ratio(counts.get("branches", 0), counts.get("holonomies", 0)),
        "flags.us_per_pants": 1e6 * _ratio(own("flags"), certified),
        "render.render_config_svg_s": total("render.render_config_svg") * per,
        "import.numpy_s": imports["numpy"],
        "import.convexproj_s": imports["convexproj"],
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": overhead_pct,
    }
    return values


def breakdown(spans, self_times, kinds: dict[int, str], top: int = 4) -> dict[str, dict[str, float]]:
    """Per op kind: the traced functions with the most self time, in seconds per op."""
    ops_per_kind = defaultdict(set)
    own = defaultdict(lambda: defaultdict(float))
    for span, seconds in zip(spans, self_times):
        kind = kinds[span[4]]
        ops_per_kind[kind].add(span[4])
        own[kind][span[0]] += seconds
    out = {}
    for kind, names in own.items():
        n = len(ops_per_kind[kind])
        ranked = sorted(names.items(), key=lambda item: -item[1])[:top]
        out[kind] = {name: seconds / n for name, seconds in ranked}
    return out
