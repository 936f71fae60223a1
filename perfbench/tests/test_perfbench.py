"""The benchmark's own tests; run with `python -m pytest perfbench/tests`.

They are not part of the repository's test suite (pytest's testpaths is
`tests`), because they exercise the benchmark, not the library.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import generate as gen
import layers
import run
import tracer
import workloads
from convexproj import cli, fileio, flags, surface

ROOT = run.ROOT


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("genus", [2, 3, 7, 50])
def test_ring_chain_is_closed_of_requested_genus(genus):
    d, g = gen.closed_surface(genus, 11, "test")
    assert d.genus == genus
    assert d.boundary_count == 0
    assert len(d.pants) == 2 * genus - 2
    assert len(d.gluings) == 3 * genus - 3
    assert set(g.curves) == set(d.curve_names())


def test_inputs_depend_on_the_seed_only():
    assert gen.goldman_document(*gen.closed_surface(3, 5, "a")) == \
        gen.goldman_document(*gen.closed_surface(3, 5, "a"))
    assert gen.goldman_document(*gen.closed_surface(3, 5, "a")) != \
        gen.goldman_document(*gen.closed_surface(3, 6, "a"))


def test_ring_chain_rejects_genus_below_two():
    with pytest.raises(ValueError):
        gen.ring_chain(1, gen.rng_for(0, "x"))


def _rejections(tmp_path):
    plan = workloads.small_files(3, str(tmp_path), ROOT, len(workloads.REJECTIONS))
    return [ops[-1] for ops in plan.passes if ops[-1].kind.startswith("reject_")]


def test_rejection_inputs_produce_their_codes(tmp_path):
    ops = _rejections(tmp_path)
    assert sorted(op.kind for op in ops) == sorted(f"reject_{k}" for k in workloads.REJECTIONS)
    expected = {"reject_window": 3, "reject_field": 2, "reject_closure_convert": 3,
                "reject_closure_validate": 1, "reject_curve": 4}
    for op in ops:
        outcome = run.run_in_process(op, cli)
        assert outcome.code == expected[op.kind], (op.kind, outcome.stderr)
        assert op.verdict(outcome) is None, op.kind


def test_checks_catch_a_wrong_exit_code_and_a_wrong_output(tmp_path):
    plan = workloads.small_files(4, str(tmp_path), ROOT, 1)
    ops = plan.passes[0]
    for op in ops:
        assert op.verdict(run.run_in_process(op, cli)) is None, op.kind
    wrong = workloads.Outcome(0, "", "", 0.0)
    assert ops[-1].verdict(wrong) is not None  # a rejection that succeeded
    round_trip = next(op for op in ops if op.kind == "convert_to_goldman")
    path = round_trip.argv[-1]
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["values"]["pants"]["P0"]["s"] *= 1.0 + 1e-8
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    assert "values.pants.P0.s" in round_trip.check(wrong)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 3.0, 0, 1),
        ("b", 2.0, 5.0, 0, 1),    # overlaps a: [1, 5] is covered once
        ("c", 9.0, 12.0, 0, 1),   # sticks out: only [9, 10] counts
        ("d", 1.5, 2.5, 1, 1),    # grandchild: charged to a, not to root
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_tracer_patches_every_lookup_site_and_restores_it():
    originals = (cli.goldman_to_bd, surface.goldman_to_fg, flags.fg_to_goldman,
                 fileio.build_decomposition, vars(surface.PantsDecomposition)["slot_assignment"])
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert cli.goldman_to_bd is not originals[0]
        assert surface.goldman_to_fg is not originals[1]
        assert flags.fg_to_goldman is not originals[2]
        assert fileio.build_decomposition is not originals[3]
        d, g = gen.closed_surface(2, 1, "trace")
        cli.goldman_to_bd(d, g)
    finally:
        recorder.uninstall()
    assert (cli.goldman_to_bd, surface.goldman_to_fg, flags.fg_to_goldman,
            fileio.build_decomposition,
            vars(surface.PantsDecomposition)["slot_assignment"]) == originals
    names = [span[0] for span in recorder.spans]
    assert names.count("surface.goldman_to_bd") == 1
    assert names.count("pants.goldman_to_fg") == 2
    assert names.count("surface.PantsDecomposition.slot_assignment") == 2
    top = names.index("surface.goldman_to_bd")
    assert all(span[3] >= top for span in recorder.spans[top + 1:])


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "LARGE_GENUS", 3)
    monkeypatch.setattr(workloads, "ORACLE_GENUS", 3)
    monkeypatch.setattr(workloads, "SMALL_FILES", 2)
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0.05",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    printed = {line.split()[0] for line in lines[:-1]}
    assert {m["name"] for m in spec} <= printed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
