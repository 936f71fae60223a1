"""Byte-for-byte golden tests of the CLI on the four samples.

Each case runs one command through ``cli.main`` and compares its exit code,
standard output, standard error and output file with the files recorded
under ``tests/golden/``: ``results.json`` holds the first three per case,
``<case>.out`` the output file's bytes (no such file when the command
writes none).  ``oracle`` and ``render`` are left out because their printed
digits go through numpy dot products on 3-vectors, whose BLAS kernel may
round differently on other CPUs.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from convexproj import cli

REPO = Path(__file__).resolve().parent.parent
SAMPLES = REPO / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"

SAMPLE_NAMES = ("pants_goldman", "pants_bd", "torus_goldman", "genus2_goldman")
COMMANDS = {
    "convert-bd": ("convert", "{input}", "--to", "bd", "{output}"),
    "convert-goldman": ("convert", "{input}", "--to", "goldman", "{output}"),
    "validate": ("validate", "{input}"),
    "flow-c1": ("flow", "{input}", "--curve", "c1", "--twist", "0.25", "--bulge", "-0.5",
                "{output}"),
}
CASES = [f"{sample}.{command}" for sample in SAMPLE_NAMES for command in COMMANDS]


def run_case(case: str, workdir: Path):
    """Run one case in ``workdir``: (exit code, stdout, stderr, output bytes or None)."""
    sample, command = case.split(".")
    output = workdir / "output"
    argv = [part.format(input=SAMPLES / f"{sample}.json", output=output)
            for part in COMMANDS[command]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = output.read_bytes() if output.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


@pytest.mark.parametrize("case", CASES)
def test_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv("CONVEXPROJ_VERBOSE", raising=False)
    expected = json.loads((GOLDEN / "results.json").read_text(encoding="utf-8"))[case]
    expected_output = GOLDEN / f"{case}.out"
    code, stdout, stderr, written = run_case(case, tmp_path)
    assert code == expected["exit_code"]
    assert stdout == expected["stdout"]
    assert stderr == expected["stderr"]
    assert written == (expected_output.read_bytes() if expected_output.exists() else None)
