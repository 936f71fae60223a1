"""The repository's tooling scripts run as documented."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMPARE = REPO / "tools" / "compare_outputs.py"


def compare(parent, change):
    return subprocess.run(
        [sys.executable, str(COMPARE), str(parent), str(change),
         "--genus", "2", "--seeds", "1", "--oracle-max-genus", "2"],
        capture_output=True, text=True, timeout=300,
    )


def test_compare_outputs_finds_no_difference_between_equal_trees():
    result = compare(REPO / "src", REPO / "src")
    assert result.returncode == 0, result.stdout + result.stderr
    summary = result.stdout.splitlines()[-1]
    assert summary.endswith(" with a difference") and ": 0 with" in summary


def test_compare_outputs_reports_each_difference(tmp_path):
    # a copy whose validate prints another last line differs in stdout only
    changed = tmp_path / "src"
    shutil.copytree(REPO / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "convexproj" / "cli.py"
    cli.write_text(cli.read_text().replace('"all checks passed"', '"all checks pass"'))
    result = compare(REPO / "src", changed)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert "g2_s1.goldman.validate: stdout line" in "\n".join(lines)
    assert "edge.s_1e300.validate: stdout line" in "\n".join(lines)
    assert "g2_s1.bd.convert_goldman.validate: stdout line" in "\n".join(lines)
    assert all(": stdout " in line for line in lines[:-1])
    assert not lines[-1].endswith(": 0 with a difference")


def test_compare_outputs_reports_a_stale_tail(tmp_path):
    # a copy whose writer never truncates differs only where a command wrote over a longer file
    changed = tmp_path / "src"
    shutil.copytree(REPO / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    fileio = changed / "convexproj" / "fileio.py"
    text = fileio.read_text()
    assert text.count("os.ftruncate(fd, written)") == 1
    fileio.write_text(text.replace("os.ftruncate(fd, written)", "pass"))
    result = compare(REPO / "src", changed)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert "g2_s1.goldman.convert_bd.overwrite: output file differs" in "\n".join(lines)
    assert all(".overwrite: output file differs" in line for line in lines[:-1])
    assert not lines[-1].endswith(": 0 with a difference")


def test_compare_outputs_reports_a_reworded_decomposition_error(tmp_path):
    # a copy that words a reused slot otherwise differs only on the reused-slot inputs
    changed = tmp_path / "src"
    shutil.copytree(REPO / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    surface = changed / "convexproj" / "surface.py"
    text = surface.read_text()
    assert text.count("is used more than once") == 1
    surface.write_text(text.replace("is used more than once", "is claimed twice"))
    result = compare(REPO / "src", changed)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert "g2_s1.reject_slot_reuse.validate: stderr line" in "\n".join(lines)
    assert all(line.startswith("g2_s1.reject_slot_reuse.") for line in lines[:-1])
    assert not lines[-1].endswith(": 0 with a difference")


def test_compare_outputs_reaches_the_window_edge(tmp_path):
    # a copy that words a lower-bound failure otherwise differs on the inputs
    # below a window (reject_window) and on those whose reversed pairs round
    # onto it (edge_upper), and on no other input
    changed = tmp_path / "src"
    shutil.copytree(REPO / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    spectral = changed / "convexproj" / "spectral.py"
    text = spectral.read_text()
    assert text.count("is not above the lower bound") == 1
    spectral.write_text(text.replace("is not above the lower bound", "is at or below the bound"))
    result = compare(REPO / "src", changed)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert "g2_s1.edge_upper.convert_bd: stderr line" in "\n".join(lines)
    assert all(line.startswith(("g2_s1.reject_window.", "g2_s1.edge_upper.")) for line in lines[:-1])
    assert not lines[-1].endswith(": 0 with a difference")


def test_line_differences_shows_each_line_up_to_the_cap():
    # a FAIL -> PASS flip far down a validate output is shown, not only the first change
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parent = [f"PASS pants P{i}: max residual 0.000e+00" for i in range(14)] + ["all checks passed"]
    change = [line.replace("0.000e+00", "2.842e-14") for line in parent[:12]] + parent[12:14]
    change[7] = "FAIL pants P7: max residual 3.000e-09"
    shown = tool.line_differences("\n".join(parent), "\n".join(change))
    assert len(shown) == tool.MAX_LINES + 2
    assert shown[7] == ("line 8: 'PASS pants P7: max residual 0.000e+00' != "
                        "'FAIL pants P7: max residual 3.000e-09'")
    assert shown[-2:] == ["and 2 more lines differ", "15 lines != 14 lines"]
    assert tool.line_differences("same\n", "same") == ["1 lines != 1 lines"]
