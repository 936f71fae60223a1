import contextlib
import copy
import gc
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexproj import cli, errors, fileio
from convexproj.pants import boundary_lengths
from convexproj.sampling import random_surface_goldman
from convexproj.surface import Gluing, build_decomposition, goldman_to_bd

REPO = Path(__file__).resolve().parent.parent
SAMPLES = REPO / "samples"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "convexproj", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture()
def torus_bd(tmp_path):
    out = tmp_path / "torus_bd.json"
    result = run_cli("convert", SAMPLES / "torus_goldman.json", "--to", "bd", out)
    assert result.returncode == 0, result.stderr
    return out


class TestConvert:
    def test_pants_to_bd_values(self, tmp_path):
        out = tmp_path / "pants_bd.json"
        result = run_cli("convert", SAMPLES / "pants_goldman.json", "--to", "bd", out)
        assert result.returncode == 0, result.stderr
        data = json.loads(out.read_text())
        sigma = data["values"]["pants"]["P0"]["sigma1"]
        assert sigma == pytest.approx([-0.8047189562170502] * 3, abs=1e-7)
        assert data["values"]["pants"]["P0"]["tau_plus"] == pytest.approx(0.0, abs=1e-12)

    def test_convert_twice_round_trip(self, tmp_path, torus_bd):
        back = tmp_path / "back.json"
        result = run_cli("convert", torus_bd, "--to", "goldman", back)
        assert result.returncode == 0, result.stderr
        original = json.loads((SAMPLES / "torus_goldman.json").read_text())
        returned = json.loads(back.read_text())
        for key, entry in original["values"]["curves"].items():
            for field, value in entry.items():
                assert returned["values"]["curves"][key][field] == pytest.approx(
                    value, rel=1e-10, abs=1e-12
                )
        for key, entry in original["values"]["pants"].items():
            for field, value in entry.items():
                assert returned["values"]["pants"][key][field] == pytest.approx(value, rel=1e-10)

    def test_window_violation_exit_3(self, tmp_path):
        data = json.loads((SAMPLES / "pants_goldman.json").read_text())
        data["values"]["curves"]["a1"]["tau"] = 4.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        result = run_cli("convert", bad, "--to", "bd", out)
        assert result.returncode == 3
        assert "lower bound" in result.stderr

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        result = run_cli("convert", bad, "--to", "bd", tmp_path / "out.json")
        assert result.returncode == 2

    def test_identity_conversion(self, tmp_path):
        out = tmp_path / "same.json"
        result = run_cli("convert", SAMPLES / "pants_goldman.json", "--to", "goldman", out)
        assert result.returncode == 0
        assert json.loads(out.read_text()) == json.loads(
            (SAMPLES / "pants_goldman.json").read_text()
        )

    @pytest.mark.parametrize(
        "sample, path, value, message",
        [
            ("torus_goldman.json", ("curves", "c1", "tau"), 0.5,
             "values.curves['c1']: tau=0.5 is not above the lower bound"),
            ("pants_bd.json", ("pants", "P0", "sigma1"), [5, 5, 5],
             "pants 'P0': ell1(A1) = -4.19528104378295 is not positive"),
            # converts, but the converted values overflow when written
            ("torus_goldman.json", ("curves", "c1", "v"), 1.7976931348623157e308,
             "values.curves['c1'].sigma1_C: -inf is not a finite number"),
        ],
    )
    def test_identity_conversion_refuses_what_conversion_refuses(
        self, tmp_path, sample, path, value, message
    ):
        data = json.loads((SAMPLES / sample).read_text())
        entry = data["values"]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        outcomes = []
        for system in ("goldman", "bd"):
            out = tmp_path / f"{system}.json"
            code, err = run_main("convert", bad, "--to", system, out)
            assert not out.exists()
            outcomes.append((code, err))
        assert outcomes[0] == outcomes[1]
        code, err = outcomes[0]
        assert code == 3
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def set_pants_value(name, value):
    def mutator(text):
        data = json.loads(text)
        data["values"]["pants"]["P0"][name] = value
        return json.dumps(data)
    return mutator


def set_curve_value(curve, name, value):
    def mutator(text):
        data = json.loads(text)
        data["values"]["curves"][curve][name] = value
        return json.dumps(data)
    return mutator


def set_window(curve, lam, tau):
    def mutator(text):
        return set_curve_value(curve, "tau", tau)(set_curve_value(curve, "lambda", lam)(text))
    return mutator


# (lambda, tau) pairs inside both window bounds with no float spectrum lambda < mu < nu:
# mu rounds onto lambda, from tau**2 in range and from tau**2 past the float range
MU_ROUNDS_ONTO_LAMBDA = (1e-30, 9.999999999999998e59)
TAU_SQUARED_OVERFLOWS = (3e-110, 1.1111111111111111e219)


def expect_one_error(result, code, message):
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


class TestRejectedInput:
    """Bad input ends in one `error:` line and the documented exit code."""

    @pytest.mark.parametrize(
        "mutator, code, message",
        [
            (set_pants_value("s", -1.0), 3, "pants 'P0': internal parameter s must be positive"),
            (set_pants_value("t", 0.0), 3, "pants 'P0': internal parameter t must be positive"),
            (set_pants_value("s", 10**400), 2, "values.pants['P0'].s: number is too large"),
            (lambda text: text.replace('"s": 1.0', '"s": 2.0, "s": 1.0'), 2, "duplicate keys"),
            (set_curve_value("a2", "tau", 4.0), 3,
             "values.curves['a2']: tau=4.0 is not above the lower bound"),
            (set_curve_value("a1", "lambda", 1e-200), 3,
             "values.curves['a1']: tau=6.0 is not above the lower bound"),
            (set_window("a1", 2.0, 2.0), 3, "values.curves['a1']: lambda=2.0 is not below 1"),
            (set_window("a1", *MU_ROUNDS_ONTO_LAMBDA), 3, "pants 'P0': lambda=1e-30, tau="),
            (set_window("a1", *TAU_SQUARED_OVERFLOWS), 3, "pants 'P0': lambda=3e-110, tau="),
        ],
        ids=["s_negative", "t_zero", "huge_integer", "duplicate_key", "tau_below_window",
             "lambda_underflow", "lambda_not_below_one", "mu_rounds_onto_lambda",
             "tau_squared_overflows"],
    )
    def test_convert_to_bd(self, tmp_path, mutator, code, message):
        bad = tmp_path / "bad.json"
        bad.write_text(mutator((SAMPLES / "pants_goldman.json").read_text()))
        result = run_cli("convert", bad, "--to", "bd", tmp_path / "out.json")
        expect_one_error(result, code, message)

    @pytest.mark.parametrize(
        "arc", [{"left": True, "right": 2}, {"left": 2, "right": 2.0}], ids=["bool", "float"]
    )
    def test_arc_index_not_an_integer(self, tmp_path, arc):
        data = json.loads((SAMPLES / "torus_goldman.json").read_text())
        data["surface"]["gluings"][0]["arc"] = arc
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        result = run_cli("convert", bad, "--to", "goldman", out)
        expect_one_error(result, 2, "surface.gluings[0].arc: arc leaf index")
        assert not out.exists()

    def test_not_utf8(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe" + (SAMPLES / "pants_bd.json").read_bytes())
        result = run_cli("validate", bad)
        expect_one_error(result, 2, f"cannot read {bad}: 'utf-8' codec can't decode")

    def test_byte_order_mark(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xef\xbb\xbf" + (SAMPLES / "pants_bd.json").read_bytes())
        assert run_main("validate", bad) == (2, "error: invalid JSON: Unexpected UTF-8 BOM "
                                                "(decode using utf-8-sig): line 1 column 1 (char 0)\n")

    def test_deeply_nested(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 100_000)
        result = run_cli("validate", bad)
        expect_one_error(result, 2, "invalid JSON: maximum recursion depth exceeded")

    def test_disconnected_surface(self, tmp_path):
        data = json.loads((SAMPLES / "pants_goldman.json").read_text())
        data["surface"]["pants"].append("Q0")
        data["surface"]["boundaries"] += [{"curve": f"b{k}", "slot": ["Q0", k]} for k in range(3)]
        data["values"]["curves"].update({f"b{k}": {"lambda": 0.2, "tau": 6.0} for k in range(3)})
        data["values"]["pants"]["Q0"] = data["values"]["pants"]["P0"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        result = run_cli("validate", bad)
        expect_one_error(result, 2, "the surface is not connected")

    def test_overflowing_output_names_value(self, tmp_path):
        # u + 3v of the gauge is -inf for v = 1.8e308; no output file is left behind
        data = json.loads((SAMPLES / "torus_goldman.json").read_text())
        data["values"]["curves"]["c1"]["v"] = 1.7976931348623157e308
        bad, out = tmp_path / "bad.json", tmp_path / "out.json"
        bad.write_text(json.dumps(data))
        result = run_cli("convert", bad, "--to", "bd", out)
        expect_one_error(result, 3, "values.curves['c1'].sigma1_C: -inf is not a finite number")
        assert not out.exists()

    def test_nan_flow_amount(self, tmp_path):
        result = run_cli("flow", SAMPLES / "torus_goldman.json", "--curve", "c1",
                         "--twist", "nan", tmp_path / "out.json")
        expect_one_error(result, 3, "values.curves['c1'].u: nan is not a finite number")


SAMPLE_DOCUMENTS = {
    path.name: json.loads(path.read_text()) for path in sorted(SAMPLES.glob("*.json"))
}


def number_paths(node, path=()):
    """Key paths to every number in a parsed JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [found for key, child in items for found in number_paths(child, path + (key,))]
    return [path] if isinstance(node, float) else []


def node_paths(node, path):
    """Key paths to ``node`` (at ``path``) and to every node below it."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return [path] + [found for key, child in items for found in node_paths(child, path + (key,))]


EXTREME_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 1e-30, 1.0, 2.0, 1e30, 1e300, -1e300, 1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)
# small JSON values of every kind, a slot among them, put in place of any node
REPLACEMENTS = st.sampled_from([None, True, 0, 2, 1.0, "x", [], {}, ["P0", 1]]).map(copy.deepcopy)


@st.composite
def mutated_documents(draw):
    """A sample document with one to four of its values set to extreme floats,
    then up to two nodes of its ``surface`` or ``values`` replaced by a small
    JSON value or deleted."""
    document = copy.deepcopy(SAMPLE_DOCUMENTS[draw(st.sampled_from(sorted(SAMPLE_DOCUMENTS)))])
    values = document["values"]
    for path in draw(st.lists(st.sampled_from(number_paths(values)), min_size=1, max_size=4)):
        node = values
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(EXTREME_FLOATS)
    for _ in range(draw(st.integers(0, 2))):
        nodes = [
            found for section in ("surface", "values") if section in document
            for found in node_paths(document[section], (section,))
        ]
        if not nodes:
            break
        path = draw(st.sampled_from(nodes))
        node = document
        for key in path[:-1]:
            node = node[key]
        if draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = draw(REPLACEMENTS)
    return document


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@given(mutated_documents())
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_fuzzed_documents_end_in_an_exit_code(tmp_path_factory, document):
    # any input converts or fails with a documented exit code and one error line
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    source, bd = work / "in.json", work / "bd.json"
    source.write_text(json.dumps(document))
    bd.unlink(missing_ok=True)
    for argv in [
        ("validate", source),
        ("convert", source, "--to", "bd", bd),
        ("convert", source, "--to", "goldman", work / "goldman.json"),
        ("convert", bd, "--to", "goldman", work / "back.json"),
        ("oracle", source, "--monodromy"),
        ("oracle", bd, "--monodromy"),
        ("flow", source, "--curve", "c1", "--twist", "0.25", "--bulge", "-0.5", work / "flow.json"),
        ("render", source, "--pants", "P0", work / "render.svg"),
        ("render", bd, "--pants", "P0", work / "render.svg"),
    ]:
        code, err = run_main(*argv)
        assert code in range(6), argv
        assert len(err.splitlines()) == (1 if code >= 2 else 0), err


# A valid pants (boundary lengths 2, 3.8 and 2, then 86.6, 43 and 1.2) whose
# second crossratio (e^-44.6 + 1)(e^-40.8 + 1) reads 1.0 in floats.
CROSSRATIO_READS_ONE = {"sigma1": [-1.0, -1.0, -44.6], "sigma2": [40.8, -1.0, -1.0],
                        "tau_plus": 0.0, "tau_minus": -41.0}

# Valid, and converts to goldman data whose float quadratics leave the float range.
FAR_IDENTITY = {"sigma1": [-258.0, -57.0, 30.0], "sigma2": [-89.0, -8.0, -185.0],
                "tau_plus": -150.0, "tau_minus": -129.0}


class TestValidate:
    @pytest.mark.parametrize(
        "name",
        ["pants_goldman.json", "pants_bd.json", "torus_goldman.json", "genus2_goldman.json"],
    )
    def test_samples_pass(self, name):
        result = run_cli("validate", SAMPLES / name)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all checks passed" in result.stdout

    def test_zero_fg_pants_fails_length_positivity(self, tmp_path, torus_bd):
        data = json.loads(torus_bd.read_text())
        data["values"]["pants"]["P0"]["sigma1"] = [0.0, 0.0, 0.0]
        data["values"]["pants"]["P0"]["sigma2"] = [0.0, 0.0, 0.0]
        data["values"]["pants"]["P0"]["tau_plus"] = 0.0
        data["values"]["pants"]["P0"]["tau_minus"] = 0.0
        data["values"]["curves"]["c1"] = {"sigma1_C": 0.0, "sigma2_C": 0.0}
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(data))
        result = run_cli("validate", bad)
        assert result.returncode == 1
        assert "not positive" in result.stdout

    def test_bd_computes_each_pants_lengths_once(self, genus50, monkeypatch):
        _, bd = genus50
        calls = []

        def counting(f):
            calls.append(f)
            return boundary_lengths(f)

        monkeypatch.setattr("convexproj.pants.boundary_lengths", counting)
        monkeypatch.setattr("convexproj.surface.boundary_lengths", counting)
        assert run_main("validate", bd) == (0, "")
        assert len(calls) == 98

    def test_perturbed_closure_names_curve(self, tmp_path, torus_bd):
        data = json.loads(torus_bd.read_text())
        data["values"]["pants"]["P0"]["sigma1"][0] += 0.5
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(data))
        result = run_cli("validate", bad)
        assert result.returncode == 1
        assert "FAIL curve c1" in result.stdout

    def test_window_failure_reported(self, tmp_path):
        data = json.loads((SAMPLES / "pants_goldman.json").read_text())
        data["values"]["curves"]["a2"]["tau"] = 4.0
        bad = tmp_path / "window.json"
        bad.write_text(json.dumps(data))
        result = run_cli("validate", bad)
        assert result.returncode == 1
        assert "FAIL curve a2" in result.stdout

    def test_underflowing_lambda_reported(self, tmp_path):
        bad = tmp_path / "tiny.json"
        bad.write_text(set_curve_value("a1", "lambda", 1e-200)(
            (SAMPLES / "pants_goldman.json").read_text()))
        result = run_cli("validate", bad)
        assert result.returncode == 1, result.stderr
        assert "FAIL curve a1" in result.stdout
        assert result.stderr == ""

    def test_lambda_not_below_one_reported(self, tmp_path):
        bad = tmp_path / "edge.json"
        bad.write_text(set_window("a1", 2.0, 2.0)((SAMPLES / "pants_goldman.json").read_text()))
        result = run_cli("validate", bad)
        assert result.returncode == 1, result.stderr
        assert "FAIL curve a1: lambda=2.0 is not below 1" in result.stdout
        assert result.stderr == ""

    @pytest.mark.parametrize("s", [1e3, 1e5])
    def test_large_s_passes(self, tmp_path, s):
        # the crossratios grow like s**2, and so do the residuals of their identities
        path = tmp_path / "large_s.json"
        path.write_text(set_pants_value("s", s)((SAMPLES / "pants_goldman.json").read_text()))
        code, err = run_main("validate", path)
        assert code == 0, err

    @pytest.mark.parametrize("system, line", [
        ("bd", "PASS pants P0: lengths positive, crossratios (5.086161, 1.0, 5.086161)"),
        ("goldman", "PASS pants P0: crossratio identities, max residual "),
    ], ids=["bd", "goldman"])
    def test_crossratio_that_reads_one_passes(self, tmp_path, capsys, system, line):
        # every crossratio exceeds 1; one that rounds to 1.0 is valid data that convert accepts
        data = json.loads((SAMPLES / "pants_bd.json").read_text())
        data["values"]["pants"]["P0"] = CROSSRATIO_READS_ONE
        path = tmp_path / "bd.json"
        path.write_text(json.dumps(data))
        if system == "goldman":
            converted = tmp_path / "goldman.json"
            assert cli.main(["convert", str(path), "--to", "goldman", str(converted)]) == 0
            path = converted
        capsys.readouterr()
        assert cli.main(["validate", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [text for text in out if text.startswith(line)] != []
        assert not any(text.startswith("FAIL") for text in out)
        assert out[-1] == "all checks passed"

    @pytest.mark.parametrize("pair", [MU_ROUNDS_ONTO_LAMBDA, TAU_SQUARED_OVERFLOWS],
                             ids=["mu_rounds_onto_lambda", "tau_squared_overflows"])
    def test_no_float_spectrum_names_pants(self, tmp_path, pair):
        bad = tmp_path / "edge.json"
        bad.write_text(set_window("a1", *pair)((SAMPLES / "pants_goldman.json").read_text()))
        result = run_cli("validate", bad)
        expect_one_error(result, 3, f"pants 'P0': lambda={pair[0]!r}, tau=")

    def test_converted_far_out_file_reads_back(self, tmp_path):
        # the genus-2 sample's shear data times 200 converts to curves such as
        # lambda = 1e-200, tau = 1.6e260, whose tau**2 overflows a float
        bd = tmp_path / "bd.json"
        assert cli.main(["convert", str(SAMPLES / "genus2_goldman.json"), "--to", "bd",
                         str(bd)]) == 0
        data = json.loads(bd.read_text())
        for entry in data["values"]["pants"].values():
            for key in ("sigma1", "sigma2"):
                entry[key] = [200 * value for value in entry[key]]
            entry["tau_plus"] *= 200
            entry["tau_minus"] *= 200
        for entry in data["values"]["curves"].values():
            entry["sigma1_C"] *= 200
            entry["sigma2_C"] *= 200
        bd.write_text(json.dumps(data))
        goldman = tmp_path / "goldman.json"
        assert run_main("convert", bd, "--to", "goldman", goldman) == (0, "")
        curves = json.loads(goldman.read_text())["values"]["curves"].values()
        tau = max(entry["tau"] for entry in curves)
        assert tau * tau == float("inf")
        assert run_main("validate", goldman) == (0, "")
        assert run_main("convert", goldman, "--to", "bd", tmp_path / "back.json") == (0, "")

    def test_converted_far_identity_reads_back(self, tmp_path, capsys):
        # the float quadratic of this pants misses its crossratio by 4.1e38,
        # while the identities hold in log space to 1e-14
        data = json.loads((SAMPLES / "pants_bd.json").read_text())
        data["values"]["pants"]["P0"] = FAR_IDENTITY
        bd = tmp_path / "bd.json"
        bd.write_text(json.dumps(data))
        goldman = tmp_path / "goldman.json"
        assert run_main("convert", bd, "--to", "goldman", goldman) == (0, "")
        capsys.readouterr()
        assert cli.main(["validate", str(goldman)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [text for text in out
                if text.startswith("PASS pants P0: crossratio identities, max residual ")] != []
        assert out[-1] == "all checks passed"


def write_bd_pants(path, sigma1, sigma2):
    """The pants sample with its shear/triangle tuple replaced (tau_111 = 0)."""
    data = json.loads((SAMPLES / "pants_bd.json").read_text())
    data["values"]["pants"]["P0"] = {
        "sigma1": sigma1, "sigma2": sigma2, "tau_plus": 0.0, "tau_minus": 0.0,
    }
    path.write_text(json.dumps(data))
    return path


# Valid tuples (all six lengths >= 2) whose flag configuration is not
# representable: e^-45 + 1 rounds to 1.0, and e^800 overflows.
UNREPRESENTABLE = {
    "rounds_onto_bound": ([-45.0, -1.0, -45.0], [-1.0, 40.0, -1.0]),
    "overflows": ([-1.0, -1.0, -1.0], [-1.0, -1.0, -800.0]),
}


class TestOracle:
    def test_symmetric_bd(self):
        result = run_cli("oracle", SAMPLES / "pants_bd.json")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_monodromy_flag(self, torus_bd):
        result = run_cli("oracle", torus_bd, "--monodromy")
        assert result.returncode == 0
        assert "holonomy" in result.stdout
        assert "spectrum" in result.stdout

    def test_monodromy_overflow_names_pants(self, tmp_path, monkeypatch):
        # the oracle certifies this pants; holonomy 1's scaling quadratic overflows
        monkeypatch.delenv("CONVEXPROJ_VERBOSE", raising=False)
        data = json.loads((SAMPLES / "pants_bd.json").read_text())
        data["values"]["pants"]["P0"] = {"sigma1": [31.0, 82.0, 4.0],
                                         "sigma2": [-43.0, -253.0, -211.0],
                                         "tau_plus": -213.0, "tau_minus": -260.0}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert run_main("oracle", path) == (0, "")
        code, err = run_main("oracle", path, "--monodromy")
        assert code == 3
        assert err == "error: pants 'P0': holonomy 1: scaling quadratic overflows a float\n"

    def test_monodromy_gates_flag_residuals(self, tmp_path, capsys):
        # the oracle certifies this pants, but holonomy 3's flag residual is 4.398e+30
        data = json.loads((SAMPLES / "pants_bd.json").read_text())
        data["values"]["pants"]["P0"] = {"sigma1": [107.0, 4.0, 101.0],
                                         "sigma2": [-340.0, -265.0, -211.0],
                                         "tau_plus": -73.0, "tau_minus": 29.0}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert cli.main(["oracle", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["oracle", str(path), "--monodromy"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "flag residual 4.398e+30" in out[3]
        assert out[-1] == "worst residual 4.398e+30"

    def test_goldman_file_rejected(self):
        result = run_cli("oracle", SAMPLES / "pants_goldman.json")
        assert result.returncode == 2
        assert "bd-system" in result.stderr

    def test_invalid_domain_exit_3(self, tmp_path, torus_bd):
        data = json.loads(torus_bd.read_text())
        data["values"]["pants"]["P0"]["sigma1"] = [1.0, 1.0, 1.0]
        data["values"]["pants"]["P0"]["sigma2"] = [1.0, 1.0, 1.0]
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(data))
        result = run_cli("oracle", bad)
        assert result.returncode == 3

    def test_unrepresentable_configuration_exit_3(self, tmp_path):
        bad = write_bd_pants(tmp_path / "bad.json", *UNREPRESENTABLE["rounds_onto_bound"])
        result = run_cli("oracle", bad)
        expect_one_error(result, 3, "pants 'P0': flag configuration is not representable")

    @pytest.mark.parametrize("extra", [(), ("--monodromy",)], ids=["oracle", "monodromy"])
    def test_large_configuration_coordinate_certified(self, tmp_path, extra):
        # valid data with b3 = e^400 + 1, a coordinate whose square overflows a float
        far = write_bd_pants(tmp_path / "far.json", [-1.0, -1.0, -1.0], [-1.0, -1.0, -400.0])
        result = run_cli("oracle", far, *extra)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stderr == ""
        worst = float(re.search(r"worst residual (\S+)", result.stdout).group(1))
        assert worst <= cli.ORACLE_GATE


class TestOverflow:
    """Valid data whose Goldman values overflow a float exits 3 naming the
    pants, with no traceback; `validate` takes crossratios that overflow in
    log space."""

    @pytest.mark.parametrize(
        "command, message",
        [
            (("oracle",), "pants 'P0': t = exp(801.0) overflows a float"),
            (("convert", "--to", "goldman", "out.json"),
             "pants 'P0': t = exp(801.0) overflows a float"),
        ],
        ids=["oracle", "convert"],
    )
    def test_shear_minus_800(self, tmp_path, command, message):
        bad = write_bd_pants(tmp_path / "bad.json", *UNREPRESENTABLE["overflows"])
        result = run_cli(command[0], bad, *command[1:], cwd=tmp_path)
        expect_one_error(result, 3, message)

    def test_s_overflows(self, tmp_path):
        bad = write_bd_pants(tmp_path / "bad.json", [1500.0] * 3, [-1501.0] * 3)
        result = run_cli("oracle", bad)
        expect_one_error(result, 3, "pants 'P0': s = exp(1500.5) overflows a float")

    @pytest.mark.parametrize("command", [("oracle",), ("convert", "--to", "goldman", "out.json")],
                             ids=["oracle", "convert"])
    @pytest.mark.parametrize(
        "values, message",
        [
            (([-3100.0] * 3, [3000.0] * 3, 0.0, 0.0), "pants 'P0': s = exp(-3050.0) underflows"),
            (([-1.0] * 3, [-1.0] * 3, 800.0, -900.0),
             "pants 'P0': t = exp(-797.6867383124818) underflows"),
        ],
        ids=["s", "t"],
    )
    def test_internal_parameter_underflows(self, tmp_path, command, values, message):
        # all six lengths are positive, but s or t is below the float range
        data = json.loads((SAMPLES / "pants_bd.json").read_text())
        data["values"]["pants"]["P0"] = dict(zip(("sigma1", "sigma2", "tau_plus", "tau_minus"),
                                                 values))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        result = run_cli(command[0], bad, *command[1:], cwd=tmp_path)
        expect_one_error(result, 3, message)
        assert not (tmp_path / "out.json").exists()

    def test_goldman_crossratio_overflows(self, tmp_path):
        # convert accepts s = 1e300; validate judges the identities in log space
        far = tmp_path / "far.json"
        far.write_text(set_pants_value("s", 1e300)((SAMPLES / "pants_goldman.json").read_text()))
        assert run_main("convert", far, "--to", "bd", tmp_path / "bd.json") == (0, "")
        result = run_cli("validate", far)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stderr == ""
        assert "PASS pants P0: crossratio identities, max residual " in result.stdout

    @pytest.mark.parametrize("source", ["s_1e300", "shear_minus_800"])
    def test_bd_crossratio_overflows(self, tmp_path, source):
        # every crossratio of the converted s = 1e300 file is e^1381.55, and
        # sigma2 = -800 makes rho1 e^800.3
        if source == "s_1e300":
            goldman = tmp_path / "far.json"
            goldman.write_text(set_pants_value("s", 1e300)(
                (SAMPLES / "pants_goldman.json").read_text()))
            bd = tmp_path / "bd.json"
            assert run_main("convert", goldman, "--to", "bd", bd) == (0, "")
            line = "log crossratios (1381.551056, 1381.551056, 1381.551056)"
        else:
            bd = write_bd_pants(tmp_path / "bd.json", *UNREPRESENTABLE["overflows"])
            line = "log crossratios (800.313262, 1.626523, 1.626523)"
        result = run_cli("validate", bd)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stderr == ""
        assert result.stdout.splitlines()[0] == f"PASS pants P0: lengths positive, {line}"


class TestFlow:
    def test_twist_shifts_curve_shears(self, tmp_path, torus_bd):
        out = tmp_path / "flowed.json"
        result = run_cli("flow", torus_bd, "--curve", "c1", "--twist", 1.0, out)
        assert result.returncode == 0
        before = json.loads(torus_bd.read_text())["values"]["curves"]["c1"]
        after = json.loads(out.read_text())["values"]["curves"]["c1"]
        assert after["sigma1_C"] == pytest.approx(before["sigma1_C"] + 1.0)
        assert after["sigma2_C"] == pytest.approx(before["sigma2_C"] + 1.0)

    def test_bulge_shifts_antisymmetrically(self, tmp_path, torus_bd):
        out = tmp_path / "flowed.json"
        result = run_cli("flow", torus_bd, "--curve", "c1", "--bulge", 0.1, out)
        assert result.returncode == 0
        before = json.loads(torus_bd.read_text())["values"]["curves"]["c1"]
        after = json.loads(out.read_text())["values"]["curves"]["c1"]
        assert after["sigma1_C"] == pytest.approx(before["sigma1_C"] - 0.3)
        assert after["sigma2_C"] == pytest.approx(before["sigma2_C"] + 0.3)

    def test_unknown_curve_exit_4(self, tmp_path, torus_bd):
        result = run_cli("flow", torus_bd, "--curve", "zz", "--twist", 1.0,
                         tmp_path / "out.json")
        assert result.returncode == 4

    def test_boundary_curve_exit_4(self, tmp_path):
        result = run_cli("flow", SAMPLES / "torus_goldman.json", "--curve", "a1",
                         "--twist", 1.0, tmp_path / "out.json")
        assert result.returncode == 4
        assert "boundary" in result.stderr

    def test_flow_commutes_with_conversion(self, tmp_path, torus_bd):
        flowed_bd = tmp_path / "flowed_bd.json"
        run_cli("flow", torus_bd, "--curve", "c1", "--twist", 0.5, "--bulge", -0.2, flowed_bd)
        a = tmp_path / "a.json"
        run_cli("convert", flowed_bd, "--to", "goldman", a)

        flowed_goldman = tmp_path / "flowed_goldman.json"
        run_cli("flow", SAMPLES / "torus_goldman.json", "--curve", "c1",
                "--twist", 0.5, "--bulge", -0.2, flowed_goldman)
        b = tmp_path / "b.json"
        run_cli("convert", flowed_goldman, "--to", "goldman", b)

        va = json.loads(a.read_text())["values"]
        vb = json.loads(b.read_text())["values"]
        assert va["curves"]["c1"]["u"] == pytest.approx(vb["curves"]["c1"]["u"], abs=1e-12)
        assert va["curves"]["c1"]["v"] == pytest.approx(vb["curves"]["c1"]["v"], abs=1e-12)


class TestRender:
    def test_svg_structure(self, tmp_path):
        out = tmp_path / "config.svg"
        result = run_cli("render", SAMPLES / "pants_bd.json", "--pants", "P0", out)
        assert result.returncode == 0, result.stderr
        svg = out.read_text()
        assert svg.count("<polygon") == 4
        assert svg.count("<line") == 3
        assert "<svg" in svg and "</svg>" in svg

    def test_goldman_file_rejected(self, tmp_path):
        result = run_cli("render", SAMPLES / "pants_goldman.json", "--pants", "P0",
                         tmp_path / "x.svg")
        assert result.returncode == 2

    def test_unknown_pants_rejected(self, tmp_path):
        result = run_cli("render", SAMPLES / "pants_bd.json", "--pants", "P7",
                         tmp_path / "x.svg")
        assert result.returncode == 2

    def test_unknown_pants_message(self, tmp_path):
        out = tmp_path / "x.svg"
        code, err = run_main("render", SAMPLES / "pants_bd.json", "--pants", "PX", out)
        assert (code, err) == (2, "error: no pants 'PX' in this file\n")
        assert not out.exists()

    def test_invalid_domain_exit_3(self, tmp_path):
        data = json.loads((SAMPLES / "pants_bd.json").read_text())
        data["values"]["pants"]["P0"]["sigma1"] = [2.0, 2.0, 2.0]
        data["values"]["pants"]["P0"]["sigma2"] = [2.0, 2.0, 2.0]
        bad = tmp_path / "bad_bd.json"
        bad.write_text(json.dumps(data))
        result = run_cli("render", bad, "--pants", "P0", tmp_path / "x.svg")
        assert result.returncode == 3

    @pytest.mark.parametrize("name", sorted(UNREPRESENTABLE))
    def test_unrepresentable_configuration_exit_3(self, tmp_path, name):
        bad = write_bd_pants(tmp_path / "bad.json", *UNREPRESENTABLE[name])
        result = run_cli("render", bad, "--pants", "P0", tmp_path / "x.svg")
        expect_one_error(result, 3, "pants 'P0': flag configuration is not representable")


def documented_exit_codes():
    """The class-name -> exit-code table written in the cli docstring."""
    table = {}
    for line in cli.__doc__.splitlines():
        match = re.match(r"\s+(\d)\s+[^:]*:\s*(.+)$", line)
        if match:
            for name in re.findall(r"\b[A-Z]\w+", match.group(2)):
                table[name] = int(match.group(1))
    return table


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.CoordinateError)),
    key=lambda c: c.__name__,
)


class TestErrorContract:
    def test_docstring_names_real_classes(self):
        table = documented_exit_codes()
        assert table["CoordinateError"] == 3
        assert set(table) <= {c.__name__ for c in ERROR_CLASSES}

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_exit_code_matches_docstring(self, cls):
        table = documented_exit_codes()
        assert cls.exit_code == table.get(cls.__name__, table["CoordinateError"])

    def test_main_returns_class_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CONVEXPROJ_VERBOSE", raising=False)
        code = cli.main(["flow", str(SAMPLES / "torus_goldman.json"), "--curve", "zz",
                         "--twist", "1", str(tmp_path / "out.json")])
        captured = capsys.readouterr()
        assert code == errors.UnknownCurve.exit_code
        assert captured.err == "error: no curve 'zz' in these coordinates\n"
        assert captured.out == ""

    def test_verbose_adds_traceback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONVEXPROJ_VERBOSE", "1")
        code = cli.main(["flow", str(SAMPLES / "torus_goldman.json"), "--curve", "a1",
                         "--twist", "1", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == errors.BoundaryCurve.exit_code
        assert err.startswith("Traceback")
        assert err.splitlines()[-1].startswith("error: curve 'a1' is a boundary component")

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        code = cli.main(["convert", str(SAMPLES / "pants_goldman.json"), "--to", "bd",
                         str(tmp_path / "missing" / "out.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestOutputFiles:
    """Every output is rewritten in place and cut to its new length."""

    def test_render_over_a_longer_svg(self, tmp_path):
        fresh, stale = tmp_path / "fresh.svg", tmp_path / "stale.svg"
        stale.write_text("<!-- stale -->\n" * 10_000)
        for out in (fresh, stale):
            assert run_main("render", SAMPLES / "pants_bd.json", "--pants", "P0", out) == (0, "")
        assert stale.read_bytes() == fresh.read_bytes()

    def test_outputs_are_not_opened_with_o_trunc(self, tmp_path, monkeypatch):
        opened = []
        os_open = os.open

        def recording(path, flags, *args, **kwargs):
            opened.append(flags)
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        for argv in (("convert", SAMPLES / "torus_goldman.json", "--to", "bd", tmp_path / "a.json"),
                     ("flow", SAMPLES / "torus_goldman.json", "--curve", "c1", "--twist", "0.5",
                      tmp_path / "b.json"),
                     ("render", SAMPLES / "pants_bd.json", "--pants", "P0", tmp_path / "c.svg")):
            assert run_main(*argv) == (0, "")
        assert opened == [os.O_WRONLY | os.O_CREAT] * 3

    def test_dev_null(self):
        assert run_main("convert", SAMPLES / "pants_goldman.json", "--to", "bd", os.devnull) == (0, "")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_into_a_pipe(self, tmp_path):
        expected = tmp_path / "pants_bd.json"
        assert run_main("convert", SAMPLES / "pants_goldman.json", "--to", "bd", expected) == (0, "")
        result = run_cli("convert", SAMPLES / "pants_goldman.json", "--to", "bd", "/dev/stdout")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.encode() == expected.read_bytes()

    @pytest.mark.parametrize("target, message", [
        ("", "[Errno 21] Is a directory"),
        ("missing/out.json", "[Errno 2] No such file or directory"),
    ], ids=["directory", "missing_parent"])
    def test_unwritable_target_exit_2(self, tmp_path, target, message):
        path = os.path.join(tmp_path, target)
        code, err = run_main("convert", SAMPLES / "pants_goldman.json", "--to", "bd", path)
        assert (code, err) == (2, f"error: {message}: {path!r}\n")

    def test_refused_flow_leaves_the_output_as_it_was(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_bytes(b"previous contents\n")
        code, err = run_main("flow", SAMPLES / "torus_goldman.json", "--curve", "c1",
                             "--twist", "nan", out)
        assert (code, err) == (3, "error: values.curves['c1'].u: nan is not a finite number\n")
        assert out.read_bytes() == b"previous contents\n"


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_shared_parser_keeps_each_call_apart(self, tmp_path, monkeypatch):
        # one process reuses the parser: a rejected argv and a finished command
        # leave nothing behind that changes the next call
        monkeypatch.delenv("CONVEXPROJ_VERBOSE", raising=False)
        monkeypatch.setenv("COLUMNS", "80")

        def argvs(out):
            source = SAMPLES / "pants_goldman.json"
            return [("convert", source, "--to", "cube", out),
                    ("convert", source, "--to", "bd", out),
                    ("validate", SAMPLES / "torus_goldman.json")]

        alone = [run_cli(*argv) for argv in argvs(tmp_path / "alone.json")]
        together = []
        for argv in argvs(tmp_path / "together.json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([str(a) for a in argv])
                except SystemExit as stop:
                    code = stop.code
            together.append((code, out.getvalue(), err.getvalue()))
        assert [r.returncode for r in alone] == [2, 0, 0]
        assert together == [(r.returncode, r.stdout, r.stderr) for r in alone]
        assert (tmp_path / "together.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


# The alphabet of drawn command lines: command names, option strings, help,
# "--", other spellings, values, and a negative number.
TOKENS = st.sampled_from([
    "convert", "validate", "oracle", "flow", "render",
    "--to", "--monodromy", "--curve", "--twist", "--bulge", "--pants",
    "-h", "--", "--to=bd", "--mono", "-0.5", "nan", "abc", "", "0.25", "bd", "goldman", "P0",
    "in.json", "out/x.svg",
])
VALUES = st.sampled_from(["bd", "goldman", "nan", "abc", "", "0.25", "-0.5", "-.5", "-5",
                          "-1e-3", "-0.5x", "1e400", "P0", "in.json"])
# Each command's positional count, and its options, each with its values (None
# for a flag).
SYNOPSES = {
    "convert": (2, {"--to": st.sampled_from(["bd", "goldman", "cube", "", "-0.5"])}),
    "validate": (1, {}),
    "oracle": (1, {"--monodromy": None}),
    "flow": (2, {"--curve": VALUES, "--twist": VALUES, "--bulge": VALUES}),
    "render": (2, {"--pants": VALUES}),
}
NAN = object()


@st.composite
def command_lines(draw):
    """Any list of TOKENS, or a command's positionals and options (each 0-2
    times, with a drawn value) in any order, then perhaps one token of TOKENS
    put in or swapped in, or the last token dropped."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(TOKENS, max_size=8))
    name = draw(st.sampled_from(sorted(SYNOPSES)))
    count, options = SYNOPSES[name]
    groups = [[draw(VALUES)] for _ in range(count)]
    for option, values in options.items():
        groups += [[option] if values is None else [option, draw(values)]
                   for _ in range(draw(st.integers(0, 2)))]
    argv = [name] + [token for group in draw(st.permutations(groups)) for token in group]
    edit = draw(st.integers(0, 3))
    if edit == 1:
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    elif edit == 2:
        argv[draw(st.integers(0, len(argv) - 1))] = draw(TOKENS)
    elif edit == 3:
        argv.pop()
    return argv


def namespace_values(args):
    """vars(args), with a nan value read as one value."""
    return {key: NAN if isinstance(value, float) and value != value else value
            for key, value in vars(args).items()}


def load_tool(name):
    """A script under tools/, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_command_lines():
    """The argvs of the README's example session."""
    session = re.search(r"Example session:\n\n```sh\n(.*?)```", (REPO / "README.md").read_text(),
                        flags=re.DOTALL)
    return [shlex.split(line)[1:] for line in session.group(1).splitlines()]


class TestMatcher:
    """cli.match reads well-formed command lines as argparse does, and leaves
    every other one to argparse."""

    @given(command_lines())
    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    def test_matches_argparse_or_declines(self, argv):
        args = cli.match(argv)
        if args is not None:
            assert namespace_values(args) == namespace_values(cli.build_parser().parse_args(argv))

    def test_readme_and_compare_outputs_command_lines(self):
        tool = load_tool("compare_outputs")
        jobs = tool.commands([("g2_s1.bd", "in.json"), ("sample.pants_bd", "pants.json")], 2)
        # argparse reads the argv jobs but four; the bulge by -0.5 is matched
        matched = ("argv.options_first", "argv.repeated", "argv.negative_twist",
                   "argv.negative_curve")
        left = {job for job, argv in jobs if job.startswith("argv.") and job not in matched}
        assert len(left) == len(tool.ARGV_JOBS) - 4
        for job, argv in jobs + [("readme", argv) for argv in readme_command_lines()]:
            args = cli.match(argv)
            assert (args is None) == (job in left), job
            if args is not None:
                assert vars(args) == vars(cli.build_parser().parse_args(argv))

    def test_well_formed_command_lines_never_build_the_parser(self, tmp_path, monkeypatch):
        class Built(Exception):
            pass

        def build_parser():
            raise Built

        monkeypatch.setattr(cli, "build_parser", build_parser)
        monkeypatch.delenv("CONVEXPROJ_VERBOSE", raising=False)
        bd, out = SAMPLES / "pants_bd.json", tmp_path / "out"
        for argv in [("validate", bd), ("oracle", bd, "--monodromy"),
                     ("convert", "--to", "goldman", bd, out),
                     ("flow", SAMPLES / "torus_goldman.json", "--curve", "c1", "--twist", "0.5",
                      "--bulge", "nan", "--bulge", "0.1", out),
                     ("flow", SAMPLES / "torus_goldman.json", "--curve", "c1", "--twist", "-1", out),
                     ("render", bd, out, "--pants", "P0")]:
            assert run_main(*argv) == (0, "")
        for argv in [("oracle", bd, "--mono"), ("validate", "-h"),
                     ("flow", bd, "--curve", "c1", "--twist", "-1e-3", out)]:
            with pytest.raises(Built):
                run_main(*argv)


@pytest.fixture(scope="module")
def genus50(tmp_path_factory):
    """A goldman and a bd file of one closed genus-50 ring chain (98 pants)."""
    n = 98
    pants = [f"P{i}" for i in range(n)]
    gluings = [Gluing(f"r{i}", (pants[i], 1), (pants[(i + 1) % n], 0)) for i in range(n)]
    gluings += [Gluing(f"s{k}", (pants[2 * k], 2), (pants[2 * k + 1], 2)) for k in range(n // 2)]
    d = build_decomposition(pants, gluings, [])
    g = random_surface_goldman(d, np.random.default_rng(50))
    work = tmp_path_factory.mktemp("genus50")
    goldman, bd = work / "goldman.json", work / "bd.json"
    fileio.save_file(goldman, fileio.file_from_goldman(d, g))
    fileio.save_file(bd, fileio.file_from_bd(d, goldman_to_bd(d, g)))
    return goldman, bd


class TestCollectorPause:
    """cli.main runs each command with the cyclic collector paused."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv, code, loads", [
        (("validate", SAMPLES / "torus_goldman.json"), 0, 1),
        (("flow", SAMPLES / "torus_goldman.json", "--curve", "zz", "--twist", "1", "out.json"),
         errors.UnknownCurve.exit_code, 1),
        (("convert", SAMPLES / "pants_goldman.json", "--to", "cube", "out.json"), 2, 0),
    ], ids=["success", "coordinate_error", "argparse_exit"])
    def test_main_restores_the_callers_setting(self, monkeypatch, tmp_path, enabled, argv, code,
                                               loads):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CONVEXPROJ_VERBOSE", raising=False)
        during = []
        load_file = fileio.load_file

        def recording(path):
            during.append(gc.isenabled())
            return load_file(path)

        monkeypatch.setattr(fileio, "load_file", recording)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    got = cli.main([str(a) for a in argv])
                except SystemExit as stop:
                    got = stop.code
            after = gc.isenabled()
        finally:
            (gc.enable if before else gc.disable)()
        assert got == code
        assert after is enabled
        assert during == [False] * loads

    @pytest.mark.parametrize("command", [
        "convert_to_bd", "convert_to_goldman", "validate_goldman", "validate_bd", "flow",
        "oracle_monodromy", "render",
    ])
    def test_command_leaves_no_cyclic_garbage(self, genus50, tmp_path, command):
        goldman, bd = genus50
        argv = {
            "convert_to_bd": ("convert", goldman, "--to", "bd", tmp_path / "out.json"),
            "convert_to_goldman": ("convert", bd, "--to", "goldman", tmp_path / "out.json"),
            "validate_goldman": ("validate", goldman),
            "validate_bd": ("validate", bd),
            "flow": ("flow", bd, "--curve", "r3", "--twist", "0.25", tmp_path / "out.json"),
            "oracle_monodromy": ("oracle", bd, "--monodromy"),
            "render": ("render", bd, "--pants", "P0", tmp_path / "out.svg"),
        }[command]
        # the first run of a process may leave objects it caches once
        assert run_main(*argv)[0] == 0
        gc.collect()
        assert run_main(*argv)[0] == 0
        # the collector, resumed, finds nothing the command left unfreed
        assert gc.collect() == 0
