import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexproj import cli, errors, flags

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


# (lambda, tau) pairs inside both window bounds with no float spectrum lambda < mu < nu
MU_ROUNDS_ONTO_LAMBDA = (1e-30, 9.999999999999998e59)
MU_UNDERFLOWS = (1e-100, 9.99999999999999e199)


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
            (set_window("a1", *MU_UNDERFLOWS), 3, "pants 'P0': lambda=1e-100, tau="),
        ],
        ids=["s_negative", "t_zero", "huge_integer", "duplicate_key", "tau_below_window",
             "lambda_underflow", "lambda_not_below_one", "mu_rounds_onto_lambda",
             "mu_underflows"],
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


EXTREME_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 1e-30, 1.0, 2.0, 1e30, 1e300, -1e300, 1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def mutated_documents(draw):
    """A sample document with one to four of its values set to extreme floats."""
    document = copy.deepcopy(SAMPLE_DOCUMENTS[draw(st.sampled_from(sorted(SAMPLE_DOCUMENTS)))])
    values = document["values"]
    for path in draw(st.lists(st.sampled_from(number_paths(values)), min_size=1, max_size=4)):
        node = values
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(EXTREME_FLOATS)
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
    ]:
        code, err = run_main(*argv)
        assert code in range(6), argv
        assert len(err.splitlines()) == (1 if code >= 2 else 0), err


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

    @pytest.mark.parametrize("pair", [MU_ROUNDS_ONTO_LAMBDA, MU_UNDERFLOWS],
                             ids=["mu_rounds_onto_lambda", "mu_underflows"])
    def test_no_float_spectrum_names_pants(self, tmp_path, pair):
        bad = tmp_path / "edge.json"
        bad.write_text(set_window("a1", *pair)((SAMPLES / "pants_goldman.json").read_text()))
        result = run_cli("validate", bad)
        expect_one_error(result, 3, f"pants 'P0': lambda={pair[0]!r}, tau=")


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

    def test_monodromy_error_names_pants(self, monkeypatch):
        monkeypatch.delenv("CONVEXPROJ_VERBOSE", raising=False)
        monkeypatch.setattr(flags, "_quadratic_roots", lambda a, b, c: [])
        code, err = run_main("oracle", SAMPLES / "pants_bd.json", "--monodromy")
        assert code == 3
        assert err == "error: pants 'P0': no real scaling branch for vertex 1\n"

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
    """Valid data whose Goldman values or crossratios overflow a float exits 3
    naming the pants, with no traceback."""

    @pytest.mark.parametrize(
        "command, message",
        [
            (("validate",), "pants 'P0': rho1 = exp(800.3132616875182) overflows a float"),
            (("oracle",), "pants 'P0': t = exp(801.0) overflows a float"),
            (("convert", "--to", "goldman", "out.json"),
             "pants 'P0': t = exp(801.0) overflows a float"),
        ],
        ids=["validate", "oracle", "convert"],
    )
    def test_shear_minus_800(self, tmp_path, command, message):
        bad = write_bd_pants(tmp_path / "bad.json", *UNREPRESENTABLE["overflows"])
        result = run_cli(command[0], bad, *command[1:], cwd=tmp_path)
        expect_one_error(result, 3, message)

    def test_s_overflows(self, tmp_path):
        bad = write_bd_pants(tmp_path / "bad.json", [1500.0] * 3, [-1501.0] * 3)
        result = run_cli("oracle", bad)
        expect_one_error(result, 3, "pants 'P0': s = exp(1500.5) overflows a float")

    def test_goldman_crossratio_overflows(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(set_pants_value("s", 1e300)((SAMPLES / "pants_goldman.json").read_text()))
        result = run_cli("validate", bad)
        expect_one_error(result, 3, "pants 'P0': rho1 = exp(")


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
