import json
import math
from pathlib import Path

import numpy as np
import pytest

from convexproj import fileio
from convexproj.errors import SchemaError, WindowViolation
from convexproj.sampling import random_surface_goldman
from convexproj.surface import bd_to_goldman, goldman_to_bd

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def torus_file():
    return fileio.load_file(SAMPLES / "torus_goldman.json")


class TestLoadSamples:
    @pytest.mark.parametrize(
        "name, system",
        [
            ("pants_goldman.json", "goldman"),
            ("pants_bd.json", "bd"),
            ("torus_goldman.json", "goldman"),
            ("genus2_goldman.json", "goldman"),
        ],
    )
    def test_loads(self, name, system):
        cf = fileio.load_file(SAMPLES / name)
        assert cf.system == system

    def test_typed_views(self):
        cf = torus_file()
        g = cf.goldman()
        assert g.curves["c1"].lam == pytest.approx(0.2)
        assert g.uv["c1"] == (0.0, 0.0)
        with pytest.raises(SchemaError):
            cf.bd()

    def test_window_violation_names_curve_path(self):
        data = json.loads((SAMPLES / "genus2_goldman.json").read_text())
        data["values"]["curves"]["c2"]["tau"] = 4.0
        cf = fileio.loads(json.dumps(data))
        with pytest.raises(WindowViolation, match=r"^values\.curves\['c2'\]: tau=4\.0 is not above"):
            cf.goldman()


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        cf = torus_file()
        d = cf.decomposition
        g = random_surface_goldman(d, rng)
        out = tmp_path / "out.json"
        fileio.save_file(out, fileio.file_from_goldman(d, g))
        back = fileio.load_file(out).goldman()
        for key in g.curves:
            assert back.curves[key].lam == g.curves[key].lam
            assert back.curves[key].tau == g.curves[key].tau
        assert back.uv == g.uv
        assert back.pants == g.pants

    def test_bd_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        cf = torus_file()
        d = cf.decomposition
        b = goldman_to_bd(d, random_surface_goldman(d, rng))
        out = tmp_path / "out.json"
        fileio.save_file(out, fileio.file_from_bd(d, b))
        back = fileio.load_file(out).bd()
        assert back.curve_shears == b.curve_shears
        assert back.pants == b.pants

    def test_decomposition_survives(self, tmp_path):
        cf = torus_file()
        out = tmp_path / "again.json"
        fileio.save_file(out, cf)
        again = fileio.load_file(out)
        assert again.decomposition == cf.decomposition
        assert again.decomposition.gluings[0].arc.left == 2


def mutate(document, mutator):
    data = json.loads(document)
    mutator(data)
    return json.dumps(data)


class TestSchemaErrors:
    @pytest.fixture()
    def document(self):
        return (SAMPLES / "torus_goldman.json").read_text()

    def test_invalid_json(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            fileio.loads("{not json")

    def test_unknown_top_level_field(self, document):
        bad = mutate(document, lambda d: d.update(extra=1))
        with pytest.raises(SchemaError, match="unknown fields"):
            fileio.loads(bad)

    def test_bad_version(self, document):
        bad = mutate(document, lambda d: d.update(schema_version="2"))
        with pytest.raises(SchemaError, match="schema_version"):
            fileio.loads(bad)

    def test_bad_system(self, document):
        bad = mutate(document, lambda d: d.update(system="fock"))
        with pytest.raises(SchemaError, match="system"):
            fileio.loads(bad)

    def test_unknown_curve_value(self, document):
        def mutator(d):
            d["values"]["curves"]["zz"] = {"lambda": 0.2, "tau": 6.0}

        with pytest.raises(SchemaError, match="zz"):
            fileio.loads(mutate(document, mutator))

    def test_missing_curve_value(self, document):
        def mutator(d):
            del d["values"]["curves"]["a1"]

        with pytest.raises(SchemaError, match="missing entries"):
            fileio.loads(mutate(document, mutator))

    def test_unknown_value_field(self, document):
        def mutator(d):
            d["values"]["curves"]["a1"]["u"] = 0.0

        # a1 is a boundary curve; u/v belong to internal curves only
        with pytest.raises(SchemaError, match="unknown fields"):
            fileio.loads(mutate(document, mutator))

    def test_non_finite_number(self, document):
        bad = document.replace('"tau": 6.0', '"tau": NaN')
        assert "NaN" in bad
        with pytest.raises(SchemaError, match="non-finite"):
            fileio.loads(bad)

    def test_string_number_rejected(self, document):
        def mutator(d):
            d["values"]["pants"]["P0"]["s"] = "1.0"

        with pytest.raises(SchemaError, match="expected a number"):
            fileio.loads(mutate(document, mutator))

    def test_number_too_large_for_float(self, document):
        def mutator(d):
            d["values"]["pants"]["P0"]["s"] = 10**400

        with pytest.raises(SchemaError, match=r"values\.pants\['P0'\]\.s: .*too large"):
            fileio.loads(mutate(document, mutator))

    def test_integer_beyond_digit_limit(self, document):
        bad = document.replace('"s": 1.0', '"s": ' + "1" * 5000)
        assert bad != document
        # interpreters without the int digit limit parse it and overflow instead
        with pytest.raises(SchemaError, match="invalid JSON|too large"):
            fileio.loads(bad)

    def test_duplicate_key_rejected(self, document):
        bad = document.replace('"s": 1.0', '"s": 2.0, "s": 1.0')
        assert bad != document
        with pytest.raises(SchemaError, match=r"duplicate keys \['s'\]"):
            fileio.loads(bad)

    def test_bad_slot(self, document):
        def mutator(d):
            d["surface"]["gluings"][0]["plus"] = ["P0", 4]

        with pytest.raises(SchemaError, match="slot"):
            fileio.loads(mutate(document, mutator))

    def test_bd_value_for_boundary_curve(self, tmp_path):
        cf = torus_file()
        bd_cf = fileio.file_from_bd(
            cf.decomposition, goldman_to_bd(cf.decomposition, cf.goldman())
        )
        document = fileio.dumps(bd_cf)

        def mutator(d):
            d["values"]["curves"]["a1"] = {"sigma1_C": 0.0, "sigma2_C": 0.0}

        with pytest.raises(SchemaError, match="internal curves only"):
            fileio.loads(mutate(document, mutator))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            fileio.load_file(tmp_path / "absent.json")


class TestPrecision:
    def test_seventeen_digit_round_trip(self, tmp_path):
        # shortest round-trip decimals reparse to the identical float
        cf = torus_file()
        d = cf.decomposition
        g = cf.goldman()
        awkward = math.pi / math.e * 1e-3
        g.pants["P0"] = (awkward, g.pants["P0"][1])
        text = fileio.dumps(fileio.file_from_goldman(d, g))
        back = fileio.loads(text).goldman()
        assert back.pants["P0"][0] == awkward

    def test_convert_twice_bit_exactness_bound(self):
        cf = torus_file()
        d = cf.decomposition
        g = cf.goldman()
        twice = bd_to_goldman(d, goldman_to_bd(d, g))
        for key in g.curves:
            assert twice.curves[key].lam == pytest.approx(g.curves[key].lam, rel=1e-10)
            assert twice.curves[key].tau == pytest.approx(g.curves[key].tau, rel=1e-10)
