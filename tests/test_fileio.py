import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexproj import fileio
from convexproj.errors import DomainViolation, SchemaError, WindowViolation
from convexproj.sampling import random_surface_goldman
from convexproj.surface import (
    BoundarySlot,
    Gluing,
    bd_to_goldman,
    build_decomposition,
    goldman_to_bd,
)

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


def ring_chain(genus):
    """Closed genus-g surface: 2g-2 pants in a cycle, slot 1 of each glued to
    slot 0 of the next, and slot 2 of P_2k glued to slot 2 of P_2k+1."""
    n = 2 * genus - 2
    pants = [f"P{i}" for i in range(n)]
    gluings = [Gluing(f"r{i}", (pants[i], 1), (pants[(i + 1) % n], 0)) for i in range(n)]
    gluings += [Gluing(f"s{k}", (pants[2 * k], 2), (pants[2 * k + 1], 2)) for k in range(genus - 1)]
    return build_decomposition(pants, gluings, [])


class ScanCounter(tuple):
    """A tuple that counts how often it is scanned, by iteration or by `in`."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def __contains__(self, item):
        self.scans += 1
        return super().__contains__(item)


class TestLinearInPants:
    """Structure, not wall time: reading a file scans the pants list a fixed number of times."""

    def test_loads_scans_the_pants_a_bounded_number_of_times(self, monkeypatch):
        d = ring_chain(50)
        g = random_surface_goldman(d, np.random.default_rng(103))
        texts = [
            fileio.dumps(fileio.file_from_goldman(d, g)),
            fileio.dumps(fileio.file_from_bd(d, goldman_to_bd(d, g))),
        ]
        built = []

        def counting(pants, gluings, boundaries):
            decomposition = build_decomposition(pants, gluings, boundaries)
            built.append(ScanCounter(decomposition.pants))
            return replace(decomposition, pants=built[-1])

        monkeypatch.setattr(fileio, "build_decomposition", counting)
        for text in texts:
            cf = fileio.loads(text)
            assert cf.decomposition.pants is built[-1]
            assert len(built[-1]) == 98
            assert built[-1].scans <= 2, cf.system


def reference_dumps(cf: fileio.CoordinateFile) -> str:
    """The writer's reference: the document built as dicts and lists, through json.dumps."""
    d = cf.decomposition
    surface = {
        "pants": list(d.pants),
        "gluings": [
            {
                "curve": g.curve,
                "plus": list(g.plus),
                "minus": list(g.minus),
                "arc": {"left": g.arc.left, "right": g.arc.right},
            }
            for g in d.gluings
        ],
        "boundaries": [{"curve": b.curve, "slot": list(b.slot)} for b in d.boundaries],
    }
    document = {
        "schema_version": fileio.SCHEMA_VERSION,
        "surface": surface,
        "system": cf.system,
        "values": {"curves": cf.curve_values, "pants": cf.pants_values},
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


# one decomposition with no gluings, one with both kinds of curve, one closed
SHAPES = [
    fileio.load_file(SAMPLES / name).decomposition
    for name in ("pants_goldman.json", "torus_goldman.json", "genus2_goldman.json")
]
# quotes, backslashes, control characters, non-ASCII and astral characters
KEYS = st.text(st.sampled_from('P0"\\/\n\x00\x7f\u00e9\u2603\U0001d11e') | st.characters(), max_size=6)
NUMBERS = (
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.integers(-(2**70), 2**70)
)
FIELDS = {
    fileio.GOLDMAN: (("lambda", "tau", "u", "v"), ("lambda", "tau"), ("s", "t")),
    fileio.BD: (("sigma1_C", "sigma2_C"), None, ("sigma1", "sigma2", "tau_plus", "tau_minus")),
}


@st.composite
def coordinate_files(draw) -> fileio.CoordinateFile:
    """A sample's decomposition under drawn keys, with drawn values of either system."""
    shape = draw(st.sampled_from(SHAPES))
    pants = dict(zip(shape.pants, draw(st.lists(KEYS, min_size=len(shape.pants),
                                                 max_size=len(shape.pants), unique=True))))
    names = shape.curve_names()
    curves = dict(zip(names, draw(st.lists(KEYS, min_size=len(names), max_size=len(names),
                                           unique=True))))

    def slot(s):
        return (pants[s[0]], s[1])

    d = build_decomposition(
        list(pants.values()),
        [replace(g, curve=curves[g.curve], plus=slot(g.plus), minus=slot(g.minus))
         for g in shape.gluings],
        [BoundarySlot(curves[b.curve], slot(b.slot)) for b in shape.boundaries],
    )
    system = draw(st.sampled_from([fileio.GOLDMAN, fileio.BD]))
    internal_fields, boundary_fields, pants_fields = FIELDS[system]

    def entry(fields):
        return {
            name: draw(st.lists(NUMBERS, min_size=3, max_size=3))
            if name in ("sigma1", "sigma2") else draw(NUMBERS)
            for name in fields
        }

    curve_values = {key: entry(internal_fields) for key in d.internal_curves()}
    if boundary_fields:
        curve_values.update((b.curve, entry(boundary_fields)) for b in d.boundaries)
    pants_values = {key: entry(pants_fields) for key in d.pants}
    return fileio.CoordinateFile(d, system, curve_values, pants_values)


class TestWriter:
    @given(coordinate_files())
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_bytes_match_json_dumps(self, cf):
        assert fileio.dumps(cf) == reference_dumps(cf)

    @given(coordinate_files(), st.data())
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    def test_non_finite_value_names_its_path(self, cf, data):
        group, entries = data.draw(
            st.sampled_from([("curves", cf.curve_values), ("pants", cf.pants_values)])
            .filter(lambda pair: pair[1])
        )
        key = data.draw(st.sampled_from(list(entries)))
        name = data.draw(st.sampled_from(list(entries[key])))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, np.float64(-math.inf)]))
        if isinstance(entries[key][name], list):
            entries[key][name][data.draw(st.integers(0, 2))] = bad
        else:
            entries[key][name] = bad
        with pytest.raises(ValueError):
            reference_dumps(cf)
        message = f"values.{group}[{key!r}].{name}: {entries[key][name]!r} is not a finite number"
        with pytest.raises(DomainViolation) as raised:
            fileio.dumps(cf)
        assert str(raised.value) == message
