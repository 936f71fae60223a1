import copy
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexproj import fileio
from convexproj.errors import (
    CoordinateError,
    CountMismatch,
    DomainViolation,
    NonNegativeEuler,
    SchemaError,
    SlotReuse,
    WindowViolation,
)
from convexproj.pants import FGPants
from convexproj.sampling import random_fg_pants, random_surface_goldman
from convexproj.surface import (
    BoundarySlot,
    Gluing,
    PantsDecomposition,
    SurfaceBD,
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

    def test_bd_file_has_no_goldman_view(self):
        cf = fileio.load_file(SAMPLES / "pants_bd.json")
        with pytest.raises(SchemaError, match=r"^file holds 'bd' values, not goldman$"):
            cf.goldman()

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


DELETE = object()
GOLDEN = Path(__file__).resolve().parent / "golden"
BASES = {
    "torus": json.loads((SAMPLES / "torus_goldman.json").read_text()),
    "genus2": json.loads((SAMPLES / "genus2_goldman.json").read_text()),
    "torus_bd": json.loads((GOLDEN / "torus_goldman.convert-bd.out").read_text()),
}


def edited(base: str, changes) -> str:
    """A base document with each (key path, value) change applied; DELETE removes the key.

    The strings "<NaN>" and "<1e400>" become those bare literals in the text."""
    if base == "text":
        return changes
    document = copy.deepcopy(BASES[base])
    for path, value in changes:
        node = document
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return json.dumps(document).replace('"<NaN>"', "NaN").replace('"<1e400>"', "1e400")


# One malformed document per check of the decoder and of build_decomposition,
# then documents with two faults, where the fault checked first is reported.
DECODER_MESSAGES = [
    ("invalid_json", "text", "{not json",
     SchemaError,
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("nan_constant", "torus", [(("values", "pants", "P0", "s"), "<NaN>")],
     SchemaError, "non-finite number 'NaN' is not allowed"),
    ("duplicate_key", "text", '{"a": 1, "b": [{"x": 1, "x": 2}], "a": 3}',
     SchemaError, "duplicate keys ['x'] in one object"),
    ("top_not_object", "text", "[1, 2]",
     SchemaError, "$: expected an object, got list"),
    ("top_unknown_field", "torus", [(("extra",), 1)],
     SchemaError, "$: unknown fields ['extra']"),
    ("top_missing_field", "torus", [(("system",), DELETE)],
     SchemaError, "$: missing fields ['system']"),
    ("schema_version", "torus", [(("schema_version",), 1)],
     SchemaError, "schema_version: expected '1', got 1"),
    ("system", "torus", [(("system",), "fock")],
     SchemaError, "system: expected 'goldman' or 'bd', got 'fock'"),
    ("surface_not_object", "torus", [(("surface",), [])],
     SchemaError, "surface: expected an object, got list"),
    ("pants_not_list", "torus", [(("surface", "pants"), "P0")],
     SchemaError, "surface.pants: expected a list of pants keys"),
    ("pants_key_not_string", "torus", [(("surface", "pants"), ["P0", 1])],
     SchemaError, "surface.pants: expected a list of pants keys"),
    ("gluings_not_list", "torus", [(("surface", "gluings"), {})],
     SchemaError, "surface.gluings: expected a list"),
    ("gluing_not_object", "torus", [(("surface", "gluings", 0), ["c1"])],
     SchemaError, "surface.gluings[0]: expected an object, got list"),
    ("gluing_missing_field", "torus", [(("surface", "gluings", 0, "arc"), DELETE)],
     SchemaError, "surface.gluings[0]: missing fields ['arc']"),
    ("gluing_unknown_field", "torus", [(("surface", "gluings", 0, "twist"), 0)],
     SchemaError, "surface.gluings[0]: unknown fields ['twist']"),
    ("gluing_curve_not_string", "torus", [(("surface", "gluings", 0, "curve"), 1)],
     SchemaError, "surface.gluings[0]: curve key must be a string"),
    ("arc_not_object", "torus", [(("surface", "gluings", 0, "arc"), [2, 3])],
     SchemaError, "surface.gluings[0].arc: expected an object, got list"),
    ("arc_missing_field", "torus", [(("surface", "gluings", 0, "arc", "right"), DELETE)],
     SchemaError, "surface.gluings[0].arc: missing fields ['right']"),
    ("arc_true", "torus", [(("surface", "gluings", 0, "arc", "left"), True)],
     SchemaError, "surface.gluings[0].arc: arc leaf index left must be 1, 2 or 3, got True"),
    ("arc_float", "torus", [(("surface", "gluings", 0, "arc", "left"), 2.0)],
     SchemaError, "surface.gluings[0].arc: arc leaf index left must be 1, 2 or 3, got 2.0"),
    ("arc_four", "torus", [(("surface", "gluings", 0, "arc", "right"), 4)],
     SchemaError, "surface.gluings[0].arc: arc leaf index right must be 1, 2 or 3, got 4"),
    ("arc_zero", "torus", [(("surface", "gluings", 0, "arc", "right"), 0)],
     SchemaError, "surface.gluings[0].arc: arc leaf index right must be 1, 2 or 3, got 0"),
    ("arc_string", "torus", [(("surface", "gluings", 0, "arc", "left"), "2")],
     SchemaError, "surface.gluings[0].arc: arc leaf index left must be 1, 2 or 3, got '2'"),
    ("slot_true", "torus", [(("surface", "gluings", 0, "plus"), ["P0", True])],
     SchemaError, "surface.gluings[0].plus: expected [pants, slot 0..2], got ['P0', True]"),
    ("slot_float", "torus", [(("surface", "gluings", 0, "minus"), ["P0", 1.0])],
     SchemaError, "surface.gluings[0].minus: expected [pants, slot 0..2], got ['P0', 1.0]"),
    ("slot_short", "torus", [(("surface", "gluings", 0, "plus"), ["P0"])],
     SchemaError, "surface.gluings[0].plus: expected [pants, slot 0..2], got ['P0']"),
    ("slot_three", "torus", [(("surface", "gluings", 0, "plus"), ["P0", 0, 0])],
     SchemaError, "surface.gluings[0].plus: expected [pants, slot 0..2], got ['P0', 0, 0]"),
    ("slot_index", "torus", [(("surface", "gluings", 0, "plus"), ["P0", 3])],
     SchemaError, "surface.gluings[0].plus: expected [pants, slot 0..2], got ['P0', 3]"),
    ("slot_negative", "torus", [(("surface", "gluings", 0, "minus"), ["P0", -1])],
     SchemaError, "surface.gluings[0].minus: expected [pants, slot 0..2], got ['P0', -1]"),
    ("slot_pants_not_string", "torus", [(("surface", "gluings", 0, "plus"), [0, 0])],
     SchemaError, "surface.gluings[0].plus: expected [pants, slot 0..2], got [0, 0]"),
    ("slot_not_list", "torus", [(("surface", "gluings", 0, "plus"), "P0")],
     SchemaError, "surface.gluings[0].plus: expected [pants, slot 0..2], got 'P0'"),
    ("boundaries_not_list", "torus", [(("surface", "boundaries"), None)],
     SchemaError, "surface.boundaries: expected a list"),
    ("boundary_not_object", "torus", [(("surface", "boundaries", 0), "a1")],
     SchemaError, "surface.boundaries[0]: expected an object, got str"),
    ("boundary_unknown_field", "torus", [(("surface", "boundaries", 0, "arc"), {})],
     SchemaError, "surface.boundaries[0]: unknown fields ['arc']"),
    ("boundary_curve_not_string", "torus", [(("surface", "boundaries", 0, "curve"), None)],
     SchemaError, "surface.boundaries[0]: curve key must be a string"),
    ("boundary_slot_float", "torus", [(("surface", "boundaries", 0, "slot"), ["P0", 2.0])],
     SchemaError, "surface.boundaries[0].slot: expected [pants, slot 0..2], got ['P0', 2.0]"),
    ("no_pants", "torus", [(("surface", "pants"), [])],
     NonNegativeEuler, "a decomposition needs at least one pair of pants"),
    ("repeated_pants", "torus", [(("surface", "pants"), ["P0", "P0"])],
     CountMismatch, "pants keys must be unique"),
    ("repeated_curve", "torus", [(("surface", "boundaries", 0, "curve"), "c1")],
     CountMismatch, "curve keys must be unique"),
    ("self_glued", "torus", [(("surface", "gluings", 0, "minus"), ["P0", 0])],
     SlotReuse, "gluing 'c1' pairs slot ('P0', 0) with itself"),
    ("unknown_slot_pants", "torus", [(("surface", "gluings", 0, "minus"), ["Q0", 1])],
     CountMismatch, "gluing 'c1' references unknown slot ('Q0', 1)"),
    ("unknown_boundary_slot", "torus", [(("surface", "boundaries", 0, "slot"), ["Q0", 2])],
     CountMismatch, "boundary 'a1' references unknown slot ('Q0', 2)"),
    ("reused_slot", "torus", [(("surface", "boundaries", 0, "slot"), ["P0", 1])],
     SlotReuse, "slot ('P0', 1) is used more than once (boundary 'a1')"),
    ("unused_slot", "torus", [(("surface", "boundaries"), [])],
     CountMismatch, "unused slots: [('P0', 2)]"),
    ("disconnected", "torus", [
        (("surface", "pants"), ["P0", "Q0"]),
        (("surface", "boundaries"), [{"curve": "a1", "slot": ["P0", 2]}]
         + [{"curve": f"b{k}", "slot": ["Q0", k]} for k in range(3)])],
     CountMismatch, "the surface is not connected: no gluings lead from 'P0' to pants ['Q0']"),
    ("values_not_object", "torus", [(("values",), [])],
     SchemaError, "values: expected an object, got list"),
    ("values_missing_field", "torus", [(("values", "pants"), DELETE)],
     SchemaError, "values: missing fields ['pants']"),
    ("curves_not_object", "torus", [(("values", "curves"), [])],
     SchemaError, "values.curves: expected an object keyed by curve"),
    ("unknown_curve", "torus", [(("values", "curves", "zz"), {"lambda": 0.2, "tau": 6.0})],
     SchemaError, "values.curves['zz']: curve does not exist in the surface"),
    ("missing_curve", "torus", [(("values", "curves", "a1"), DELETE)],
     SchemaError, "values.curves: missing entries for curves ['a1']"),
    ("curve_entry_not_object", "torus", [(("values", "curves", "c1"), 0.2)],
     SchemaError, "values.curves['c1']: expected an object, got float"),
    ("curve_entry_missing_field", "torus", [(("values", "curves", "c1", "v"), DELETE)],
     SchemaError, "values.curves['c1']: missing fields ['v']"),
    ("boundary_entry_extra_field", "torus", [(("values", "curves", "a1", "u"), 0.0)],
     SchemaError, "values.curves['a1']: unknown fields ['u']"),
    ("number_string", "torus", [(("values", "pants", "P0", "s"), "1.0")],
     SchemaError, "values.pants['P0'].s: expected a number, got '1.0'"),
    ("number_true", "torus", [(("values", "curves", "c1", "u"), True)],
     SchemaError, "values.curves['c1'].u: expected a number, got True"),
    ("number_null", "torus", [(("values", "curves", "a1", "tau"), None)],
     SchemaError, "values.curves['a1'].tau: expected a number, got None"),
    ("number_huge_int", "torus", [(("values", "pants", "P0", "t"), 10**400)],
     SchemaError, "values.pants['P0'].t: number is too large for a float"),
    ("number_overflowing_literal", "torus", [(("values", "curves", "c1", "lambda"), "<1e400>")],
     SchemaError, "values.curves['c1'].lambda: number must be finite"),
    ("pants_not_object", "torus", [(("values", "pants"), ["P0"])],
     SchemaError, "values.pants: expected an object keyed by pants"),
    ("unknown_pants", "torus", [(("values", "pants", "Q0"), {"s": 1.0, "t": 2.0})],
     SchemaError, "values.pants['Q0']: pants does not exist in the surface"),
    ("missing_pants", "torus", [(("values", "pants", "P0"), DELETE)],
     SchemaError, "values.pants: missing entries for pants ['P0']"),
    ("pants_entry_unknown_field", "torus", [(("values", "pants", "P0", "r"), 1.0)],
     SchemaError, "values.pants['P0']: unknown fields ['r']"),
    ("bd_boundary_curve_value", "torus_bd", [
        (("values", "curves", "a1"), {"sigma1_C": 0.0, "sigma2_C": 0.0})],
     SchemaError, "values.curves['a1']: bd files carry values for internal curves only"),
    ("bd_missing_curve", "torus_bd", [(("values", "curves", "c1"), DELETE)],
     SchemaError, "values.curves: missing entries for curves ['c1']"),
    ("bd_sigma_of_two", "torus_bd", [(("values", "pants", "P0", "sigma1"), [0.5, 0.5])],
     SchemaError, "values.pants['P0'].sigma1: expected a list of three numbers"),
    ("bd_sigma_not_list", "torus_bd", [(("values", "pants", "P0", "sigma2"), 0.5)],
     SchemaError, "values.pants['P0'].sigma2: expected a list of three numbers"),
    ("bd_sigma_entry_string", "torus_bd", [(("values", "pants", "P0", "sigma2", 2), "x")],
     SchemaError, "values.pants['P0'].sigma2[2]: expected a number, got 'x'"),
    ("bd_sigma_entry_huge", "torus_bd", [(("values", "pants", "P0", "sigma1", 1), 10**400)],
     SchemaError, "values.pants['P0'].sigma1[1]: number is too large for a float"),
    ("bd_tau_true", "torus_bd", [(("values", "pants", "P0", "tau_minus"), True)],
     SchemaError, "values.pants['P0'].tau_minus: expected a number, got True"),
    ("bd_shear_string", "torus_bd", [(("values", "curves", "c1", "sigma2_C"), "0")],
     SchemaError, "values.curves['c1'].sigma2_C: expected a number, got '0'"),
    ("bd_goldman_fields", "torus_bd", [(("values", "pants", "P0"), {"s": 1.0, "t": 2.0})],
     SchemaError, "values.pants['P0']: unknown fields ['s', 't']"),
    ("two_curve_and_arc", "torus", [
        (("surface", "gluings", 0, "curve"), 7),
        (("surface", "gluings", 0, "arc", "left"), 9)],
     SchemaError, "surface.gluings[0]: curve key must be a string"),
    ("two_plus_and_minus", "torus", [
        (("surface", "gluings", 0, "minus"), ["P0", 5]),
        (("surface", "gluings", 0, "plus"), ["P0", True])],
     SchemaError, "surface.gluings[0].plus: expected [pants, slot 0..2], got ['P0', True]"),
    ("two_arc_and_slot", "torus", [
        (("surface", "gluings", 0, "plus"), ["P0"]),
        (("surface", "gluings", 0, "arc", "right"), 2.0)],
     SchemaError, "surface.gluings[0].arc: arc leaf index right must be 1, 2 or 3, got 2.0"),
    ("two_surface_and_values", "torus", [
        (("values", "pants", "P0", "s"), "x"),
        (("surface", "boundaries", 0, "slot"), ["P0", 7])],
     SchemaError, "surface.boundaries[0].slot: expected [pants, slot 0..2], got ['P0', 7]"),
    ("two_field_order", "torus", [(("values", "curves", "a1"), {"tau": "x", "lambda": None})],
     SchemaError, "values.curves['a1'].lambda: expected a number, got None"),
    ("two_entry_order", "torus", [
        (("values", "curves"), {"a1": {"lambda": True, "tau": 6.0},
                                "zz": {"lambda": 0.2, "tau": 6.0}})],
     SchemaError, "values.curves['a1'].lambda: expected a number, got True"),
    ("two_missing_curve_and_bad_pants", "torus", [
        (("values", "curves", "c1"), DELETE),
        (("values", "pants", "P0", "s"), "x")],
     SchemaError, "values.curves: missing entries for curves ['c1']"),
    ("two_reuse_then_unknown", "genus2", [
        (("surface", "gluings", 1, "plus"), ["P0", 0]),
        (("surface", "gluings", 2, "minus"), ["Q9", 2])],
     SlotReuse, "slot ('P0', 0) is used more than once (gluing 'c2')"),
    ("two_unknown_then_reuse", "genus2", [
        (("surface", "gluings", 1, "minus"), ["Q9", 1]),
        (("surface", "gluings", 2, "plus"), ["P0", 0])],
     CountMismatch, "gluing 'c2' references unknown slot ('Q9', 1)"),
    ("two_pants_and_curves", "torus", [
        (("surface", "pants"), ["P0", "P0"]),
        (("surface", "boundaries", 0, "curve"), "c1")],
     CountMismatch, "pants keys must be unique"),
    ("two_unused_and_disconnected", "genus2", [(("surface", "gluings"), [])],
     CountMismatch,
     "unused slots: [('P0', 0), ('P0', 1), ('P0', 2), ('P1', 0), ('P1', 1), ('P1', 2)]"),
    ("two_sigma_then_tau", "torus_bd", [
        (("values", "pants", "P0", "tau_plus"), "x"),
        (("values", "pants", "P0", "sigma2"), [1.0, 2.0])],
     SchemaError, "values.pants['P0'].sigma2: expected a list of three numbers"),
]


class TestDecoderMessages:
    @pytest.mark.parametrize(
        "base, changes, error, message",
        [pytest.param(*case[1:], id=case[0]) for case in DECODER_MESSAGES],
    )
    def test_message(self, base, changes, error, message):
        with pytest.raises(CoordinateError) as raised:
            fileio.loads(edited(base, changes))
        assert type(raised.value) is error
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "gluings, boundaries, error, message",
        [
            pytest.param([Gluing("c1", ("P0", 0), ("P0", 1))], [BoundarySlot("a1", ("P0",))],
                         CountMismatch, "boundary 'a1' references unknown slot ('P0',)",
                         id="short_slot"),
            pytest.param([Gluing("c1", "P0", ("P0", 1))], [BoundarySlot("a1", ("P0", 2))],
                         CountMismatch, "gluing 'c1' references unknown slot 'P0'",
                         id="string_slot"),
            pytest.param([Gluing("c1", ("P0", 0), ("P0", 3))], [BoundarySlot("a1", ("P0", 2))],
                         CountMismatch, "gluing 'c1' references unknown slot ('P0', 3)",
                         id="index_three"),
            pytest.param([Gluing("c1", ("P0", 0), ("P0", 1))], [BoundarySlot("a1", ("P0", False))],
                         SlotReuse, "slot ('P0', False) is used more than once (boundary 'a1')",
                         id="equal_slot_reused"),
            pytest.param([Gluing("c1", ("P0", 0), ("P0", 0.0))], [BoundarySlot("a1", ("P0", 2))],
                         SlotReuse, "gluing 'c1' pairs slot ('P0', 0) with itself",
                         id="equal_slot_self_glued"),
            pytest.param([Gluing("c1", ("P0", 0), ("P0", 1)), Gluing("c2", ("P0", 1), ("Q", 1))],
                         [], SlotReuse, "slot ('P0', 1) is used more than once (gluing 'c2')",
                         id="plus_reused_before_minus_unknown"),
            pytest.param([Gluing("c1", ("P0", 0), ("P0", 1.0))], [],
                         CountMismatch, "unused slots: [('P0', 2)]",
                         id="float_index_claims_its_slot"),
            pytest.param([Gluing("c1", ["P0", 0], ("P0", 1))], [BoundarySlot("a1", ("P0", 2))],
                         CountMismatch, "gluing 'c1' references unknown slot ['P0', 0]",
                         id="list_slot"),
            pytest.param([Gluing("c1", ("P0", 0), ("P0", [1]))], [BoundarySlot("a1", ("P0", 2))],
                         CountMismatch, "gluing 'c1' references unknown slot ('P0', [1])",
                         id="unhashable_part"),
        ],
    )
    def test_direct_build_decomposition_message(self, gluings, boundaries, error, message):
        # direct callers are not held to the file's types: any slot equal to a valid one claims it
        with pytest.raises(CoordinateError) as raised:
            build_decomposition(["P0"], gluings, boundaries)
        assert type(raised.value) is error
        assert str(raised.value) == message


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
            return PantsDecomposition(built[-1], decomposition.gluings, decomposition.boundaries,
                                      decomposition.genus, decomposition.boundary_count,
                                      decomposition.slots)

        monkeypatch.setattr(fileio, "build_decomposition", counting)
        for text in texts:
            cf = fileio.loads(text)
            assert cf.decomposition.pants is built[-1]
            assert len(built[-1]) == 98
            assert built[-1].scans <= 2, cf.system


def document_values(cf: fileio.CoordinateFile) -> dict:
    """The ``values`` object of the file's document, as dicts and lists."""
    values = cf.values
    if cf.system == fileio.GOLDMAN:
        curves = {}
        for key, (lam, tau) in values.curves.items():
            curves[key] = {"lambda": lam, "tau": tau}
            if key in values.uv:
                curves[key]["u"], curves[key]["v"] = values.uv[key]
        pants = {key: {"s": s, "t": t} for key, (s, t) in values.pants.items()}
    else:
        curves = {key: {"sigma1_C": s1, "sigma2_C": s2}
                  for key, (s1, s2) in values.curve_shears.items()}
        pants = {key: {"sigma1": list(f.sigma1), "sigma2": list(f.sigma2),
                       "tau_plus": f.tau_plus, "tau_minus": f.tau_minus}
                 for key, f in values.pants.items()}
    return {"curves": curves, "pants": pants}


def bundle_file(d, system: str, values: dict) -> fileio.CoordinateFile:
    """The file whose bundle holds the numbers of a ``values`` object."""
    curves, pants = values["curves"], values["pants"]
    if system == fileio.GOLDMAN:
        return fileio.CoordinateFile(d, system, fileio.GoldmanValues(
            {key: (e["lambda"], e["tau"]) for key, e in curves.items()},
            {key: (e["u"], e["v"]) for key, e in curves.items() if "u" in e},
            {key: (e["s"], e["t"]) for key, e in pants.items()},
        ))
    fg = {}
    for key, e in pants.items():
        # set past FGPants's own check, so that the writer meets the non-finite
        # values that a conversion or flow could carry
        fg[key] = object.__new__(FGPants)
        for name in ("sigma1", "sigma2"):
            object.__setattr__(fg[key], name, tuple(e[name]))
        for name in ("tau_plus", "tau_minus"):
            object.__setattr__(fg[key], name, e[name])
    shears = {key: (e["sigma1_C"], e["sigma2_C"]) for key, e in curves.items()}
    return fileio.CoordinateFile(d, system, SurfaceBD(fg, shears))


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
        "values": document_values(cf),
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


# one decomposition with no gluings, one with both kinds of curve, one closed,
# and one with many entries of each layout
SHAPES = [
    fileio.load_file(SAMPLES / name).decomposition
    for name in ("pants_goldman.json", "torus_goldman.json", "genus2_goldman.json")
] + [ring_chain(20)]
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
        [Gluing(curves[g.curve], slot(g.plus), slot(g.minus), g.arc) for g in shape.gluings],
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
    return bundle_file(d, system, {"curves": curve_values, "pants": pants_values})


class TestWriter:
    @given(coordinate_files())
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_bytes_match_json_dumps(self, cf):
        assert fileio.dumps(cf) == reference_dumps(cf)

    @given(coordinate_files(), st.data())
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    def test_non_finite_value_names_its_path(self, cf, data):
        values = document_values(cf)
        group, entries = data.draw(
            st.sampled_from([("curves", values["curves"]), ("pants", values["pants"])])
            .filter(lambda pair: pair[1])
        )
        key = data.draw(st.sampled_from(list(entries)))
        name = data.draw(st.sampled_from(list(entries[key])))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, np.float64(-math.inf)]))
        if isinstance(entries[key][name], list):
            entries[key][name][data.draw(st.integers(0, 2))] = bad
        else:
            entries[key][name] = bad
        cf = bundle_file(cf.decomposition, cf.system, values)
        with pytest.raises(ValueError):
            reference_dumps(cf)
        message = f"values.{group}[{key!r}].{name}: {entries[key][name]!r} is not a finite number"
        with pytest.raises(DomainViolation) as raised:
            fileio.dumps(cf)
        assert str(raised.value) == message


SURFACES = [torus_file().decomposition, ring_chain(3), ring_chain(20)]


class TestParseOnce:
    """A file parses into one typed bundle, which its views and the writer use as they find it."""

    def test_bd_returns_the_stored_bundle(self):
        d = torus_file().decomposition
        cf = fileio.loads(fileio.dumps(fileio.file_from_bd(d, goldman_to_bd(d, torus_file().goldman()))))
        assert cf.bd() is cf.bd()
        assert cf.bd() is cf.values

    def test_file_from_bd_wraps_the_bundle(self):
        d = torus_file().decomposition
        b = goldman_to_bd(d, torus_file().goldman())
        assert fileio.file_from_bd(d, b).bd() is b

    def test_goldman_shares_the_files_dicts(self):
        cf = torus_file()
        g = cf.goldman()
        assert g.uv is cf.values.uv
        assert g.pants is cf.values.pants
        d = cf.decomposition
        written = fileio.file_from_goldman(d, g)
        assert written.values.uv is g.uv and written.values.pants is g.pants

    def test_out_of_window_curve_loads_and_views_raise(self):
        data = json.loads((SAMPLES / "genus2_goldman.json").read_text())
        data["values"]["curves"]["c2"]["tau"] = 4.0
        cf = fileio.loads(json.dumps(data))
        assert cf.values.curves["c2"] == (data["values"]["curves"]["c2"]["lambda"], 4.0)
        with pytest.raises(WindowViolation, match=r"^values\.curves\['c2'\]: "):
            cf.goldman()

    @given(st.sampled_from(SURFACES), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    def test_dumps_of_loads_is_the_identity(self, d, seed):
        def numpy_shears(f):
            return FGPants(tuple(map(np.float64, f.sigma1)), tuple(map(np.float64, f.sigma2)),
                           f.tau_plus, f.tau_minus)

        rng = np.random.default_rng(seed)
        g = random_surface_goldman(d, rng)
        shears = {key: tuple(rng.uniform(-2.0, 2.0, 2)) for key in d.internal_curves()}
        for cf in (fileio.file_from_goldman(d, g), fileio.file_from_bd(d, goldman_to_bd(d, g)),
                   # numpy floats in every shear
                   fileio.file_from_bd(d, SurfaceBD(
                       {key: numpy_shears(random_fg_pants(rng)) for key in d.pants}, shears))):
            text = fileio.dumps(cf)
            assert fileio.dumps(fileio.loads(text)) == text

    def test_valid_file_decodes_without_the_duplicate_key_hook(self, monkeypatch):
        text = (SAMPLES / "genus2_goldman.json").read_text()

        def refuse(pairs):
            raise AssertionError("the hook ran")

        monkeypatch.setattr(fileio, "_unique_keys", refuse)
        assert fileio.dumps(fileio.loads(text)) == text

    @pytest.mark.parametrize("text, message", [
        # a repeat inside a valid file, and a repeat that a later fault does not hide
        (lambda t: t.replace('"s": 1.0', '"s": 2.0, "s": 1.0'), "duplicate keys ['s'] in one object"),
        (lambda t: t.replace('"s": 1.0', '"s": 1.0, "s": 1.0').replace('"curves"', '"curve"'),
         "duplicate keys ['s'] in one object"),
    ], ids=["valid_otherwise", "before_a_schema_fault"])
    def test_repeated_name_is_reported(self, text, message):
        with pytest.raises(SchemaError) as raised:
            fileio.loads(text((SAMPLES / "torus_goldman.json").read_text()))
        assert str(raised.value) == message

    def test_colon_in_a_key_loads(self):
        d = ring_chain(3)
        g = random_surface_goldman(d, np.random.default_rng(3))
        text = fileio.dumps(fileio.file_from_goldman(d, g)).replace('"P1"', '"P:1"')
        assert fileio.dumps(fileio.loads(text)) == text
        assert "P:1" in fileio.loads(text).values.pants


class TestWriteText:
    """Outputs are rewritten in place: opened without O_TRUNC, then cut to the new length."""

    @pytest.mark.parametrize("held", [b"", b"{}\n", None, b"#" * 100_000],
                             ids=["empty", "shorter", "same_length", "longer"])
    def test_file_holds_exactly_the_new_bytes(self, tmp_path, held):
        cf = torus_file()
        text = fileio.dumps(cf)
        path = tmp_path / "out.json"
        path.write_bytes(text.replace("1", "2").encode() if held is None else held)
        fileio.save_file(path, cf)
        assert path.read_bytes() == text.encode()

    def test_only_a_regular_file_that_held_more_is_truncated(self, tmp_path, monkeypatch):
        cuts = []
        ftruncate = os.ftruncate

        def recording(fd, length):
            cuts.append(length)
            ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", recording)
        path = tmp_path / "out.txt"
        for held in ("", "a" * 5, "b" * 9):
            path.write_text(held)
            fileio.write_text(path, "abcde")
        fileio.write_text(os.devnull, "abcde")
        assert cuts == [5]
        assert path.read_text() == "abcde"

    def test_no_output_is_opened_with_o_trunc(self, tmp_path, monkeypatch):
        opened = []
        os_open = os.open

        def recording(path, flags, *args, **kwargs):
            opened.append(flags)
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        fileio.save_file(tmp_path / "out.json", torus_file())
        assert opened == [os.O_WRONLY | os.O_CREAT]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o000], ids=oct)
    def test_new_file_mode_matches_open_w(self, tmp_path, umask):
        before = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w", encoding="utf-8"):
                pass
            fileio.write_text(tmp_path / "new", "x")
        finally:
            os.umask(before)
        mode = stat.S_IMODE((tmp_path / "new").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "reference").stat().st_mode) == 0o666 & ~umask

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("#" * 10_000)
        link.symlink_to(target)
        fileio.save_file(link, torus_file())
        assert link.is_symlink()
        assert target.read_text() == fileio.dumps(torus_file())

    def test_hard_link_sees_the_new_bytes(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text("#" * 10_000)
        os.link(first, second)
        fileio.save_file(first, torus_file())
        assert second.read_text() == fileio.dumps(torus_file())

    def test_refused_document_leaves_the_file_as_it_was(self, tmp_path):
        cf = torus_file()
        values = cf.values
        bad = fileio.CoordinateFile(cf.decomposition, cf.system, fileio.GoldmanValues(
            values.curves, {**values.uv, "c1": (math.nan, 0.0)}, values.pants))
        path = tmp_path / "out.json"
        path.write_bytes(b"previous contents\n")
        with pytest.raises(DomainViolation):
            fileio.save_file(path, bad)
        assert path.read_bytes() == b"previous contents\n"
