"""Reading and writing the JSON coordinate-file format (schema version 1).

A file carries the decomposition combinatorics under ``surface`` and one
coordinate bundle under ``values``::

    {
      "schema_version": "1",
      "surface": {
        "pants": ["P0"],
        "gluings": [
          {"curve": "c0", "plus": ["P0", 0], "minus": ["P0", 1],
           "arc": {"left": 3, "right": 2}}
        ],
        "boundaries": [
          {"curve": "a0", "slot": ["P0", 2]}
        ]
      },
      "system": "goldman",
      "values": {
        "curves": {"c0": {"lambda": ..., "tau": ..., "u": ..., "v": ...},
                   "a0": {"lambda": ..., "tau": ...}},
        "pants": {"P0": {"s": ..., "t": ...}}
      }
    }

In a ``bd`` file each pants entry is {"sigma1": [..3..], "sigma2": [..3..],
"tau_plus": ..., "tau_minus": ...} and each internal curve entry is
{"sigma1_C": ..., "sigma2_C": ...}; boundary curves carry no entry.

Unknown fields are rejected, every referenced key must exist in ``surface``
and all numbers must be finite.  Numbers are written with Python's shortest
round-trip representation (at most 17 significant digits).  ``dumps`` writes
exactly what ``json.dumps(document, indent=2)`` writes, plus a newline.
Reading and writing take time linear in the number of pants.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

from .errors import DomainViolation, SchemaError, located
from .pants import FGPants
from .spectral import BoundaryInvariant
from .surface import (
    ArcData,
    BoundarySlot,
    Gluing,
    PantsDecomposition,
    SurfaceBD,
    SurfaceGoldman,
    build_decomposition,
)

SCHEMA_VERSION = "1"

GOLDMAN = "goldman"
BD = "bd"


# The fields of each object of the schema.
_FILE_FIELDS = frozenset(("schema_version", "surface", "system", "values"))
_SURFACE_FIELDS = frozenset(("pants", "gluings", "boundaries"))
_GLUING_FIELDS = frozenset(("curve", "plus", "minus", "arc"))
_ARC_FIELDS = frozenset(("left", "right"))
_BOUNDARY_FIELDS = frozenset(("curve", "slot"))
_VALUES_FIELDS = frozenset(("curves", "pants"))


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _expect_object(value, path: str, required: frozenset[str]) -> dict:
    if type(value) is dict and value.keys() == required:
        return value
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    unknown = set(value) - required
    if unknown:
        _fail(path, f"unknown fields {sorted(unknown)!r}")
    missing = required - set(value)
    if missing:
        _fail(path, f"missing fields {sorted(missing)!r}")
    return value


def _expect_number(value, path: str) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        _fail(path, "number is too large for a float")
    if number != number or number in (float("inf"), float("-inf")):
        _fail(path, "number must be finite")
    return number


def _expect_slot(value, path: str) -> tuple[str, int]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], str)
        or type(value[1]) is not int
        or value[1] not in (0, 1, 2)
    ):
        _fail(path, f"expected [pants, slot 0..2], got {value!r}")
    return (value[0], value[1])


@dataclass
class CoordinateFile:
    """Parsed coordinate file: combinatorics plus raw numeric values.

    Raw values are kept so that out-of-domain data can still be inspected
    and reported; ``goldman()`` / ``bd()`` build the typed bundles and raise
    the corresponding domain errors.
    """

    decomposition: PantsDecomposition
    system: str
    curve_values: dict[str, dict[str, float]]
    pants_values: dict[str, dict]

    def goldman(self) -> SurfaceGoldman:
        if self.system != GOLDMAN:
            raise SchemaError(f"file holds {self.system!r} values, not goldman")
        curves = {}
        for key, entry in self.curve_values.items():
            with located(f"values.curves[{key!r}]"):
                curves[key] = BoundaryInvariant(entry["lambda"], entry["tau"])
        uv = {
            key: (entry["u"], entry["v"])
            for key, entry in self.curve_values.items()
            if "u" in entry
        }
        pants = {key: (entry["s"], entry["t"]) for key, entry in self.pants_values.items()}
        return SurfaceGoldman(curves, uv, pants)

    def bd(self) -> SurfaceBD:
        if self.system != BD:
            raise SchemaError(f"file holds {self.system!r} values, not bd")
        pants = {
            key: FGPants(
                tuple(entry["sigma1"]),
                tuple(entry["sigma2"]),
                entry["tau_plus"],
                entry["tau_minus"],
            )
            for key, entry in self.pants_values.items()
        }
        shears = {
            key: (entry["sigma1_C"], entry["sigma2_C"])
            for key, entry in self.curve_values.items()
        }
        return SurfaceBD(pants, shears)


def _parse_surface(raw) -> PantsDecomposition:
    surface = _expect_object(raw, "surface", _SURFACE_FIELDS)
    pants = surface["pants"]
    if not isinstance(pants, list) or not all(isinstance(p, str) for p in pants):
        _fail("surface.pants", "expected a list of pants keys")
    gluings = []
    if not isinstance(surface["gluings"], list):
        _fail("surface.gluings", "expected a list")
    for k, item in enumerate(surface["gluings"]):
        path = f"surface.gluings[{k}]"
        entry = _expect_object(item, path, _GLUING_FIELDS)
        if not isinstance(entry["curve"], str):
            _fail(path, "curve key must be a string")
        arc_raw = _expect_object(entry["arc"], f"{path}.arc", _ARC_FIELDS)
        try:
            arc = ArcData(arc_raw["left"], arc_raw["right"])
        except ValueError as err:
            _fail(f"{path}.arc", str(err))
        gluings.append(
            Gluing(
                entry["curve"],
                _expect_slot(entry["plus"], f"{path}.plus"),
                _expect_slot(entry["minus"], f"{path}.minus"),
                arc,
            )
        )
    boundaries = []
    if not isinstance(surface["boundaries"], list):
        _fail("surface.boundaries", "expected a list")
    for k, item in enumerate(surface["boundaries"]):
        path = f"surface.boundaries[{k}]"
        entry = _expect_object(item, path, _BOUNDARY_FIELDS)
        if not isinstance(entry["curve"], str):
            _fail(path, "curve key must be a string")
        boundaries.append(BoundarySlot(entry["curve"], _expect_slot(entry["slot"], f"{path}.slot")))
    return build_decomposition(pants, gluings, boundaries)


def _parse_values(raw, system: str, d: PantsDecomposition):
    values = _expect_object(raw, "values", _VALUES_FIELDS)
    internal = set(d.internal_curves())
    all_curves = set(d.curve_names())
    pants_keys = set(d.pants)
    # the numbers of each entry, in the order they are written; a bd file
    # gives boundary curves none
    if system == GOLDMAN:
        internal_fields, boundary_fields = ("lambda", "tau", "u", "v"), ("lambda", "tau")
        pants_fields = ("s", "t")
    else:
        internal_fields, boundary_fields = ("sigma1_C", "sigma2_C"), ()
        pants_fields = ("sigma1", "sigma2", "tau_plus", "tau_minus")
    required = {fields: frozenset(fields) for fields in (internal_fields, boundary_fields, pants_fields)}

    curves_raw = values["curves"]
    if not isinstance(curves_raw, dict):
        _fail("values.curves", "expected an object keyed by curve")
    curve_values: dict[str, dict[str, float]] = {}
    for key, entry in curves_raw.items():
        path = f"values.curves[{key!r}]"
        if key not in all_curves:
            _fail(path, "curve does not exist in the surface")
        fields = internal_fields if key in internal else boundary_fields
        if not fields:
            _fail(path, "bd files carry values for internal curves only")
        entry = _expect_object(entry, path, required[fields])
        curve_values[key] = {name: _expect_number(entry[name], f"{path}.{name}") for name in fields}
    expected = all_curves if system == GOLDMAN else internal
    missing = expected - curve_values.keys()
    if missing:
        _fail("values.curves", f"missing entries for curves {sorted(missing)!r}")

    pants_raw = values["pants"]
    if not isinstance(pants_raw, dict):
        _fail("values.pants", "expected an object keyed by pants")
    pants_values: dict[str, dict] = {}
    for key, entry in pants_raw.items():
        path = f"values.pants[{key!r}]"
        if key not in pants_keys:
            _fail(path, "pants does not exist in the surface")
        entry = _expect_object(entry, path, required[pants_fields])
        parsed = {}
        for name in pants_fields:
            if name in ("sigma1", "sigma2"):
                seq = entry[name]
                if not isinstance(seq, list) or len(seq) != 3:
                    _fail(f"{path}.{name}", "expected a list of three numbers")
                parsed[name] = [_expect_number(v, f"{path}.{name}[{i}]") for i, v in enumerate(seq)]
            else:
                parsed[name] = _expect_number(entry[name], f"{path}.{name}")
        pants_values[key] = parsed
    missing = pants_keys - pants_values.keys()
    if missing:
        _fail("values.pants", f"missing entries for pants {sorted(missing)!r}")
    return curve_values, pants_values


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = sorted(key for key, n in counts.items() if n > 1)
        raise SchemaError(f"duplicate keys {repeated!r} in one object")
    return obj


def loads(text: str) -> CoordinateFile:
    def reject_constant(token):
        raise SchemaError(f"non-finite number {token!r} is not allowed")

    try:
        raw = json.loads(text, parse_constant=reject_constant, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as err:
        # JSONDecodeError, an integer literal beyond Python's digit limit, or too deep nesting
        raise SchemaError(f"invalid JSON: {err}") from err
    top = _expect_object(raw, "$", _FILE_FIELDS)
    if top["schema_version"] != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION!r}, got {top['schema_version']!r}")
    system = top["system"]
    if system not in (GOLDMAN, BD):
        _fail("system", f"expected 'goldman' or 'bd', got {system!r}")
    d = _parse_surface(top["surface"])
    curve_values, pants_values = _parse_values(top["values"], system, d)
    return CoordinateFile(d, system, curve_values, pants_values)


def load_file(path) -> CoordinateFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SchemaError(f"cannot read {path}: {err}") from err
    return loads(text)


def file_from_goldman(d: PantsDecomposition, g: SurfaceGoldman) -> CoordinateFile:
    curve_values = {}
    for key, inv in g.curves.items():
        entry = {"lambda": inv.lam, "tau": inv.tau}
        if key in g.uv:
            entry["u"], entry["v"] = g.uv[key]
        curve_values[key] = entry
    pants_values = {key: {"s": s, "t": t} for key, (s, t) in g.pants.items()}
    return CoordinateFile(d, GOLDMAN, curve_values, pants_values)


def file_from_bd(d: PantsDecomposition, b: SurfaceBD) -> CoordinateFile:
    curve_values = {
        key: {"sigma1_C": s1, "sigma2_C": s2} for key, (s1, s2) in b.curve_shears.items()
    }
    pants_values = {
        key: {
            "sigma1": list(f.sigma1),
            "sigma2": list(f.sigma2),
            "tau_plus": f.tau_plus,
            "tau_minus": f.tau_minus,
        }
        for key, f in b.pants.items()
    }
    return CoordinateFile(d, BD, curve_values, pants_values)


def _container(brackets: str, items: list[str], level: int) -> str:
    """Encoded items inside "[]" or "{}", laid out as json.dumps(indent=2) lays out that depth."""
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _number(value) -> str:
    # json.dumps's forms: float.__repr__ (numpy floats too) and int.__repr__
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def _slot(slot) -> str:
    return _container("[]", [_string(slot[0]), _number(slot[1])], 4)


def _surface_json(d: PantsDecomposition) -> str:
    gluings = [
        _container("{}", [
            f'"curve": {_string(g.curve)}',
            f'"plus": {_slot(g.plus)}',
            f'"minus": {_slot(g.minus)}',
            '"arc": ' + _container(
                "{}", [f'"left": {_number(g.arc.left)}', f'"right": {_number(g.arc.right)}'], 4
            ),
        ], 3)
        for g in d.gluings
    ]
    boundaries = [
        _container("{}", [f'"curve": {_string(b.curve)}', f'"slot": {_slot(b.slot)}'], 3)
        for b in d.boundaries
    ]
    return _container("{}", [
        '"pants": ' + _container("[]", [_string(p) for p in d.pants], 2),
        '"gluings": ' + _container("[]", gluings, 2),
        '"boundaries": ' + _container("[]", boundaries, 2),
    ], 1)


def _values_json(group: str, entries: dict[str, dict]) -> str:
    items = []
    for key, entry in entries.items():
        fields = []
        for name, value in entry.items():
            if isinstance(value, list):
                finite = all(map(math.isfinite, value))
                text = _container("[]", [_number(v) for v in value], 4)
            else:
                finite = math.isfinite(value)
                text = _number(value)
            if not finite:
                # a conversion or flow can carry a value past the float range; flow amounts may be nan
                raise DomainViolation(
                    f"values.{group}[{key!r}].{name}: {value!r} is not a finite number"
                )
            fields.append(f"{_string(name)}: {text}")
        items.append(f"{_string(key)}: {_container('{}', fields, 3)}")
    return _container("{}", items, 2)


def dumps(cf: CoordinateFile) -> str:
    """The file as json.dumps(document, indent=2, allow_nan=False) writes it, plus a newline."""
    return _container("{}", [
        f'"schema_version": {_string(SCHEMA_VERSION)}',
        '"surface": ' + _surface_json(cf.decomposition),
        f'"system": {_string(cf.system)}',
        '"values": ' + _container("{}", [
            '"curves": ' + _values_json("curves", cf.curve_values),
            '"pants": ' + _values_json("pants", cf.pants_values),
        ], 1),
    ], 0) + "\n"


def save_file(path, cf: CoordinateFile):
    text = dumps(cf)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
