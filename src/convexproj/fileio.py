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
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from math import isfinite

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
    if type(value) is float and isfinite(value):
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


def _expect_slot(value, path: str, k: int) -> tuple[str, int]:
    """``value`` as a slot; ``path % k`` is its JSON path, formatted only for a fault."""
    if (type(value) is not list or len(value) != 2 or type(value[0]) is not str
            or type(value[1]) is not int or not 0 <= value[1] <= 2):
        _fail(path % k, f"expected [pants, slot 0..2], got {value!r}")
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


def _expect_arc(left, right, path: str) -> ArcData:
    try:
        return ArcData(left, right)
    except ValueError as err:
        _fail(path, str(err))


def _is_float_triple(value) -> bool:
    """Whether ``value`` is a list of three finite floats of exact type."""
    return (type(value) is list and len(value) == 3
            and type(value[0]) is float and type(value[1]) is float and type(value[2]) is float
            and isfinite(value[0]) and isfinite(value[1]) and isfinite(value[2]))


def _expect_triple(seq, path: str) -> list[float]:
    if not isinstance(seq, list) or len(seq) != 3:
        _fail(path, "expected a list of three numbers")
    return [_expect_number(v, f"{path}[{i}]") for i, v in enumerate(seq)]


# Every gluing with the same arc indices shares one ArcData.
_ARCS = {(left, right): ArcData(left, right) for left in (1, 2, 3) for right in (1, 2, 3)}


# The parsers test each value's exact type inline (slots in _expect_slot): True
# and 1.0 equal 1 but are not slot or arc indices, and an int is a number that
# still has to become a float.  A value that fails its test goes to the _expect_*
# helper that reports it (or converts the int), so a JSON path is formatted only
# in that branch.
def _parse_surface(raw) -> PantsDecomposition:
    surface = _expect_object(raw, "surface", _SURFACE_FIELDS)
    pants = surface["pants"]
    if type(pants) is not list or not all(type(p) is str for p in pants):
        _fail("surface.pants", "expected a list of pants keys")
    gluings = []
    if type(surface["gluings"]) is not list:
        _fail("surface.gluings", "expected a list")
    for k, entry in enumerate(surface["gluings"]):
        if type(entry) is not dict or entry.keys() != _GLUING_FIELDS:
            _expect_object(entry, f"surface.gluings[{k}]", _GLUING_FIELDS)
        curve, plus, minus, arc = entry["curve"], entry["plus"], entry["minus"], entry["arc"]
        if type(curve) is not str:
            _fail(f"surface.gluings[{k}]", "curve key must be a string")
        if type(arc) is not dict or arc.keys() != _ARC_FIELDS:
            _expect_object(arc, f"surface.gluings[{k}].arc", _ARC_FIELDS)
        left, right = arc["left"], arc["right"]
        arc = _ARCS.get((left, right)) if type(left) is int and type(right) is int else None
        if arc is None:
            arc = _expect_arc(left, right, f"surface.gluings[{k}].arc")
        plus = _expect_slot(plus, "surface.gluings[%d].plus", k)
        minus = _expect_slot(minus, "surface.gluings[%d].minus", k)
        gluings.append(Gluing(curve, plus, minus, arc))
    boundaries = []
    if type(surface["boundaries"]) is not list:
        _fail("surface.boundaries", "expected a list")
    for k, entry in enumerate(surface["boundaries"]):
        if type(entry) is not dict or entry.keys() != _BOUNDARY_FIELDS:
            _expect_object(entry, f"surface.boundaries[{k}]", _BOUNDARY_FIELDS)
        curve, slot = entry["curve"], entry["slot"]
        if type(curve) is not str:
            _fail(f"surface.boundaries[{k}]", "curve key must be a string")
        boundaries.append(BoundarySlot(curve, _expect_slot(slot, "surface.boundaries[%d].slot", k)))
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
    if type(curves_raw) is not dict:
        _fail("values.curves", "expected an object keyed by curve")
    curve_values: dict[str, dict[str, float]] = {}
    for key, entry in curves_raw.items():
        if key in internal:
            fields = internal_fields
        elif key not in all_curves:
            _fail(f"values.curves[{key!r}]", "curve does not exist in the surface")
        elif boundary_fields:
            fields = boundary_fields
        else:
            _fail(f"values.curves[{key!r}]", "bd files carry values for internal curves only")
        if type(entry) is not dict or entry.keys() != required[fields]:
            _expect_object(entry, f"values.curves[{key!r}]", required[fields])
        parsed = curve_values[key] = {}
        for name in fields:
            number = entry[name]
            if type(number) is not float or not isfinite(number):
                number = _expect_number(number, f"values.curves[{key!r}].{name}")
            parsed[name] = number
    expected = all_curves if system == GOLDMAN else internal
    missing = expected - curve_values.keys()
    if missing:
        _fail("values.curves", f"missing entries for curves {sorted(missing)!r}")

    pants_raw = values["pants"]
    if type(pants_raw) is not dict:
        _fail("values.pants", "expected an object keyed by pants")
    pants_values: dict[str, dict] = {}
    for key, entry in pants_raw.items():
        if key not in pants_keys:
            _fail(f"values.pants[{key!r}]", "pants does not exist in the surface")
        if type(entry) is not dict or entry.keys() != required[pants_fields]:
            _expect_object(entry, f"values.pants[{key!r}]", required[pants_fields])
        parsed = pants_values[key] = {}
        for name in pants_fields:
            value = entry[name]
            if name in ("sigma1", "sigma2"):
                if not _is_float_triple(value):
                    value = _expect_triple(value, f"values.pants[{key!r}].{name}")
            elif type(value) is not float or not isfinite(value):
                value = _expect_number(value, f"values.pants[{key!r}].{name}")
            parsed[name] = value
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


# One %-template per entry layout, laid out by _container.  Keys and numbers
# are encoded before they are put in; arc indices are ints by ArcData's check.
_SLOT = _container("[]", ["%s", "%s"], 4)
_GLUING = _container("{}", [
    '"curve": %s', '"plus": ' + _SLOT, '"minus": ' + _SLOT,
    '"arc": ' + _container("{}", ['"left": %d', '"right": %d'], 4),
], 3)
_BOUNDARY = _container("{}", ['"curve": %s', '"slot": ' + _SLOT], 3)
_TRIPLE = _container("[]", ["%s", "%s", "%s"], 4)


def _surface_json(d: PantsDecomposition) -> str:
    gluings = []
    for g in d.gluings:
        plus, minus = g.plus, g.minus
        gluings.append(_GLUING % (
            _string(g.curve),
            _string(plus[0]), _number(plus[1]),
            _string(minus[0]), _number(minus[1]),
            g.arc.left, g.arc.right,
        ))
    boundaries = [
        _BOUNDARY % (_string(b.curve), _string(b.slot[0]), _number(b.slot[1])) for b in d.boundaries
    ]
    return _container("{}", [
        '"pants": ' + _container("[]", [_string(p) for p in d.pants], 2),
        '"gluings": ' + _container("[]", gluings, 2),
        '"boundaries": ' + _container("[]", boundaries, 2),
    ], 1)


def _value_json(group: str, key: str, name: str, value) -> str:
    """A value that is neither an exact finite float nor a list of three: ints,
    numpy floats, other lists, and the non-finite values it refuses."""
    if isinstance(value, list):
        finite = all(map(isfinite, value))
        text = _container("[]", [_number(v) for v in value], 4)
    else:
        finite = isfinite(value)
        text = _number(value)
    if not finite:
        # a conversion or flow can carry a value past the float range; flow amounts may be nan
        raise DomainViolation(f"values.{group}[{key!r}].{name}: {value!r} is not a finite number")
    return text


def _values_json(group: str, entries: dict[str, dict]) -> str:
    templates: dict[tuple[str, ...], str] = {}
    items = []
    for key, entry in entries.items():
        texts = []
        for name, value in entry.items():
            if type(value) is float and isfinite(value):
                texts.append(float.__repr__(value))
            elif _is_float_triple(value):
                texts.append(_TRIPLE % (float.__repr__(value[0]), float.__repr__(value[1]),
                                        float.__repr__(value[2])))
            else:
                texts.append(_value_json(group, key, name, value))
        names = tuple(entry)
        template = templates.get(names)
        if template is None:
            fields = [_string(name).replace("%", "%%") + ": %s" for name in names]
            template = templates[names] = "%s: " + _container("{}", fields, 3)
        items.append(template % (_string(key), *texts))
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
