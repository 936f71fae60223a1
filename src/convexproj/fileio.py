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
import os
import stat
from collections import Counter
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _string
from math import fsum, isfinite

from .errors import CoordinateError, DomainViolation, SchemaError, located
from .pants import FGPants
from .spectral import BoundaryInvariant, _Record
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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        _fail(path, "number is too large for a float")
    if not isfinite(number):
        _fail(path, "number must be finite")
    return number


def _expect_slot(value, path: str, k: int) -> tuple[str, int]:
    """``value`` as a slot; ``path % k`` is its JSON path, formatted only for a fault."""
    if (type(value) is not list or len(value) != 2 or type(value[0]) is not str
            or type(value[1]) is not int or not 0 <= value[1] <= 2):
        _fail(path % k, f"expected [pants, slot 0..2], got {value!r}")
    return (value[0], value[1])


# The numbers of an internal curve's, a boundary curve's and a pants' entry in
# each system, in the order they are read and written; a sigma field holds
# three, and a bd file gives boundary curves no entry.
_LAYOUTS = {
    GOLDMAN: (("lambda", "tau", "u", "v"), ("lambda", "tau"), ("s", "t")),
    BD: (("sigma1_C", "sigma2_C"), (), ("sigma1", "sigma2", "tau_plus", "tau_minus")),
}
_TRIPLES = frozenset(("sigma1", "sigma2"))


class GoldmanValues(_Record):
    """A goldman file's numbers: unchecked (lambda, tau), (u, v) and (s, t) pairs."""

    __slots__ = _fields = ("curves", "uv", "pants")

    def __init__(self, curves: dict[str, tuple[float, float]], uv: dict[str, tuple[float, float]],
                 pants: dict[str, tuple[float, float]]):
        self._store(curves, uv, pants)


class CoordinateFile(_Record):
    """Parsed coordinate file: the combinatorics plus its system's ``SurfaceBD`` or
    ``GoldmanValues``; ``goldman()`` checks each (lambda, tau) window."""

    __slots__ = _fields = ("decomposition", "system", "values")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, decomposition: PantsDecomposition, system: str,
                 values: GoldmanValues | SurfaceBD):
        self._store(decomposition, system, values)

    def goldman(self) -> SurfaceGoldman:
        if self.system != GOLDMAN:
            raise SchemaError(f"file holds {self.system!r} values, not goldman")
        values = self.values
        curves = {}
        for key, (lam, tau) in values.curves.items():
            with located(f"values.curves[{key!r}]"):
                curves[key] = BoundaryInvariant(lam, tau)
        return SurfaceGoldman(curves, values.uv, values.pants)

    def bd(self) -> SurfaceBD:
        if self.system != BD:
            raise SchemaError(f"file holds {self.system!r} values, not bd")
        return self.values


# Every gluing with the same arc indices shares one ArcData.
_ARCS = {(left, right): ArcData(left, right) for left in (1, 2, 3) for right in (1, 2, 3)}


# The parsers test each value's exact type inline: True and 1.0 equal 1 but are not
# slot or arc indices, and an int is a number that still has to become a float.  A
# value that fails goes to the _expect_* helper that reports it (or converts the
# int), so a JSON path is formatted only in that branch.
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
        if arc is None:  # ArcData words the fault
            try:
                ArcData(left, right)
            except ValueError as err:
                _fail(f"surface.gluings[{k}].arc", str(err))
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


def _pair(entry: dict, first: str, second: str, path: str, key: str) -> tuple[float, float]:
    """The entry's numbers ``first`` and ``second``, as finite floats; ``path % key``
    is the entry's JSON path, formatted only for a fault."""
    a, b = entry[first], entry[second]
    # two finite floats can overflow their sum, but the sum is finite only if both are
    if type(a) is float and type(b) is float and isfinite(a + b):
        return (a, b)
    path %= key
    return (_expect_number(a, f"{path}.{first}"), _expect_number(b, f"{path}.{second}"))


def _triple(entry: dict, name: str, key: str) -> tuple[float, float, float]:
    """The pants entry's list of three numbers named ``name``, as finite floats."""
    value = entry[name]
    if type(value) is list and len(value) == 3:
        a, b, c = value
        if type(a) is float and type(b) is float and type(c) is float and isfinite(a + b + c):
            return (a, b, c)
        return tuple(_expect_number(v, f"values.pants[{key!r}].{name}[{i}]")
                     for i, v in enumerate(value))
    _fail(f"values.pants[{key!r}].{name}", "expected a list of three numbers")


def _parse_values(raw, system: str, d: PantsDecomposition) -> GoldmanValues | SurfaceBD:
    values = _expect_object(raw, "values", _VALUES_FIELDS)
    internal = set(d.internal_curves())
    all_curves = set(d.curve_names())
    pants_keys = set(d.pants)
    internal_fields, boundary_fields, pants_fields = _LAYOUTS[system]
    required = {fields: frozenset(fields) for fields in _LAYOUTS[system]}

    curves_raw = values["curves"]
    if type(curves_raw) is not dict:
        _fail("values.curves", "expected an object keyed by curve")
    curves: dict[str, tuple[float, float]] = {}
    uv: dict[str, tuple[float, float]] = {}
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
        # every curve layout starts with a pair: (lambda, tau) or the shears
        curves[key] = _pair(entry, *fields[:2], "values.curves[%r]", key)
        if len(fields) == 4:
            uv[key] = _pair(entry, "u", "v", "values.curves[%r]", key)
    missing = (all_curves if system == GOLDMAN else internal) - curves.keys()
    if missing:
        _fail("values.curves", f"missing entries for curves {sorted(missing)!r}")

    pants_raw = values["pants"]
    if type(pants_raw) is not dict:
        _fail("values.pants", "expected an object keyed by pants")
    pants: dict = {}
    for key, entry in pants_raw.items():
        if key not in pants_keys:
            _fail(f"values.pants[{key!r}]", "pants does not exist in the surface")
        if type(entry) is not dict or entry.keys() != required[pants_fields]:
            _expect_object(entry, f"values.pants[{key!r}]", required[pants_fields])
        if system == GOLDMAN:
            pants[key] = _pair(entry, "s", "t", "values.pants[%r]", key)
        else:
            pants[key] = FGPants(_triple(entry, "sigma1", key), _triple(entry, "sigma2", key),
                                 *_pair(entry, "tau_plus", "tau_minus", "values.pants[%r]", key))
    missing = pants_keys - pants.keys()
    if missing:
        _fail("values.pants", f"missing entries for pants {sorted(missing)!r}")
    return GoldmanValues(curves, uv, pants) if system == GOLDMAN else SurfaceBD(pants, curves)


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = sorted(key for key, n in counts.items() if n > 1)
        raise SchemaError(f"duplicate keys {repeated!r} in one object")
    return obj


def _reject_constant(token):
    raise SchemaError(f"non-finite number {token!r} is not allowed")


# Built once: json.loads with hooks builds a new decoder and scanner per call.
_PLAIN = json.JSONDecoder(parse_constant=_reject_constant)
_CHECKED = json.JSONDecoder(parse_constant=_reject_constant, object_pairs_hook=_unique_keys)


def _decode(text: str, decoder: json.JSONDecoder) -> CoordinateFile:
    try:
        if text.startswith("\ufeff"):
            # json.loads's own refusal; decoder.decode would report "Expecting value"
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raw = decoder.decode(text)
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
    return CoordinateFile(d, system, _parse_values(top["values"], system, d))


def _members(cf: CoordinateFile) -> int:
    """How many name-value pairs the objects of the file's document hold."""
    d, (internal, boundary, pants) = cf.decomposition, _LAYOUTS[cf.system]
    # 9 in the top, surface and values objects, 6 per gluing, 2 per boundary, 1 per entry
    return (9 + (7 + len(internal)) * len(d.gluings) + (1 + len(pants)) * len(d.pants)
            + (2 + (1 + len(boundary) if boundary else 0)) * len(d.boundaries))


def loads(text: str) -> CoordinateFile:
    # The duplicate-key hook is a Python call per JSON object, so a text is first decoded
    # without it.  A colon outside a string ends a name: a file with as many colons as
    # members repeats no name.  Any other text decodes again with the hook, which
    # reports the first fault in document order.
    try:
        cf = _decode(text, _PLAIN)
        if text.count(":") == _members(cf):
            return cf
    except CoordinateError:
        pass
    return _decode(text, _CHECKED)


def load_file(path) -> CoordinateFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SchemaError(f"cannot read {path}: {err}") from err
    return loads(text)


def file_from_goldman(d: PantsDecomposition, g: SurfaceGoldman) -> CoordinateFile:
    curves = {key: (inv.lam, inv.tau) for key, inv in g.curves.items()}
    return CoordinateFile(d, GOLDMAN, GoldmanValues(curves, g.uv, g.pants))


def file_from_bd(d: PantsDecomposition, b: SurfaceBD) -> CoordinateFile:
    return CoordinateFile(d, BD, b)


def _put(parts: list[str], brackets: str, items: list[str], level: int):
    """Append the encoded ``items`` inside "[]" or "{}" to ``parts``, laid out as
    json.dumps(indent=2) lays out that depth."""
    if not items:
        parts.append(brackets)
        return
    inner = "\n" + "  " * (level + 1)
    parts.append(brackets[0] + inner)
    parts += chain.from_iterable(zip(items, repeat("," + inner)))
    parts[-1] = "\n" + "  " * level + brackets[1]  # in place of the last separator


def _container(brackets: str, items: list[str], level: int) -> str:
    """What ``_put`` appends, as one string."""
    parts = []
    _put(parts, brackets, items, level)
    return "".join(parts)


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


def _put_surface(parts: list[str], d: PantsDecomposition):
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
    parts.append('{\n    "pants": ')
    _put(parts, "[]", [_string(p) for p in d.pants], 2)
    parts.append(',\n    "gluings": ')
    _put(parts, "[]", gluings, 2)
    parts.append(',\n    "boundaries": ')
    _put(parts, "[]", boundaries, 2)
    parts.append("\n  }")


_TEMPLATES = {
    names: "%s: " + _container("{}", [
        _string(name) + ": " + (_TRIPLE if name in _TRIPLES else "%s") for name in names
    ], 3)
    for layouts in _LAYOUTS.values() for names in layouts if names
}


def _entry_json(group: str, key: str, names: tuple[str, ...], numbers) -> str:
    """One entry of ``values.<group>``: the numbers of the fields ``names``, in order."""
    try:
        # fsum is finite only if each number is; float.__repr__ refuses an int
        if isfinite(fsum(numbers)):
            return _TEMPLATES[names] % (_string(key), *map(float.__repr__, numbers))
    except (TypeError, ValueError, OverflowError):
        pass
    texts = []
    for name in names:
        field = numbers[len(texts):len(texts) + (3 if name in _TRIPLES else 1)]
        if not all(isfinite(v) for v in field if isinstance(v, float)):
            # conversions and flows can leave the float range; flow amounts may be nan
            bad = list(field) if name in _TRIPLES else field[0]
            raise DomainViolation(f"values.{group}[{key!r}].{name}: {bad!r} is not a finite number")
        texts += map(_number, field)
    return _TEMPLATES[names] % (_string(key), *texts)


def _put_values(parts: list[str], cf: CoordinateFile):
    values = cf.values
    internal, boundary, fields = _LAYOUTS[cf.system]
    if cf.system == GOLDMAN:
        curves = [_entry_json("curves", key, internal, (*pair, *values.uv[key]))
                  if key in values.uv else _entry_json("curves", key, boundary, pair)
                  for key, pair in values.curves.items()]
        pants = [_entry_json("pants", key, fields, st) for key, st in values.pants.items()]
    else:
        curves = [_entry_json("curves", key, internal, shears)
                  for key, shears in values.curve_shears.items()]
        pants = [_entry_json("pants", key, fields, (*f.sigma1, *f.sigma2, f.tau_plus, f.tau_minus))
                 for key, f in values.pants.items()]
    parts.append('{\n    "curves": ')
    _put(parts, "{}", curves, 2)
    parts.append(',\n    "pants": ')
    _put(parts, "{}", pants, 2)
    parts.append("\n  }")


def dumps(cf: CoordinateFile) -> str:
    """The file as json.dumps(document, indent=2, allow_nan=False) writes it, plus a newline."""
    # every entry goes into one list of pieces, joined once
    parts = ['{\n  "schema_version": ', _string(SCHEMA_VERSION), ',\n  "surface": ']
    _put_surface(parts, cf.decomposition)
    parts += (',\n  "system": ', _string(cf.system), ',\n  "values": ')
    _put_values(parts, cf)
    parts.append("\n}\n")
    return "".join(parts)


def write_text(path, text: str):
    """Write ``text`` to ``path`` as UTF-8 in place of what the file held.

    The file is opened without truncating it: a regular file that held more
    bytes is cut to the new length once the text is written, and a device or
    pipe only receives the text.  A new file gets mode 0o666 less the umask.
    Nothing is synced to disk.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as handle:
        held = os.fstat(fd)
        handle.write(text)
        if stat.S_ISREG(held.st_mode):
            written = handle.tell()  # flushes the text first
            if held.st_size > written:
                os.ftruncate(fd, written)


def save_file(path, cf: CoordinateFile):
    # the document is complete before the file is opened: a refused value leaves it as it was
    write_text(path, dumps(cf))
