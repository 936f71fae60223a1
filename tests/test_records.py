"""What the records a caller builds and the class checks promise: keyword
construction, value equality and hash, a field-by-field repr, refused
assignment, and pickle and copy round trips."""

import copy
import pickle

import numpy as np
import pytest

from convexproj.fileio import CoordinateFile, GoldmanValues
from convexproj.flags import Flag, PantsFlagConfig
from convexproj.pants import FGPants, GoldmanPants
from convexproj.sampling import (
    random_boundary_invariant,
    random_fg_pants,
    random_goldman_pants,
    random_surface_goldman,
)
from convexproj.spectral import BoundaryInvariant
from convexproj.surface import (
    ArcData,
    BoundarySlot,
    Gluing,
    PantsDecomposition,
    SurfaceBD,
    SurfaceGoldman,
    build_decomposition,
)

INVARIANT = BoundaryInvariant(0.25, 5.0)
FG = FGPants((-1.0, -1.0, -1.0), (-1.0, -1.0, -1.0), 0.0, 0.0)
TORUS = build_decomposition(["P0"], [Gluing("c1", ("P0", 0), ("P0", 1), ArcData(2, 3))],
                            [BoundarySlot("a1", ("P0", 2))])
GOLDMAN_VALUES = GoldmanValues({"c1": (0.25, 5.0)}, {"c1": (0.5, -0.5)}, {"P0": (1.0, 2.0)})

# name: (class, positional arguments, keyword arguments, repr)
RECORDS = {
    "BoundaryInvariant": (BoundaryInvariant, (0.25, 5.0), {"lam": 0.25, "tau": 5.0},
                          "BoundaryInvariant(lam=0.25, tau=5.0)"),
    "GoldmanPants": (
        GoldmanPants, ((INVARIANT,) * 3, 1.5, 2.0),
        {"boundary": (INVARIANT,) * 3, "s": 1.5, "t": 2.0},
        "GoldmanPants(boundary=(BoundaryInvariant(lam=0.25, tau=5.0), BoundaryInvariant(lam=0.25, "
        "tau=5.0), BoundaryInvariant(lam=0.25, tau=5.0)), s=1.5, t=2.0)"),
    "FGPants": (
        FGPants, ((-1.0, -1.0, -1.0), (-2.0, -1.0, -1.0), 0.5, 0.0),
        {"sigma1": (-1.0, -1.0, -1.0), "sigma2": (-2.0, -1.0, -1.0), "tau_plus": 0.5,
         "tau_minus": 0.0},
        "FGPants(sigma1=(-1.0, -1.0, -1.0), sigma2=(-2.0, -1.0, -1.0), tau_plus=0.5, "
        "tau_minus=0.0)"),
    "Flag": (Flag, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
             {"point": (1.0, 0.0, 0.0), "line": (0.0, 1.0, 0.0)},
             "Flag(point=(1.0, 0.0, 0.0), line=(0.0, 1.0, 0.0))"),
    "PantsFlagConfig": (
        PantsFlagConfig, (1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0),
        {"x": 1.0, "a2": 2.0, "a3": 2.0, "b1": 2.0, "b3": 2.0, "c1": 2.0, "c2": 3.0},
        "PantsFlagConfig(x=1.0, a2=2.0, a3=2.0, b1=2.0, b3=2.0, c1=2.0, c2=3.0)"),
    "ArcData": (ArcData, (2, 3), {"left": 2, "right": 3}, "ArcData(left=2, right=3)"),
    "Gluing": (Gluing, ("c1", ("P0", 0), ("P0", 1), ArcData(2, 3)),
               {"curve": "c1", "plus": ("P0", 0), "minus": ("P0", 1), "arc": ArcData(2, 3)},
               "Gluing(curve='c1', plus=('P0', 0), minus=('P0', 1), arc=ArcData(left=2, right=3))"),
    "BoundarySlot": (BoundarySlot, ("a1", ("P0", 2)), {"curve": "a1", "slot": ("P0", 2)},
                     "BoundarySlot(curve='a1', slot=('P0', 2))"),
    "PantsDecomposition": (
        PantsDecomposition,
        (TORUS.pants, TORUS.gluings, TORUS.boundaries, 1, 1, TORUS.slots),
        {"pants": TORUS.pants, "gluings": TORUS.gluings, "boundaries": TORUS.boundaries,
         "genus": 1, "boundary_count": 1, "slots": TORUS.slots},
        "PantsDecomposition(pants=('P0',), gluings=(Gluing(curve='c1', plus=('P0', 0), "
        "minus=('P0', 1), arc=ArcData(left=2, right=3)),), boundaries=(BoundarySlot(curve='a1', "
        "slot=('P0', 2)),), genus=1, boundary_count=1)"),
    "SurfaceGoldman": (
        SurfaceGoldman, ({"c1": INVARIANT}, {"c1": (0.5, -0.5)}, {"P0": (1.0, 2.0)}),
        {"curves": {"c1": INVARIANT}, "uv": {"c1": (0.5, -0.5)}, "pants": {"P0": (1.0, 2.0)}},
        "SurfaceGoldman(curves={'c1': BoundaryInvariant(lam=0.25, tau=5.0)}, "
        "uv={'c1': (0.5, -0.5)}, pants={'P0': (1.0, 2.0)})"),
    "SurfaceBD": (
        SurfaceBD, ({"P0": FG}, {"c1": (0.5, -0.5)}),
        {"pants": {"P0": FG}, "curve_shears": {"c1": (0.5, -0.5)}},
        "SurfaceBD(pants={'P0': FGPants(sigma1=(-1.0, -1.0, -1.0), sigma2=(-1.0, -1.0, -1.0), "
        "tau_plus=0.0, tau_minus=0.0)}, curve_shears={'c1': (0.5, -0.5)})"),
    "GoldmanValues": (
        GoldmanValues, ({"c1": (0.25, 5.0)}, {"c1": (0.5, -0.5)}, {"P0": (1.0, 2.0)}),
        {"curves": {"c1": (0.25, 5.0)}, "uv": {"c1": (0.5, -0.5)}, "pants": {"P0": (1.0, 2.0)}},
        "GoldmanValues(curves={'c1': (0.25, 5.0)}, uv={'c1': (0.5, -0.5)}, "
        "pants={'P0': (1.0, 2.0)})"),
    "CoordinateFile": (
        CoordinateFile, (TORUS, "goldman", GOLDMAN_VALUES),
        {"decomposition": TORUS, "system": "goldman", "values": GOLDMAN_VALUES},
        "CoordinateFile(decomposition=PantsDecomposition(pants=('P0',), gluings=(Gluing("
        "curve='c1', plus=('P0', 0), minus=('P0', 1), arc=ArcData(left=2, right=3)),), "
        "boundaries=(BoundarySlot(curve='a1', slot=('P0', 2)),), genus=1, boundary_count=1), "
        "system='goldman', values=GoldmanValues(curves={'c1': (0.25, 5.0)}, uv={'c1': (0.5, "
        "-0.5)}, pants={'P0': (1.0, 2.0)}))"),
}
# The records that hold a dict, so that hashing one raises TypeError.
HOLDS_A_DICT = {"SurfaceGoldman", "SurfaceBD", "GoldmanValues"}


def build(name, keywords=False):
    cls, args, kwargs, _ = RECORDS[name]
    return cls(**kwargs) if keywords else cls(*args)


def fields(name):
    """The record's field values, in order, as its positional arguments give them
    (a PantsDecomposition's slots are no field)."""
    args = RECORDS[name][1]
    return args[:5] if name == "PantsDecomposition" else args


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_each_field(name):
    assert repr(build(name)) == RECORDS[name][3]
    assert repr(build(name, keywords=True)) == RECORDS[name][3]


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"Flag"}))
def test_equal_and_hashed_by_value(name):
    record, twin = build(name), build(name, keywords=True)
    assert record is not twin and record == twin and not record != twin
    assert record.__eq__(fields(name)) is NotImplemented
    assert record != fields(name)
    if name == "CoordinateFile":
        assert CoordinateFile.__hash__ is None
    elif name in HOLDS_A_DICT:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(fields(name))


def test_a_field_that_differs_breaks_equality():
    assert BoundaryInvariant(0.25, 5.0) != BoundaryInvariant(0.25, 6.0)
    assert ArcData(2, 3) != ArcData(3, 2)
    assert build("Gluing") != Gluing("c1", ("P0", 0), ("P0", 1))
    assert GoldmanValues({}, {}, {}) != GoldmanValues({}, {}, {"P0": (1.0, 2.0)})


def test_flag_is_equal_only_to_itself():
    flag, twin = build("Flag"), build("Flag", keywords=True)
    assert flag == flag and flag != twin
    assert hash(flag) == object.__hash__(flag)
    assert len({flag, twin}) == 2


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"CoordinateFile"}))
def test_assignment_is_refused(name):
    record = build(name)
    before = repr(record)
    field = next(iter(RECORDS[name][2]))
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1.0
    assert repr(record) == before


def test_coordinate_file_is_assignable():
    cf = build("CoordinateFile")
    cf.system = "bd"
    assert cf.system == "bd" and cf != build("CoordinateFile")


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_copy_keep_the_record(name):
    record = build(name)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(twin) is type(record) and repr(twin) == repr(record)
        if name != "Flag":
            assert twin == record
    if name == "PantsDecomposition":
        assert pickle.loads(pickle.dumps(record)).slots == record.slots


def test_gluing_defaults_to_one_shared_arc():
    plain = Gluing("c1", ("P0", 0), ("P0", 1))
    assert plain.arc == ArcData(1, 1)
    assert plain.arc is Gluing("c2", ("P0", 1), ("P0", 2)).arc


def test_decomposition_ignores_its_slots():
    # derived, so it takes no part in equality, hash or repr
    d = TORUS
    bare = PantsDecomposition(d.pants, d.gluings, d.boundaries, d.genus, d.boundary_count, {})
    assert bare == d and hash(bare) == hash(d)
    assert "slots" not in repr(d)


def test_configuration_compares_its_seven_values_only():
    # inner_flags holds new Flags on every build, each equal only to itself
    config, twin = build("PantsFlagConfig"), build("PantsFlagConfig", keywords=True)
    assert config.inner_flags[1] != twin.inner_flags[1]
    assert config == twin and hash(config) == hash(twin)
    assert config.meets == twin.meets and config.outer_points == twin.outer_points


def test_samplers_return_floats():
    # a numpy scalar in a record would word a refusal as np.float64(...)
    rng = np.random.default_rng(2016)
    for _ in range(20):
        b = random_boundary_invariant(rng)
        g = random_goldman_pants(rng)
        f = random_fg_pants(rng)
        surface = random_surface_goldman(TORUS, rng)
        values = [b.lam, b.tau, g.s, g.t, *f.sigma1, *f.sigma2, f.tau_plus, f.tau_minus]
        values += [x for c in g.boundary for x in (c.lam, c.tau)]
        values += [x for c in surface.curves.values() for x in (c.lam, c.tau)]
        values += [x for pair in (*surface.uv.values(), *surface.pants.values()) for x in pair]
        assert {type(x) for x in values} == {float}
