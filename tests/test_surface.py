import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexproj.surface as surface
from convexproj.errors import (
    BoundaryCurve,
    ClosureViolation,
    CountMismatch,
    NonNegativeEuler,
    SlotReuse,
    UnknownCurve,
    WindowViolation,
)
from convexproj.pants import FGPants, boundary_lengths
from convexproj.sampling import random_surface_goldman
from convexproj.spectral import BoundaryInvariant
from convexproj.surface import (
    ArcData,
    BoundarySlot,
    Gluing,
    PantsDecomposition,
    SurfaceBD,
    SurfaceGoldman,
    bd_to_goldman,
    build_decomposition,
    bulge_flow,
    coordinate_count,
    goldman_to_bd,
    twist_flow,
    validate_closure,
)

SQ5 = math.sqrt(5.0)


def pants_surface():
    return build_decomposition(
        ["P0"],
        [],
        [BoundarySlot(f"a{k}", ("P0", k)) for k in range(3)],
    )


def torus_surface():
    return build_decomposition(
        ["P0"],
        [Gluing("c1", ("P0", 0), ("P0", 1), ArcData(2, 3))],
        [BoundarySlot("a1", ("P0", 2))],
    )


def genus2_surface():
    return build_decomposition(
        ["P0", "P1"],
        [Gluing(f"c{k}", ("P0", k), ("P1", k), ArcData(1, 2)) for k in range(3)],
        [],
    )


def four_holed_sphere():
    return build_decomposition(
        ["P0", "P1"],
        [Gluing("c1", ("P0", 0), ("P1", 0), ArcData(2, 2))],
        [
            BoundarySlot("a1", ("P0", 1)),
            BoundarySlot("a2", ("P0", 2)),
            BoundarySlot("a3", ("P1", 1)),
            BoundarySlot("a4", ("P1", 2)),
        ],
    )


def two_holed_torus():
    return build_decomposition(
        ["P0", "P1"],
        [
            Gluing("c1", ("P0", 0), ("P1", 0), ArcData(2, 3)),
            Gluing("c2", ("P0", 1), ("P1", 1), ArcData(3, 2)),
        ],
        [BoundarySlot("a1", ("P0", 2)), BoundarySlot("a2", ("P1", 2))],
    )


def ring_chain(genus):
    """Closed genus-g surface: 2g-2 pants in a cycle, slot 1 of each glued to
    slot 0 of the next, and slot 2 of P_2k glued to slot 2 of P_2k+1."""
    n = 2 * genus - 2
    pants = [f"P{i}" for i in range(n)]
    gluings = [Gluing(f"r{i}", (pants[i], 1), (pants[(i + 1) % n], 0)) for i in range(n)]
    gluings += [Gluing(f"s{k}", (pants[2 * k], 2), (pants[2 * k + 1], 2)) for k in range(genus - 1)]
    return build_decomposition(pants, gluings, [])


ALL_SURFACES = [pants_surface, torus_surface, genus2_surface, four_holed_sphere, two_holed_torus]


class SlotTuple(tuple):
    """A tuple subclass: it claims the (pants key, index) pair it equals."""


# valid, equal-but-not-int, out-of-range and unhashable indices, on known and unknown pants
SLOT_PAIRS = st.tuples(st.sampled_from(["P0", "P1", "Q9"]),
                       st.sampled_from([0, 1, 2, 1.0, True, 3, -1, [1]]))
ANY_SLOT = st.one_of(SLOT_PAIRS, SLOT_PAIRS.map(list), SLOT_PAIRS.map(SlotTuple),
                     st.text(max_size=3), st.integers(), st.none())


@st.composite
def decomposition_inputs(draw):
    """(pants, gluings, boundaries): every slot of the pants once, in a drawn
    order, with some slots replaced and some appended from ANY_SLOT, and
    sometimes a list as a pants key or a curve key."""
    keys = [["P0"], ["P0", "P1"], [["P0"]], ["P0", ["P1"]]]
    pants = draw(st.sampled_from(keys)) if draw(st.integers(0, 7)) else []
    slots = draw(st.permutations([(p, k) for p in pants for k in range(3)]))
    slots = [draw(ANY_SLOT) if draw(st.integers(0, 3)) == 0 else slot for slot in slots]
    slots += draw(st.lists(ANY_SLOT, max_size=2))
    glued = draw(st.integers(0, len(slots) // 2))
    names = draw(st.lists(st.text(min_size=1, max_size=3), unique=True,
                          min_size=len(slots) - glued, max_size=len(slots) - glued))
    names = [[name] if draw(st.integers(0, 7)) == 0 else name for name in names]
    gluings = [Gluing(name, slots[2 * i], slots[2 * i + 1]) for i, name in enumerate(names[:glued])]
    boundaries = [BoundarySlot(name, slot) for name, slot in zip(names[glued:], slots[2 * glued:])]
    return pants, gluings, boundaries


class TestBuildDecomposition:
    @pytest.mark.parametrize(
        "factory, genus, n",
        [
            (pants_surface, 0, 3),
            (torus_surface, 1, 1),
            (genus2_surface, 2, 0),
            (four_holed_sphere, 0, 4),
            (two_holed_torus, 1, 2),
        ],
    )
    def test_derived_type(self, factory, genus, n):
        d = factory()
        assert (d.genus, d.boundary_count) == (genus, n)
        assert d.euler_characteristic == -len(d.pants)
        assert len(d.gluings) == 3 * genus + n - 3
        assert len(d.pants) == 2 * genus + n - 2

    def test_slot_reuse_rejected(self):
        with pytest.raises(SlotReuse):
            build_decomposition(
                ["P0"],
                [Gluing("c1", ("P0", 0), ("P0", 0), ArcData(1, 1))],
                [BoundarySlot("a1", ("P0", 1)), BoundarySlot("a2", ("P0", 2))],
            )
        with pytest.raises(SlotReuse):
            build_decomposition(
                ["P0"],
                [Gluing("c1", ("P0", 0), ("P0", 1), ArcData(1, 1))],
                [BoundarySlot("a1", ("P0", 0)), BoundarySlot("a2", ("P0", 2))],
            )

    def test_unused_slot_rejected(self):
        with pytest.raises(CountMismatch):
            build_decomposition(
                ["P0"],
                [],
                [BoundarySlot("a1", ("P0", 0)), BoundarySlot("a2", ("P0", 1))],
            )

    def test_unknown_slot_rejected(self):
        with pytest.raises(CountMismatch):
            build_decomposition(
                ["P0"],
                [],
                [
                    BoundarySlot("a1", ("P0", 0)),
                    BoundarySlot("a2", ("P0", 1)),
                    BoundarySlot("a3", ("P9", 2)),
                ],
            )

    def test_duplicate_curve_names_rejected(self):
        with pytest.raises(CountMismatch):
            build_decomposition(
                ["P0"],
                [],
                [
                    BoundarySlot("a1", ("P0", 0)),
                    BoundarySlot("a1", ("P0", 1)),
                    BoundarySlot("a3", ("P0", 2)),
                ],
            )

    def test_unhashable_pants_key_rejected(self):
        with pytest.raises(CountMismatch, match=r"^pants key \['P0'\] is not hashable$"):
            build_decomposition([["P0"]], [], [])

    def test_unhashable_curve_key_rejected(self):
        with pytest.raises(CountMismatch, match=r"^curve key \['c'\] is not hashable$"):
            build_decomposition(["P0"], [Gluing(["c"], ("P0", 0), ("P0", 1))],
                                [BoundarySlot("a1", ("P0", 2))])

    def test_empty_rejected(self):
        with pytest.raises(NonNegativeEuler):
            build_decomposition([], [], [])

    def test_disjoint_pants_rejected(self):
        with pytest.raises(CountMismatch, match=r"not connected.* to pants \['Q0'\]"):
            build_decomposition(
                ["P0", "Q0"],
                [],
                [BoundarySlot(f"{p}a{k}", (p, k)) for p in ("P0", "Q0") for k in range(3)],
            )

    def test_disjoint_closed_surfaces_rejected(self):
        # two genus-2 surfaces would otherwise pass as one surface of genus 3
        gluings = [
            Gluing(f"{p}c{k}", (f"{p}0", k), (f"{p}1", k), ArcData(1, 2))
            for p in ("P", "Q") for k in range(3)
        ]
        with pytest.raises(CountMismatch, match=r"to pants \['Q0', 'Q1'\]"):
            build_decomposition(["P0", "P1", "Q0", "Q1"], gluings, [])

    def test_slots_record_curve_and_role(self):
        d = torus_surface()
        assert list(d.slots.items()) == [
            (("P0", 0), ("c1", "plus")),
            (("P0", 1), ("c1", "minus")),
            (("P0", 2), ("a1", "boundary")),
        ]
        assert d.slot_assignment("P0") == [("c1", "plus"), ("c1", "minus"), ("a1", "boundary")]
        # derived, so it takes no part in equality or repr
        assert PantsDecomposition(d.pants, d.gluings, d.boundaries, d.genus, d.boundary_count,
                                  {}) == d
        assert "slots" not in repr(d)

    @given(decomposition_inputs())
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def test_any_slot_is_claimed_or_refused_with_a_coordinate_error(self, case):
        pants, gluings, boundaries = case
        try:
            d = build_decomposition(pants, gluings, boundaries)
        except (CountMismatch, SlotReuse, NonNegativeEuler):
            return
        claims = [s for g in gluings for s in (g.plus, g.minus)] + [b.slot for b in boundaries]
        assert list(d.slots) == claims

    def test_arc_range(self):
        with pytest.raises(ValueError):
            ArcData(0, 1)
        with pytest.raises(ValueError):
            ArcData(True, 1)
        with pytest.raises(ValueError):
            ArcData(1, 2.0)


def surface_goldman(d, rng):
    return random_surface_goldman(d, rng)


def assert_goldman_close(a: SurfaceGoldman, b: SurfaceGoldman, rel=1e-10):
    assert set(a.curves) == set(b.curves)
    for key in a.curves:
        assert b.curves[key].lam == pytest.approx(a.curves[key].lam, rel=rel)
        assert b.curves[key].tau == pytest.approx(a.curves[key].tau, rel=rel)
    for key in a.uv:
        assert b.uv[key] == pytest.approx(a.uv[key], rel=rel, abs=1e-12)
    for key in a.pants:
        assert b.pants[key] == pytest.approx(a.pants[key], rel=rel)


class TestConversions:
    def test_torus_spot_example(self):
        d = torus_surface()
        inv = BoundaryInvariant(0.2, 6.0)
        g = SurfaceGoldman(
            {"c1": inv, "a1": inv}, {"c1": (0.0, 0.0)}, {"P0": (1.0, 5.0 + SQ5)}
        )
        b = goldman_to_bd(d, g)
        sigma = 0.5 * math.log(0.2)
        f = b.pants["P0"]
        # the spectrum {0.2, 1, 5} is inversion symmetric, so the reversed
        # minus-slot invariant is identical and the pants stays symmetric
        assert f.sigma1 == pytest.approx((sigma,) * 3, rel=1e-12)
        assert f.sigma2 == pytest.approx((sigma,) * 3, rel=1e-12)
        assert b.curve_shears["c1"] == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_uv_gauge(self):
        d = torus_surface()
        inv = BoundaryInvariant(0.2, 6.0)
        g = SurfaceGoldman(
            {"c1": inv, "a1": inv}, {"c1": (1.0, 0.1)}, {"P0": (1.0, 5.0 + SQ5)}
        )
        b = goldman_to_bd(d, g)
        assert b.curve_shears["c1"] == pytest.approx((0.7, 1.3), abs=1e-14)
        back = bd_to_goldman(d, b)
        assert back.uv["c1"] == pytest.approx((1.0, 0.1), abs=1e-14)

    @pytest.mark.parametrize("factory", ALL_SURFACES)
    def test_round_trip(self, factory):
        d = factory()
        rng = np.random.default_rng(abs(hash(factory.__name__)) % 2**31)
        for _ in range(20):
            g = surface_goldman(d, rng)
            back = bd_to_goldman(d, goldman_to_bd(d, g))
            assert_goldman_close(g, back)

    @pytest.mark.parametrize("factory", ALL_SURFACES)
    def test_converted_data_closes(self, factory):
        d = factory()
        rng = np.random.default_rng(1 + abs(hash(factory.__name__)) % 2**31)
        for _ in range(10):
            b = goldman_to_bd(d, surface_goldman(d, rng))
            assert validate_closure(d, b).max_residual <= 1e-10

    def test_counts_genus_two(self):
        counts = coordinate_count(2, 0)
        assert (counts.goldman_total, counts.bd_raw, counts.closure_constraints) == (16, 22, 6)


class TestClosure:
    def test_symmetric_hand_built(self):
        # every boundary of this tuple has lengths (2, 2)
        d = torus_surface()
        f = FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, 0.0)
        b = SurfaceBD({"P0": f}, {"c1": (0.0, 0.0)})
        report = validate_closure(d, b)
        assert report.curves["c1"].residuals == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_mismatched_lengths(self):
        # plus side has lengths (2, 2), minus side (2, 3); reversing the
        # orientation swaps lengths, so ell1+ vs ell2- mismatches by 1
        d = four_holed_sphere()
        plus = FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, 0.0)
        minus = FGPants((-1.0,) * 3, (-1.0,) * 3, -1.0, 0.0)
        b = SurfaceBD({"P0": plus, "P1": minus}, {"c1": (0.0, 0.0)})
        closure = validate_closure(d, b).curves["c1"]
        assert closure.plus_lengths.ell1 == pytest.approx(2.0)
        assert closure.plus_lengths.ell2 == pytest.approx(2.0)
        assert closure.minus_lengths.ell1 == pytest.approx(2.0)
        assert closure.minus_lengths.ell2 == pytest.approx(3.0)
        assert abs(closure.plus_lengths.ell1 - closure.minus_lengths.ell2) == pytest.approx(1.0)
        assert abs(closure.plus_lengths.ell2 - closure.minus_lengths.ell1) == pytest.approx(0.0)
        assert sorted(closure.residuals) == pytest.approx([0.0, 1.0])

    def test_perturbed_shear_names_curve(self):
        d = genus2_surface()
        rng = np.random.default_rng(71)
        b = goldman_to_bd(d, surface_goldman(d, rng))
        f = b.pants["P0"]
        broken = FGPants(
            (f.sigma1[0] + 0.5, f.sigma1[1], f.sigma1[2]), f.sigma2,
            f.tau_plus, f.tau_minus,
        )
        bad = SurfaceBD({**b.pants, "P0": broken}, b.curve_shears)
        with pytest.raises(ClosureViolation) as err:
            bd_to_goldman(d, bad)
        assert "c" in str(err.value)
        assert err.value.report is not None

    def test_bundle_without_a_curve_or_a_pants_refused(self):
        d = genus2_surface()
        g = surface_goldman(d, np.random.default_rng(103))
        b = goldman_to_bd(d, g)
        curves = {key: value for key, value in g.curves.items() if key != "c0"}
        with pytest.raises(CountMismatch, match="^curve values do not match the decomposition$"):
            goldman_to_bd(d, SurfaceGoldman(curves, g.uv, g.pants))
        message = "^pants values do not match the decomposition$"
        with pytest.raises(CountMismatch, match=message):
            goldman_to_bd(d, SurfaceGoldman(g.curves, g.uv, {"P0": g.pants["P0"]}))
        for convert in (validate_closure, bd_to_goldman):
            with pytest.raises(CountMismatch, match=message):
                convert(d, SurfaceBD({"P0": b.pants["P0"]}, b.curve_shears))

    def test_window_violation_names_pants(self):
        # all six lengths are positive, but lambda = e^-802 underflows to 0.0
        f = FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, -1200.0)
        with pytest.raises(WindowViolation, match=r"^pants 'P0': lambda must be"):
            bd_to_goldman(pants_surface(), SurfaceBD({"P0": f}, {}))


class TestFlows:
    def test_twist_shifts_both_shears(self):
        d = torus_surface()
        b = SurfaceBD(
            {"P0": FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, 0.0)}, {"c1": (0.5, -0.2)}
        )
        flowed = twist_flow(d, b, "c1", 1.0)
        assert flowed.curve_shears["c1"] == pytest.approx((1.5, 0.8))
        assert flowed.pants["P0"] == b.pants["P0"]

    def test_bulge_shifts_antisymmetrically(self):
        d = torus_surface()
        b = SurfaceBD(
            {"P0": FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, 0.0)}, {"c1": (0.5, -0.2)}
        )
        flowed = bulge_flow(d, b, "c1", 0.1)
        assert flowed.curve_shears["c1"] == pytest.approx((0.2, 0.1))

    def test_zero_is_identity(self):
        d = torus_surface()
        b = SurfaceBD(
            {"P0": FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, 0.0)}, {"c1": (0.5, -0.2)}
        )
        assert twist_flow(d, b, "c1", 0.0).curve_shears == b.curve_shears
        assert bulge_flow(d, b, "c1", 0.0).curve_shears == b.curve_shears

    def test_group_law_and_commutation(self):
        rng = np.random.default_rng(73)
        d = genus2_surface()
        g = surface_goldman(d, rng)
        a = twist_flow(d, twist_flow(d, g, "c2", 0.3), "c2", -1.1)
        bb = twist_flow(d, g, "c2", -0.8)
        assert a.uv["c2"] == pytest.approx(bb.uv["c2"], abs=1e-12)
        x = bulge_flow(d, twist_flow(d, g, "c2", 0.4), "c2", 0.2)
        y = twist_flow(d, bulge_flow(d, g, "c2", 0.2), "c2", 0.4)
        assert x.uv["c2"] == pytest.approx(y.uv["c2"], abs=1e-15)
        p = twist_flow(d, twist_flow(d, g, "c0", 0.5), "c2", -0.25)
        q = twist_flow(d, twist_flow(d, g, "c2", -0.25), "c0", 0.5)
        assert p.uv == q.uv

    def test_conversion_equivariance(self):
        rng = np.random.default_rng(79)
        for factory in (torus_surface, genus2_surface):
            d = factory()
            curve = d.internal_curves()[0]
            g = surface_goldman(d, rng)
            u, v = 0.37, -0.21
            left = goldman_to_bd(d, bulge_flow(d, twist_flow(d, g, curve, u), curve, v))
            right = bulge_flow(d, twist_flow(d, goldman_to_bd(d, g), curve, u), curve, v)
            assert left.curve_shears[curve] == pytest.approx(right.curve_shears[curve], abs=1e-12)
            for key in left.pants:
                assert left.pants[key] == right.pants[key]

    def test_unknown_and_boundary_curves(self):
        d = torus_surface()
        rng = np.random.default_rng(83)
        g = surface_goldman(d, rng)
        with pytest.raises(UnknownCurve):
            twist_flow(d, g, "zz", 1.0)
        with pytest.raises(BoundaryCurve):
            twist_flow(d, g, "a1", 1.0)
        b = goldman_to_bd(d, g)
        with pytest.raises(UnknownCurve):
            bulge_flow(d, b, "zz", 1.0)
        with pytest.raises(BoundaryCurve):
            bulge_flow(d, b, "a1", 1.0)


    def test_goldman_bundle_without_the_curve_refused_as_by_goldman_to_bd(self):
        d = torus_surface()
        g = surface_goldman(d, np.random.default_rng(97))
        g = SurfaceGoldman(g.curves, {}, g.pants)
        message = "^uv values must cover exactly the internal curves$"
        with pytest.raises(CountMismatch, match=message):
            goldman_to_bd(d, g)
        for flow in (twist_flow, bulge_flow):
            with pytest.raises(CountMismatch, match=message):
                flow(d, g, "c1", 1.0)

    def test_bd_bundle_without_the_curve_refused_as_by_validate_closure(self):
        d = torus_surface()
        b = goldman_to_bd(d, surface_goldman(d, np.random.default_rng(101)))
        b = SurfaceBD(b.pants, {})
        message = "^curve shears must cover exactly the internal curves$"
        with pytest.raises(CountMismatch, match=message):
            validate_closure(d, b)
        for flow in (twist_flow, bulge_flow):
            with pytest.raises(CountMismatch, match=message):
                flow(d, b, "c1", 1.0)


class IterationCounter(tuple):
    """A tuple that counts how often it is iterated."""

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestLinearInPants:
    """Structure, not wall time: no surface function scans the gluings once per pants."""

    def test_conversions_iterate_the_gluings_a_bounded_number_of_times(self):
        d = ring_chain(50)
        g = surface_goldman(d, np.random.default_rng(97))
        b = goldman_to_bd(d, g)
        for convert, coords in ((goldman_to_bd, g), (bd_to_goldman, b)):
            gluings = IterationCounter(d.gluings)
            gluings.iterations = 0
            convert(PantsDecomposition(d.pants, gluings, d.boundaries, d.genus, d.boundary_count,
                                       d.slots), coords)
            assert gluings.iterations <= 3, convert.__name__

    def test_closure_computes_lengths_once_per_pants(self, monkeypatch):
        d = ring_chain(50)
        b = goldman_to_bd(d, surface_goldman(d, np.random.default_rng(101)))
        calls = []

        def counting(f):
            calls.append(f)
            return boundary_lengths(f)

        monkeypatch.setattr(surface, "boundary_lengths", counting)
        report = validate_closure(d, b)
        assert len(calls) == len(d.pants) == 98
        assert not report.failures


class TestCoordinateCount:
    @pytest.mark.parametrize(
        "genus, n, expected",
        [
            ((0), 3, (8, 8, 0)),
            (1, 1, (8, 10, 2)),
            (2, 0, (16, 22, 6)),
            (0, 4, (16, 18, 2)),
            (1, 2, (16, 20, 4)),
        ],
    )
    def test_values(self, genus, n, expected):
        counts = coordinate_count(genus, n)
        assert (counts.goldman_total, counts.bd_raw, counts.closure_constraints) == expected
        chi = 2 - 2 * genus - n
        assert counts.goldman_total == 8 * abs(chi)
        assert counts.bd_raw - counts.closure_constraints == counts.goldman_total

    @pytest.mark.parametrize("genus, n", [(0, 0), (0, 2), (1, 0)])
    def test_invalid_types(self, genus, n):
        with pytest.raises(NonNegativeEuler):
            coordinate_count(genus, n)

    @pytest.mark.parametrize("genus, n", [(-1, 5), (2, -1), (0.5, 2), (math.nan, 3), (2, 1.5),
                                          (2.0, 0), (True, 2), (2, True)])
    def test_negative_counts(self, genus, n):
        # (-1, 5) has chi < 0 and would otherwise return tallies with a negative entry;
        # a count that is not an int (a float, nan or a bool) names no surface either
        with pytest.raises(CountMismatch) as raised:
            coordinate_count(genus, n)
        assert str(raised.value) == f"no surface has genus {genus} and {n} boundary components"

    def test_scalar_counts_match_bundles(self):
        rng = np.random.default_rng(89)
        for factory in ALL_SURFACES:
            d = factory()
            g = surface_goldman(d, rng)
            b = goldman_to_bd(d, g)
            counts = coordinate_count(d.genus, d.boundary_count)
            goldman_scalars = 2 * len(g.curves) + 2 * len(g.uv) + 2 * len(g.pants)
            bd_scalars = 8 * len(b.pants) + 2 * len(b.curve_shears)
            assert goldman_scalars == counts.goldman_total
            assert bd_scalars == counts.bd_raw
