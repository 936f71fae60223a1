import math
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import convexproj.flags as flags
import convexproj.pants as pants
import convexproj.surface as surface
from convexproj import cli, fileio
from convexproj.cli import ORACLE_GATE
from convexproj.errors import (
    DegenerateConfiguration,
    DomainViolation,
    NonPositiveRatio,
    WindowViolation,
)
from convexproj.flags import (
    Flag,
    PantsFlagConfig,
    config_from_fg,
    fg_from_config,
    oracle_check,
    reconstruct_monodromy,
    shear_logs,
    triple_ratio_log,
    wedge2,
    wedge3,
)
from convexproj.pants import FGPants, GoldmanPants, fg_to_goldman, validate_fg_domain
from convexproj.sampling import random_boundary_invariant, random_fg_pants, random_surface_goldman
from convexproj.spectral import (
    EDGE_TOL,
    BoundaryInvariant,
    EigenTriple,
    check_window,
    eigen_from_boundary,
)
from convexproj.surface import Gluing, bd_to_goldman, build_decomposition, goldman_to_bd

E = math.e

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

SYMMETRIC = FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, 0.0)
# b3 = e^400 + 1: a configuration coordinate whose square overflows a float
FAR = FGPants((-1.0,) * 3, (-1.0, -1.0, -400.0), 0.0, 0.0)
# tau_plus = tau_minus = 0.  np.linalg.eig misses the spectrum of a holonomy of
# each by more than 1e-8, so a spectrum filter at that tolerance drops the true
# branch: for the first tuple no branch is left, for the second only the wrong one.
ILL_CONDITIONED = [
    ((-2.1, -2.1, -9.5), (-9.2, -1.6, -8.4)),
    ((-9.0, 3.4, -6.7), (-5.0, -9.8, -8.0)),
]

# Certified (residual 0.0), with all six lengths positive; the scaling quadratic
# of holonomy 1 overflows a float.
OVERFLOWING_HOLONOMY = FGPants((31.0, 82.0, 4.0), (-43.0, -253.0, -211.0), -213.0, -260.0)


def readme_sweep(bound, count):
    """The first `count` valid tuples of the README's measured-range sweep at R = `bound`."""
    rng = np.random.default_rng(2016)
    kept = []
    while len(kept) < count:
        v = rng.uniform(-bound, bound, 8)
        f = FGPants(tuple(v[:3]), tuple(v[3:6]), float(v[6]), float(v[7]))
        if validate_fg_domain(f):
            kept.append(f)
    return kept


def random_flag(rng):
    point = rng.normal(size=3)
    other = rng.normal(size=3)
    return Flag(point, wedge2(point, other))


class TestWedges:
    def test_wedge2_basis(self):
        assert wedge2([1, 0, 0], [0, 1, 0]) == pytest.approx([0, 0, 1])

    def test_wedge2_alternation(self):
        u = np.array([0.3, -1.2, 2.0])
        assert wedge2(u, u) == pytest.approx([0, 0, 0])

    def test_wedge2_cofactors(self):
        assert wedge2([0, 0, 1], [1, -1, 1]) == pytest.approx([1, 1, 0])

    def test_wedge2_is_the_cross_product_bit_for_bit(self):
        rng = np.random.default_rng(8)
        scales = 10.0 ** rng.integers(-150, 150, size=(2000, 2, 3))
        for u, v in rng.normal(size=(2000, 2, 3)) * scales:
            assert wedge2(u, v).tobytes() == np.cross(u, v).tobytes()
        for u, v in rng.integers(-1000, 1000, size=(200, 2, 3)).tolist():
            expected = np.cross(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
            assert wedge2(u, v).tobytes() == expected.tobytes()

    def test_wedge3_identity(self):
        assert wedge3([1, 0, 0], [0, 1, 0], [0, 0, 1]) == pytest.approx(1.0)

    def test_wedge3_cofactor_row(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b1, c1 = rng.uniform(0.1, 5.0, 2)
            assert wedge3([0, 1, 0], [0, 0, 1], [-1, b1, c1]) == pytest.approx(-1.0)

    def test_wedge3_antisymmetry(self):
        rng = np.random.default_rng(3)
        u, v, w = rng.normal(size=(3, 3))
        assert wedge3(u, v, w) == pytest.approx(-wedge3(v, u, w), rel=1e-12)
        assert wedge3(u, v, w) == pytest.approx(-wedge3(u, w, v), rel=1e-12)


class TestFlag:
    def test_incidence_enforced(self):
        with pytest.raises(ValueError):
            Flag([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        Flag([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        # a nan would pass the incidence test and reach a kernel as a pairing
        # that "overflows a float"
        for point, line in (((bad, 0.0, 0.0), (0.0, 1.0, 0.0)), ((1.0, 0.0, 0.0), (0.0, bad, 0.0))):
            with pytest.raises(ValueError) as raised:
                Flag(point, line)
            assert str(raised.value) == f"flag coordinates must be finite: {point!r}, {line!r}"

    def test_zero_vector_rejected(self):
        for point, line in (((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)), ((1.0, 0.0, 0.0), (0, 0, 0))):
            with pytest.raises(ValueError, match="^zero vector has no direction$"):
                Flag(point, line)

    @pytest.mark.parametrize("point, line", [
        ((1e200, 1e200, 0.0), (1e200, 1.0, 0.0)),     # cos 0.71; the bound overflows to inf
        ((1e-200, 0.0, 0.0), (1e-200, 0.0, 0.0)),     # the line is the point; both sides underflow
        ((1e200,) * 3, (1e200, -1e200, 1e200)),       # cos 1/3; the pairing overflows to nan
    ], ids=["bound_overflows", "both_underflow", "pairing_nan"])
    def test_incidence_does_not_depend_on_scale(self, point, line):
        with pytest.raises(ValueError, match="^flag line does not pass through the flag point$"):
            Flag(point, line)

    @pytest.mark.parametrize("point, line", [
        ((1e200, -1e200, 1e200), (1e200, 1e200, 0.0)),
        ((5e199, 0.0, 0.0), (0.0, 3e199, 0.0)),
    ])
    def test_incident_flags_far_out_accepted(self, point, line):
        flag = Flag(point, line)
        assert (flag.point, flag.line) == (point, line)


class TestTripleRatio:
    def test_symmetric_configuration_is_zero(self):
        config = config_from_fg((0.0,) * 3, (0.0,) * 3, 0.0)
        assert triple_ratio_log(*config.inner_flags) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_configuration_is_one(self):
        config = config_from_fg((0.0,) * 3, (0.0,) * 3, 1.0)
        assert triple_ratio_log(*config.inner_flags) == pytest.approx(1.0, abs=1e-13)

    def test_cyclic_invariance_random_flags(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f1, f2, f3 = (random_flag(rng) for _ in range(3))
            try:
                base = triple_ratio_log(f1, f2, f3)
            except (DegenerateConfiguration, NonPositiveRatio):
                continue
            assert triple_ratio_log(f2, f3, f1) == pytest.approx(base, abs=1e-10)
            assert triple_ratio_log(f3, f1, f2) == pytest.approx(base, abs=1e-10)

    def test_rescaling_invariance(self):
        config = config_from_fg((-0.4, -1.1, -0.3), (-0.8, -0.2, -1.7), 0.3)
        f1, f2, f3 = config.inner_flags
        base = triple_ratio_log(f1, f2, f3)
        scaled = Flag(5.0 * np.array(f1.point), -2.5 * np.array(f1.line))
        assert triple_ratio_log(scaled, f2, f3) == pytest.approx(base, abs=1e-12)

    def test_degenerate_pairing_raises(self):
        # all three flag points on each other's lines
        f1 = Flag([1, 0, 0], [0, 0, 1])
        f2 = Flag([0, 1, 0], [0, 0, 1])
        f3 = Flag([1, 1, 0], [0, 0, 1])
        with pytest.raises(DegenerateConfiguration):
            triple_ratio_log(f1, f2, f3)

    def test_overflowing_ratio_raises(self):
        # l1.p2 = l3.p1 = 1e200 and the other four pairings are 1
        f1 = Flag([1.0, 0.0, 0.0], [0.0, 1e200, 1.0])
        f2 = Flag([0.0, 1.0, 0.0], [1.0, 0.0, 1.0])
        f3 = Flag([0.0, 0.0, 1.0], [1e200, 1.0, 0.0])
        with pytest.raises(DegenerateConfiguration, match=r"triple ratio overflows a float"):
            triple_ratio_log(f1, f2, f3)

    def test_underflowing_ratio_raises(self):
        # l1.p2 = l3.p1 = l2.p3 = 1e-200 and the other three pairings are 1: the
        # ratio 1e-600 is positive and reads +0.0
        f1 = Flag([1.0, 0.0, 0.0], [0.0, 1e-200, 1.0])
        f2 = Flag([0.0, 1.0, 0.0], [1.0, 0.0, 1e-200])
        f3 = Flag([0.0, 0.0, 1.0], [1e-200, 1.0, 0.0])
        with pytest.raises(DegenerateConfiguration, match=r"^triple ratio underflows a float$"):
            triple_ratio_log(f1, f2, f3)
        # with l2.p3 = -1e-200 the ratio is negative and reads -0.0
        f2 = Flag([0.0, 1.0, 0.0], [1.0, 0.0, -1e-200])
        with pytest.raises(NonPositiveRatio, match=r"^triple ratio must be positive, got -0\.0$"):
            triple_ratio_log(f1, f2, f3)


class TestShearLogs:
    def test_dictionary_b1_symbolic(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            sigma1 = tuple(rng.uniform(-2.0, 0.5, 3))
            sigma2 = tuple(rng.uniform(-2.0, 0.5, 3))
            tau_plus = rng.uniform(-1.0, 1.0)
            config = config_from_fg(sigma1, sigma2, tau_plus)
            f1, f2, f3 = config.inner_flags
            q1 = config.outer_points[0]
            s1, s2 = shear_logs(f2, f3, f1, q1)
            assert s1 == pytest.approx(math.log(config.b1 - 1.0), abs=1e-11)
            assert s2 == pytest.approx(-math.log(config.x * config.c1 - 1.0), abs=1e-11)

    def test_up_point_on_the_shared_line_raises(self):
        fpos = Flag([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        fneg = Flag([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        fup = Flag([1.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(DegenerateConfiguration, match=r"pairing pos\^neg\^up is zero"):
            shear_logs(fpos, fneg, fup, [1.0, 1.0, 1.0])

    def test_overflowing_pairing_raises(self):
        config = config_from_fg(SYMMETRIC.sigma1, SYMMETRIC.sigma2, SYMMETRIC.tau_plus)
        f1, f2, f3 = config.inner_flags
        with pytest.raises(DegenerateConfiguration, match=r"pairing lpos\.down overflows a float"):
            shear_logs(f2, f3, f1, [1e308, 1.0, 1e308])

    def test_overflowing_ratio_raises(self):
        # every pairing is finite; their quotient is not
        config = config_from_fg(SYMMETRIC.sigma1, SYMMETRIC.sigma2, SYMMETRIC.tau_plus)
        f1, f2, f3 = config.inner_flags
        with pytest.raises(DegenerateConfiguration, match=r"shear ratio sigma1 overflows a float"):
            shear_logs(f2, f3, f1, [-1e-320, 1.0, 1.0])

    def test_underflowing_ratio_raises(self):
        # pos^neg^up = lneg.down = 1e-200, so sigma1's ratio 1e-400 reads +0.0
        fpos = Flag((1, 0, 0), (0, 1, -2))
        fneg = Flag((0, 1, 0), (1, 0, 0))
        fup = Flag((1, 1, 1e-200), (1, -1, 0))
        with pytest.raises(DegenerateConfiguration) as info:
            shear_logs(fpos, fneg, fup, (1e-200, 1, -1))
        assert str(info.value) == "shear ratio sigma1 underflows a float"
        # lneg.down = -1e-200: the ratio is negative and reads -0.0
        with pytest.raises(NonPositiveRatio) as info:
            shear_logs(fpos, fneg, fup, (-1e-200, 1, -1))
        assert str(info.value) == "shear ratios must be positive, got (-0.0, 3.333333333333333e+199)"

    def test_symmetric_example(self):
        config = config_from_fg(SYMMETRIC.sigma1, SYMMETRIC.sigma2, SYMMETRIC.tau_plus)
        f1, f2, f3 = config.inner_flags
        s1, s2 = shear_logs(f2, f3, f1, config.outer_points[0])
        assert (s1, s2) == pytest.approx((-1.0, -1.0), abs=1e-12)


class TestConfigDictionary:
    def test_symmetric_values(self):
        config = config_from_fg((-1.0,) * 3, (-1.0,) * 3, 0.0)
        small = 1.0 / E + 1.0
        big = E + 1.0
        assert config.x == pytest.approx(1.0)
        assert (config.b1, config.c2, config.a3) == pytest.approx((small,) * 3, rel=1e-14)
        assert (config.a2, config.b3, config.c1) == pytest.approx((big,) * 3, rel=1e-14)

    def test_zero_values(self):
        config = config_from_fg((0.0,) * 3, (0.0,) * 3, 0.0)
        assert (config.a2, config.a3, config.b1, config.b3, config.c1, config.c2) \
            == pytest.approx((2.0,) * 6)
        assert config.x == pytest.approx(1.0)

    def test_t_from_triangle_data(self):
        # t = a2 * b3 / a3 must match the closed-form internal parameter
        config = config_from_fg((-1.0,) * 3, (-1.0,) * 3, 0.0)
        t = config.a2 * config.b3 / config.a3
        assert t == pytest.approx(E * (E + 1.0), rel=1e-13)
        assert t == pytest.approx(fg_to_goldman(SYMMETRIC).t, rel=1e-13)

    def test_inverse_dictionary(self):
        config = PantsFlagConfig(x=1.0, a2=2.0, a3=2.0, b1=2.0, b3=2.0, c1=2.0, c2=2.0)
        sigma1, sigma2, tau_plus = fg_from_config(config)
        assert sigma1 == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
        assert sigma2 == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
        assert tau_plus == pytest.approx(0.0, abs=1e-15)

    def test_scaled_third_vertex(self):
        config = PantsFlagConfig(x=E, a2=2.0, a3=E * (1.0 / E + 1.0), b1=2.0,
                                 b3=2.0, c1=2.0 / E, c2=2.0)
        sigma1, _, tau_plus = fg_from_config(config)
        assert sigma1[2] == pytest.approx(-1.0, rel=1e-13)
        assert tau_plus == pytest.approx(1.0, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            f = random_fg_pants(rng)
            config = config_from_fg(f.sigma1, f.sigma2, f.tau_plus)
            sigma1, sigma2, tau_plus = fg_from_config(config)
            assert sigma1 == pytest.approx(f.sigma1, abs=1e-12)
            assert sigma2 == pytest.approx(f.sigma2, abs=1e-12)
            assert tau_plus == pytest.approx(f.tau_plus, abs=1e-12)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PantsFlagConfig(x=1.0, a2=0.5, a3=2.0, b1=2.0, b3=2.0, c1=2.0, c2=2.0)
        with pytest.raises(ValueError):
            PantsFlagConfig(x=2.0, a2=2.0, a3=1.5, b1=2.0, b3=2.0, c1=2.0, c2=2.0)
        with pytest.raises(ValueError):
            PantsFlagConfig(x=0.25, a2=2.0, a3=2.0, b1=2.0, b3=2.0, c1=2.0, c2=2.0)

    @pytest.mark.parametrize(
        "f",
        [
            FGPants((-45.0, -1.0, -45.0), (-1.0, 40.0, -1.0), 0.0, 0.0),  # b1 rounds to 1.0
            FGPants((-1.0,) * 3, (-1.0, -1.0, -800.0), 0.0, 0.0),  # b3 overflows
        ],
        ids=["rounds_onto_bound", "overflows"],
    )
    def test_unrepresentable_valid_data(self, f):
        assert validate_fg_domain(f)
        with pytest.raises(DegenerateConfiguration, match="not representable"):
            config_from_fg(f.sigma1, f.sigma2, f.tau_plus)


class TestProjectiveInvariance:
    def test_invariants_under_volume_preserving_maps(self):
        rng = np.random.default_rng(17)
        f = random_fg_pants(rng)
        config = config_from_fg(f.sigma1, f.sigma2, f.tau_plus)
        inner = config.inner_flags
        outer = config.outer_points
        base_triple = triple_ratio_log(*inner)
        base_shears = [
            shear_logs(inner[(i + 1) % 3], inner[(i - 1) % 3], inner[i], outer[i])
            for i in range(3)
        ]
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            a /= np.cbrt(np.linalg.det(a))
            a_inv = np.linalg.inv(a)
            moved = [Flag(a @ fl.point, fl.line @ a_inv) for fl in inner]
            moved_outer = [a @ op for op in outer]
            assert triple_ratio_log(*moved) == pytest.approx(base_triple, abs=1e-9)
            for i in range(3):
                s1, s2 = shear_logs(
                    moved[(i + 1) % 3], moved[(i - 1) % 3], moved[i], moved_outer[i]
                )
                assert s1 == pytest.approx(base_shears[i][0], abs=1e-9)
                assert s2 == pytest.approx(base_shears[i][1], abs=1e-9)


class TestOracleCheck:
    def test_symmetric(self):
        report = oracle_check(SYMMETRIC)
        assert report.max_residual <= 1e-12

    def test_hyperbolic(self):
        sigma = 0.5 * math.log(0.2)
        report = oracle_check(FGPants((sigma,) * 3, (sigma,) * 3, 0.0, 0.0))
        assert report.max_residual <= 1e-12
        # mu_i = 1, so the triangle invariants sum to zero exactly
        assert report.tau_sum_residual <= 1e-12

    def test_random_tuples(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            report = oracle_check(random_fg_pants(rng))
            assert report.max_residual <= 1e-10

    def test_invalid_domain_raises(self):
        with pytest.raises(DomainViolation):
            oracle_check(FGPants((0.0,) * 3, (0.0,) * 3, 0.0, 0.0))

    def test_near_degenerate_valid_tuple_certified(self):
        # all six lengths are positive, and the determinant pos^neg^down is
        # -9.4e-14: only an exact zero is degenerate, the residuals decide accuracy
        report = oracle_check(FGPants((-1.0,) * 3, (-1.0, -1.0, -30.0), 0.0, 0.0))
        assert report.max_residual <= 1e-12

    def test_tau_sum_checks_route_consistency(self):
        # tau_minus never enters the flag configuration; the sum check ties
        # the two computation routes together (shears -> boundary pair ->
        # quadratic roots -> middle eigenvalues), so it stays tiny for any
        # valid tuple, including a shifted tau_minus
        f = FGPants(SYMMETRIC.sigma1, SYMMETRIC.sigma2, 0.0, 0.5)
        report = oracle_check(f)
        assert report.tau_plus_residual <= 1e-12
        assert report.tau_sum_residual <= 1e-12

    def test_flags_built_once(self, monkeypatch):
        # the one inner flag line that depends on the configuration (vertex 2's),
        # and the line through both endpoints of each of three shear lines
        counts = {"cross": 0, "Flag": 0}
        cross_impl, flag_init = flags._cross, Flag.__init__

        def counting_cross(u, v):
            counts["cross"] += 1
            return cross_impl(u, v)

        def counting_init(self, point, line):
            counts["Flag"] += 1
            flag_init(self, point, line)

        monkeypatch.setattr(flags, "_cross", counting_cross)
        monkeypatch.setattr(Flag, "__init__", counting_init)
        report = oracle_check(SYMMETRIC)
        assert counts == {"cross": 4, "Flag": 1}
        # per holonomy: the three cofactor rows
        reconstruct_monodromy(report.config, report.eigen)
        assert counts == {"cross": 13, "Flag": 1}

    def test_monodromy_reuses_the_oracle_flags(self, monkeypatch):
        counts = {"Flag": 0}
        flag_init = Flag.__init__

        def counting_flag(self, point, line):
            counts["Flag"] += 1
            flag_init(self, point, line)

        monkeypatch.setattr(Flag, "__init__", counting_flag)
        report = oracle_check(SYMMETRIC)
        reconstruct_monodromy(report.config, report.eigen)
        assert counts == {"Flag": 1}
        # no other value object: the outer points and meets are plain float triples
        for triple in (*report.config.outer_points, *report.config.meets):
            assert type(triple) is tuple and {type(v) for v in triple} == {float}


def symmetric_monodromy():
    g = fg_to_goldman(SYMMETRIC)
    config = config_from_fg(SYMMETRIC.sigma1, SYMMETRIC.sigma2, SYMMETRIC.tau_plus)
    eigen = [eigen_from_boundary(b) for b in g.boundary]
    return config, eigen, reconstruct_monodromy(config, eigen)


def same_point(u, v):
    """Projective equality: each triple rescaled so that its first coordinate
    above 1e-12 of its largest is +1, then np.allclose's rule per coordinate,
    |a - b| <= 1e-8 + 1e-8 * |b|."""
    def canonical(w):
        floor = 1e-12 * max(map(abs, w))
        pivot = next(c for c in w if abs(c) > floor)
        return [c / pivot for c in w]
    return np.allclose(canonical(u), canonical(v), rtol=1e-8, atol=1e-8)


def matrices(result):
    """Each holonomy's rows, from the one branch it keeps, as an ndarray."""
    return [np.array(branch.rows) for (branch,) in result.branches]


class TestMonodromy:
    def test_repelling_fixed_point(self):
        config, eigen, result = symmetric_monodromy()
        m1 = matrices(result)[0]
        assert m1 @ np.array([1.0, 0.0, 0.0]) == pytest.approx(
            E**-2 * np.array([1.0, 0.0, 0.0]), abs=1e-12
        )

    def test_spectra(self):
        config, eigen, result = symmetric_monodromy()
        for i, m in enumerate(matrices(result)):
            spectrum = np.sort(np.linalg.eigvals(m).real)
            assert spectrum == pytest.approx((E**-2, 1.0, E**2), rel=1e-8)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)
            assert np.trace(m) == pytest.approx(E**-2 + 1.0 + E**2, rel=1e-8)

    def test_unstable_flag_matches_inner_flag(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            f = random_fg_pants(rng)
            g = fg_to_goldman(f)
            config = config_from_fg(f.sigma1, f.sigma2, f.tau_plus)
            eigen = [eigen_from_boundary(b) for b in g.boundary]
            result = reconstruct_monodromy(config, eigen)
            inner = config.inner_flags
            for i, m in enumerate(matrices(result)):
                values, vectors = np.linalg.eig(m)
                order = np.argsort(values.real)
                v_lam = np.real(vectors[:, order[0]])
                v_mu = np.real(vectors[:, order[1]])
                # point part: the repelling eigenvector is the coordinate point
                assert same_point(v_lam, inner[i].point)
                # line part: lam and mu eigenvectors span the flag plane
                span = wedge2(v_lam, v_mu)
                span /= np.linalg.norm(span)
                line = np.array(inner[i].line) / np.linalg.norm(inner[i].line)
                assert min(np.linalg.norm(span - line), np.linalg.norm(span + line)) <= 1e-8

    def test_triangle_images(self):
        # vertex correspondence: the inner vertex two steps along goes to the
        # outer vertex, and the adjacent outer vertex comes in
        config, eigen, result = symmetric_monodromy()
        points = [np.array(f.point) for f in config.inner_flags]
        outer = [np.array(p) for p in config.outer_points]
        for i, m in enumerate(matrices(result)):
            image = m @ points[(i + 2) % 3]
            assert same_point(image, outer[(i + 2) % 3])
            image = m @ outer[(i + 1) % 3]
            assert same_point(image, points[(i + 1) % 3])

    @pytest.mark.parametrize("sigma1, sigma2", ILL_CONDITIONED)
    def test_ill_conditioned_holonomies(self, sigma1, sigma2):
        report = oracle_check(FGPants(sigma1, sigma2, 0.0, 0.0))
        result = reconstruct_monodromy(report.config, report.eigen)
        for e, branches in zip(report.eigen, result.branches):
            assert branches[0].flag_residual <= 1e-12
            spectrum = np.sort(np.linalg.eigvals(np.array(branches[0].rows)).real)
            assert spectrum == pytest.approx((e.lam, e.mu, e.nu), rel=1e-6)

    def test_readme_sweep_at_bound_15(self):
        for f in readme_sweep(15.0, 200):
            report = oracle_check(f)
            assert report.max_residual <= ORACLE_GATE
            result = reconstruct_monodromy(report.config, report.eigen)
            assert max(branches[0].flag_residual for branches in result.branches) <= 1e-9

    def test_overflowing_quadratic_raises(self):
        # valid and certified, but holonomy 1 has rho_1 - 1 = 1.8e127 and
        # 1/lam = 5.2e227, so 4 qa qc overflows and the roots would read inf and -0.0
        report = oracle_check(OVERFLOWING_HOLONOMY)
        assert report.max_residual <= ORACLE_GATE
        with pytest.raises(DegenerateConfiguration,
                           match=r"^holonomy 1: scaling quadratic overflows a float$"):
            reconstruct_monodromy(report.config, report.eigen)

    def test_wrong_cardinality_rejected(self):
        config = config_from_fg(SYMMETRIC.sigma1, SYMMETRIC.sigma2, 0.0)
        with pytest.raises(ValueError):
            reconstruct_monodromy(config, [EigenTriple(0.2, 1.0, 5.0)])


def holonomy_frames(c, i):
    """The points holonomy i fixes or moves (sources) and where they go (images)."""
    points = [f.point for f in c.inner_flags]
    outer = c.outer_points
    return ((points[i], points[(i + 2) % 3], outer[(i + 1) % 3]),
            (points[i], outer[(i + 2) % 3], points[(i + 1) % 3]))


def built_configurations(source):
    """The configurations and spectra of the sampler (numpy seed 23, 500 tuples)
    or of the README sweep ("readme_sweep_R", 200 tuples) that build in floats."""
    if source == "sampler":
        rng = np.random.default_rng(23)
        tuples = [random_fg_pants(rng) for _ in range(500)]
    else:
        tuples = readme_sweep(float(source.rsplit("_", 1)[1]), 200)
    built = []
    for f in tuples:
        try:
            c = config_from_fg(f.sigma1, f.sigma2, f.tau_plus)
            eigen = [eigen_from_boundary(b) for b in fg_to_goldman(f).boundary]
        except (DegenerateConfiguration, WindowViolation):
            continue
        built.append((f, c, eigen))
    assert len(built) >= len(tuples) // 2
    return built


SOURCES = ["sampler", "readme_sweep_10", "readme_sweep_15", "readme_sweep_20", "readme_sweep_40"]


class TestHolonomyQuadratic:
    """The facts reconstruct_monodromy relies on without testing them: both
    determinants are exactly 1 and the quadratic's leading coefficient is a
    crossratio less 1, so its roots have opposite signs; and the one it keeps,
    the positive root, is the holonomy that keeps the cone."""

    @pytest.mark.parametrize("source", SOURCES)
    def test_every_configuration_has_two_real_branches(self, source):
        for f, c, eigen in built_configurations(source):
            rho = pants.crossratios(f)
            for i in range(3):
                sources, images = holonomy_frames(c, i)
                assert flags._dot(flags._cross(sources[0], sources[1]), sources[2]) == 1.0
                assert flags._dot(flags._cross(images[0], images[1]), images[2]) == 1.0
                lead = flags._dot(images[1], flags._cross(sources[2], sources[0]))
                assert lead > 0.0
                assert abs(lead - (rho[i] - 1.0)) <= 1e-13 * rho[i]
                assert rho[i] >= 1.0
                # the constant coefficient is -1/lam: one root of each sign
                assert flags._dot(images[2], flags._cross(sources[0], sources[1])) == -1.0
            # one matrix per holonomy, from the positive root
            result = reconstruct_monodromy(c, eigen)
            assert [len(entry) for entry in result.branches] == [1, 1, 1]

    @pytest.mark.parametrize("source", SOURCES)
    def test_holonomy_keeps_the_cone(self, source):
        # M maps p_{i+2} = e_k to beta * o_{i+2}, whose k-th coordinate is -1, and
        # o_{i+1} to gamma * p_{i+1}, with beta > 0 and so gamma = 1/(lam beta) > 0,
        # as det M = lam beta gamma = 1.  Far out, M @ o_{i+1} rounds to within
        # 1e-16 of the size of its terms, which can exceed gamma itself.
        for _, c, eigen in built_configurations(source):
            outer = [np.array(p) for p in c.outer_points]
            for i, m in enumerate(matrices(reconstruct_monodromy(c, eigen))):
                k, j = (i + 2) % 3, (i + 1) % 3
                beta = -m[k][k]
                assert beta > 0.0
                assert m[:, k] == pytest.approx(beta * outer[k], rel=1e-12)
                image = np.zeros(3)
                image[j] = 1.0 / (eigen[i].lam * beta)
                scale = np.abs(m) @ np.abs(outer[j])
                assert np.all(np.abs(m @ outer[j] - image) <= 1e-12 * scale)


def quadratic_roots(a, b, c):
    """The earlier kernel's general real roots of a x^2 + b x + c."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    return roots


def listcomp_monodromy(c, eigen):
    """Branches as (matrix bytes, flag residual), the smallest residual first,
    assembled with the listcomps and zips of the earlier kernel, which divided by
    both determinants and solved the general quadratic; the written-out kernel
    must do the same products in the same order.

    On a normalized configuration lam * p_i and gamma * p_{i+1} each have one
    nonzero coordinate, so every matrix entry sums at most two nonzero terms and
    its summation order cannot show; its products and the drift sums can.
    """
    flag_triples = c.inner_flags
    points = [f.point for f in flag_triples]
    outer = c.outer_points
    all_branches = []
    for i in range(3):
        lam, nu = eigen[i].lam, eigen[i].nu
        trace = lam + eigen[i].mu + nu
        line = flag_triples[i].line
        sources = [points[i], points[(i + 2) % 3], outer[(i + 1) % 3]]
        images = [points[i], outer[(i + 2) % 3], points[(i + 1) % 3]]
        cofactors = [flags._cross(sources[(j + 1) % 3], sources[(j + 2) % 3]) for j in range(3)]
        det_sources = flags._dot(cofactors[2], sources[2])
        rows = [tuple(v / det_sources for v in row) for row in cofactors]
        columns = list(zip(*rows))
        traces = [flags._dot(images[j], rows[j]) for j in range(3)]
        det_ratio = flags._dot(flags._cross(images[0], images[1]), images[2]) / det_sources
        product = 1.0 / (lam * det_ratio)
        roots = quadratic_roots(traces[1], lam * traces[0] - trace, product * traces[2])
        branches = []
        for beta in roots:
            if beta == 0.0:
                continue
            gamma = product / beta
            scaled = ([s * v for v in image] for s, image in zip((lam, beta, gamma), images))
            m = [[a * r0 + b * r1 + g * r2 for r0, r1, r2 in columns] for a, b, g in zip(*scaled)]
            drift = [flags._dot(line, column) - nu * ell for column, ell in zip(zip(*m), line)]
            flag_residual = math.hypot(*drift) / (nu * math.hypot(*line))
            branches.append((np.array(m).tobytes(), flag_residual))
        branches.sort(key=lambda br: br[1])
        all_branches.append(branches)
    return all_branches


def positive_root(i, branches):
    """The entry of holonomy i in listcomp_monodromy built from the positive
    root: beta = -M[k][k] with k = (i + 2) % 3 (row-major index 4k)."""
    (entry,) = [br for br in branches if -np.frombuffer(br[0])[4 * ((i + 2) % 3)] > 0.0]
    return entry


class TestWrittenOutHolonomy:
    @pytest.mark.parametrize("source", ["sampler", "readme_sweep_15", "ill_conditioned"])
    def test_bit_identical_to_the_listcomp_assembly(self, source):
        if source == "sampler":
            rng = np.random.default_rng(12)
            tuples = [random_fg_pants(rng) for _ in range(500)]
        elif source == "readme_sweep_15":
            tuples = readme_sweep(15.0, 1000)
        else:
            tuples = [FGPants(sigma1, sigma2, 0.0, 0.0) for sigma1, sigma2 in ILL_CONDITIONED]
        for f in tuples:
            report = oracle_check(f)
            result = reconstruct_monodromy(report.config, report.eigen)
            written_out = [[(np.array(br.rows).tobytes(), br.flag_residual) for br in entry]
                           for entry in result.branches]
            reference = listcomp_monodromy(report.config, report.eigen)
            assert written_out == [[positive_root(i, branches)]
                                   for i, branches in enumerate(reference)]
            # each matrix is held once, as three rows of plain floats
            assert all(type(v) is float for (br,) in result.branches for row in br.rows for v in row)


# Earlier kernels, kept as references: the kernels now compute their
# lengths and pairings once and word a failure from those values, so every
# float bit and every exception must stay the same.  (Only a ratio that
# underflows is worded differently, and no input here reaches one.)


def _pairing(line, point, what):
    """The pairing the earlier kernels checked one at a time."""
    value = flags._dot(line, point)
    if value == 0.0:
        raise DegenerateConfiguration(f"pairing {what} is zero")
    if not math.isfinite(value):
        raise DegenerateConfiguration(f"pairing {what} overflows a float")
    return value


def reference_window(lam, tau):
    """BoundaryInvariant's window test, through check_window."""
    check = check_window(lam, tau)
    if not check:
        raise WindowViolation("; ".join(check.failures))


def reference_fg_to_goldman(f):
    """fg_to_goldman's (lambda, tau) per boundary, then s and t, computed and
    checked the way it did before it wrote the six lengths out."""
    check = validate_fg_domain(f)
    if not check:
        raise DomainViolation("; ".join(check.failures))
    total = f.tau_plus + f.tau_minus
    values = []
    for i in range(3):
        a1 = f.sigma1[(i + 1) % 3]
        a2 = f.sigma2[(i + 1) % 3]
        b1 = f.sigma1[(i - 1) % 3]
        b2 = f.sigma2[(i - 1) % 3]
        log_lam = (a1 + 2.0 * a2 + 2.0 * b1 + b2 + 2.0 * total) / 3.0
        log_mu = (a1 - a2 - b1 + b2 - total) / 3.0
        ell1 = check.lengths[i].ell1
        tau = pants._exp(log_mu + pants._log1pexp(ell1), f"tau(A{i + 1})", WindowViolation)
        lam = math.exp(log_lam)
        reference_window(lam, tau)
        values += [lam, tau]
    s = pants._exp((sum(f.sigma1) - sum(f.sigma2)) / 6.0, "s", WindowViolation)
    t = pants._exp(
        -f.tau_plus
        + pants._log1pexp(-f.sigma2[1])
        + pants._log1pexp(-f.sigma2[2])
        - pants._log1pexp(f.sigma1[2]),
        "t", WindowViolation,
    )
    return values + [s, t]


def reference_config_from_fg(sigma1, sigma2, tau_plus):
    """config_from_fg's seven scalars, with PantsFlagConfig's field-by-field
    checks, then its inner flags and outer points as float triples."""
    s1 = tuple(float(v) for v in sigma1)
    s2 = tuple(float(v) for v in sigma2)
    try:
        scalars = (
            math.exp(tau_plus),
            math.exp(-s2[1]) + 1.0,
            math.exp(tau_plus) * (math.exp(s1[2]) + 1.0),
            math.exp(s1[0]) + 1.0,
            math.exp(-s2[2]) + 1.0,
            math.exp(-tau_plus) * (math.exp(-s2[0]) + 1.0),
            math.exp(s1[1]) + 1.0,
        )
        x, a2, a3, b1, b3, c1, c2 = scalars
        for name, value in zip(("x", "a2", "a3", "b1", "b3", "c1", "c2"), scalars):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite real, got {value!r}")
        for name, value, bound in (("b1", b1, 1.0), ("c2", c2, 1.0), ("b3", b3, 1.0),
                                   ("a2", a2, 1.0), ("a3", a3, x), ("x*c1", x * c1, 1.0)):
            if not value > bound:
                raise ValueError(f"{name} = {value!r} must exceed {bound!r}")
    except (OverflowError, ValueError) as err:
        raise DegenerateConfiguration(f"flag configuration is not representable: {err}") from err
    meet13, meet12 = (1.0, -1.0, 1.0), (float(x), 1.0, -1.0)
    p1, p2, p3 = flags._INNER_POINTS
    inner = ((p1, flags._cross(p1, meet13)), (p2, flags._cross(p2, meet12)),
             (p3, flags._cross(p3, meet13)))
    outer = ((-1.0, b1, c1), (a2, -1.0, c2), (a3, b3, -1.0))
    return scalars, inner, outer


def reference_triple_ratio_log(f1, f2, f3):
    ratio = (
        _pairing(f1.line, f2.point, "l1.p2")
        / _pairing(f3.line, f2.point, "l3.p2")
        * _pairing(f3.line, f1.point, "l3.p1")
        / _pairing(f2.line, f1.point, "l2.p1")
        * _pairing(f2.line, f3.point, "l2.p3")
        / _pairing(f1.line, f3.point, "l1.p3")
    )
    if not ratio > 0.0:
        raise NonPositiveRatio(f"triple ratio must be positive, got {ratio!r}")
    if ratio == math.inf:
        raise DegenerateConfiguration("triple ratio overflows a float")
    return math.log(ratio)


def reference_shear_logs(fpos, fneg, fup, down):
    shared = flags._cross(fpos.point, fneg.point)
    d_up = _pairing(shared, fup.point, "pos^neg^up")
    d_down = _pairing(shared, down, "pos^neg^down")
    ratio1 = -(d_up / d_down) * (
        _pairing(fneg.line, down, "lneg.down")
        / _pairing(fneg.line, fup.point, "lneg.up")
    )
    ratio2 = -(d_down / d_up) * (
        _pairing(fpos.line, fup.point, "lpos.up")
        / _pairing(fpos.line, down, "lpos.down")
    )
    if not ratio1 > 0.0 or not ratio2 > 0.0:
        raise NonPositiveRatio(f"shear ratios must be positive, got ({ratio1!r}, {ratio2!r})")
    for name, ratio in (("sigma1", ratio1), ("sigma2", ratio2)):
        if ratio == math.inf:
            raise DegenerateConfiguration(f"shear ratio {name} overflows a float")
    return (math.log(ratio1), math.log(ratio2))


def goldman_values(f):
    g = fg_to_goldman(f)
    return [v for b in g.boundary for v in (b.lam, b.tau)] + [g.s, g.t]


def config_values(sigma1, sigma2, tau_plus):
    c = config_from_fg(sigma1, sigma2, tau_plus)
    return ((c.x, c.a2, c.a3, c.b1, c.b3, c.c1, c.c2),
            tuple((f.point, f.line) for f in c.inner_flags),
            c.outer_points)


def as_bits(value):
    """Every float in a nested value as its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: as_bits(v) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return tuple(map(as_bits, value))
    return value


def outcome(fn, *args):
    """fn's result as bits, or the class and text of what it raised."""
    try:
        return as_bits(fn(*args))
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return type(err), str(err)


def plain(f):
    """The tuple with exact floats, as fileio builds it."""
    return FGPants(tuple(map(float, f.sigma1)), tuple(map(float, f.sigma2)),
                   float(f.tau_plus), float(f.tau_minus))


# Failures and far-out values on each exit of fg_to_goldman and config_from_fg.
EDGE_TUPLES = [
    FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, 5.0),              # every ell2 <= 0
    FGPants((-1.0, -2000.0, -1.0), (-1.0,) * 3, 0.0, 0.0),    # tau(A1) overflows
    FGPants((-1.0, -2000.0, -1.0), (-1.0,) * 3, 0.0, 5.0),    # ... and ell2 <= 0 wins
    FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, -1500.0),          # lambda underflows
    FGPants((-3100.0,) * 3, (3000.0,) * 3, 0.0, 0.0),         # s underflows
    FGPants((-1.0,) * 3, (-1.0,) * 3, 800.0, -900.0),         # t underflows
    FGPants((800.0, -1.0, -1.0), (-1.0, -900.0, -900.0), 0.0, 0.0),  # b1 overflows
    FGPants((-30.0,) * 3, (-30.0,) * 3, 0.0, 0.0),            # e^-30 + 1 keeps its bits
    FGPants((-45.0,) * 3, (-45.0,) * 3, 0.0, 0.0),            # e^-45 + 1 == 1.0
]


def lean_kernel_tuples(source):
    if source == "sampler":
        rng = np.random.default_rng(1400)
        return [random_fg_pants(rng) for _ in range(3000)]
    if source.startswith("readme_sweep"):
        return readme_sweep(float(source.rsplit("_", 1)[1]), 1000)
    return [FGPants(sigma1, sigma2, 0.0, 0.0) for sigma1, sigma2 in ILL_CONDITIONED] + [
        FAR, *EDGE_TUPLES]


def ring_chain(genus):
    """The closed ring chain of test_fileio: 2g-2 pants in a cycle."""
    n = 2 * genus - 2
    names = [f"P{i}" for i in range(n)]
    gluings = [Gluing(f"r{i}", (names[i], 1), (names[(i + 1) % n], 0)) for i in range(n)]
    gluings += [Gluing(f"s{k}", (names[2 * k], 2), (names[2 * k + 1], 2)) for k in range(genus - 1)]
    return build_decomposition(names, gluings, [])


class TestLeanKernels:
    @pytest.mark.parametrize(
        "source", ["sampler", "readme_sweep_10", "readme_sweep_15", "readme_sweep_20", "edge"])
    def test_bit_identical_to_the_reference_kernels(self, source):
        for drawn in lean_kernel_tuples(source):
            for f in (drawn, plain(drawn)):
                assert outcome(goldman_values, f) == outcome(reference_fg_to_goldman, f)
                args = (f.sigma1, f.sigma2, f.tau_plus)
                config = outcome(config_values, *args)
                assert config == outcome(reference_config_from_fg, *args)
                if isinstance(config[0], type):
                    continue
                c = config_from_fg(*args)
                inner, outer = c.inner_flags, c.outer_points
                for i in range(3):
                    line = (inner[(i + 1) % 3], inner[(i - 1) % 3], inner[i], outer[i])
                    assert outcome(shear_logs, *line) == outcome(reference_shear_logs, *line)
                expected = outcome(reference_triple_ratio_log, *inner)
                assert outcome(triple_ratio_log, *inner) == expected

    def test_ratios_bit_identical_on_flags_in_general_position(self):
        # on a normalized configuration many pairings are +-1 or a single
        # product, so the order of the ratio's products shows only here
        rng = np.random.default_rng(1403)
        for _ in range(3000):
            f1, f2, f3 = (random_flag(rng) for _ in range(3))
            down = rng.normal(size=3).tolist()
            assert outcome(triple_ratio_log, f1, f2, f3) == outcome(
                reference_triple_ratio_log, f1, f2, f3)
            assert outcome(shear_logs, f1, f2, f3, down) == outcome(
                reference_shear_logs, f1, f2, f3, down)

    def test_window_test_matches_check_window(self):
        rng = np.random.default_rng(1401)
        cases = [(b.lam, b.tau) for b in (random_boundary_invariant(rng) for _ in range(3000))]
        for lam in (0.25, 1e-3, 0.999, math.nextafter(1.0, 0.0), 1e-170, 5e-324):
            square = lam * lam
            for bound in (2.0 / math.sqrt(lam), lam + 1.0 / square if square else 1e308):
                for step in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
                    cases.append((lam, bound + step * EDGE_TOL))
                below = above = bound
                for _ in range(3):
                    below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
                    cases += [(lam, below), (lam, above)]
        cases += [(lam, 5.0) for lam in (math.nan, math.inf, 0.0, -1.0, 1.0, 1.5, -0.0)]
        cases += [(0.25, tau) for tau in (math.nan, math.inf, -math.inf, 5, 16)]
        for lam, tau in cases:
            assert outcome(lambda: BoundaryInvariant(lam, tau) and None) == outcome(
                reference_window, lam, tau), (lam, tau)

    def test_surface_conversions_match_the_reference_kernels(self, monkeypatch):
        d = ring_chain(50)
        g = random_surface_goldman(d, np.random.default_rng(1402))
        b = goldman_to_bd(d, g)
        lean = as_bits((astuple(b), astuple(bd_to_goldman(d, b))))

        def reference_goldman(f):
            values = reference_fg_to_goldman(f)
            boundary = tuple(BoundaryInvariant(values[k], values[k + 1]) for k in (0, 2, 4))
            return GoldmanPants(boundary, values[6], values[7])

        monkeypatch.setattr(BoundaryInvariant, "__post_init__",
                            lambda self: reference_window(self.lam, self.tau))
        monkeypatch.setattr(surface, "fg_to_goldman", reference_goldman)
        b = goldman_to_bd(d, g)
        assert as_bits((astuple(b), astuple(bd_to_goldman(d, b)))) == lean


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached on the oracle path")


def test_oracle_path_builds_no_ndarray(monkeypatch, capsys):
    sample = fileio.load_file(SAMPLES / "pants_bd.json").bd()
    monkeypatch.setattr(flags, "np", _NoNumpy())
    for f in (SYMMETRIC, FAR, *sample.pants.values()):
        report = oracle_check(f)
        assert report.max_residual <= ORACLE_GATE
        reconstruct_monodromy(report.config, report.eigen)
    assert cli.main(["oracle", "--monodromy", str(SAMPLES / "pants_bd.json")]) == 0
    assert "worst residual" in capsys.readouterr().out
