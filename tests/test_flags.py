import math

import numpy as np
import pytest

import convexproj.flags as flags
from convexproj.cli import ORACLE_GATE
from convexproj.errors import (
    DegenerateConfiguration,
    DomainViolation,
    NonPositiveRatio,
    NoValidBranch,
)
from convexproj.flags import (
    Flag,
    PantsFlagConfig,
    ProjPoint,
    config_from_fg,
    fg_from_config,
    oracle_check,
    reconstruct_monodromy,
    shear_logs,
    triple_ratio_log,
    wedge2,
    wedge3,
)
from convexproj.pants import FGPants, fg_to_goldman, validate_fg_domain
from convexproj.sampling import random_fg_pants
from convexproj.spectral import EigenTriple, eigen_from_boundary

E = math.e

SYMMETRIC = FGPants((-1.0,) * 3, (-1.0,) * 3, 0.0, 0.0)


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


class TestProjPoint:
    def test_scaling_equality(self):
        assert ProjPoint([1.0, 2.0, -3.0]) == ProjPoint([-2.0, -4.0, 6.0])
        assert ProjPoint([1.0, 2.0, -3.0]) != ProjPoint([1.0, 2.0, 3.0])

    def test_canonical_leading_one(self):
        assert ProjPoint([0.0, -2.0, 4.0]).canonical() == pytest.approx([0.0, 1.0, -2.0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint([0.0, 0.0, 0.0])


class TestFlag:
    def test_incidence_enforced(self):
        with pytest.raises(ValueError):
            Flag([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        Flag([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


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
        scaled = Flag(5.0 * f1.point, -2.5 * f1.line)
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
            shear_logs(fpos, fneg, fup, ProjPoint([1.0, 1.0, 1.0]))

    def test_overflowing_pairing_raises(self):
        config = config_from_fg(SYMMETRIC.sigma1, SYMMETRIC.sigma2, SYMMETRIC.tau_plus)
        f1, f2, f3 = config.inner_flags
        with pytest.raises(DegenerateConfiguration, match=r"pairing lpos\.down overflows a float"):
            shear_logs(f2, f3, f1, ProjPoint([1e308, 1.0, 1e308]))

    def test_overflowing_ratio_raises(self):
        # every pairing is finite; their quotient is not
        config = config_from_fg(SYMMETRIC.sigma1, SYMMETRIC.sigma2, SYMMETRIC.tau_plus)
        f1, f2, f3 = config.inner_flags
        with pytest.raises(DegenerateConfiguration, match=r"shear ratio sigma1 overflows a float"):
            shear_logs(f2, f3, f1, ProjPoint([-1e-320, 1.0, 1.0]))

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
            moved_outer = [ProjPoint(a @ op.coords) for op in outer]
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
        # three inner flag lines, and the line through both endpoints of each of three shear lines
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
        assert counts == {"cross": 6, "Flag": 3}
        # per holonomy: three cofactor rows and the determinant of the images
        reconstruct_monodromy(report.config, report.eigen)
        assert counts == {"cross": 18, "Flag": 3}

    def test_monodromy_reuses_the_oracle_flags(self, monkeypatch):
        counts = {"Flag": 0, "ProjPoint": 0}
        flag_init, point_init = Flag.__init__, ProjPoint.__init__

        def counting_flag(self, point, line):
            counts["Flag"] += 1
            flag_init(self, point, line)

        def counting_point(self, coords):
            counts["ProjPoint"] += 1
            point_init(self, coords)

        monkeypatch.setattr(Flag, "__init__", counting_flag)
        monkeypatch.setattr(ProjPoint, "__init__", counting_point)
        report = oracle_check(SYMMETRIC)
        reconstruct_monodromy(report.config, report.eigen)
        assert counts == {"Flag": 3, "ProjPoint": 3}


def symmetric_monodromy():
    g = fg_to_goldman(SYMMETRIC)
    config = config_from_fg(SYMMETRIC.sigma1, SYMMETRIC.sigma2, SYMMETRIC.tau_plus)
    eigen = [eigen_from_boundary(b) for b in g.boundary]
    return config, eigen, reconstruct_monodromy(config, eigen)


class TestMonodromy:
    def test_repelling_fixed_point(self):
        config, eigen, result = symmetric_monodromy()
        m1 = result.matrices[0]
        assert m1 @ np.array([1.0, 0.0, 0.0]) == pytest.approx(
            E**-2 * np.array([1.0, 0.0, 0.0]), abs=1e-12
        )

    def test_spectra(self):
        config, eigen, result = symmetric_monodromy()
        for i, m in enumerate(result.matrices):
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
            for i, m in enumerate(result.matrices):
                values, vectors = np.linalg.eig(m)
                order = np.argsort(values.real)
                v_lam = np.real(vectors[:, order[0]])
                v_mu = np.real(vectors[:, order[1]])
                # point part: the repelling eigenvector is the coordinate point
                assert ProjPoint(v_lam) == ProjPoint(inner[i].point)
                # line part: lam and mu eigenvectors span the flag plane
                span = wedge2(v_lam, v_mu)
                span /= np.linalg.norm(span)
                line = inner[i].line / np.linalg.norm(inner[i].line)
                assert min(np.linalg.norm(span - line), np.linalg.norm(span + line)) <= 1e-8

    def test_triangle_images(self):
        # vertex correspondence: the inner vertex two steps along goes to the
        # outer vertex, and the adjacent outer vertex comes in
        config, eigen, result = symmetric_monodromy()
        points = config.inner_points
        outer = [p.coords for p in config.outer_points]
        for i, m in enumerate(result.matrices):
            image = m @ points[(i + 2) % 3]
            assert ProjPoint(image) == ProjPoint(outer[(i + 2) % 3])
            image = m @ outer[(i + 1) % 3]
            assert ProjPoint(image) == ProjPoint(points[(i + 1) % 3])

    def test_both_real_branches_share_spectrum(self):
        _, _, result = symmetric_monodromy()
        for branches in result.branches:
            assert len(branches) == 2
            assert branches[0].flag_residual <= 1e-10
            assert branches[1].flag_residual > 1e-3
            spectrum = np.sort(np.linalg.eigvals(branches[1].matrix).real)
            assert spectrum == pytest.approx((E**-2, 1.0, E**2), rel=1e-8)

    # tau_plus = tau_minus = 0.  np.linalg.eig misses the spectrum of a holonomy of
    # each by more than 1e-8, so a spectrum filter at that tolerance drops the true
    # branch: for the first tuple no branch is left, for the second only the wrong one.
    @pytest.mark.parametrize(
        "sigma1, sigma2",
        [((-2.1, -2.1, -9.5), (-9.2, -1.6, -8.4)), ((-9.0, 3.4, -6.7), (-5.0, -9.8, -8.0))],
    )
    def test_ill_conditioned_holonomies(self, sigma1, sigma2):
        report = oracle_check(FGPants(sigma1, sigma2, 0.0, 0.0))
        result = reconstruct_monodromy(report.config, report.eigen)
        for e, branches in zip(report.eigen, result.branches):
            assert branches[0].flag_residual <= 1e-12
            spectrum = np.sort(np.linalg.eigvals(branches[0].matrix).real)
            assert spectrum == pytest.approx((e.lam, e.mu, e.nu), rel=1e-6)

    def test_readme_sweep_at_bound_15(self):
        # the first 200 valid tuples of the README's measured-range sweep at R = 15
        rng = np.random.default_rng(2016)
        kept = 0
        while kept < 200:
            v = rng.uniform(-15.0, 15.0, 8)
            f = FGPants(tuple(v[:3]), tuple(v[3:6]), float(v[6]), float(v[7]))
            if not validate_fg_domain(f):
                continue
            kept += 1
            report = oracle_check(f)
            assert report.max_residual <= ORACLE_GATE
            result = reconstruct_monodromy(report.config, report.eigen)
            assert max(branches[0].flag_residual for branches in result.branches) <= 1e-9

    def test_wrong_cardinality_rejected(self):
        config = config_from_fg(SYMMETRIC.sigma1, SYMMETRIC.sigma2, 0.0)
        with pytest.raises(ValueError):
            reconstruct_monodromy(config, [EigenTriple(0.2, 1.0, 5.0)])

    def test_no_real_branch_raises(self, monkeypatch):
        config, eigen, _ = symmetric_monodromy()
        monkeypatch.setattr(flags, "_quadratic_roots", lambda a, b, c: [])
        with pytest.raises(NoValidBranch):
            reconstruct_monodromy(config, eigen)
