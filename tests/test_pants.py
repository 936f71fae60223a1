import math

import numpy as np
import pytest

from convexproj.errors import CoordinateError, DomainViolation, NoPositiveRoot
from convexproj.pants import (
    FGPants,
    GoldmanPants,
    _log1pexp,
    boundary_lengths,
    crossratios,
    fg_to_goldman,
    goldman_to_fg,
    internal_consistency,
    log_crossratios,
    log_quadratic_value,
    quadratic_value,
    solve_s,
    validate_fg_domain,
)
from convexproj.sampling import random_fg_pants, random_goldman_pants
from convexproj.spectral import (
    BoundaryInvariant,
    check_window,
    eigen_from_boundary,
    length_functions,
)

E = math.e
SQ5 = math.sqrt(5.0)

SYMMETRIC = FGPants((-1.0, -1.0, -1.0), (-1.0, -1.0, -1.0), 0.0, 0.0)
HYPERBOLIC_SIGMA = 0.5 * math.log(0.2)
HYPERBOLIC = FGPants((HYPERBOLIC_SIGMA,) * 3, (HYPERBOLIC_SIGMA,) * 3, 0.0, 0.0)


def hyperbolic_goldman():
    return GoldmanPants((BoundaryInvariant(0.2, 6.0),) * 3, 1.0, 5.0 + SQ5)


class TestDomain:
    def test_symmetric_all_lengths_two(self):
        check = validate_fg_domain(SYMMETRIC)
        assert check
        for pair in check.lengths:
            assert (pair.ell1, pair.ell2) == pytest.approx((2.0, 2.0))

    def test_all_zero_fails(self):
        check = validate_fg_domain(FGPants((0.0,) * 3, (0.0,) * 3, 0.0, 0.0))
        assert not check
        assert len(check.failures) == 6

    def test_large_triangle_invariants_fail(self):
        check = validate_fg_domain(FGPants((-1.0,) * 3, (-1.0,) * 3, 3.0, 3.0))
        assert not check
        for pair in check.lengths:
            assert pair.ell2 == pytest.approx(2.0 - 6.0)


class TestFGToGoldman:
    def test_symmetric_spot_values(self):
        g = fg_to_goldman(SYMMETRIC)
        for b in g.boundary:
            assert b.lam == pytest.approx(E**-2, rel=1e-12)
            assert b.tau == pytest.approx(E**2 + 1.0, rel=1e-12)
        assert g.s == pytest.approx(1.0, rel=1e-12)
        assert g.t == pytest.approx(E * (E + 1.0), rel=1e-12)

    def test_hyperbolic_spot_values(self):
        g = fg_to_goldman(HYPERBOLIC)
        for b in g.boundary:
            assert b.lam == pytest.approx(0.2, rel=1e-12)
            assert b.tau == pytest.approx(6.0, rel=1e-12)
            # hyperbolic identity tau = 1 + 1/lambda
            assert b.tau == pytest.approx(1.0 + 1.0 / b.lam, rel=1e-12)
        assert g.s == pytest.approx(1.0, rel=1e-12)
        assert g.t == pytest.approx(5.0 + SQ5, rel=1e-12)

    def test_zero_tuple_raises(self):
        with pytest.raises(DomainViolation):
            fg_to_goldman(FGPants((0.0,) * 3, (0.0,) * 3, 0.0, 0.0))


class TestGoldmanToFG:
    def test_hyperbolic_spot_values(self):
        f = goldman_to_fg(hyperbolic_goldman())
        for i in range(3):
            assert f.sigma1[i] == pytest.approx(HYPERBOLIC_SIGMA, rel=1e-12)
            assert f.sigma2[i] == pytest.approx(HYPERBOLIC_SIGMA, rel=1e-12)
        assert f.tau_plus == pytest.approx(0.0, abs=1e-12)
        assert f.tau_minus == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_spot_values(self):
        g = GoldmanPants(
            (BoundaryInvariant(E**-2, E**2 + 1.0),) * 3, 1.0, E * (E + 1.0)
        )
        f = goldman_to_fg(g)
        assert f.sigma1 == pytest.approx((-1.0,) * 3, rel=1e-12)
        assert f.sigma2 == pytest.approx((-1.0,) * 3, rel=1e-12)
        assert f.tau_plus == pytest.approx(0.0, abs=1e-12)
        assert f.tau_minus == pytest.approx(0.0, abs=1e-12)

    def test_tau_sum_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = random_goldman_pants(rng)
            f = goldman_to_fg(g)
            log_mu = sum(math.log(eigen_from_boundary(b).mu) for b in g.boundary)
            assert f.tau_plus + f.tau_minus == pytest.approx(-log_mu, abs=1e-11)


def reference_taus(g, f):
    """goldman_to_fg's tau_plus and tau_minus from its shears f, with each
    term evaluated where it is used, as the closed forms are written."""
    sigma1, sigma2 = f.sigma1, f.sigma2
    log_mu = [math.log(eigen_from_boundary(b).mu) for b in g.boundary]
    tau_plus = (
        _log1pexp(-sigma2[1])
        + _log1pexp(-sigma2[2])
        - math.log(g.t)
        - _log1pexp(sigma1[2])
    )
    tau_minus = (
        math.log(g.t)
        + _log1pexp(sigma1[2])
        - sum(log_mu)
        - _log1pexp(-sigma2[1])
        - _log1pexp(-sigma2[2])
    )
    return tau_plus, tau_minus


def goldman_edge_tuples():
    """Boundaries 1e-9 (relative) inside a window bound or mid-window, from
    lambda = 1e-300 to 0.999, with s and t from 1e-300 to 1e300."""
    invariants = []
    for lam in (1e-300, 1e-30, 1e-8, 0.2, 0.999):
        lower, upper, _ = check_window(lam, 1.0)
        for tau in (lower * (1.0 + 1e-9), upper * (1.0 - 1e-9), math.sqrt(lower * upper)):
            if tau < upper:
                invariants.append(BoundaryInvariant(lam, tau))
    rng = np.random.default_rng(1402)
    tuples = []
    for _ in range(600):
        boundary = tuple(invariants[k] for k in rng.integers(len(invariants), size=3))
        s, t = (10.0 ** int(rng.choice((-300, -30, 0, 30, 300))) for _ in range(2))
        tuples.append(GoldmanPants(boundary, s, t))
    return tuples


class TestSharedTerms:
    @pytest.mark.parametrize("source", ["sampler", "edge"])
    def test_tau_bit_identical_to_the_closed_forms(self, source):
        if source == "sampler":
            rng = np.random.default_rng(1401)
            tuples = [random_goldman_pants(rng) for _ in range(3000)]
        else:
            tuples = goldman_edge_tuples()
        for g in tuples:
            f = goldman_to_fg(g)
            expected = reference_taus(g, f)
            assert (f.tau_plus.hex(), f.tau_minus.hex()) == tuple(x.hex() for x in expected)


class TestRoundTrips:
    def test_goldman_fg_goldman(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            g = random_goldman_pants(rng)
            back = fg_to_goldman(goldman_to_fg(g))
            for b, b2 in zip(g.boundary, back.boundary):
                assert b2.lam == pytest.approx(b.lam, rel=1e-10)
                assert b2.tau == pytest.approx(b.tau, rel=1e-10)
            assert back.s == pytest.approx(g.s, rel=1e-10)
            assert back.t == pytest.approx(g.t, rel=1e-10)

    def test_fg_goldman_fg(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            f = random_fg_pants(rng)
            back = goldman_to_fg(fg_to_goldman(f))
            assert back.sigma1 == pytest.approx(f.sigma1, abs=1e-10)
            assert back.sigma2 == pytest.approx(f.sigma2, abs=1e-10)
            assert back.tau_plus == pytest.approx(f.tau_plus, abs=1e-10)
            assert back.tau_minus == pytest.approx(f.tau_minus, abs=1e-10)

    def test_length_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            f = random_fg_pants(rng)
            g = fg_to_goldman(f)
            for i, expected in enumerate(boundary_lengths(f)):
                got = length_functions(eigen_from_boundary(g.boundary[i]))
                assert got.ell1 == pytest.approx(expected.ell1, abs=1e-10)
                assert got.ell2 == pytest.approx(expected.ell2, abs=1e-10)


class TestCrossratios:
    def test_symmetric_value(self):
        # dictionary oracle: rho = (e + 1)(1/e + 1) = e + 1/e + 2
        expected = (E + 1.0) * (1.0 / E + 1.0)
        assert expected == pytest.approx(E + 1.0 / E + 2.0, rel=1e-15)
        rho = crossratios(SYMMETRIC)
        assert rho == pytest.approx((expected,) * 3, rel=1e-13)

    def test_hyperbolic_value(self):
        # (e^sigma + 1)(e^-sigma + 1) = 2 + sqrt(0.2) + 1/sqrt(0.2)
        expected = 2.0 + math.sqrt(0.2) + 1.0 / math.sqrt(0.2)
        rho = crossratios(HYPERBOLIC)
        assert rho == pytest.approx((expected,) * 3, rel=1e-13)
        assert rho == pytest.approx((4.683281572999747,) * 3, rel=1e-13)

    def test_all_exceed_one(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            f = random_fg_pants(rng)
            assert all(r > 1.0 for r in crossratios(f))

    def test_tau_plus_cancels(self):
        base = random_fg_pants(np.random.default_rng(41))
        shifted = FGPants(base.sigma1, base.sigma2, base.tau_plus + 0.7, base.tau_minus)
        assert crossratios(shifted) == pytest.approx(crossratios(base), rel=1e-13)


class TestSolveS:
    def test_symmetric_equation(self):
        rho = crossratios(SYMMETRIC)[0]
        lam = E**-2
        assert solve_s(rho, lam, lam, lam, E**2 + 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_hyperbolic_equation(self):
        rho = crossratios(HYPERBOLIC)[0]
        assert solve_s(rho, 0.2, 0.2, 0.2, 6.0) == pytest.approx(1.0, rel=1e-12)

    def test_rho_one_rejected(self):
        with pytest.raises(NoPositiveRoot):
            solve_s(1.0, 0.2, 0.2, 0.2, 6.0)

    def test_recovers_s_from_each_equation(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            g = random_goldman_pants(rng)
            rho = crossratios(goldman_to_fg(g))
            lam = [b.lam for b in g.boundary]
            for i in range(3):
                recovered = solve_s(
                    rho[i], lam[i], lam[(i + 1) % 3], lam[(i - 1) % 3], g.boundary[i].tau
                )
                assert recovered == pytest.approx(g.s, rel=1e-10)


class TestInternalConsistency:
    def test_spot_examples(self):
        for g in (hyperbolic_goldman(),
                  GoldmanPants((BoundaryInvariant(E**-2, E**2 + 1.0),) * 3, 1.0, E * (E + 1.0))):
            report = internal_consistency(g)
            assert report.max_residual <= 1e-12

    def test_t_does_not_enter(self):
        g = hyperbolic_goldman()
        doubled = GoldmanPants(g.boundary, g.s, 2.0 * g.t)
        report = internal_consistency(doubled)
        assert report.max_residual <= 1e-9

    def test_random_residuals(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            report = internal_consistency(random_goldman_pants(rng))
            assert report.max_residual <= 1e-9

    def test_far_out_sweep(self):
        # shears and triangle invariants out to 350, where the float quadratic
        # underflows or overflows its lambda products; the identities hold by
        # algebra for every tuple that converts
        rng = np.random.default_rng(2016)
        checked = 0
        for row in rng.uniform(-350.0, 350.0, size=(20000, 8)):
            f = FGPants(tuple(row[:3]), tuple(row[3:6]), row[6], row[7])
            if not validate_fg_domain(f):
                continue
            try:
                g = fg_to_goldman(f)
            except CoordinateError:
                continue
            checked += 1
            assert internal_consistency(g).max_residual <= 1e-9, f
        assert checked > 1000

    def test_quadratic_value_matches_definition(self):
        g = hyperbolic_goldman()
        lam = [b.lam for b in g.boundary]
        expected = 1.0 + g.boundary[0].tau * math.sqrt(lam[0] * lam[2] / lam[1]) * g.s \
            + (lam[2] / lam[1]) * g.s**2
        assert quadratic_value(g, 0) == pytest.approx(expected, rel=1e-14)

    def test_log_space_matches_float_space(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            g = random_goldman_pants(rng)
            rho = crossratios(goldman_to_fg(g))
            assert log_crossratios(goldman_to_fg(g)) == pytest.approx(
                tuple(map(math.log, rho)), rel=1e-14, abs=1e-14)
            for i in range(3):
                assert log_quadratic_value(g, i) == pytest.approx(
                    math.log(quadratic_value(g, i)), rel=1e-13, abs=1e-13)
            assert internal_consistency(g).max_residual <= 1e-9

    def test_log_space_where_crossratios_overflow(self):
        # s = 1e300 puts every crossratio near e^1381.55, where s*s overflows
        g = GoldmanPants(hyperbolic_goldman().boundary, 1e300, 5.0 + SQ5)
        report = internal_consistency(g)
        assert report.crossratios == pytest.approx((2 * math.log(1e300),) * 3, rel=1e-12)
        assert report.max_residual <= 1e-12


class TestHyperbolicCharacterization:
    def test_s_one_iff_sigma_sums_agree(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            g = random_goldman_pants(rng)
            forced = GoldmanPants(g.boundary, 1.0, g.t)
            f = goldman_to_fg(forced)
            assert sum(f.sigma1) == pytest.approx(sum(f.sigma2), abs=1e-10)
        for _ in range(100):
            f = random_fg_pants(rng)
            shift = (sum(f.sigma1) - sum(f.sigma2)) / 3.0
            balanced = FGPants(
                f.sigma1,
                tuple(v + shift for v in f.sigma2),
                f.tau_plus,
                f.tau_minus,
            )
            if not validate_fg_domain(balanced):
                continue
            assert fg_to_goldman(balanced).s == pytest.approx(1.0, abs=1e-10)

    def test_hyperbolic_locus(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            lam = math.exp(rng.uniform(-3.0, -0.1))
            b = BoundaryInvariant(lam, 1.0 + 1.0 / lam)
            g = GoldmanPants((b,) * 3, 1.0, math.exp(rng.uniform(-2.0, 2.0)))
            f = goldman_to_fg(g)
            assert f.sigma1 == pytest.approx(f.sigma2, abs=1e-10)
            assert f.tau_plus + f.tau_minus == pytest.approx(0.0, abs=1e-10)


class TestConstruction:
    def test_goldman_needs_positive_internals(self):
        with pytest.raises(ValueError):
            GoldmanPants((BoundaryInvariant(0.2, 6.0),) * 3, -1.0, 1.0)
        with pytest.raises(ValueError):
            GoldmanPants((BoundaryInvariant(0.2, 6.0),) * 3, 1.0, 0.0)

    def test_fg_accepts_out_of_domain_values(self):
        f = FGPants((5.0, 5.0, 5.0), (5.0, 5.0, 5.0), 0.0, 0.0)
        assert not validate_fg_domain(f)

    def test_fg_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FGPants((math.nan, 0.0, 0.0), (0.0,) * 3, 0.0, 0.0)
