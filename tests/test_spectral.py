import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexproj.errors import WindowViolation
from convexproj.spectral import (
    BoundaryInvariant,
    EigenTriple,
    boundary_from_eigen,
    check_window,
    eigen_from_boundary,
    length_functions,
    reverse_orientation,
)

E = math.e


def window_pairs():
    """(lambda, tau) pairs strictly inside the boundary window."""
    return st.tuples(
        st.floats(min_value=-3.0, max_value=-0.05),
        st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    ).map(_pair_from_coords)


def _pair_from_coords(coords):
    log_lam, fraction = coords
    lam = math.exp(log_lam)
    lower = 2.0 / math.sqrt(lam)
    upper = lam + 1.0 / (lam * lam)
    return (lam, lower + fraction * (upper - lower))


class TestEigenFromBoundary:
    def test_quadratic_oracle_simple(self):
        # independent oracle: the two larger eigenvalues solve z^2 - 6z + 5 = 0
        roots = sorted(np.roots([1.0, -6.0, 5.0]).real)
        e = eigen_from_boundary(BoundaryInvariant(0.2, 6.0))
        assert e.mu == pytest.approx(roots[0], rel=1e-14)
        assert e.nu == pytest.approx(roots[1], rel=1e-14)
        assert (e.lam, e.mu, e.nu) == pytest.approx((0.2, 1.0, 5.0), rel=1e-14)
        assert e.lam * e.mu * e.nu == pytest.approx(1.0, rel=1e-14)

    def test_quadratic_oracle_exponential(self):
        roots = sorted(np.roots([1.0, -(E**2 + 1.0), E**2]).real)
        e = eigen_from_boundary(BoundaryInvariant(E**-2, E**2 + 1.0))
        assert e.mu == pytest.approx(roots[0], rel=1e-12)
        assert e.nu == pytest.approx(roots[1], rel=1e-12)
        assert (e.mu, e.nu) == pytest.approx((1.0, E**2), rel=1e-12)

    def test_repeated_root_rejected(self):
        # window bound 2/sqrt(1) = 2 would give mu = nu = 1
        with pytest.raises(WindowViolation):
            BoundaryInvariant(1.0, 2.0)

    @pytest.mark.parametrize(
        "lam, tau",
        [
            (1e-30, 9.999999999999998e59),
            (3e-110, 1.1111111111111111e219),
            (1e-10, 200000.0),
            (4.894300578615495e-153, 2.858805946984922e76),
            (4.7707371e-316, 9.156663470561607e157),
        ],
        ids=["mu_rounds_onto_lambda", "tau_squared_overflows", "discriminant_zero",
             "discriminant_negative", "discriminant_negative_tau_squared_overflows"],
    )
    def test_no_float_spectrum_inside_window(self, lam, tau):
        b = BoundaryInvariant(lam, tau)
        with pytest.raises(WindowViolation, match="no spectrum lambda < mu < nu"):
            eigen_from_boundary(b)

    @pytest.mark.parametrize("lam, tau", [(1e-100, 9.99999999999999e199),
                                          (6.772848111380327e-82, 3.9711985401406063e161)])
    def test_spectrum_where_tau_squared_overflows(self, lam, tau):
        # tau**2 is inf; nu = tau (1 + sqrt(1 - 4/(lam tau^2))) / 2 needs no square
        e = eigen_from_boundary(BoundaryInvariant(lam, tau))
        assert lam < e.mu < e.nu
        assert e.nu == pytest.approx(tau, rel=1e-15)
        assert e.mu == pytest.approx(1.0 / (lam * tau), rel=1e-15)


class TestBoundaryFromEigen:
    @pytest.mark.parametrize(
        "triple, expected",
        [
            ((0.2, 1.0, 5.0), (0.2, 6.0)),
            ((0.1, 0.5, 20.0), (0.1, 20.5)),
            ((E**-2, 1.0, E**2), (E**-2, E**2 + 1.0)),
        ],
    )
    def test_direct_sum(self, triple, expected):
        b = boundary_from_eigen(EigenTriple(*triple))
        assert (b.lam, b.tau) == pytest.approx(expected, rel=1e-14)


class TestLengthFunctions:
    @pytest.mark.parametrize(
        "triple, expected",
        [
            ((0.2, 1.0, 5.0), (math.log(5.0), math.log(5.0))),
            ((E**-2, 1.0, E**2), (2.0, 2.0)),
            ((0.1, 0.5, 20.0), (math.log(40.0), math.log(5.0))),
        ],
    )
    def test_direct_logs(self, triple, expected):
        pair = length_functions(EigenTriple(*triple))
        assert (pair.ell1, pair.ell2) == pytest.approx(expected, rel=1e-13)
        assert pair.ell1 > 0 and pair.ell2 > 0


class TestReverseOrientation:
    def test_spectrum_inversion(self):
        # oracle: invert and sort the spectrum (0.1, 0.5, 20)
        r = reverse_orientation(BoundaryInvariant(0.1, 20.5))
        assert r.lam == pytest.approx(1.0 / 20.0, rel=1e-13)
        assert r.tau == pytest.approx(1.0 / 0.1 + 1.0 / 0.5, rel=1e-13)

    def test_inversion_symmetric_spectrum_fixed(self):
        r = reverse_orientation(BoundaryInvariant(0.2, 6.0))
        assert (r.lam, r.tau) == pytest.approx((0.2, 6.0), rel=1e-13)

    def test_involution(self):
        b = BoundaryInvariant(0.05, 12.0)
        rr = reverse_orientation(reverse_orientation(b))
        assert (rr.lam, rr.tau) == pytest.approx((0.05, 12.0), rel=1e-10)


class TestCheckWindow:
    def test_inside(self):
        check = check_window(0.2, 6.0)
        assert check
        assert check.lower == pytest.approx(2.0 / math.sqrt(0.2))
        assert check.upper == pytest.approx(25.2)

    def test_below_lower_bound(self):
        check = check_window(0.2, 4.0)
        assert not check
        assert any("lower" in msg for msg in check.failures)

    @pytest.mark.parametrize("lam, tau", [(2.0, 2.0), (1e300, 6.0)])
    def test_lambda_not_below_one(self, lam, tau):
        # both bounds hold, but for lambda >= 1 they no longer force lambda < mu
        check = check_window(lam, tau)
        assert not check
        assert check.failures == (f"lambda={lam!r} is not below 1",)

    def test_negative_lambda(self):
        check = check_window(-1.0, 6.0)
        assert not check
        assert any("positive" in msg for msg in check.failures)

    @pytest.mark.parametrize("lam", [1e-200, 5e-324])
    def test_underflowing_square(self, lam):
        # lam * lam is 0.0: the upper bound is infinite instead of a division by zero
        check = check_window(lam, 6.0)
        assert not check
        assert check.upper == math.inf
        assert len(check.failures) == 1 and "lower bound" in check.failures[0]
        assert check_window(lam, 4.0 / math.sqrt(lam))

    def test_edges_rejected(self):
        assert not check_window(0.25, 4.0)
        assert not check_window(0.25, 4.0 + 5e-13)
        assert check_window(0.25, 4.001)
        assert not check_window(0.25, 16.25)
        assert not check_window(0.25, math.nan)


@given(window_pairs())
@settings(max_examples=300, deadline=None)
def test_boundary_round_trip(pair):
    b = BoundaryInvariant(*pair)
    back = boundary_from_eigen(eigen_from_boundary(b))
    assert back.lam == pytest.approx(b.lam, rel=1e-12)
    assert back.tau == pytest.approx(b.tau, rel=1e-12)


@given(window_pairs())
@settings(max_examples=300, deadline=None)
def test_product_preserved(pair):
    e = eigen_from_boundary(BoundaryInvariant(*pair))
    assert e.lam * e.mu * e.nu == pytest.approx(1.0, rel=1e-12)


@given(window_pairs())
@settings(max_examples=300, deadline=None)
def test_reverse_is_involution(pair):
    b = BoundaryInvariant(*pair)
    rr = reverse_orientation(reverse_orientation(b))
    assert rr.lam == pytest.approx(b.lam, rel=1e-10)
    assert rr.tau == pytest.approx(b.tau, rel=1e-10)


@given(window_pairs())
@settings(max_examples=300, deadline=None)
def test_reverse_swaps_lengths(pair):
    # near the window edges one length is tiny and the root extraction for
    # the reversed pair cancels, so the comparison is absolute, not relative
    b = BoundaryInvariant(*pair)
    forward = length_functions(eigen_from_boundary(b))
    backward = length_functions(eigen_from_boundary(reverse_orientation(b)))
    assert backward.ell1 == pytest.approx(forward.ell2, abs=1e-10)
    assert backward.ell2 == pytest.approx(forward.ell1, abs=1e-10)


@given(st.floats(min_value=0.01, max_value=0.95), st.floats(min_value=0.1, max_value=30.0))
@settings(max_examples=300, deadline=None)
def test_window_agrees_with_construction(lam, tau):
    check = check_window(lam, tau)
    if check:
        e = eigen_from_boundary(BoundaryInvariant(lam, tau))
        assert e.lam < e.mu < e.nu
    else:
        with pytest.raises(WindowViolation):
            BoundaryInvariant(lam, tau)


def boundary_probes():
    """(lambda, tau) with log lambda in [-745, -1e-3] and tau mid-window (on a
    log scale) or within 1e-16 to 1e-3, relative, of either bound."""
    return st.tuples(
        st.floats(min_value=-745.0, max_value=-1e-3),
        st.sampled_from(("mid", "lower", "upper")),
        st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
        st.floats(min_value=-16.0, max_value=-3.0),
    ).map(_probe_from_coords)


def _probe_from_coords(coords):
    log_lam, place, fraction, log10_gap = coords
    lam = math.exp(log_lam)
    gap = 10.0**log10_gap
    # the bounds check_window uses; upper is inf once lam * lam underflows
    lower, upper, _ = check_window(lam, 1.0)
    if place == "lower":
        return (lam, lower * (1.0 + gap))
    if place == "upper":
        return (lam, upper * (1.0 - gap))
    log_lower = math.log(2.0) - 0.5 * log_lam
    log_upper = -2.0 * log_lam + math.log1p(lam**3)  # log(lam + 1/lam^2) without overflow
    return (lam, math.exp(min(log_lower + fraction * (log_upper - log_lower), 709.0)))


@given(boundary_probes())
@settings(max_examples=1000, deadline=None)
def test_spectrum_is_refused_or_sorted_with_unit_product(pair):
    # the two properties EigenTriple is documented to have, on every pair that
    # eigen_from_boundary does not refuse, including pairs rounded onto a bound
    try:
        e = eigen_from_boundary(BoundaryInvariant(*pair))
    except WindowViolation:
        return
    assert 0.0 < e.lam < e.mu < e.nu
    assert abs(e.lam * e.mu * e.nu - 1.0) <= 1e-12
