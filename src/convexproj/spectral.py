"""Eigenvalue algebra for boundary holonomies.

A boundary holonomy of a convex projective structure is conjugate to a real
matrix with distinct positive eigenvalues lam < mu < nu whose product is 1.
Goldman's boundary invariants keep lam together with tau = mu + nu, subject
to the open window

    2/sqrt(lam) < tau < lam + 1/lam**2,

which together with 0 < lam < 1 is exactly the condition for (lam, tau) to
come from such a spectrum (for lam >= 1 the bounds no longer force lam < mu).
This module converts between the two presentations, evaluates the two
length functions, and computes the effect of reversing the orientation of
the curve (which inverts the spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import WindowViolation

# The window is open, so equality within EDGE_TOL of a bound is rejected.
EDGE_TOL = 1e-12


class WindowCheck(NamedTuple):
    """Outcome of the boundary-window test, with the bounds that were used."""

    lower: float
    upper: float
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return not self.failures


# What a check or kernel returns is a NamedTuple (what a caller builds and the
# class checks is a frozen dataclass).  The hot ones are built with
# tuple.__new__, which is what a NamedTuple's own constructor calls, without a
# Python-level call per result.
_new = tuple.__new__
_REAL = (int, float)
# The largest float: nan, the infinities and larger ints are not finite reals.
_FLOAT_MAX = 1.7976931348623157e308


def check_window(lam: float, tau: float) -> WindowCheck:
    """Test 0 < lam < 1 and 2/sqrt(lam) < tau < lam + 1/lam**2, strictly.

    Total: never raises. The returned object is truthy iff the pair is
    admissible; otherwise ``failures`` names each violated bound.
    """
    if not (isinstance(lam, _REAL) and 0 < lam <= _FLOAT_MAX):
        return _new(WindowCheck, (math.nan, math.nan,
                                  (f"lambda must be a positive finite real, got {lam!r}",)))
    lower = 2.0 / math.sqrt(lam)
    # a large int lam squares to inf, a lam below about 1.5e-162 to 0.0 (upper is then inf)
    square = float(lam) * lam
    upper = lam + 1.0 / square if square else math.inf
    failures = ()
    if lam >= 1.0:
        failures += (f"lambda={lam!r} is not below 1",)
    if not (isinstance(tau, _REAL) and -_FLOAT_MAX <= tau <= _FLOAT_MAX):
        failures += (f"tau must be a finite real, got {tau!r}",)
    else:
        if tau - lower <= EDGE_TOL:
            failures += (f"tau={tau!r} is not above the lower bound 2/sqrt(lambda)={lower!r}",)
        if upper - tau <= EDGE_TOL:
            failures += (
                f"tau={tau!r} is not below the upper bound lambda+1/lambda^2={upper!r}",)
    return _new(WindowCheck, (lower, upper, failures))


class EigenTriple(NamedTuple):
    """Sorted positive spectrum (lam, mu, nu) with lam*mu*nu = 1, as
    ``eigen_from_boundary`` returns it after its own order test."""

    lam: float
    mu: float
    nu: float


@dataclass(frozen=True)
class BoundaryInvariant:
    """Goldman's (lambda, tau) pair for one boundary holonomy."""

    lam: float
    tau: float

    def __post_init__(self):
        failures = check_window(self.lam, self.tau).failures
        if failures:
            raise WindowViolation("; ".join(failures))


class LengthPair(NamedTuple):
    """The two length functions ell1 = log nu - log mu, ell2 = log mu - log lam."""

    ell1: float
    ell2: float


def eigen_from_boundary(b: BoundaryInvariant) -> EigenTriple:
    """Recover the full spectrum from (lambda, tau).

    mu and nu are the roots of z**2 - tau*z + 1/lambda = 0; the smaller root
    is computed from the product of roots to avoid cancellation when the
    discriminant is close to tau**2.  Where tau**2 overflows a float, nu is
    taken as tau (1 + sqrt(1 - 4/(lam tau**2))) / 2 with the ratio divided out
    step by step.  Raises WindowViolation when rounding near a bound leaves no
    float spectrum lam < mu < nu.
    """
    square = b.tau * b.tau
    if square < math.inf:
        disc = square - 4.0 / b.lam
        nu = 0.5 * (b.tau + math.sqrt(disc)) if disc > 0.0 else math.nan
    else:
        disc = 1.0 - 4.0 / b.tau / (b.lam * b.tau)
        nu = 0.5 * b.tau * (1.0 + math.sqrt(disc)) if disc > 0.0 else math.nan
    mu = 1.0 / (b.lam * nu)
    if not b.lam < mu < nu:
        raise WindowViolation(
            f"lambda={b.lam!r}, tau={b.tau!r} give no spectrum lambda < mu < nu "
            f"in floating point (mu={mu!r}, nu={nu!r})"
        )
    return _new(EigenTriple, (b.lam, mu, nu))


def boundary_from_eigen(e: EigenTriple) -> BoundaryInvariant:
    """Project a spectrum to Goldman's (lambda, mu + nu)."""
    return BoundaryInvariant(e.lam, e.mu + e.nu)


def length_functions(e: EigenTriple) -> LengthPair:
    """Lengths of the triple `eigen_from_boundary` returns, positive as it is sorted."""
    log_mu = math.log(e.mu)
    return LengthPair(math.log(e.nu) - log_mu, log_mu - math.log(e.lam))


def reverse_orientation(b: BoundaryInvariant) -> BoundaryInvariant:
    """Invariants of the inverse holonomy, whose spectrum is (1/nu, 1/mu, 1/lam).

    This is an involution: applying it twice returns the input up to
    floating-point error.
    """
    e = eigen_from_boundary(b)
    return BoundaryInvariant(1.0 / e.nu, 1.0 / e.lam + 1.0 / e.mu)
