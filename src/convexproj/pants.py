"""Coordinates on the pair of pants and the conversions between them.

Two global coordinate systems are supported:

* ``GoldmanPants``: the three boundary invariants (lambda_i, tau_i) plus the
  two internal parameters s, t > 0.
* ``FGPants``: the Fock-Goncharov data of the two ideal triangles, namely
  the shear invariants sigma_1(B_i), sigma_2(B_i) of the three spiraling
  lines and the triangle invariants tau_111 of the upper and lower triangle.

Arrays are 0-based: index i holds the object labelled i+1 in the usual
1-based cyclic notation (B_1 is sigma1[0], A_1 is boundary[0], and so on);
cyclic neighbours are (i+1) % 3 and (i-1) % 3.

The conversion formulas are closed-form.  Going from shears to Goldman data,
the two length functions of boundary A_i are

    ell1(A_i) = -sigma1(B_{i+1}) - sigma2(B_{i-1})
    ell2(A_i) = -sigma2(B_{i+1}) - sigma1(B_{i-1}) - tau_plus - tau_minus

and lambda_i, mu_i, nu_i follow from ell1, ell2 and lambda*mu*nu = 1, while

    s = exp((sum sigma1 - sum sigma2) / 6)
    t = exp(-tau_plus) * (e^{-sigma2(B_2)}+1)(e^{-sigma2(B_3)}+1) / (e^{sigma1(B_3)}+1).

In the other direction

    sigma1(B_i) = log(s * mu_{i-1} * sqrt(lambda_{i-1} lambda_{i+1} / lambda_i))
    sigma2(B_i) = log((mu_{i+1} / s) * sqrt(lambda_{i-1} lambda_{i+1} / lambda_i))

with tau_plus obtained by solving the expression for t, and tau_minus pinned
down by the identity tau_plus + tau_minus = -(log mu_1 + log mu_2 + log mu_3).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    CoordinateError,
    DegenerateConfiguration,
    DomainViolation,
    NoPositiveRoot,
    WindowViolation,
)
from .spectral import (_REAL, BoundaryInvariant, LengthPair, _new, _Record, _set,
                       eigen_from_boundary)


def _exp(x: float, what: str, error: type[CoordinateError]) -> float:
    """e^x, raising `error` naming the value when it overflows or underflows a float."""
    try:
        value = math.exp(x)
    except OverflowError as err:
        raise error(f"{what} = exp({x!r}) overflows a float") from err
    if value == 0.0:
        raise error(f"{what} = exp({x!r}) underflows a float")
    return value


def _log1pexp(x: float) -> float:
    """log(1 + e^x) without overflow for large positive x."""
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


class GoldmanPants(_Record):
    """Goldman's eight parameters for a convex projective pair of pants."""

    __slots__ = _fields = ("boundary", "s", "t")

    def __init__(self, boundary: tuple[BoundaryInvariant, ...], s: float, t: float):
        if len(boundary) != 3:
            raise ValueError("exactly three boundary invariants are required")
        for name, value in (("s", s), ("t", t)):
            if not (isinstance(value, _REAL) and math.isfinite(value) and value > 0):
                raise ValueError(f"internal parameter {name} must be positive, got {value!r}")
        _set(self, "boundary", boundary)
        _set(self, "s", s)
        _set(self, "t", t)


class FGPants(_Record):
    """Fock-Goncharov invariants of a pair of pants.

    Construction checks only that the entries are finite reals; whether the
    tuple lies in the valid domain is a separate, explicit test
    (`validate_fg_domain`), so that invalid data can still be loaded and
    diagnosed.
    """

    __slots__ = _fields = ("sigma1", "sigma2", "tau_plus", "tau_minus")

    def __init__(self, sigma1: tuple[float, float, float], sigma2: tuple[float, float, float],
                 tau_plus: float, tau_minus: float):
        for name, values in (("sigma1", sigma1), ("sigma2", sigma2)):
            if not (len(values) == 3 and math.isfinite(values[0]) and math.isfinite(values[1])
                    and math.isfinite(values[2])):
                raise ValueError(f"{name} must hold three finite reals, got {values!r}")
        if not math.isfinite(tau_plus):
            raise ValueError("tau_plus must be finite")
        if not math.isfinite(tau_minus):
            raise ValueError("tau_minus must be finite")
        _set(self, "sigma1", sigma1)
        _set(self, "sigma2", sigma2)
        _set(self, "tau_plus", tau_plus)
        _set(self, "tau_minus", tau_minus)


class DomainCheck(NamedTuple):
    """Result of the length-positivity test, listing all six lengths."""

    lengths: tuple[LengthPair, LengthPair, LengthPair]
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return not self.failures


def boundary_lengths(f: FGPants) -> tuple[LengthPair, LengthPair, LengthPair]:
    """The (ell1, ell2) pair of each boundary component, from the shear data:
    ell1(A_i) = -sigma1(B_{i+1}) - sigma2(B_{i-1}) and
    ell2(A_i) = -sigma2(B_{i+1}) - sigma1(B_{i-1}) - tau_plus - tau_minus."""
    a1, b1, c1 = f.sigma1
    a2, b2, c2 = f.sigma2
    total = f.tau_plus + f.tau_minus
    return (_new(LengthPair, (-b1 - c2, -b2 - c1 - total)),
            _new(LengthPair, (-c1 - a2, -c2 - a1 - total)),
            _new(LengthPair, (-a1 - b2, -a2 - b1 - total)))


def validate_fg_domain(f: FGPants) -> DomainCheck:
    """A tuple is admissible iff all six boundary lengths are positive."""
    lengths = boundary_lengths(f)
    failures = ()
    for i, (ell1, ell2) in enumerate(lengths):
        if not ell1 > 0:
            failures += (f"ell1(A{i + 1}) = {ell1!r} is not positive",)
        if not ell2 > 0:
            failures += (f"ell2(A{i + 1}) = {ell2!r} is not positive",)
    return _new(DomainCheck, (lengths, failures))


_TAU_NAMES = ("tau(A1)", "tau(A2)", "tau(A3)")


def fg_to_goldman(f: FGPants) -> GoldmanPants:
    """Evaluate the closed-form map from shear/triangle data to Goldman data.

    Raises DomainViolation when the length-positivity test fails, before
    any exp, and WindowViolation when valid data far out (a shear of -800)
    puts a Goldman value beyond the float range: lambda, s or t underflows,
    or tau, s or t overflows.
    """
    lengths, failures = validate_fg_domain(f)
    if failures:
        raise DomainViolation("; ".join(failures))
    sigma1, sigma2 = f.sigma1, f.sigma2
    total = f.tau_plus + f.tau_minus
    invariants = []
    for i in range(3):
        a1 = sigma1[(i + 1) % 3]
        a2 = sigma2[(i + 1) % 3]
        b1 = sigma1[(i - 1) % 3]
        b2 = sigma2[(i - 1) % 3]
        log_lam = (a1 + 2.0 * a2 + 2.0 * b1 + b2 + 2.0 * total) / 3.0
        log_mu = (a1 - a2 - b1 + b2 - total) / 3.0
        # tau = mu + nu = mu * (1 + e^ell1)
        tau = _exp(log_mu + _log1pexp(lengths[i].ell1), _TAU_NAMES[i], WindowViolation)
        invariants.append(BoundaryInvariant(math.exp(log_lam), tau))
    s = _exp((sum(sigma1) - sum(sigma2)) / 6.0, "s", WindowViolation)
    t = _exp(
        -f.tau_plus
        + _log1pexp(-f.sigma2[1])
        + _log1pexp(-f.sigma2[2])
        - _log1pexp(f.sigma1[2]),
        "t", WindowViolation,
    )
    return GoldmanPants(tuple(invariants), s, t)


def goldman_to_fg(g: GoldmanPants) -> FGPants:
    """Evaluate the inverse map, from Goldman data to shear/triangle data.

    tau_minus is evaluated from its own closed-form quotient, which is the
    sum identity tau_plus + tau_minus = -sum(log mu_i) rearranged, so the
    identity holds algebraically (up to rounding).
    """
    eigen = [eigen_from_boundary(b) for b in g.boundary]
    log_lam = [math.log(e.lam) for e in eigen]
    log_mu = [math.log(e.mu) for e in eigen]
    log_s = math.log(g.s)
    sigma1 = []
    sigma2 = []
    for i in range(3):
        half = 0.5 * (log_lam[(i - 1) % 3] + log_lam[(i + 1) % 3] - log_lam[i])
        sigma1.append(log_s + log_mu[(i - 1) % 3] + half)
        sigma2.append(-log_s + log_mu[(i + 1) % 3] + half)
    log_t = math.log(g.t)
    log_a2, log_b3, log_a3x = _log1pexp(-sigma2[1]), _log1pexp(-sigma2[2]), _log1pexp(sigma1[2])
    tau_plus = log_a2 + log_b3 - log_t - log_a3x
    tau_minus = log_t + log_a3x - sum(log_mu) - log_a2 - log_b3
    return FGPants(tuple(sigma1), tuple(sigma2), tau_plus, tau_minus)


def crossratios(f: FGPants) -> tuple[float, float, float]:
    """The three crossratios of the four lines through each inner vertex.

    In terms of the normalized configuration these are rho_1 = b3*c2,
    rho_2 = a3*c1, rho_3 = a2*b1; substituting the shear dictionary gives

        rho_1 = (e^{-sigma2(B_3)}+1)(e^{sigma1(B_2)}+1)
        rho_2 = (e^{sigma1(B_3)}+1)(e^{-sigma2(B_1)}+1)
        rho_3 = (e^{-sigma2(B_2)}+1)(e^{sigma1(B_1)}+1)

    (the triangle invariant cancels in rho_2).  Each factor exceeds 1 or the
    product does, so every crossratio is greater than 1.  Like
    `flags.config_from_fg`, raises DegenerateConfiguration when a crossratio
    overflows a float, which valid data can make it do; `log_crossratios`
    holds every crossratio.  `validate` prints these for a bd file, the tests
    and acceptance criterion 3 take them as the float reference, and
    `perfbench/tracer.py` wraps this function by name.
    """
    log1, log2, log3 = log_crossratios(f)
    return (_exp(log1, "rho1", DegenerateConfiguration),
            _exp(log2, "rho2", DegenerateConfiguration),
            _exp(log3, "rho3", DegenerateConfiguration))


def log_crossratios(f: FGPants) -> tuple[float, float, float]:
    """log rho_1, log rho_2, log rho_3: each a sum of two `_log1pexp` terms,
    finite for every finite tuple, also where the crossratio overflows."""
    return (_log1pexp(-f.sigma2[2]) + _log1pexp(f.sigma1[1]),
            _log1pexp(f.sigma1[2]) + _log1pexp(-f.sigma2[0]),
            _log1pexp(-f.sigma2[1]) + _log1pexp(f.sigma1[0]))


def solve_s(rho: float, lam_prev: float, lam_self: float, lam_next: float,
            tau_self: float) -> float:
    """Unique positive root of the crossratio quadratic

        (lam_next/lam_self) s^2 + tau_self sqrt(lam_prev lam_next/lam_self) s + (1 - rho) = 0.

    All coefficients but the constant term are positive, so for rho > 1 the
    two roots have opposite signs and exactly one is positive.  The root is
    computed in the cancellation-free form q = -(b + sign(b) sqrt(b^2-4ac))/2,
    s = c/q, which is stable when tau_self dominates the discriminant.
    """
    if not rho > 1.0:
        raise NoPositiveRoot(f"crossratio must exceed 1, got {rho!r}")
    a = lam_next / lam_self
    b = tau_self * math.sqrt(lam_prev * lam_next / lam_self)
    c = 1.0 - rho
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return c / q


def quadratic_value(g: GoldmanPants, i: int) -> float:
    """Right-hand side of the i-th crossratio equation (0-based i), in floats,
    whose lambda products and s*s leave the range on far-out valid data, so
    `internal_consistency` judges by `log_quadratic_value`.  The tests and
    acceptance criterion 3 take this as the float reference, and
    `perfbench/tracer.py` wraps it by name."""
    lam = [b.lam for b in g.boundary]
    coeff = lam[(i - 1) % 3] / lam[(i + 1) % 3]
    middle = g.boundary[i].tau * math.sqrt(lam[i] * lam[(i - 1) % 3] / lam[(i + 1) % 3])
    return 1.0 + middle * g.s + coeff * g.s * g.s


def log_quadratic_value(g: GoldmanPants, i: int) -> float:
    """log of `quadratic_value(g, i)`, its three positive terms summed in log s
    and log lambda, so that it holds where s*s overflows a float."""
    return _log_quadratic(g, [math.log(b.lam) for b in g.boundary], math.log(g.s), i)


def _log_quadratic(g: GoldmanPants, log_lam: list[float], log_s: float, i: int) -> float:
    """`log_quadratic_value(g, i)` from the pants' log lambda_j and log s."""
    log_prev, log_self, log_next = log_lam[(i - 1) % 3], log_lam[i], log_lam[(i + 1) % 3]
    middle = math.log(g.boundary[i].tau) + 0.5 * (log_self + log_prev - log_next) + log_s
    square = log_prev - log_next + 2.0 * log_s
    top = max(0.0, middle, square)
    return top + math.log(math.exp(-top) + math.exp(middle - top) + math.exp(square - top))


class ConsistencyReport(NamedTuple):
    """Residuals of the three crossratio identities for one Goldman tuple.

    The identities involve (lambda_i, tau_i) and s only; the parameter t
    does not enter any of them.  ``crossratios`` holds log rho_i.
    """

    crossratios: tuple[float, float, float]
    residuals: tuple[float, float, float]
    max_residual: float


def internal_consistency(g: GoldmanPants) -> ConsistencyReport:
    """Convert to shear data and check all three crossratio identities against
    g's own (lambda_i, tau_i, s) in log space: ``crossratios`` holds log rho_i
    and ``residuals`` the differences from `log_quadratic_value`, each a
    relative residual, which stays finite wherever g's own floats do."""
    logs = log_crossratios(goldman_to_fg(g))
    log_lam, log_s = [math.log(b.lam) for b in g.boundary], math.log(g.s)
    residuals = tuple(abs(logs[i] - _log_quadratic(g, log_lam, log_s, i)) for i in range(3))
    return _new(ConsistencyReport, (logs, residuals, max(residuals)))
