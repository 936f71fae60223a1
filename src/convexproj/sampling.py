"""Random coordinate tuples for tests and demos.

The Goldman sampler draws log(lambda) uniformly in [-3, -0.1], tau uniformly
in the boundary window shrunk by a factor 1e-3 on both sides, and s, t
log-uniformly in [e^-2, e^2]; this keeps clear of the degenerate boundary
while exercising a wide dynamic range.  The shear sampler draws all six
shears in [-2.5, -0.1] and then picks triangle invariants compatible with
length positivity, keeping every length at least LENGTH_MARGIN.
"""

from __future__ import annotations

import math

import numpy as np

from .pants import FGPants, GoldmanPants
from .spectral import BoundaryInvariant
from .surface import PantsDecomposition, SurfaceGoldman

WINDOW_SHRINK = 1e-3
LENGTH_MARGIN = 0.05


def random_boundary_invariant(rng: np.random.Generator) -> BoundaryInvariant:
    lam = math.exp(rng.uniform(-3.0, -0.1))
    lower = 2.0 / math.sqrt(lam) * (1.0 + WINDOW_SHRINK)
    upper = (lam + 1.0 / (lam * lam)) * (1.0 - WINDOW_SHRINK)
    return BoundaryInvariant(lam, rng.uniform(lower, upper))


def random_goldman_pants(rng: np.random.Generator) -> GoldmanPants:
    boundary = tuple(random_boundary_invariant(rng) for _ in range(3))
    s = math.exp(rng.uniform(-2.0, 2.0))
    t = math.exp(rng.uniform(-2.0, 2.0))
    return GoldmanPants(boundary, s, t)


def random_fg_pants(rng: np.random.Generator) -> FGPants:
    sigma1 = tuple(rng.uniform(-2.5, -0.1, 3).tolist())
    sigma2 = tuple(rng.uniform(-2.5, -0.1, 3).tolist())
    cap = min(-sigma2[(i + 1) % 3] - sigma1[(i - 1) % 3] for i in range(3))
    tau_plus = rng.uniform(-1.0, 1.0)
    tau_minus = rng.uniform(-1.0, cap - tau_plus - LENGTH_MARGIN)
    return FGPants(sigma1, sigma2, tau_plus, tau_minus)


def random_surface_goldman(d: PantsDecomposition, rng: np.random.Generator) -> SurfaceGoldman:
    curves = {key: random_boundary_invariant(rng) for key in d.curve_names()}
    uv = {key: (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for key in d.internal_curves()}
    pants = {
        key: (math.exp(rng.uniform(-2.0, 2.0)), math.exp(rng.uniform(-2.0, 2.0)))
        for key in d.pants
    }
    return SurfaceGoldman(curves, uv, pants)
