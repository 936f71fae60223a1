"""Surface-level coordinates: decompositions, conversion, closure, counts.

Builds a once-punctured torus (one self-glued pants) and a closed genus-2
surface (two pants, three gluing curves), converts random Goldman bundles
to the shear side and back, and shows the closure equalities that the shear
data satisfies across every gluing curve.
"""

import numpy as np

from convexproj.sampling import random_surface_goldman
from convexproj.surface import (
    ArcData,
    BoundarySlot,
    Gluing,
    bd_to_goldman,
    build_decomposition,
    coordinate_count,
    goldman_to_bd,
    validate_closure,
)

rng = np.random.default_rng(2024)

torus = build_decomposition(
    ["P0"],
    [Gluing("c1", ("P0", 0), ("P0", 1), ArcData(2, 3))],
    [BoundarySlot("a1", ("P0", 2))],
)
genus2 = build_decomposition(
    ["P0", "P1"],
    [Gluing(f"c{k}", ("P0", k), ("P1", k), ArcData(1, 2)) for k in range(3)],
    [],
)

for name, d in (("once-punctured torus", torus), ("closed genus 2", genus2)):
    print(f"=== {name} ===")
    print(f"genus {d.genus}, boundaries {d.boundary_count}, "
          f"Euler characteristic {d.euler_characteristic}")
    counts = coordinate_count(d.genus, d.boundary_count)
    print(f"coordinate counts: goldman {counts.goldman_total}, "
          f"raw shears {counts.bd_raw}, closure constraints {counts.closure_constraints}")

    g = random_surface_goldman(d, rng)
    b = goldman_to_bd(d, g)
    report = validate_closure(d, b)
    for curve, closure in report.curves.items():
        print(f"  curve {curve}: plus lengths "
              f"({closure.plus_lengths.ell1:.6f}, {closure.plus_lengths.ell2:.6f}), "
              f"minus lengths "
              f"({closure.minus_lengths.ell1:.6f}, {closure.minus_lengths.ell2:.6f})")
        print(f"             swap residuals {closure.residuals[0]:.2e} "
              f"{closure.residuals[1]:.2e}")

    back = bd_to_goldman(d, b)
    worst = max(
        abs(back.curves[k].lam / g.curves[k].lam - 1.0) for k in g.curves
    )
    print(f"round trip worst relative error on lambda: {worst:.2e}")
    print()
