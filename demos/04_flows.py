"""Twist and bulge flows along a decomposition curve.

Both flows are translations: a twist adds (+u, +u) to the curve's shear
pair, a bulge adds (-3v, +3v); on the Goldman side they move the (u, v)
pair directly.  The demo checks the group law and that flowing commutes
with changing coordinates.
"""

import numpy as np

from convexproj.sampling import random_surface_goldman
from convexproj.surface import (
    ArcData,
    BoundarySlot,
    Gluing,
    build_decomposition,
    bulge_flow,
    goldman_to_bd,
    twist_flow,
)

rng = np.random.default_rng(7)

d = build_decomposition(
    ["P0"],
    [Gluing("c1", ("P0", 0), ("P0", 1), ArcData(2, 3))],
    [BoundarySlot("a1", ("P0", 2))],
)
g = random_surface_goldman(d, rng)
b = goldman_to_bd(d, g)

print(f"start:  (u, v) = {tuple(round(x, 6) for x in g.uv['c1'])}")
print(f"        shears = {tuple(round(x, 6) for x in b.curve_shears['c1'])}")

twisted = twist_flow(d, b, "c1", 1.0)
print(f"twist 1.0:   shears -> {tuple(round(x, 6) for x in twisted.curve_shears['c1'])}")
bulged = bulge_flow(d, b, "c1", 0.1)
print(f"bulge 0.1:   shears -> {tuple(round(x, 6) for x in bulged.curve_shears['c1'])}")

print()
print("group law: twist(0.3) then twist(0.4) equals twist(0.7)")
a = twist_flow(d, twist_flow(d, g, "c1", 0.3), "c1", 0.4)
c = twist_flow(d, g, "c1", 0.7)
print(f"  difference = {abs(a.uv['c1'][0] - c.uv['c1'][0]):.2e}")

print()
print("equivariance: convert-then-flow equals flow-then-convert")
left = goldman_to_bd(d, bulge_flow(d, twist_flow(d, g, "c1", 0.5), "c1", -0.2))
right = bulge_flow(d, twist_flow(d, b, "c1", 0.5), "c1", -0.2)
diff = max(
    abs(left.curve_shears["c1"][0] - right.curve_shears["c1"][0]),
    abs(left.curve_shears["c1"][1] - right.curve_shears["c1"][1]),
)
print(f"  difference on the curve shears = {diff:.2e}")
print("  pants data untouched by both routes:",
      left.pants["P0"] == right.pants["P0"])
