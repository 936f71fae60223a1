"""Draw the normalized flag configuration of a pair of pants as SVG.

The picture shows the inner coordinate triangle, the three adjacent
triangles with their outer vertices, and the three flag lines, all in the
affine chart X+Y+Z = 1.  Two files are written: a symmetric configuration
and one with a large upper triangle invariant, to show how the outer
vertices move.
"""

from pathlib import Path

from convexproj.flags import config_from_fg
from convexproj.render import render_config_svg

out_dir = Path(__file__).resolve().parent
sigma = 0.5 * -1.6094379124341003  # log sqrt(0.2)

symmetric = config_from_fg((sigma,) * 3, (sigma,) * 3, 0.0)
print(f"symmetric configuration: x = {symmetric.x}, a2 = {symmetric.a2:.6f}")
path = out_dir / "config_symmetric.svg"
path.write_text(render_config_svg(symmetric))
print(f"wrote {path}")

sheared = config_from_fg((-0.8, -1.6, -0.4), (-1.2, -0.5, -1.9), 0.9)
print(f"sheared configuration:   x = {sheared.x:.6f}, a2 = {sheared.a2:.6f}")
path = out_dir / "config_sheared.svg"
path.write_text(render_config_svg(sheared))
print(f"wrote {path}")

print()
print("the triangle-invariant scale x moves the outer vertices a3 and c1:")
for tau_plus in (0.0, 2.0):
    c = config_from_fg((-1.0,) * 3, (-1.0,) * 3, tau_plus)
    print(f"  tau_plus = {tau_plus}: a3 = {c.a3:.6f}, c1 = {c.c1:.6f}")
