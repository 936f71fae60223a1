"""Certifying conversions with flag geometry.

The closed-form conversions could be self-consistently wrong, so this demo
rebuilds everything from scratch: it places actual flags in homogeneous
coordinates, recomputes the shear and triangle invariants with wedge
products, and reconstructs the three boundary holonomy matrices from the
way they move the ideal triangles.
"""

import numpy as np

from convexproj.flags import (
    config_from_fg,
    fg_from_config,
    oracle_check,
    reconstruct_monodromy,
    triple_ratio_log,
)
from convexproj.pants import FGPants, fg_to_goldman
from convexproj.spectral import eigen_from_boundary

np.set_printoptions(precision=6, suppress=True)

f = FGPants(sigma1=(-0.9, -1.4, -0.5), sigma2=(-1.1, -0.3, -1.8),
            tau_plus=0.4, tau_minus=-0.2)

print("=== the normalized configuration ===")
config = config_from_fg(f.sigma1, f.sigma2, f.tau_plus)
print(f"x  = {config.x:.6f}")
print(f"a2 = {config.a2:.6f}  a3 = {config.a3:.6f}")
print(f"b1 = {config.b1:.6f}  b3 = {config.b3:.6f}")
print(f"c1 = {config.c1:.6f}  c2 = {config.c2:.6f}")
sigma1, sigma2, tau_plus = fg_from_config(config)
print(f"dictionary read-back matches: "
      f"{np.allclose(sigma1, f.sigma1) and np.allclose(sigma2, f.sigma2)}")

print()
print("=== wedge-product recomputation ===")
print(f"triple ratio log of the inner flags = {triple_ratio_log(*config.inner_flags):.12f}")
print(f"tau_plus fed in                     = {f.tau_plus}")
report = oracle_check(f)
print(f"shear residuals:    sigma1 {report.sigma1_residuals}")
print(f"                    sigma2 {report.sigma2_residuals}")
print(f"triangle residual:  {report.tau_plus_residual:.2e}")
print(f"triangle-sum check: {report.tau_sum_residual:.2e}")

print()
print("=== holonomy reconstruction ===")
g = fg_to_goldman(f)
eigen = [eigen_from_boundary(b) for b in g.boundary]
result = reconstruct_monodromy(config, eigen)
matrices = [np.array(holonomy.rows) for (holonomy,) in result.branches]
for i, m in enumerate(matrices):
    spectrum = np.sort(np.linalg.eigvals(m).real)
    print(f"M{i + 1}: det = {np.linalg.det(m):.12f}  spectrum = {spectrum}")
    (holonomy,) = result.branches[i]
    print(f"    flag residual: {holonomy.flag_residual:.1e}")
m1 = matrices[0]
print()
print("M1 fixes [1,0,0] with the smallest eigenvalue:")
print(f"  M1 @ [1,0,0] = {m1 @ np.array([1.0, 0.0, 0.0])}   lambda_1 = {eigen[0].lam:.6f}")
