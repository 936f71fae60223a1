"""Pair of pants: boundary spectra and the two coordinate systems.

Walks through the eigenvalue algebra for one boundary curve, then converts
a full pair-of-pants tuple from Goldman data (lambda_i, tau_i, s, t) to
shear/triangle data and back.
"""

import math

from convexproj.pants import (
    GoldmanPants,
    boundary_lengths,
    crossratios,
    fg_to_goldman,
    goldman_to_fg,
    internal_consistency,
    solve_s,
)
from convexproj.spectral import (
    BoundaryInvariant,
    check_window,
    eigen_from_boundary,
    length_functions,
    reverse_orientation,
)

print("=== one boundary curve ===")
b = BoundaryInvariant(0.2, 6.0)
e = eigen_from_boundary(b)
print(f"(lambda, tau) = ({b.lam}, {b.tau})")
print(f"spectrum      = ({e.lam}, {e.mu}, {e.nu})   product = {e.lam * e.mu * e.nu}")
pair = length_functions(e)
print(f"lengths       = ({pair.ell1:.6f}, {pair.ell2:.6f})")

r = reverse_orientation(b)
print(f"reversed      = ({r.lam}, {r.tau})   (this spectrum is inversion symmetric)")

print()
print("window test for a few tau values at lambda = 0.2:")
for tau in (4.0, 6.0, 25.0, 26.0):
    check = check_window(0.2, tau)
    print(f"  tau = {tau:5}  ->  {'inside' if check else 'outside: ' + check.failures[0]}")

print()
print("=== the hyperbolic symmetric tuple ===")
g = GoldmanPants((BoundaryInvariant(0.2, 6.0),) * 3, s=1.0, t=5.0 + math.sqrt(5.0))
f = goldman_to_fg(g)
print(f"sigma1    = {tuple(round(v, 12) for v in f.sigma1)}")
print(f"sigma2    = {tuple(round(v, 12) for v in f.sigma2)}")
print(f"tau_plus  = {f.tau_plus:.3e}   tau_minus = {f.tau_minus:.3e}")
print(f"log sqrt(0.2) = {0.5 * math.log(0.2):.12f}  (all shears equal this)")

back = fg_to_goldman(f)
print(f"back: lambda = {back.boundary[0].lam}, tau = {back.boundary[0].tau}, "
      f"s = {back.s}, t = {back.t}")

print()
print("boundary lengths read off the shear data:")
for i, pair in enumerate(boundary_lengths(f)):
    print(f"  boundary {i + 1}: ell1 = {pair.ell1:.6f}, ell2 = {pair.ell2:.6f}")

print()
print("=== crossratio quadratics ===")
rho = crossratios(f)
print(f"crossratios = {tuple(round(r, 9) for r in rho)}  (all exceed 1)")
lam = [bb.lam for bb in g.boundary]
for i in range(3):
    s = solve_s(rho[i], lam[i], lam[(i + 1) % 3], lam[(i - 1) % 3], g.boundary[i].tau)
    print(f"  equation {i + 1} recovers s = {s}")
report = internal_consistency(g)
print(f"identity residuals = {tuple(f'{r:.2e}' for r in report.residuals)}")
