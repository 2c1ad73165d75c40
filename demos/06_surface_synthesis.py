"""Full round-trip: profile -> metric -> independent verification.

A profile generated on a variable-curvature disc is analyzed, the
radial correction is extended annulus by annulus and glued, the metric
coefficient is integrated, and the result is verified by routes that
never reuse the construction: finite-difference curvature and the grid
interpolant in the geodesic equation.
"""

import numpy as np

from geoprofile import default_constants, synthesize, verify_synthesis
from geoprofile.surfaces import variable_curvature_grid, grid_profile

consts = default_constants()


def K_fn(r, theta):
    return (0.15 + 0.3 * np.sin(5.0 * r + 0.7)) * np.ones_like(theta)


grid = variable_curvature_grid(K_fn, 0.065)
profile, path = grid_profile(grid, 0.007, 0.038)
print(f"generated profile: m = {profile.m:.4f}, "
      f"max rho = {np.max(profile.rho):.4f}, {len(profile)} samples")

res = synthesize(profile, consts)
print(f"\nsynthesis: K0 = {res.summary.K0:.6f}, "
      f"grid {len(res.metric.theta_nodes)} x {len(res.metric.r_nodes)}")
print("annulus pieces:")
for piece in res.decomposition.all_pieces():
    print(f"  k={piece.k:+d} side={piece.side:>4s} case {piece.case}  "
          f"lambda={piece.lam:8.3f}  delta={piece.delta:.3g}")

rep = verify_synthesis(res, profile, consts)
print("\nindependent verification:")
print("\n".join(rep.summary_lines()))

# the construction carries curvature information along the curve: the
# reconstructed field, evaluated where the geodesic actually runs, must
# match the generating one
K_fd, _ = res.metric.curvature_fd()
print("\nreconstructed curvature along the curve vs the generating field:")
for frac in np.linspace(0.05, 0.95, 6):
    i = int(frac * (len(profile) - 1))
    r, th = profile.rho[i], res.phi[i]
    ir = int(np.argmin(np.abs(res.metric.r_nodes - r)))
    it = int(np.argmin(np.abs(res.metric.theta_nodes - th)))
    print(f"  t = {profile.t_nodes[i]:+.4f} (r = {r:.4f}): "
          f"K_fd = {K_fd[it, ir]:+.4f}   "
          f"K_true = {float(K_fn(r, np.zeros(1))[0]):+.4f}")
