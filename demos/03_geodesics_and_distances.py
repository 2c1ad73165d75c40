"""Geodesics and distances on polar metric grids.

A geodesic on the flat disc is a straight line; on the round sphere the
law of cosines gives its distance profile in closed form.  Distances
between arbitrary points come from bisecting the launch angle until the
shot hits its target.
"""

import numpy as np

from geoprofile import (PolarPoint, geodesic_integrate, distance,
                        distance_profile)
from geoprofile.surfaces import constant_curvature_grid

flat = constant_curvature_grid(0.0, 2.0)
path = geodesic_integrate(flat, PolarPoint(1.0, 0.0), 0.0, +1, 0.8,
                          step=1e-3)
t = path.t_nodes
print("flat disc, start (1, 0) tangentially:")
print(f"  max |rho - sqrt(1+t^2)| = "
      f"{np.max(np.abs(path.rho - np.sqrt(1 + t * t))):.2e}")
print(f"  max |phi - atan(t)|     = "
      f"{np.max(np.abs(path.phi - np.arctan(t))):.2e}")
print(f"  unit-speed residual     = {path.unit_speed_residual:.2e}")

d = distance(flat, PolarPoint(1, 0), PolarPoint(1, np.pi / 2))
print(f"  d((1,0),(1,pi/2)) = {d:.12f}  (sqrt(2) = {np.sqrt(2):.12f})")

sphere = constant_curvature_grid(1.0, 1.5)
m = 0.3
path = geodesic_integrate(sphere, PolarPoint(m, 0.0), 0.0, +1, 0.5,
                          step=1e-3)
prof = distance_profile(path)
oracle = np.arccos(np.cos(m) * np.cos(prof.t_nodes))
print("\nunit sphere, start (0.3, 0) tangentially:")
print(f"  max |rho - arccos(cos m cos t)| = "
      f"{np.max(np.abs(prof.rho - oracle)):.2e}")

p, q = PolarPoint(0.3, 0.0), PolarPoint(0.4, 0.5)
oracle_d = np.arccos(np.cos(0.3) * np.cos(0.4)
                     + np.sin(0.3) * np.sin(0.4) * np.cos(0.5))
print(f"  d(p,q) shooting = {distance(sphere, p, q):.10f}, "
      f"law of cosines = {oracle_d:.10f}")
