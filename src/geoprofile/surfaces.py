"""Model surfaces and their closed-form distance profiles.

Constant-curvature discs have explicit metric coefficients and their
geodesics obey the spherical or hyperbolic law of cosines, giving
profiles with analytic derivatives.  These families drive calibration,
demos, and the independent oracles in the test-suite; variable-curvature
grids are built by integrating the radial Jacobi equation per ray.
"""

import numpy as np

from .special_functions import sin_k
from .profiles import DistanceProfile
from .geodesy import (MetricGrid, PolarPoint, GeodesicPath, geodesic_integrate,
                      distance_profile)
from .ode_core import _rk4

WORKING_RADIUS = 0.05  # default bound on max rho for synthesis-grade profiles
_R_MIN_FACTOR = 1e-4   # innermost node of the grid builders, as a fraction of R


# -- closed-form profile families -------------------------------------------


def flat_profile(m, interval, n=2001):
    """Distance from a Euclidean line to a point at distance m."""
    def rho(t):
        return np.sqrt(m * m + np.asarray(t, dtype=float) ** 2)

    def d1(t):
        t = np.asarray(t, dtype=float)
        return t / np.sqrt(m * m + t * t)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return m * m / np.sqrt(m * m + t * t) ** 3

    return DistanceProfile.from_callable(rho, interval, n=n, d1=d1, d2=d2)


def spherical_profile(K, m, interval, n=2001):
    """Profile of a geodesic at minimal distance m on curvature K > 0.

    rho is evaluated through half-angle sines (not arccos of a value
    near 1), which keeps it accurate to an ulp at small radii.
    """
    s = np.sqrt(K)

    def rho(t):
        t = np.asarray(t, dtype=float)
        a = np.sin(0.5 * s * m)
        bq = np.sin(0.5 * s * t) ** 2
        sq = a * a + bq - 2.0 * a * a * bq
        return 2.0 * np.arcsin(np.sqrt(sq)) / s

    def d1(t):
        t = np.asarray(t, dtype=float)
        sr = s * rho(t)
        return np.cos(s * m) * np.sin(s * t) / np.sin(sr)

    def d2(t):
        t = np.asarray(t, dtype=float)
        sr = s * rho(t)
        v = d1(t)
        return np.cos(s * m) * s * (
            np.cos(s * t) * np.sin(sr) - np.sin(s * t) * np.cos(sr) * v
        ) / np.sin(sr) ** 2

    return DistanceProfile.from_callable(rho, interval, n=n, d1=d1, d2=d2)


def hyperbolic_profile(K, m, interval, n=2001):
    """Profile of a geodesic at minimal distance m on curvature K < 0.

    Same half-angle evaluation as the spherical case (arccosh of a value
    near 1 loses half the digits)."""
    s = np.sqrt(-K)

    def rho(t):
        t = np.asarray(t, dtype=float)
        a = np.sinh(0.5 * s * m)
        bq = np.sinh(0.5 * s * t) ** 2
        sq = a * a + bq + 2.0 * a * a * bq
        return 2.0 * np.arcsinh(np.sqrt(sq)) / s

    def d1(t):
        t = np.asarray(t, dtype=float)
        sr = s * rho(t)
        return np.cosh(s * m) * np.sinh(s * t) / np.sinh(sr)

    def d2(t):
        t = np.asarray(t, dtype=float)
        sr = s * rho(t)
        v = d1(t)
        return np.cosh(s * m) * s * (
            np.cosh(s * t) * np.sinh(sr) - np.sinh(s * t) * np.cosh(sr) * v
        ) / np.sinh(sr) ** 2

    return DistanceProfile.from_callable(rho, interval, n=n, d1=d1, d2=d2)


def constant_curvature_profile(K, m, interval, n=2001):
    if K > 0:
        return spherical_profile(K, m, interval, n=n)
    if K < 0:
        return hyperbolic_profile(K, m, interval, n=n)
    return flat_profile(m, interval, n=n)


def offset_hyperbola_profile(c, interval=(-0.2, 0.2), n=2001):
    """sqrt(1 + t^2) - c: Euclidean for c = 0, curvature-hungry as c -> 1."""
    if not 0 <= c < 1:
        raise ValueError("need 0 <= c < 1")

    def rho(t):
        return np.sqrt(1.0 + np.asarray(t, dtype=float) ** 2) - c

    def d1(t):
        t = np.asarray(t, dtype=float)
        return t / np.sqrt(1.0 + t * t)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t * t) ** -1.5

    return DistanceProfile.from_callable(rho, interval, n=n, d1=d1, d2=d2)


def perturbed_cone_profile(eps, beta, interval=(-0.2, 0.2), n=4001):
    """sqrt(eps^2 + t^2) + eps^(3+beta): near-Euclidean but not realizable
    with small Hölder seminorm (the defect lives at scale eps)."""
    if eps <= 0 or not 0 < beta <= 1:
        raise ValueError("need eps > 0 and beta in (0, 1]")
    off = eps ** (3.0 + beta)

    def rho(t):
        return np.sqrt(eps * eps + np.asarray(t, dtype=float) ** 2) + off

    def d1(t):
        t = np.asarray(t, dtype=float)
        return t / np.sqrt(eps * eps + t * t)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return eps * eps / np.sqrt(eps * eps + t * t) ** 3

    return DistanceProfile.from_callable(rho, interval, n=n, d1=d1, d2=d2)


# -- grid builders ------------------------------------------------------------


def constant_curvature_grid(K, R, n_r=1200, n_theta=64):
    """Polar grid of the curvature-K disc of radius R."""
    r = np.linspace(_R_MIN_FACTOR * R, R, n_r)
    theta = -np.pi + 2 * np.pi * np.arange(n_theta) / n_theta
    G = np.tile(sin_k(K, r), (n_theta, 1))
    return MetricGrid(r, theta, G)


def variable_curvature_grid(K_fn, R, H=None, n_r=1200, n_theta=64):
    """Grid with curvature K_fn(r, theta_array) via per-ray Jacobi solves.

    All rays are integrated simultaneously (vector RK4); the series start
    at r0 matches G ~ r to O(r0^3).  ``H`` is accepted and read by
    nothing: verification takes H from its checker constants.
    """
    theta = -np.pi + 2 * np.pi * np.arange(n_theta) / n_theta
    r0 = _R_MIN_FACTOR * R
    k0 = np.asarray(K_fn(r0, theta), dtype=float) * np.ones(n_theta)
    y0 = np.stack([r0 - k0 * r0 ** 3 / 6.0, 1.0 - k0 * r0 ** 2 / 2.0])

    def rhs(rv, yv):
        k = np.asarray(K_fn(rv, theta), dtype=float) * np.ones(n_theta)
        return np.stack([yv[1], -k * yv[0]])

    r, ys = _rk4(rhs, y0, r0, R, n_r - 1)
    G = ys[:, 0].T.copy()
    if np.any(G <= 0):
        raise ArithmeticError("Jacobi coefficient went nonpositive")
    return MetricGrid(r, theta, G)


# -- profile generation on grids ----------------------------------------------


def symmetric_geodesic(grid, m, half_length, step=None):
    """Two-sided unit-speed geodesic through (m, 0) with rho_dot(0) = 0.

    Integrates forward and backward and splices at the perigee so the
    minimum sits at t = 0.
    """
    if step is None:
        step = min(1e-4, half_length / 200.0)
    start = PolarPoint(m, 0.0)
    fwd = geodesic_integrate(grid, start, 0.0, +1, half_length, step=step)
    bwd = geodesic_integrate(grid, start, 0.0, -1, half_length, step=step)
    t = np.concatenate([-bwd.t_nodes[::-1], fwd.t_nodes[1:]])
    rho = np.concatenate([bwd.rho[::-1], fwd.rho[1:]])
    phi = np.concatenate([bwd.phi[::-1], fwd.phi[1:]])
    rho_dot = np.concatenate([-bwd.rho_dot[::-1], fwd.rho_dot[1:]])
    phi_dot = np.concatenate([-bwd.phi_dot[::-1], fwd.phi_dot[1:]])
    rho_ddot = np.concatenate([bwd.rho_ddot[::-1], fwd.rho_ddot[1:]])
    residual = max(fwd.unit_speed_residual, bwd.unit_speed_residual)
    return GeodesicPath(t_nodes=t, rho=rho, phi=phi, rho_dot=rho_dot,
                        phi_dot=phi_dot, rho_ddot=rho_ddot,
                        unit_speed_residual=residual)


def grid_profile(grid, m, half_length, step=None):
    """Distance profile of the symmetric geodesic (derivatives carried
    from the integrator states)."""
    path = symmetric_geodesic(grid, m, half_length, step=step)
    return distance_profile(path), path


# -- suites --------------------------------------------------------------------


def checker_suite(n_profiles=50, max_rho=WORKING_RADIUS, seed=0):
    """Deterministic family of grid-generated profiles with constant <= 1.

    Mixes flat, spherical, hyperbolic and smooth radially varying
    curvature; every profile is produced by geodesic integration on a
    grid (not from closed forms).
    """
    rng = np.random.default_rng(seed)
    R = max_rho * 1.3
    entries = []
    kinds = ["flat", "sphere", "hyper", "wave"]
    for i in range(n_profiles):
        kind = kinds[i % len(kinds)]
        m = float(rng.uniform(0.006, 0.018))
        half = np.sqrt(max(max_rho * 0.8, 2 * m) ** 2 - m * m)
        if kind == "flat":
            grid = constant_curvature_grid(0.0, R)
            label = f"flat(m={m:.4f})"
        elif kind == "sphere":
            K = float(rng.uniform(0.1, 1.0))
            grid = constant_curvature_grid(K, R)
            label = f"sphere(K={K:.3f},m={m:.4f})"
        elif kind == "hyper":
            K = float(rng.uniform(-1.0, -0.1))
            grid = constant_curvature_grid(K, R)
            label = f"hyper(K={K:.3f},m={m:.4f})"
        else:
            # amplitude*frequency chosen so the sampled alpha-seminorm of
            # K stays comfortably inside the class bound
            a = float(rng.uniform(0.1, 0.3))
            w = float(rng.uniform(0.5, 1.0)) * 1.2 / a
            ph = float(rng.uniform(0, 2 * np.pi))
            k0 = float(rng.uniform(-0.4, 0.4))

            def K_fn(r, theta, a=a, w=w, ph=ph, k0=k0):
                return (k0 + a * np.sin(w * r + ph)) * np.ones_like(theta)

            grid = variable_curvature_grid(K_fn, R)
            label = f"wave(k0={k0:.3f},a={a:.3f},w={w:.2f},m={m:.4f})"
        profile, path = grid_profile(grid, m, half)
        entries.append({"label": label, "profile": profile, "path": path,
                        "grid": grid, "m": m})
    return entries


def roundtrip_suite(n_profiles=20, max_rho=WORKING_RADIUS, seed=1):
    """Constant-curvature profiles for synthesis round-trips:
    K in [-0.5, 0.5], m in [0.01, max_rho/4], max rho <= max_rho."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n_profiles):
        K = float(rng.uniform(-0.5, 0.5))
        m = float(rng.uniform(0.01, max_rho / 4.0))
        peak = max_rho * float(rng.uniform(0.75, 0.95))
        half = np.sqrt(peak ** 2 - m * m)
        interval = (-half, half)
        profile = constant_curvature_profile(K, m, interval, n=3001)
        entries.append({"label": f"const(K={K:.3f},m={m:.4f})",
                        "profile": profile, "K": K, "m": m})
    return entries
