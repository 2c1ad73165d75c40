"""Geodesics, distances, and distance profiles on polar-form metrics.

A surface is given as a grid of the single metric coefficient G(r, theta)
of dr^2 + G^2 dtheta^2.  Geodesics are integrated from the closed system

    rho'' = h(gamma) (1 - rho'^2),      phi' = s * sqrt(1 - rho'^2) / G,

with h = dG_dr/G, which never needs a theta-derivative of G: the grid is
C^2 in r but only Hölder in theta, and the interpolation matches that
anisotropy (cubic per ray in r, linear and periodic in theta).
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .special_functions import psi, PI_SQUARED
from .profiles import DistanceProfile
from .ode_core import rk4_step
from .report import dumps_deterministic

R_FLOOR_FACTOR = 1e-3       # geodesics below this fraction of R are radial
NEAR_RADIAL_EPS = 1e-10     # freeze phi when 1 - rho_dot^2 drops below this


class GeodesicDomainError(RuntimeError):
    """Path left the grid annulus (outer edge or radial floor)."""

    def __init__(self, message, where, outward):
        super().__init__(message)
        self.where = where
        self.outward = outward


class ShootingError(RuntimeError):
    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class PolarPoint:
    r: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        th = float(self.theta)
        th = (th + np.pi) % (2 * np.pi) - np.pi
        object.__setattr__(self, "theta", th)
        if self.r < 0:
            raise ValueError("r must be nonnegative")


@dataclass
class GeodesicPath:
    t_nodes: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    rho_dot: np.ndarray
    phi_dot: np.ndarray
    rho_ddot: np.ndarray
    unit_speed_residual: float = 0.0


class MetricGrid:
    """Immutable polar metric grid with anisotropic interpolation.

    ``G`` has one row per theta node (theta in [-pi, pi), periodic) and
    one column per r node.  ``dG_dr`` is optional; when absent it comes
    from the per-ray cubic splines.
    """

    def __init__(self, r_nodes, theta_nodes, G, dG_dr=None, H=1.0, alpha=0.5,
                 validate=True):
        self.r_nodes = np.asarray(r_nodes, dtype=float)
        self.theta_nodes = np.asarray(theta_nodes, dtype=float)
        self.G = np.asarray(G, dtype=float)
        self.dG_dr = None if dG_dr is None else np.asarray(dG_dr, dtype=float)
        self.H = float(H)
        self.alpha = float(alpha)
        n_t, n_r = self.G.shape
        if self.r_nodes.shape != (n_r,) or self.theta_nodes.shape != (n_t,):
            raise ValueError("grid shapes inconsistent")
        if np.any(np.diff(self.r_nodes) <= 0) or self.r_nodes[0] <= 0:
            raise ValueError("r_nodes must be positive and increasing")
        dth = np.diff(self.theta_nodes)
        if np.any(dth <= 0):
            raise ValueError("theta_nodes must be increasing")
        if not np.allclose(dth, dth[0], rtol=1e-9):
            raise ValueError("theta_nodes must be uniformly spaced")
        self._dtheta = float(dth[0])
        full_circle = self.theta_nodes[0] + 2 * np.pi
        if not np.isclose(self.theta_nodes[-1] + self._dtheta, full_circle,
                          rtol=0, atol=1e-9):
            raise ValueError("theta_nodes must tile the full circle")
        gs = CubicSpline(self.r_nodes, self.G.T)
        self._cg = gs.c  # (4, n_r-1, n_theta)
        if self.dG_dr is not None:
            self._cd = CubicSpline(self.r_nodes, self.dG_dr.T).c
        else:
            c = self._cg
            zeros = np.zeros_like(c[0])
            self._cd = np.stack([zeros, 3 * c[0], 2 * c[1], c[2]])
        if validate:
            self._validate()

    @property
    def R(self):
        return float(self.r_nodes[-1])

    @property
    def r_floor(self):
        return R_FLOOR_FACTOR * self.R

    def _validate(self, rel=1e-6):
        if self.H * self.R ** 2 > PI_SQUARED / 4 * (1 + 1e-12):
            raise ValueError("H*R^2 exceeds pi^2/4 (strong convexity)")
        if np.any(self.G <= 0):
            raise ValueError("G must be positive")
        ratio = self.G / self.r_nodes[None, :]
        lo = psi(self.H * self.r_nodes ** 2)
        hi = psi(-self.H * self.r_nodes ** 2)
        if np.any(ratio < lo[None, :] * (1 - rel)) or \
           np.any(ratio > hi[None, :] * (1 + rel)):
            raise ValueError("G/r violates the constant-curvature envelope")

    # -- interpolation ----------------------------------------------------

    def _locate(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        n_r = self.r_nodes.size
        i = np.clip(np.searchsorted(self.r_nodes, r, side="right") - 1,
                    0, n_r - 2)
        dx = r - self.r_nodes[i]
        tf = (theta - self.theta_nodes[0]) / self._dtheta
        j0 = np.floor(tf).astype(int)
        w = tf - j0
        n_t = self.theta_nodes.size
        j0 = j0 % n_t
        j1 = (j0 + 1) % n_t
        return i, dx, j0, j1, w

    @staticmethod
    def _horner(c, i, j, dx):
        return ((c[0, i, j] * dx + c[1, i, j]) * dx + c[2, i, j]) * dx \
            + c[3, i, j]

    def value(self, r, theta):
        """G at (r, theta); array-compatible."""
        i, dx, j0, j1, w = self._locate(r, theta)
        g0 = self._horner(self._cg, i, j0, dx)
        g1 = self._horner(self._cg, i, j1, dx)
        return (1 - w) * g0 + w * g1

    def value_and_h(self, r, theta):
        """(G, dG_dr/G) at (r, theta)."""
        i, dx, j0, j1, w = self._locate(r, theta)
        g = (1 - w) * self._horner(self._cg, i, j0, dx) \
            + w * self._horner(self._cg, i, j1, dx)
        d = (1 - w) * self._horner(self._cd, i, j0, dx) \
            + w * self._horner(self._cd, i, j1, dx)
        return g, d / g

    def curvature_fd(self, with_resolution=False):
        """K = -G''/G by radial finite differences on the grid nodes.

        Deliberately independent of any analytic second derivative so it
        can flag inconsistencies injected into G.  Three-point non-uniform
        stencil; endpoints copy their neighbours.  With ``with_resolution`` the
        rounding amplification 6*eps/(h1*h2) per node is returned too, so
        callers can discount sub-resolution values near the origin.
        """
        r = self.r_nodes
        G = self.G
        h1 = r[1:-1] - r[:-2]
        h2 = r[2:] - r[1:-1]
        a = 2.0 / (h1 * (h1 + h2))
        b = -2.0 / (h1 * h2)
        c = 2.0 / (h2 * (h1 + h2))
        d2 = a[None, :] * G[:, :-2] + b[None, :] * G[:, 1:-1] \
            + c[None, :] * G[:, 2:]
        K = -d2 / G[:, 1:-1]
        K_full = np.empty_like(G)
        K_full[:, 1:-1] = K
        K_full[:, 0] = K[:, 0]
        K_full[:, -1] = K[:, -1]
        if not with_resolution:
            return K_full
        res = 6.0 * np.finfo(float).eps / (h1 * h2)
        res_full = np.empty(r.size)
        res_full[1:-1] = res
        res_full[0] = res[0]
        res_full[-1] = res[-1]
        return K_full, np.broadcast_to(res_full, G.shape)


# -- geodesic integration --------------------------------------------------


def _geodesic_rhs(grid, state, sign):
    """d/dt of the state (rho, rho_dot, phi)."""
    rho, rho_dot, phi = state
    g, h = grid.value_and_h(rho, phi)
    one_minus = 1.0 - rho_dot * rho_dot
    if one_minus < NEAR_RADIAL_EPS:
        phi_dot = 0.0
        one_minus = max(one_minus, 0.0)
    else:
        phi_dot = sign * np.sqrt(one_minus) / g
    return np.array([rho_dot, h * one_minus, phi_dot])


def geodesic_integrate(grid, start, rho_dot0, direction_sign, length,
                       step=None, r_floor=None):
    """Integrate a unit-speed geodesic of given length from ``start``.

    ``rho_dot0`` in (-1, 1) fixes the radial component of the initial
    velocity; ``direction_sign`` the rotation sense.  Raises
    GeodesicDomainError when the path leaves [r_floor, R].
    """
    if not -1.0 < rho_dot0 < 1.0:
        raise ValueError("rho_dot0 must lie in (-1, 1)")
    if direction_sign not in (-1, 1):
        raise ValueError("direction_sign must be +1 or -1")
    if length < 0:
        raise ValueError("length must be nonnegative")
    if r_floor is None:
        r_floor = grid.r_floor
    if step is None:
        step = min(1e-3, length / 50.0) if length > 0 else 1e-3
    R = grid.R

    if length == 0.0:
        g, h = grid.value_and_h(start.r, start.theta)
        pd = direction_sign * np.sqrt(1 - rho_dot0 ** 2) / g
        return GeodesicPath(
            t_nodes=np.array([0.0]), rho=np.array([start.r]),
            phi=np.array([start.theta]), rho_dot=np.array([rho_dot0]),
            phi_dot=np.array([pd]),
            rho_ddot=np.array([h * (1 - rho_dot0 ** 2)]),
            unit_speed_residual=0.0)

    n = max(2, int(np.ceil(length / step)))
    hstep = length / n
    t = np.linspace(0.0, length, n + 1)
    rho = np.empty(n + 1)
    phi = np.empty(n + 1)
    rho_dot = np.empty(n + 1)
    phi_dot = np.empty(n + 1)
    rho_ddot = np.empty(n + 1)

    def rhs(_, state):
        return _geodesic_rhs(grid, state, direction_sign)

    y = np.array([start.r, rho_dot0, start.theta])
    for idx in range(n + 1):
        if not (r_floor <= y[0] <= R):
            raise GeodesicDomainError(
                f"geodesic left domain at t = {t[idx]:.6g}, r = {y[0]:.6g}",
                where=float(t[idx]), outward=bool(y[0] > R))
        k1 = rhs(t[idx], y)
        rho[idx], rho_dot[idx], phi[idx] = y
        phi_dot[idx] = k1[2]
        rho_ddot[idx] = k1[1]
        if idx == n:
            break
        y = rk4_step(rhs, t[idx], y, hstep, k1)
        y[1] = np.clip(y[1], -1.0, 1.0)

    residual = _unit_speed_residual(grid, t, rho, phi, rho_dot)
    return GeodesicPath(t_nodes=t, rho=rho, phi=phi, rho_dot=rho_dot,
                        phi_dot=phi_dot, rho_ddot=rho_ddot,
                        unit_speed_residual=residual)


def _unit_speed_residual(grid, t, rho, phi, rho_dot):
    """max |rho_dot^2 + G^2 phi_dot_fd^2 - 1| with phi_dot_fd from a
    4th-order central difference of the stored phi samples.

    An a-posteriori consistency check: rho_dot is integrator state while
    phi_dot_fd differentiates the accumulated angle, so integration bugs
    do not cancel.
    """
    if t.size < 5:
        return 0.0
    h = t[1] - t[0]
    pf = (phi[:-4] - 8 * phi[1:-3] + 8 * phi[3:-1] - phi[4:]) / (12 * h)
    g = grid.value(rho[2:-2], phi[2:-2])
    res = np.abs(rho_dot[2:-2] ** 2 + (g * pf) ** 2 - 1.0)
    return float(np.max(res))


# -- distances --------------------------------------------------------------


def _wrap_angle(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


class _Crossed(Exception):
    def __init__(self, rho_cross, t_cross):
        self.rho_cross = rho_cross
        self.t_cross = t_cross


def _hermite(y0, d0, y1, d1, h, tau):
    s = tau / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1


def _shoot_to_angle(grid, start, psi_angle, sign, dtheta_target, step,
                    r_floor, max_len):
    """Integrate until the swept angle reaches the target; return the
    radius and arclength at the crossing (Hermite-refined within a step).

    Raises GeodesicDomainError on domain exit, ShootingError when the
    target is never swept.
    """
    def rhs(_, state):
        return _geodesic_rhs(grid, state, sign)

    rho_dot = np.cos(psi_angle)
    y = np.array([start.r, rho_dot, start.theta])
    t_now = 0.0
    swept_prev = 0.0
    k_prev = rhs(t_now, y)
    while t_now < max_len:
        # near a close approach the turning scale is the radius itself
        h_loc = min(step, max(0.05 * y[0], 0.01 * step))
        k1 = k_prev
        y_next = rk4_step(rhs, t_now, y, h_loc, k1)
        y_next[1] = np.clip(y_next[1], -1.0, 1.0)
        if not (r_floor <= y_next[0] <= grid.R):
            raise GeodesicDomainError(
                f"shot exited domain at r = {y_next[0]:.6g}",
                where=t_now + h_loc, outward=bool(y_next[0] > grid.R))
        k_next = rhs(t_now + h_loc, y_next)
        swept_next = abs(y_next[2] - start.theta)
        if swept_next >= dtheta_target:
            # refine crossing inside [t_now, t_now+h_loc] with Hermite models
            phi0, phi1 = y[2], y_next[2]
            d0, d1 = k1[2], k_next[2]
            target = start.theta + np.sign(phi1 - start.theta) * dtheta_target
            lo, hi = 0.0, h_loc
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                val = _hermite(phi0, d0, phi1, d1, h_loc, mid)
                if (val - target) * (phi1 - target) <= 0:
                    lo = mid
                else:
                    hi = mid
            tau = 0.5 * (lo + hi)
            rho_c = _hermite(y[0], k1[0], y_next[0], k_next[0], h_loc, tau)
            raise _Crossed(rho_c, t_now + tau)
        y, k_prev = y_next, k_next
        t_now += h_loc
        swept_prev = swept_next
    raise ShootingError(
        f"target angle {dtheta_target:.6g} not swept within length "
        f"{max_len:.6g} (reached {swept_prev:.6g})")


def _finite_bracket(f, psi_a, va, psi_b, vb, max_iter=60):
    """Shrink a sign-changing bracket until both endpoint values are
    finite (domain exits count as signed infinities)."""
    for _ in range(max_iter):
        if np.isfinite(va) and np.isfinite(vb) and va * vb <= 0:
            return psi_a, psi_b
        mid = 0.5 * (psi_a + psi_b)
        vm = f(mid)[0]
        if np.sign(vm) == np.sign(va):
            psi_a, va = mid, vm
        else:
            psi_b, vb = mid, vm
    return None


def distance(grid, p, q, step=None, tol_hit=None):
    """Geodesic distance between grid points by angle shooting.

    Bisects the launch angle at ``p`` until the geodesic hits ``q``'s
    radius at ``q``'s bearing within ``tol_hit`` (default 1e-6*R), then
    returns the arclength, guarded by the via-origin radial bound
    p.r + q.r.  Relies on strong convexity of the disc.
    """
    R = grid.R
    if tol_hit is None:
        tol_hit = 1e-6 * R
    if step is None:
        step = min(1e-3, R / 150.0)
    r_floor = grid.r_floor
    if p.r > R or q.r > R:
        raise ValueError("points must lie inside the grid")
    if p.r < q.r:
        p, q = q, p  # shoot from the outer point: better conditioning
    radial_guard = p.r + q.r
    dtheta = _wrap_angle(q.theta - p.theta)
    if p.r == 0.0 or q.r == 0.0:
        return max(p.r, q.r)
    if abs(dtheta) < 1e-14:
        return abs(p.r - q.r)
    # near-antipodal pairs: the through-center path is correct to O(d^2)
    # in the angular defect, below tol_hit inside this zone
    guard_zone = np.sqrt(2.0 * tol_hit * (p.r + q.r) / (p.r * q.r))
    if abs(abs(dtheta) - np.pi) < guard_zone:
        return radial_guard
    sign = 1 if dtheta > 0 else -1
    target = abs(dtheta)
    max_len = 3.0 * radial_guard + 10 * step
    if p.r < r_floor:
        raise ValueError("source point below the radial floor")

    def f(psi_angle):
        try:
            _shoot_to_angle(grid, p, psi_angle, sign, target, step,
                            r_floor * 0.5, max_len)
        except _Crossed as c:
            return c.rho_cross - q.r, c.t_cross
        except GeodesicDomainError as e:
            return (np.inf, None) if e.outward else (-np.inf, None)
        except ShootingError:
            return (np.inf, None)
        raise AssertionError("unreachable")

    # coarse scan for a sign change (infinite values carry their sign),
    # refine infinite ends to finite ones, then Brent
    psis = np.linspace(1e-4, np.pi - 1e-4, 11)
    vals = [f(ps)[0] for ps in psis]
    bracket = None
    for i in range(len(psis) - 1):
        va, vb = vals[i], vals[i + 1]
        if np.sign(va) != np.sign(vb):
            bracket = _finite_bracket(f, psis[i], va, psis[i + 1], vb)
            if bracket is not None:
                break
    if bracket is None:
        finite = np.isfinite(vals)
        vals = np.asarray(vals)
        if np.any(finite) and np.min(np.abs(vals[finite])) < tol_hit:
            i = int(np.argmin(np.where(finite, np.abs(vals), np.inf)))
            _, t_cross = f(psis[i])
            return min(t_cross, radial_guard)
        return radial_guard

    root = brentq(lambda ps: f(ps)[0], bracket[0], bracket[1],
                  xtol=1e-10, rtol=8.9e-16, maxiter=120)
    resid, t_cross = f(root)
    if abs(resid) > tol_hit or t_cross is None:
        raise ShootingError(
            f"shooting residual {resid:.3e} above tol {tol_hit:.3e}",
            bracket=bracket)
    return min(float(t_cross), radial_guard)


def distance_profile(grid, path):
    """Distance profile of a path to the grid center.

    In polar normal coordinates the distance to the center is the radial
    coordinate, so the path's samples transfer verbatim; carried
    derivative arrays give the accessors integrator-level accuracy.
    """
    return DistanceProfile(path.t_nodes, path.rho,
                           rho_dot=np.array(path.rho_dot),
                           rho_ddot=np.array(path.rho_ddot))


# -- grid JSON interface -----------------------------------------------------


def save_metric_json(grid, path):
    payload = {
        "R": grid.R,
        "H": grid.H,
        "alpha": grid.alpha,
        "r_nodes": [float(v) for v in grid.r_nodes],
        "theta_nodes": [float(v) for v in grid.theta_nodes],
        "G": [[float(v) for v in row] for row in grid.G],
    }
    with open(path, "w") as fh:
        fh.write(dumps_deterministic(payload))


def load_metric_json(path, validate=True):
    with open(path) as fh:
        d = json.load(fh)
    return MetricGrid(
        r_nodes=np.asarray(d["r_nodes"], dtype=float),
        theta_nodes=np.asarray(d["theta_nodes"], dtype=float),
        G=np.asarray(d["G"], dtype=float),
        H=float(d["H"]), alpha=float(d["alpha"]), validate=validate)
