"""Geodesics, distances, and distance profiles on polar-form metrics.

A surface is given as a grid of the single metric coefficient G(r, theta)
of dr^2 + G^2 dtheta^2.  Geodesics are integrated from the closed system

    rho'' = h(gamma) (1 - rho'^2),      phi' = s * sqrt(1 - rho'^2) / G,

with h = dG_dr/G, which never needs a theta-derivative of G: the grid is
C^2 in r but only Hölder in theta, and the interpolation matches that
anisotropy (cubic per ray in r, linear and periodic in theta).
"""

import json
import math
from bisect import bisect_right
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
PSI_MIN, PSI_MAX = 1e-4, math.pi - 1e-4   # launch angles shot by distance()
CHORD_STEP = 1e-3           # first step away from the chord direction
CHORD_GROWTH = 8.0          # its growth factor per widening


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
        if not (math.isfinite(self.r) and math.isfinite(self.theta)):
            raise ValueError("r and theta must be finite")
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
        cg = CubicSpline(self.r_nodes, self.G.T).c  # (4, n_r-1, n_theta)
        if self.dG_dr is not None:
            cd = CubicSpline(self.r_nodes, self.dG_dr.T).c
        else:
            cd = np.stack([np.zeros_like(cg[0]), 3 * cg[0], 2 * cg[1], cg[2]])
        # both tables flat: coefficient k of ray j in radial cell i sits at
        # k*stride + i*n_theta + j; the memoryviews serve float points
        self._stride = (n_r - 1) * n_t
        self._cg = np.ascontiguousarray(cg).reshape(-1)
        self._cd = np.ascontiguousarray(cd).reshape(-1)
        self._cg_view = memoryview(self._cg)
        self._cd_view = memoryview(self._cd)
        self._r_list = self.r_nodes.tolist()
        self._theta0 = float(self.theta_nodes[0])
        if validate:
            self._validate()

    def __reduce__(self):
        # memoryviews do not pickle: rebuild from the defining arrays
        return (MetricGrid, (self.r_nodes, self.theta_nodes, self.G,
                             self.dG_dr, self.H, self.alpha, False))

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

    def _cell(self, r, theta):
        """Coefficient tables and cell of (r, theta), as
        ``(cg, cd, k0, k1, dx, w)``: k0 and k1 are the flat offsets of the
        two rays bracketing theta in the radial cell of r, dx is r minus the
        cell start and w the angular weight.

        A float point is located with bisect and math.floor and its
        coefficients are read through memoryviews, so every value stays a
        Python float: numpy's overhead on 0-d values would be most of the
        cost of a geodesic step.  Arrays, and a point whose theta cannot be
        floored (NaN or inf), use searchsorted and numpy indexing.  Both
        paths do the same floating-point operations, so they agree bit for
        bit.
        """
        n_t = self.theta_nodes.size
        if isinstance(r, float) and isinstance(theta, float):
            tf = (theta - self._theta0) / self._dtheta
            if math.isfinite(tf):
                i = min(max(bisect_right(self._r_list, r) - 1, 0),
                        len(self._r_list) - 2)
                j0 = math.floor(tf)
                return (self._cg_view, self._cd_view,
                        i * n_t + j0 % n_t, i * n_t + (j0 + 1) % n_t,
                        r - self._r_list[i], tf - j0)
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        i = np.clip(np.searchsorted(self.r_nodes, r, side="right") - 1,
                    0, self.r_nodes.size - 2)
        tf = (theta - self.theta_nodes[0]) / self._dtheta
        j0 = np.floor(tf).astype(int)
        return (self._cg, self._cd,
                i * n_t + j0 % n_t, i * n_t + (j0 + 1) % n_t,
                r - self.r_nodes[i], tf - j0)

    def _blend(self, c, k0, k1, dx, w):
        """The cubics in dx of the rays at flat offsets k0 and k1 of table
        ``c``, blended linearly in theta with weight w."""
        s = self._stride
        g0 = ((c[k0] * dx + c[k0 + s]) * dx + c[k0 + 2 * s]) * dx \
            + c[k0 + 3 * s]
        g1 = ((c[k1] * dx + c[k1 + s]) * dx + c[k1 + 2 * s]) * dx \
            + c[k1 + 3 * s]
        return (1 - w) * g0 + w * g1

    def value(self, r, theta):
        """G at (r, theta); array-compatible."""
        cg, _, k0, k1, dx, w = self._cell(r, theta)
        return self._blend(cg, k0, k1, dx, w)

    def value_and_h(self, r, theta):
        """(G, dG_dr/G) at (r, theta); array-compatible."""
        cg, cd, k0, k1, dx, w = self._cell(r, theta)
        g = self._blend(cg, k0, k1, dx, w)
        d = self._blend(cd, k0, k1, dx, w)
        try:
            return g, d / g
        except ZeroDivisionError:
            # G = 0 at a float point: numpy's inf or NaN, as for arrays
            return np.float64(g), np.float64(d) / g

    def curvature_fd(self):
        """K = -G''/G by radial finite differences on the grid nodes, and
        the rounding amplification 6*eps/(h1*h2) per node, so callers can
        discount sub-resolution values near the origin: ``(K, resolution)``.

        Deliberately independent of any analytic second derivative so it
        can flag inconsistencies injected into G.  Three-point non-uniform
        stencil; endpoints copy their neighbours.
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
        res = 6.0 * np.finfo(float).eps / (h1 * h2)
        res_full = np.empty(r.size)
        res_full[1:-1] = res
        res_full[0] = res[0]
        res_full[-1] = res[-1]
        return K_full, np.broadcast_to(res_full, G.shape)


# -- geodesic integration --------------------------------------------------


def _geodesic_rhs(grid, state, sign):
    """d/dt of the state (rho, rho_dot, phi), a tuple of Python floats."""
    rho, rho_dot, phi = state
    g, h = grid.value_and_h(rho, phi)
    one_minus = 1.0 - rho_dot * rho_dot
    if one_minus < NEAR_RADIAL_EPS:
        phi_dot = 0.0
        one_minus = max(one_minus, 0.0)
    else:
        phi_dot = sign * math.sqrt(one_minus) / g
    return (rho_dot, h * one_minus, phi_dot)


def _clamp_rho_dot(state):
    """The state with rho_dot clamped to [-1, 1]."""
    rho, rho_dot, phi = state
    return (rho, min(max(rho_dot, -1.0), 1.0), phi)


def geodesic_integrate(grid, start, rho_dot0, direction_sign, length,
                       step=None):
    """Integrate a unit-speed geodesic of given length from ``start``.

    ``rho_dot0`` in (-1, 1) fixes the radial component of the initial
    velocity; ``direction_sign`` the rotation sense.  Raises
    GeodesicDomainError when the path leaves [grid.r_floor, R].
    """
    if not -1.0 < rho_dot0 < 1.0:
        raise ValueError("rho_dot0 must lie in (-1, 1)")
    if direction_sign not in (-1, 1):
        raise ValueError("direction_sign must be +1 or -1")
    if length < 0:
        raise ValueError("length must be nonnegative")
    if step is None:
        step = min(1e-3, length / 50.0) if length > 0 else 1e-3
    R = grid.R
    r_floor = grid.r_floor

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

    y = (start.r, float(rho_dot0), start.theta)
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
        y = _clamp_rho_dot(rk4_step(rhs, t[idx], y, hstep, k1))

    residual = _unit_speed_residual(grid, rho, phi, rho_dot,
                                    12 * (t[1] - t[0]))
    return GeodesicPath(t_nodes=t, rho=rho, phi=phi, rho_dot=rho_dot,
                        phi_dot=phi_dot, rho_ddot=rho_ddot,
                        unit_speed_residual=residual)


def five_point_stencil(x):
    """12 x'(u) at the interior samples: the 4th-order central difference
    over the node index u = 0, 1, 2, ..."""
    return x[:-4] - 8 * x[1:-3] + 8 * x[3:-1] - x[4:]


def _unit_speed_residual(grid, rho, phi, rho_dot, dt12):
    """max |rho_dot^2 + G^2 phi_dot_fd^2 - 1| with phi_dot_fd from a
    4th-order central difference of the stored phi samples.

    ``dt12`` is 12 dt/du at the interior nodes: ``12 * h`` on nodes of
    uniform spacing h, ``five_point_stencil(t)`` on any strictly
    increasing nodes (the chain rule through the node index u).

    An a-posteriori consistency check: rho_dot is integrator state while
    phi_dot_fd differentiates the accumulated angle, so integration bugs
    do not cancel.
    """
    if phi.size < 5:
        return 0.0
    pf = five_point_stencil(phi) / dt12
    g = grid.value(rho[2:-2], phi[2:-2])
    res = np.abs(rho_dot[2:-2] ** 2 + (g * pf) ** 2 - 1.0)
    return float(np.max(res))


# -- distances --------------------------------------------------------------


def _wrap_angle(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


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

    A shot that leaves [r_floor, R] returns ``(inf, None)`` outward and
    ``(-inf, None)`` below the floor; one that never sweeps the target
    within ``max_len`` returns ``(inf, None)``.
    """
    def rhs(_, state):
        return _geodesic_rhs(grid, state, sign)

    R = grid.R
    y = (start.r, float(np.cos(psi_angle)), start.theta)
    t_now = 0.0
    k_prev = rhs(t_now, y)
    while t_now < max_len:
        # near a close approach the turning scale is the radius itself
        h_loc = min(step, max(0.05 * y[0], 0.01 * step))
        k1 = k_prev
        y_next = _clamp_rho_dot(rk4_step(rhs, t_now, y, h_loc, k1))
        if not (r_floor <= y_next[0] <= R):
            return (math.inf if y_next[0] > R else -math.inf), None
        k_next = rhs(t_now + h_loc, y_next)
        if abs(y_next[2] - start.theta) >= dtheta_target:
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
            return rho_c, t_now + tau
        y, k_prev = y_next, k_next
        t_now += h_loc
    return math.inf, None


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


def _chord_bracket(miss, psi0):
    """A sign-changing bracket of the miss near the chord direction psi0,
    or None.

    The launch angle is measured from the outward radial direction, and
    a larger angle passes nearer the centre and crosses q's bearing at a
    smaller radius, so the sign of the miss at psi0 says which way to
    step, an infinite miss too: +inf (the shot left the disc outward or
    never swept q's bearing) steps to larger angles, -inf (it fell below
    the floor) to smaller ones.  The step grows geometrically from
    CHORD_STEP until it reaches PSI_MIN or PSI_MAX; the last angle on the
    old side and the first one past the sign change make the bracket,
    shrunk to finite ends.
    """
    v0 = miss(psi0)[0]
    toward = 1.0 if v0 > 0 else -1.0
    a, va = psi0, v0
    delta = CHORD_STEP
    while True:
        b = min(max(psi0 + toward * delta, PSI_MIN), PSI_MAX)
        if b == a:
            return None
        vb = miss(b)[0]
        if np.sign(vb) != np.sign(v0):
            bracket = _finite_bracket(miss, a, va, b, vb)
            return None if bracket is None else tuple(sorted(bracket))
        a, va = b, vb
        delta *= CHORD_GROWTH


def distance(grid, p, q):
    """Geodesic distance between grid points by angle shooting.

    Shoots from the outer point.  The launch angle starts from the chord
    direction of the polar chart and steps away from it, growing, until
    the radius miss at ``q``'s bearing changes sign; a shot that leaves
    the domain misses by a signed infinity, which gives the direction.
    Brent's method then finds the angle until the geodesic hits ``q``'s
    radius within tol_hit = 1e-6*R, and the arclength is returned,
    guarded by the via-origin radial bound p.r + q.r.  With no sign
    change up to PSI_MIN or PSI_MAX, the shot nearest a hit gives the
    arclength if it misses by less than tol_hit, else the bound is
    returned.  Near-radial and near-antipodal pairs take the radial
    path without shooting.  Each launch angle is shot once per call: the
    miss is memoized, so Brent's re-evaluation of the bracket ends and
    the final reading of the arclength cost nothing.  Relies on strong
    convexity of the disc.
    """
    R = grid.R
    tol_hit = 1e-6 * R
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
    # near-radial pairs: the radial path is correct to O(dtheta^2).  On a
    # flat disc its excess is at most p.r q.r dtheta^2 / (2 (p.r - q.r)),
    # below tol_hit inside this zone; a curvature bound H changes that
    # only by a factor 1 + O(H R^2).
    if abs(dtheta) < math.sqrt(2.0 * tol_hit * (p.r - q.r) / (p.r * q.r)):
        return p.r - q.r
    sign = 1 if dtheta > 0 else -1
    target = abs(dtheta)
    max_len = 3.0 * radial_guard + 10 * step
    if p.r < r_floor:
        raise ValueError("source point below the radial floor")

    shots = {}

    def miss(psi_angle):
        """(radius miss at q's bearing, arclength there) of one shot."""
        key = float(psi_angle)
        if key not in shots:
            rho, t = _shoot_to_angle(grid, p, key, sign, target, step,
                                     r_floor * 0.5, max_len)
            shots[key] = (rho - q.r, t)
        return shots[key]

    psi0 = math.atan2(q.r * math.sin(target),
                      q.r * math.cos(target) - p.r)
    bracket = _chord_bracket(miss, min(max(psi0, PSI_MIN), PSI_MAX))
    if bracket is None:
        hits = [s for s in shots.values() if abs(s[0]) < tol_hit]
        if not hits:
            return radial_guard
        return min(min(hits, key=lambda s: abs(s[0]))[1], radial_guard)

    root = brentq(lambda ps: miss(ps)[0], bracket[0], bracket[1],
                  xtol=1e-10, rtol=8.9e-16, maxiter=120)
    resid, t_cross = miss(root)
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
