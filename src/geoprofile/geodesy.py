"""Geodesics, distances, and distance profiles on polar-form metrics.

A surface is given as a grid of the single metric coefficient G(r, theta)
of dr^2 + G^2 dtheta^2.  Geodesics are integrated from the closed system

    rho'' = h(gamma) (1 - rho'^2),      phi' = s * sqrt(1 - rho'^2) / G,

with h = dG_dr/G, which never needs a theta-derivative of G: the grid is
C^2 in r but only Hölder in theta, and the interpolation matches that
anisotropy (cubic per ray in r, linear and periodic in theta).
"""

import base64
import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .profiles import DistanceProfile
from .ode_core import rk4_step
from .report import dumps_deterministic

R_FLOOR_FACTOR = 1e-3       # geodesics below this fraction of R are radial
NEAR_RADIAL_EPS = 1e-10     # freeze phi when 1 - rho_dot^2 drops below this
PSI_MIN, PSI_MAX = 1e-4, math.pi - 1e-4   # launch angles shot by distance()
CHORD_STEP = 1e-3           # first step away from the chord direction
CHORD_GROWTH = 8.0          # its growth factor per widening
TOL_HIT = 1e-6              # a shot hits q when it misses by this times R
# RK4 step of a shot at radius r: SHOT_ETA * r * (r/R)**(1/4).  RK4 errs
# by about (h/r)**4 per unit length there, SHOT_ETA**4 * r/R, so a shot of
# length R accumulates at most about SHOT_ETA**4 * R = TOL_HIT * R.
SHOT_ETA = TOL_HIT ** 0.25
# Brent stops once its bracket is narrower than this fraction of the
# launch-angle change that moves the miss by tol_hit at the bracket's slope
BRENT_XTOL = 0.5
RAY_BLOCK = 16  # rays per spline fit: keeps the solver's copies small


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
    one column per r node.  It holds G and one table of G's per-ray cubic
    splines, whose derivative gives dG_dr, so a grid read back from its
    JSON interpolates exactly as the grid that was saved.  It refuses
    (``ValueError``) only arrays it cannot interpolate: fewer than 2 nodes
    on an axis or nodes out of order.  ``synthesis.verify_grid`` judges
    whether it is a disc in the class: G > 0, the comparison envelope and
    c_k_sup H R^2 <= pi^2/4, with the H of the checker constants.
    """

    def __init__(self, r_nodes, theta_nodes, G):
        self.r_nodes = np.asarray(r_nodes, dtype=float)
        self.theta_nodes = np.asarray(theta_nodes, dtype=float)
        self.G = np.asarray(G, dtype=float)
        n_t, n_r = self.G.shape
        if self.r_nodes.shape != (n_r,) or self.theta_nodes.shape != (n_t,):
            raise ValueError("grid shapes inconsistent")
        if n_r < 2 or n_t < 2:
            raise ValueError("a grid needs at least 2 r nodes and 2 theta "
                             f"nodes, got {n_r} and {n_t}")
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
        cg = np.empty((4, n_r - 1, n_t))
        for j in range(0, n_t, RAY_BLOCK):
            rays = self.G[j:j + RAY_BLOCK]
            cg[:, :, j:j + RAY_BLOCK] = CubicSpline(self.r_nodes, rays.T).c
        # the table flat: coefficient k of ray j in radial cell i sits at
        # k*stride + i*n_theta + j; the memoryview serves float points
        self._stride = (n_r - 1) * n_t
        self._cg = cg.reshape(-1)
        self._cg_view = memoryview(self._cg)
        self._r_list = self.r_nodes.tolist()
        self._theta0 = float(self.theta_nodes[0])

    def __reduce__(self):
        # memoryviews do not pickle: rebuild from the defining arrays
        return (MetricGrid, (self.r_nodes, self.theta_nodes, self.G))

    @property
    def R(self):
        return float(self.r_nodes[-1])

    @property
    def r_floor(self):
        return R_FLOOR_FACTOR * self.R

    # -- interpolation ----------------------------------------------------

    def _cell(self, r, theta):
        """Coefficient table and cell of (r, theta), as
        ``(cg, k0, k1, dx, w)``: k0 and k1 are the flat offsets of the two
        rays bracketing theta in the radial cell of r, dx is r minus the
        cell start and w the angular weight.

        A float point is located with bisect and math.floor and its
        coefficients are read through a memoryview, so every value stays a
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
                return (self._cg_view,
                        i * n_t + j0 % n_t, i * n_t + (j0 + 1) % n_t,
                        r - self._r_list[i], tf - j0)
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        i = np.clip(np.searchsorted(self.r_nodes, r, side="right") - 1,
                    0, self.r_nodes.size - 2)
        tf = (theta - self.theta_nodes[0]) / self._dtheta
        j0 = np.floor(tf).astype(int)
        return (self._cg, i * n_t + j0 % n_t, i * n_t + (j0 + 1) % n_t,
                r - self.r_nodes[i], tf - j0)

    def _ray(self, c, k, dx):
        """G and dG_dr on the ray at flat offset k of table ``c``: its
        cubic in dx and the cubic's derivative, from one read of the four
        coefficients."""
        s = self._stride
        a, b, d = c[k], c[k + s], c[k + 2 * s]
        return (((a * dx + b) * dx + d) * dx + c[k + 3 * s],
                (3 * a * dx + 2 * b) * dx + d)

    def value(self, r, theta):
        """G at (r, theta); array-compatible."""
        c, k0, k1, dx, w = self._cell(r, theta)
        return (1 - w) * self._ray(c, k0, dx)[0] + w * self._ray(c, k1, dx)[0]

    def value_and_h(self, r, theta):
        """(G, dG_dr/G) at (r, theta); array-compatible."""
        c, k0, k1, dx, w = self._cell(r, theta)
        g0, d0 = self._ray(c, k0, dx)
        g1, d1 = self._ray(c, k1, dx)
        g = (1 - w) * g0 + w * g1
        d = (1 - w) * d0 + w * d1
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
        # formed in place, through one temporary: peak K + one G
        K_full = np.empty_like(G)
        K = np.multiply(a, G[:, :-2], out=K_full[:, 1:-1])
        tmp = b * G[:, 1:-1]
        K += tmp
        K += np.multiply(c, G[:, 2:], out=tmp)
        K /= G[:, 1:-1]
        np.negative(K, out=K)
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

    residual = _unit_speed_residual(grid, rho, phi, rho_dot, t[1] - t[0])
    return GeodesicPath(t_nodes=t, rho=rho, phi=phi, rho_dot=rho_dot,
                        phi_dot=phi_dot, rho_ddot=rho_ddot,
                        unit_speed_residual=residual)


def _unit_speed_residual(grid, rho, phi, rho_dot, dt):
    """max |rho_dot^2 + G^2 phi_dot_fd^2 - 1| with phi_dot_fd the
    4th-order central difference of the phi samples, spaced ``dt``.

    An a-posteriori consistency check: rho_dot is integrator state while
    phi_dot_fd differentiates the accumulated angle, so integration bugs
    do not cancel.
    """
    if phi.size < 5:
        return 0.0
    pf = (phi[:-4] - 8 * phi[1:-3] + 8 * phi[3:-1] - phi[4:]) / (12 * dt)
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


def _shot_step(r, R):
    """The RK4 step of a shot at radius r on a disc of radius R.

    Near a close approach the turning scale is the radius itself, so the
    step is a fraction of r, narrowed by (r/R)**(1/4) towards the origin;
    it holds no length of its own, so a disc scaled by lambda is shot in
    the same steps scaled by lambda.  Shots stop at their radial floor,
    so the step there is the smallest one taken: the rule is its own
    floor.
    """
    return SHOT_ETA * r * math.sqrt(math.sqrt(r / R))


def _shoot_to_angle(grid, start, psi_angle, sign, dtheta_target, r_floor,
                    max_len):
    """Integrate at the step ``_shot_step`` until the swept angle reaches
    the target; return the radius, arclength and radial velocity at the
    crossing (Hermite-refined within a step).

    A shot that leaves [r_floor, R] returns ``(inf, None, None)`` outward
    and ``(-inf, None, None)`` below the floor; one that never sweeps the
    target within ``max_len`` returns ``(inf, None, None)``.
    """
    def rhs(_, state):
        return _geodesic_rhs(grid, state, sign)

    R = grid.R
    y = (start.r, float(np.cos(psi_angle)), start.theta)
    t_now = 0.0
    k_prev = rhs(t_now, y)
    while t_now < max_len:
        h_loc = _shot_step(y[0], R)
        k1 = k_prev
        y_next = _clamp_rho_dot(rk4_step(rhs, t_now, y, h_loc, k1))
        if not (r_floor <= y_next[0] <= R):
            return (math.inf if y_next[0] > R else -math.inf), None, None
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
            rho_dot_c = _hermite(y[1], k1[1], y_next[1], k_next[1], h_loc,
                                 tau)
            return rho_c, t_now + tau, rho_dot_c
        y, k_prev = y_next, k_next
        t_now += h_loc
    return math.inf, None, None


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
    radius within tol_hit = 1e-6*R: a hit counts as a root, so Brent
    stops at the first one, or else once its bracket is narrower than
    half the angle that moves the miss by tol_hit at the bracket's
    slope.  The arclength to the crossing, less the miss times the
    geodesic's radial velocity there, is the distance to ``q`` to first
    order in the miss, so which hit Brent stops at moves the result by
    O(tol_hit^2 / d) only.  It is returned guarded by the via-origin
    radial bound p.r + q.r.  With no sign change up to PSI_MIN or
    PSI_MAX, the shot nearest a hit gives the arclength if it misses by
    less than tol_hit, else the bound is returned.  Near-radial and
    near-antipodal pairs take the radial path without shooting.  Each
    launch angle is shot once per call: the miss is memoized, so Brent's
    re-evaluation of the bracket ends and the final reading of the
    arclength cost nothing.  Relies on strong convexity of the disc.

    Each shot is RK4 at the local step h(r) = eta*r*(r/R)**(1/4) with
    eta = (tol_hit/R)**(1/4), which bounds the error RK4 accumulates
    along a path of length R by about tol_hit.  Against the law of
    cosines on constant-curvature discs the distance errs by at most
    about 3e-8*R.  No length but R enters, so scaling the disc by lambda
    scales every distance by lambda, up to rounding.
    """
    R = grid.R
    tol_hit = TOL_HIT * R
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
    max_len = 3.0 * radial_guard + 10 * _shot_step(R, R)
    if p.r < r_floor:
        raise ValueError("source point below the radial floor")

    shots = {}

    def miss(psi_angle):
        """(radius miss at q's bearing, arclength to q) of one shot: the
        distance from p grows along q's ray at the rate rho_dot of the
        geodesic crossing it."""
        key = float(psi_angle)
        if key not in shots:
            rho, t, rho_dot = _shoot_to_angle(grid, p, key, sign, target,
                                              r_floor * 0.5, max_len)
            m = rho - q.r
            shots[key] = (m, None if t is None else t - m * rho_dot)
        return shots[key]

    psi0 = math.atan2(q.r * math.sin(target),
                      q.r * math.cos(target) - p.r)
    bracket = _chord_bracket(miss, min(max(psi0, PSI_MIN), PSI_MAX))
    if bracket is None:
        hits = [s for s in shots.values() if abs(s[0]) < tol_hit]
        if not hits:
            return radial_guard
        return min(min(hits, key=lambda s: abs(s[0]))[1], radial_guard)

    lo, hi = bracket
    slope = abs(miss(hi)[0] - miss(lo)[0]) / (hi - lo)

    def hit(ps):
        """The miss, zero once the shot hits q: Brent stops there."""
        m = miss(ps)[0]
        return 0.0 if abs(m) <= tol_hit else m

    root = brentq(hit, lo, hi, xtol=BRENT_XTOL * tol_hit / slope,
                  rtol=8.9e-16, maxiter=120)
    resid, t_cross = miss(root)
    if abs(resid) > tol_hit or t_cross is None:
        raise ShootingError(
            f"shooting residual {resid:.3e} above tol {tol_hit:.3e}",
            bracket=bracket)
    return min(float(t_cross), radial_guard)


def distance_profile(path):
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
    """Write ``grid`` as JSON with the keys r_nodes, theta_nodes and G: the
    nodes as numbers, G as base64 of its row-major, little-endian float64
    bytes, so that a load gives every array back bit for bit."""
    payload = {
        "r_nodes": [float(v) for v in grid.r_nodes],
        "theta_nodes": [float(v) for v in grid.theta_nodes],
        "G": base64.b64encode(np.ascontiguousarray(
            grid.G, dtype="<f8").tobytes()).decode("ascii"),
    }
    with open(path, "w") as fh:
        fh.write(dumps_deterministic(payload))


def load_metric_json(path):
    """Read a ``save_metric_json`` file; other keys, such as the H that
    older files carry, are ignored.  A G that is not base64 of 8 bytes per
    node raises ``ValueError``."""
    with open(path) as fh:
        d = json.load(fh)
    r_nodes = np.asarray(d["r_nodes"], dtype=float)
    theta_nodes = np.asarray(d["theta_nodes"], dtype=float)
    n_t, n_r = theta_nodes.size, r_nodes.size
    if not isinstance(d["G"], str):
        raise ValueError("G is not a base64 string: grid files with a "
                         "nested-list G predate the base64 format; "
                         "synthesize rewrites them")
    raw = base64.b64decode(d["G"], validate=True)
    if len(raw) != 8 * n_t * n_r:
        raise ValueError(f"G holds {len(raw)} bytes, not 8 per node of a "
                         f"{n_t} x {n_r} grid")
    # astype copies, so MetricGrid gets a writable array in native order
    G = np.frombuffer(raw, dtype="<f8").astype(float).reshape(n_t, n_r)
    return MetricGrid(r_nodes, theta_nodes, G)
