"""Radial Jacobi and Riccati initial-value problems.

Both equations are singular at r = 0: the Jacobi coefficient starts as
G ~ r and the Riccati solution as h ~ 1/r.  The Jacobi solve starts a
fixed-step classical 4th-order integrator from a series expansion at a
small r0; the Riccati solve integrates the regularized variable
g(x) = x^2 (h(x) - 1/x), which is C^1 through 0, giving a second route
to h that is independent of the Jacobi one.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .special_functions import cot_k, sin_k
from .report import CheckerRecord, CheckerReport
from .whitney import holder_seminorm_pairs

PI_SQ_QUARTER = np.pi ** 2 / 4.0


class OdeBlowupError(ArithmeticError):
    """Jacobi solution reached G <= 0: curvature inconsistent with radius."""

    def __init__(self, message, r_bad):
        super().__init__(message)
        self.r_bad = r_bad


@dataclass(frozen=True)
class RadialCurvature:
    """Curvature profile K(r) on (0, R] with sup bound H and Hölder
    exponent alpha.  It holds the field and judges nothing about it:
    ``riccati_stability_check`` refuses fields outside its premises."""

    K: Callable
    R: float
    H: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.R <= 0 or self.H <= 0:
            raise ValueError("R and H must be positive")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")

    @cached_property
    def L(self):
        """The alpha-Hölder seminorm of K sampled at 256 radii up to R:
        exact on the sample, a lower bound on the true seminorm."""
        r = np.linspace(self.R / 256.0, self.R, 256)
        return holder_seminorm_pairs(self.values(r), r, self.alpha)

    def values(self, r):
        """K at every radius of the array ``r``, as floats of r's shape:
        one vectorized call, or one call per point when K(array) does not
        return r's shape (a K written for scalars)."""
        r = np.asarray(r, dtype=float)
        k = np.asarray(self.K(r), dtype=float)
        if k.shape != r.shape:
            k = np.array([float(self.K(x))
                          for x in r.ravel()]).reshape(r.shape)
        return k


def _envelope_margin(x, lo, hi):
    """max(lo/x, x/hi) over the broadcast arrays: <= 1 exactly where
    lo <= x <= hi everywhere (lo, hi > 0), and inf once any x <= 0."""
    if np.any(x <= 0):
        return np.inf
    return float(np.max(np.maximum(lo / x, x / hi)))


@dataclass(frozen=True)
class RadialSolution:
    r_nodes: np.ndarray
    G: np.ndarray
    h: np.ndarray

    def sandwich_margins(self, H):
        """The envelope margins of G against sin_k(+-H, r) and of h against
        cot_k(+-H, r); <= 1 means sin_k(H,r) <= G <= sin_k(-H,r), or
        cot_k(H,r) <= h <= cot_k(-H,r), at every node."""
        r = self.r_nodes
        return (_envelope_margin(self.G, sin_k(H, r), sin_k(-H, r)),
                _envelope_margin(self.h, cot_k(H, r), cot_k(-H, r)))


def rk4_step(f, x, y, h, k1):
    """One classical RK4 step of y' = f(x, y) from (x, y) with step h;
    ``k1`` is f(x, y), which callers often have already.  Returns the
    next state.

    ``y`` is an ndarray, a float, or a tuple of Python floats.  A tuple
    state (then f returns tuples too) is combined componentwise in the
    same operation order as the array expression, so it gives the same
    bits without numpy's overhead on a few-element state.
    """
    if type(y) is tuple:
        k2 = f(x + 0.5 * h, tuple([a + 0.5 * h * b for a, b in zip(y, k1)]))
        k3 = f(x + 0.5 * h, tuple([a + 0.5 * h * b for a, b in zip(y, k2)]))
        k4 = f(x + h, tuple([a + h * b for a, b in zip(y, k3)]))
        return tuple([a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                      for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
    k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(x + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(x + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_nodes(x0, x1, n_steps):
    """The nodes xs and the step h of ``_rk4``: step i evaluates f at
    xs[i], xs[i] + 0.5 * h and xs[i] + h (not always xs[i + 1])."""
    return np.linspace(x0, x1, n_steps + 1), (x1 - x0) / n_steps


def _rk4(f, y0, x0, x1, n_steps):
    """Classical fixed-step RK4 from x0 to x1; returns (xs, ys).  The
    state keeps the type of ``y0``: an array (e.g. one column per ray),
    a float or a tuple of floats, which ``rk4_step`` steps without
    numpy's overhead.  f receives x as a Python float."""
    xs, h = _rk4_nodes(x0, x1, n_steps)
    ys = np.empty((n_steps + 1,) + np.shape(y0))
    y = y0
    ys[0] = y
    for i, x in enumerate(xs[:-1].tolist()):
        y = rk4_step(f, x, y, h, f(x, y))
        ys[i + 1] = y
    return xs, ys


def _cumulative(v, dr):
    """Cumulative trapezoid of the samples v over the spacings dr."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dr)))


def _radial_start(R, step):
    """The first radius r0 = max(step, R*1e-4) and the number of RK4 steps
    of a radial solve on [r0, R] at about ``step``."""
    if step > R / 100.0:
        raise ValueError(f"step {step} too coarse; need step <= R/100")
    r0 = max(step, R * 1e-4)
    return r0, max(2, int(np.ceil((R - r0) / step)))


def _stage_curvature(k, r0, n_steps):
    """K at every radius ``_rk4`` visits from r0 to k.R in n_steps, from
    one vectorized evaluation, as a dict keyed by the float radius."""
    xs, h = _rk4_nodes(r0, k.R, n_steps)
    x = xs[:-1]
    radii = np.concatenate((x, x + 0.5 * h, x + h))
    return dict(zip(radii.tolist(), k.values(radii).tolist()))


def solve_jacobi(k, step):
    """Integrate G'' + K G = 0 with G ~ r at 0; returns r, G and h = G'/G.

    Starts at r0 = max(step, R*1e-4) from the series
    G = r0 - K(r0) r0^3/6, G' = 1 - K(r0) r0^2/2, correct to O(r0^(3+alpha)).
    """
    R = k.R
    r0, n = _radial_start(R, step)
    kv = _stage_curvature(k, r0, n)
    k0 = kv[r0]
    y0 = (r0 - k0 * r0 ** 3 / 6.0, 1.0 - k0 * r0 ** 2 / 2.0)

    def rhs(r, y):
        return (y[1], -kv[r] * y[0])

    rs, ys = _rk4(rhs, y0, r0, R, n)
    G = ys[:, 0]
    if np.any(G <= 0):
        bad = int(np.argmax(G <= 0))
        raise OdeBlowupError(
            f"G <= 0 at r = {rs[bad]:.6g}: H*R^2 precondition violated "
            "or curvature inconsistent", rs[bad])
    return RadialSolution(r_nodes=rs, G=G, h=ys[:, 1] / G)


def solve_riccati(k, step):
    """Integrate h' + h^2 + K = 0 with h = 1/r + O(r), via g = r^2 (h - 1/r).

    The deviation f = h - 1/r satisfies f' = -2f/r - f^2 - K, so
    g' = -g^2/r^2 - K r^2 with g(0) = 0; g is C^1 through the origin.
    G is reconstructed as r * exp(cumulative integral of g/r^2).
    """
    R = k.R
    r0, n = _radial_start(R, step)
    kv = _stage_curvature(k, r0, n)
    g0 = -kv[r0] * r0 ** 3 / 3.0

    def rhs(r, g):
        return -(g * g) / (r * r) - kv[r] * r * r

    rs, gs = _rk4(rhs, g0, r0, R, n)
    f = gs / rs ** 2
    h = 1.0 / rs + f
    # log(G/r)' = f; trapezoid is adequate since f is C^1 and small.
    log_ratio = _cumulative(f, np.diff(rs))
    log_ratio += f[0] * r0 * 0.5  # series tail below r0: f ~ -K(0) r / 3
    G = rs * np.exp(log_ratio)
    if np.any(~np.isfinite(h)):
        bad = int(np.argmax(~np.isfinite(h)))
        raise OdeBlowupError(f"Riccati solution blew up at r = {rs[bad]:.6g}",
                             rs[bad])
    return RadialSolution(r_nodes=rs, G=G, h=h)


def riccati_stability_check(k1, k2, r_min, consts, step=None):
    """Check the four stability conclusions for f = h1 - h2 on [r_min, R].

    With T = sup|K1 - K2| over every node of the solves (from r0, not
    r_min), L = max Hölder bound and R the common radius:

        (a) sup|f|      <= c_a * T * R
        (b) sup|f'|     <= c_b * T
        (c) [f]_alpha   <= c_c * T * R^(1-alpha)
        (d) [f']_alpha  <= c_d * (L + T * R^(-alpha) * (1 + R/r_min))

    f' is evaluated from the Riccati equation itself (h' = -h^2 - K), not
    by numerical differentiation.  Margins are actual/allowed ratios,
    all four 0 for identical fields (T = 0).
    Fields outside the premises raise ``ValueError`` before any solve:
    H R^2 > pi^2/4 with H the larger bound, or |K| above its field's H
    at a node of the Riccati solves.
    """
    if abs(k1.R - k2.R) > 1e-12 * max(k1.R, k2.R):
        raise ValueError("curvature fields must share the same radius")
    R = k1.R
    if not 0 < r_min < R:
        raise ValueError("need 0 < r_min < R")
    H = max(k1.H, k2.H)
    if H * R ** 2 > PI_SQ_QUARTER * (1 + 1e-12):
        raise ValueError(f"H*R^2 = {H * R ** 2:.6g} exceeds pi^2/4")
    if step is None:
        step = R / 2000.0
    r0, n = _radial_start(R, step)
    r = _rk4_nodes(r0, R, n)[0]   # the nodes of both Riccati solves
    kv1 = k1.values(r)
    kv2 = k2.values(r)
    for k, kv in ((k1, kv1), (k2, kv2)):
        if np.max(np.abs(kv)) > k.H * (1 + 1e-9):
            raise ValueError(f"sampled |K| = {np.max(np.abs(kv)):.6g} "
                             f"exceeds H = {k.H}")
    T = float(np.max(np.abs(kv1 - kv2)))
    sel = r >= r_min * (1 - 1e-12)
    r, kv1, kv2 = r[sel], kv1[sel], kv2[sel]
    h1 = solve_riccati(k1, step).h[sel]
    h2 = solve_riccati(k2, step).h[sel]
    L = max(k1.L, k2.L)
    alpha = k1.alpha
    f = h1 - h2
    fp = (h2 * h2 + kv2) - (h1 * h1 + kv1)

    if T == 0.0:
        records = [CheckerRecord.from_margin(f"riccati_{t}", 0.0)
                   for t in ("a_sup_f", "b_sup_fprime", "c_holder_f",
                             "d_holder_fprime")]
        return CheckerReport(records=records, meta={"T": 0.0, "R": R})

    sup_f = float(np.max(np.abs(f)))
    sup_fp = float(np.max(np.abs(fp)))
    # Hölder seminorms on at most 700 evenly strided nodes
    sub = slice(None, None, int(np.ceil(r.size / 700)))
    hol_f = holder_seminorm_pairs(f[sub], r[sub], alpha)
    hol_fp = holder_seminorm_pairs(fp[sub], r[sub], alpha)

    records = [
        CheckerRecord.from_margin(
            "riccati_a_sup_f", sup_f / (consts.c_riccati_a * T * R),
            witness=[r[int(np.argmax(np.abs(f)))]]),
        CheckerRecord.from_margin(
            "riccati_b_sup_fprime", sup_fp / (consts.c_riccati_b * T),
            witness=[r[int(np.argmax(np.abs(fp)))]]),
        CheckerRecord.from_margin(
            "riccati_c_holder_f",
            hol_f / (consts.c_riccati_c * T * R ** (1 - alpha))),
        CheckerRecord.from_margin(
            "riccati_d_holder_fprime",
            hol_fp / (consts.c_riccati_d
                      * (L + T * R ** (-alpha) * (1 + R / r_min)))),
    ]
    return CheckerReport(records=records, constants_version=consts.version,
                         meta={"T": T, "L": L, "R": R, "r_min": r_min})
