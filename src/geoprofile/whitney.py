"""Divided differences, Hölder seminorms, and C^{1,alpha} extension
from finite samples.

The extension takes data on a finite set satisfying a Lipschitz bound T1
on secants and a Hölder-alpha bound T2 on secant differences, and
produces an interpolant whose derivative obeys the same bounds up to a
measured implementation constant C_w (recorded, never assumed).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicHermiteSpline


class HypothesisViolation(ValueError):
    """Input data fails a stated extension hypothesis; carries a witness."""

    def __init__(self, message, witness=()):
        super().__init__(message)
        self.witness = tuple(witness)


@dataclass(frozen=True)
class SampledFunction:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if x.size >= 2 and np.any(np.diff(x) <= 0):
            raise ValueError("x must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.x.size


def divided_difference(s, subset_indices):
    """Divided difference of the sample over the given point subset.

    Recursive two-term quotient; symmetric under permutation of the
    subset.  Raises on duplicate indices.
    """
    idx = list(subset_indices)
    if len(idx) != len(set(idx)):
        raise ValueError(f"duplicate points in subset {idx}")
    xs = s.x[idx]
    ys = s.y[idx]
    if np.unique(xs).size != xs.size:
        raise ValueError("duplicate abscissae in subset")
    # Newton table (equivalent to the recursion, permutation-symmetric).
    coef = ys.astype(float).copy()
    n = len(coef)
    for level in range(1, n):
        for i in range(n - level):
            coef[i] = (coef[i + 1] - coef[i]) / (xs[i + level] - xs[i])
    return float(coef[0])


def holder_seminorm(s, alpha):
    """max |y_i - y_j| / |x_i - x_j|^alpha over sample pairs.

    Exact on the sample set; a lower bound for the seminorm of any
    extension.
    """
    if s.x.size < 2:
        raise ValueError("need at least 2 points")
    return holder_seminorm_pairs(s.y, s.x, alpha)


# A block-pair bound applies the pair quotient's own rounded operations to
# larger numerators and smaller distances; all of them are monotone but
# pow(), which need not be correctly rounded.  The slack keeps a bound
# that pow() rounded low from pruning a pair it bounds.
_BOUND_SLACK = 1.0 + 1e-12
_TINY = np.finfo(float).tiny
_MAX_FLOAT = np.finfo(float).max
_CHUNK = 8  # block pairs per numpy pass, the fastest of 1, 2, 4, ..., 32


def holder_seminorm_pairs(values, points, alpha, resolution=None):
    """max |v_i - v_j| / |p_i - p_j|^alpha over pairs of distinct points.

    Points may have any dimension (1-d arrays are read as points on a
    line).  With a per-point ``resolution`` only the part of each value
    difference beyond res_i + res_j counts.  NaN values give NaN.

    Exact branch and bound: the points are sorted by their first
    coordinate and cut into about sqrt(n) blocks of about sqrt(n), so the
    bound table and one block pair both stay linear in n.  A block pair
    is bounded by its value range, less the least resolution in each
    block, over the gap between the blocks' bounding boxes to the power
    alpha.  On a line (0 < alpha <= 1, resolution >= 0) block pair a <= b
    is also bounded by S (hi_b - lo_a)^(1 - alpha), S the largest secant
    |dv_k|/dx_k from block a to the point after block b: for i < j,
    |v_j - v_i| <= sum |dv_k| <= S (x_j - x_i).  A computed secant is
    within about 3u of exact, the sum telescopes without cancellation,
    and the pair quotient and pow() round by about 20u in all, far below
    the slack, which multiplies S first to survive an underflow.  A gap
    whose square is not normal gets an infinite secant, so no distance
    underflows, and an S below the least normal float, or NaN, leaves
    the range bound alone.  Block pairs are evaluated _CHUNK at a time
    in decreasing bound order, with the per-pair quotients of the dense
    formula, until no remaining bound beats the best quotient found; an
    inf bound beats an inf best, since its pair may give NaN.
    """
    v = np.asarray(values, dtype=float)
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    order = np.argsort(p[:, 0], kind="stable")
    v, p = v[order], p[order]
    res = (np.zeros_like(v) if resolution is None
           else np.asarray(resolution, dtype=float)[order])
    size = max(16, math.isqrt(v.size) + 1)
    starts = np.arange(0, v.size, size)
    nb = starts.size
    lo = np.minimum.reduceat(p, starts)
    hi = np.maximum.reduceat(p, starts)
    v_lo = np.minimum.reduceat(v, starts)
    v_hi = np.maximum.reduceat(v, starts)
    r_lo = np.minimum.reduceat(res, starts)
    a, b = np.triu_indices(nb)
    # block pairs a <= b; each pair is formed in both orders, as the
    # dense formula subtracts the first point's resolution first
    spread = np.maximum(v_hi[a] - v_lo[b], v_hi[b] - v_lo[a])
    num = np.maximum(np.maximum(spread - r_lo[a] - r_lo[b],
                                spread - r_lo[b] - r_lo[a]), 0.0)
    gap = np.maximum(np.maximum(lo[b] - hi[a], lo[a] - hi[b]), 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = num / np.sqrt((gap ** 2).sum(-1)) ** alpha * _BOUND_SLACK
        if p.shape[1] == 1 and 0 < alpha <= 1 and np.all(res >= 0):
            dx = np.diff(p[:, 0])
            secant = np.abs(np.diff(v)) / dx
            secant[~(dx * dx >= _TINY)] = np.inf
            top = np.maximum.reduceat(np.append(secant, 0.0), starts)
            S = np.maximum.accumulate(np.triu(np.tile(top, (nb, 1))), 1)[a, b]
            slope = S * _BOUND_SLACK * (hi[b, 0] - lo[a, 0]) ** (1 - alpha)
            bound = np.fmin(bound, np.where(S >= _TINY, slope, np.inf))
    bound[num == 0.0] = 0.0
    # a NaN value or point leaves its block pairs unbounded: they are all
    # evaluated, even after an inf best, and a NaN best ends the loop
    bound[np.isnan(bound)] = np.inf
    # blocks padded to whole size; a NaN point fails d > 0
    pad = (0, nb * size - v.size)
    P = np.pad(p, (pad, (0, 0)), constant_values=np.nan)
    P = P.reshape(nb, size, p.shape[1])
    V, R = (np.pad(u, pad).reshape(nb, size) for u in (v, res))
    order = np.argsort(-bound, kind="stable")
    best = 0.0
    for at in range(0, order.size, _CHUNK):
        k = order[at:at + _CHUNK]
        k = k[bound[k] > min(best, _MAX_FLOAT)]
        if k.size == 0:
            break
        i, j = a[k], b[k]
        d = np.sqrt(((P[i, :, None] - P[j, None]) ** 2).sum(-1))
        dv = np.abs(V[i, :, None] - V[j, None])
        if resolution is not None:
            ri, rj = R[i, :, None], R[j, None]
            dv = np.maximum(np.maximum(dv - ri - rj, dv - rj - ri), 0.0)
        mask = d > 0
        best = np.max(dv[mask] / d[mask] ** alpha, initial=best)
    return float(best)


def _extension_sweep(x, y, alpha):
    """Adjacent secants of sorted samples, the worst pair |dy|/dx and the
    worst triple |s_ij - s_jk|/(x_k - x_i)^alpha as (quotient, witness
    indices).  The worst pair is adjacent: a secant is a weighted mean of
    the adjacent secants it spans.  Triples: all of them for n <= 400,
    adjacent ones above.  NaN values give NaN."""
    n = x.size
    secants = np.diff(y) / np.diff(x)
    p = int(np.argmax(np.abs(secants)))
    reach = n if n <= 400 else 1
    worst = [(0.0, ())]
    for j in range(1, n - 1):
        i = np.arange(max(0, j - reach), j)
        k = np.arange(j + 1, min(n, j + 1 + reach))
        s_ij = (y[j] - y[i]) / (x[j] - x[i])
        s_jk = (y[k] - y[j]) / (x[k] - x[j])
        q = (np.abs(s_ij[:, None] - s_jk[None, :])
             / (x[k][None, :] - x[i][:, None]) ** alpha)
        a, b = np.unravel_index(np.argmax(q), q.shape)
        worst.append((float(q[a, b]), (int(i[a]), j, int(k[b]))))
    return (secants, (float(abs(secants[p])), (p, p + 1)),
            worst[int(np.argmax([w[0] for w in worst]))])


def check_extension_hypotheses(s, alpha, T1, T2):
    """Verify the pair and triple conditions of one sweep; raise with the
    worst violating pair or triple as witness.  NaN values violate both.
    Returns the adjacent secants."""
    secants, pair, triple = _extension_sweep(s.x, s.y, alpha)
    conditions = (("pair condition |df|/|dx| <= T1", pair, T1),
                  ("triple condition slope gap/diam^alpha <= T2", triple, T2))
    for name, (q, idx), bound in conditions:
        if not q <= bound:
            witness = tuple(s.x[list(idx)])
            raise HypothesisViolation(
                f"{name} fails at x={witness!r}: {q!r} > {bound:.6g}",
                witness=witness)
    return secants


@dataclass
class WhitneyExtension:
    """Callable C^{1,alpha} interpolant on an interval.

    Linear continuation with the boundary derivative outside the data
    hull.  ``measured_sup_deriv`` and ``measured_holder_deriv`` are
    measured on a dense grid on first read.
    """

    a: float
    b: float
    x: np.ndarray
    y: np.ndarray
    slopes: np.ndarray
    alpha: float
    T1: float
    T2: float

    def __post_init__(self):
        self._spline = CubicHermiteSpline(self.x, self.y, self.slopes)
        self._dspline = self._spline.derivative()

    @cached_property
    def _dense_deriv(self):
        grid = np.linspace(self.a, self.b, 2049)
        return SampledFunction(grid, self.deriv(grid))

    @property
    def measured_sup_deriv(self):
        return float(np.max(np.abs(self._dense_deriv.y)))

    @cached_property
    def measured_holder_deriv(self):
        return holder_seminorm(self._dense_deriv, self.alpha)

    def __call__(self, t):
        t_arr, scalar = np.asarray(t, dtype=float), np.isscalar(t)
        lo, hi = self.x[0], self.x[-1]
        t_clip = np.clip(t_arr, lo, hi)
        out = self._spline(t_clip)
        out = out + np.where(t_arr < lo, (t_arr - lo) * self.slopes[0], 0.0)
        out = out + np.where(t_arr > hi, (t_arr - hi) * self.slopes[-1], 0.0)
        return float(out) if scalar else out

    def deriv(self, t):
        t_arr, scalar = np.asarray(t, dtype=float), np.isscalar(t)
        t_clip = np.clip(t_arr, self.x[0], self.x[-1])
        out = self._dspline(t_clip)
        return float(out) if scalar else out

    @property
    def c_w(self):
        """Measured implementation constant."""
        return max(self.measured_sup_deriv / self.T1 if self.T1 > 0 else 0.0,
                   self.measured_holder_deriv / self.T2 if self.T2 > 0 else 0.0)


# Length-to-(T1/T2)^(1/alpha) ratio accepted before the interval is
# declared too long for the two-constant hypothesis set.
INTERVAL_LENGTH_FACTOR = 4.0


def extension_bounds(s, alpha, interval):
    """The least (T1, T2) that ``whitney_extend`` accepts for ``s`` on
    ``interval``: the worst pair and triple quotients the check sweeps, T1
    raised to the interval-length rule, T2 kept above 0.  A relative 1e-9
    margin keeps (T1 * lam, T2 * lam**(1 + alpha)) valid for x / lam."""
    _, (q1, _), (q2, _) = _extension_sweep(s.x, s.y, alpha)
    T2 = max(q2, 1e-12)
    span = interval[1] - interval[0]
    T1 = max(q1, 1e-12, T2 * (span / INTERVAL_LENGTH_FACTOR) ** alpha)
    return T1 * (1 + 1e-9), T2 * (1 + 1e-9)


def whitney_extend(s, alpha, T1, T2, interval):
    """Extend sampled data to a C^{1,alpha} function on ``interval``.

    The data must satisfy |df| <= T1|dx| on pairs and a slope-difference
    bound T2*diam^alpha on triples, and the interval must not exceed
    INTERVAL_LENGTH_FACTOR * (T1/T2)^(1/alpha); ``extension_bounds``
    gives the least such T1 and T2.  The result interpolates exactly and
    measures its derivative norms on first read.

    Slopes are assigned by a weighted-harmonic three-point rule
    (monotone-safe) and clamped so neighbouring slope differences
    respect the triple bound.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (a < b):
        raise ValueError("empty interval")
    if T1 <= 0 or T2 <= 0:
        raise ValueError("T1 and T2 must be positive")
    if (b - a) > INTERVAL_LENGTH_FACTOR * (T1 / T2) ** (1.0 / alpha) * (1 + 1e-9):
        raise HypothesisViolation(
            f"interval length {b - a:.6g} exceeds "
            f"{INTERVAL_LENGTH_FACTOR}*(T1/T2)^(1/alpha) = "
            f"{INTERVAL_LENGTH_FACTOR * (T1 / T2) ** (1.0 / alpha):.6g}")
    if np.any(s.x < a - 1e-12 * (b - a)) or np.any(s.x > b + 1e-12 * (b - a)):
        raise ValueError("sample points outside the target interval")

    if len(s) < 2:
        raise ValueError("need at least 2 sample points")
    secants = check_extension_hypotheses(s, alpha, T1, T2)
    x, y = s.x, s.y
    n = x.size
    h = np.diff(x)
    slopes = np.empty(n)
    for j in range(1, n - 1):
        d0, d1 = secants[j - 1], secants[j]
        if d0 * d1 > 0:
            w0 = 2 * h[j] + h[j - 1]
            w1 = h[j] + 2 * h[j - 1]
            slopes[j] = (w0 + w1) / (w0 / d0 + w1 / d1)
        else:
            slopes[j] = 0.0
    slopes[0] = secants[0]
    slopes[-1] = secants[-1]
    # Keep each slope within the Hölder budget of its adjacent secants.
    for j in range(n):
        for k in (j - 1, j):
            if 0 <= k < n - 1:
                win = T2 * h[k] ** alpha
                slopes[j] = np.clip(slopes[j], secants[k] - win,
                                    secants[k] + win)
    ext = WhitneyExtension(a=a, b=b, x=x, y=y, slopes=slopes,
                           alpha=alpha, T1=T1, T2=T2)
    resid = np.max(np.abs(ext(x) - y))
    if resid > 1e-12 * max(1.0, np.max(np.abs(y))):
        raise ArithmeticError(f"extension fails to interpolate: {resid:.3e}")
    return ext
