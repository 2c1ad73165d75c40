"""Divided differences, Hölder seminorms, and C^{1,alpha} extension
from finite samples.

The extension takes data on a finite set satisfying a Lipschitz bound T1
on secants and a Hölder-alpha bound T2 on secant differences, and
produces an interpolant whose derivative obeys the same bounds up to a
measured implementation constant C_w (recorded, never assumed).
"""

from dataclasses import dataclass

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


def holder_seminorm(s, alpha, max_pairs=4_000_000):
    """max |y_i - y_j| / |x_i - x_j|^alpha over sample pairs.

    Exact on the sample set; a lower bound for the seminorm of any
    extension.  Subsamples deterministically if the pair count would
    exceed ``max_pairs``.
    """
    x, y = s.x, s.y
    if x.size < 2:
        raise ValueError("need at least 2 points")
    n = x.size
    if n * (n - 1) // 2 > max_pairs:
        stride = int(np.ceil(n / np.sqrt(2 * max_pairs)))
        x = x[::stride]
        y = y[::stride]
    return holder_seminorm_pairs(y, x, alpha)


# Rows of the pair matrix formed at once: memory stays linear in the
# number of points.
HOLDER_BLOCK_ROWS = 128


def holder_seminorm_pairs(values, points, alpha, resolution=None):
    """max |v_i - v_j| / |p_i - p_j|^alpha over pairs of distinct points.

    Points may have any dimension (1-d arrays are read as points on a
    line).  With a per-point ``resolution`` only the part of each value
    difference beyond res_i + res_j counts.  NaN values give NaN.
    """
    v = np.asarray(values, dtype=float)
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    res = None if resolution is None else np.asarray(resolution, dtype=float)
    best = 0.0
    for a in range(0, v.size, HOLDER_BLOCK_ROWS):
        b = a + HOLDER_BLOCK_ROWS
        d = np.sqrt(((p[a:b, None, :] - p[None, :, :]) ** 2).sum(-1))
        dv = np.abs(v[a:b, None] - v[None, :])
        if res is not None:
            dv = np.maximum(dv - res[a:b, None] - res[None, :], 0.0)
        mask = d > 0
        best = np.max(dv[mask] / d[mask] ** alpha, initial=best)
    return float(best)


def check_extension_hypotheses(s, alpha, T1, T2, slack=1.0 + 1e-9):
    """Verify the pair and triple conditions; raise with a witness.

    The pair condition is scanned over the upper triangle of pairs in
    blocks of ``HOLDER_BLOCK_ROWS`` rows, in row-major order, so the
    witness is the first violating pair and memory stays linear in the
    number of samples.  NaN values violate it.
    """
    x, y = s.x, s.y
    n = x.size
    for a in range(0, n, HOLDER_BLOCK_ROWS):
        b = min(a + HOLDER_BLOCK_ROWS, n)
        dx = x[a:b, None] - x[None, a:]
        dy = y[a:b, None] - y[None, a:]
        upper = np.arange(a, n)[None, :] > np.arange(a, b)[:, None]
        bad = ~(np.abs(dy) <= T1 * np.abs(dx) * slack) & upper
        if bad.any():
            u, v = np.unravel_index(np.argmax(bad), bad.shape)
            i, j = a + u, a + v
            raise HypothesisViolation(
                f"pair condition |df| <= T1*|dx| fails at "
                f"x=({x[i]!r}, {x[j]!r}): "
                f"|df|/|dx| = {abs(dy[u, v] / dx[u, v]):.6g} > T1 = {T1:.6g}",
                witness=(x[i], x[j]),
            )
    # Adjacent-triple check suffices for Hermite construction; full triple
    # sweep only for modest n.
    secants = np.diff(y) / np.diff(x)
    if n <= 400:
        from itertools import combinations
        triples = combinations(range(n), 3)
    else:
        triples = ((i, i + 1, i + 2) for i in range(n - 2))
    for i, j, k in triples:
        sij = (y[i] - y[j]) / (x[i] - x[j])
        sjk = (y[j] - y[k]) / (x[j] - x[k])
        diam = x[k] - x[i]
        if abs(sij - sjk) > T2 * diam ** alpha * slack:
            raise HypothesisViolation(
                f"triple condition fails at x=({x[i]!r}, {x[j]!r}, {x[k]!r}): "
                f"slope gap {abs(sij - sjk):.6g} > T2*diam^alpha = "
                f"{T2 * diam ** alpha:.6g}",
                witness=(x[i], x[j], x[k]),
            )
    return secants


@dataclass
class WhitneyExtension:
    """Callable C^{1,alpha} interpolant on an interval.

    Linear continuation with the boundary derivative outside the data
    hull.  ``measured_sup_deriv`` and ``measured_holder_deriv`` are
    computed on a dense grid at build time.
    """

    a: float
    b: float
    x: np.ndarray
    y: np.ndarray
    slopes: np.ndarray
    alpha: float
    T1: float
    T2: float
    measured_sup_deriv: float = 0.0
    measured_holder_deriv: float = 0.0

    def __post_init__(self):
        self._spline = CubicHermiteSpline(self.x, self.y, self.slopes)
        self._dspline = self._spline.derivative()
        grid = np.linspace(self.a, self.b, 2049)
        dv = self.deriv(grid)
        self.measured_sup_deriv = float(np.max(np.abs(dv)))
        self.measured_holder_deriv = holder_seminorm(
            SampledFunction(grid, dv), self.alpha)

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


def whitney_extend(s, alpha, T1, T2, interval):
    """Extend sampled data to a C^{1,alpha} function on ``interval``.

    The data must satisfy |df| <= T1|dx| on pairs and a slope-difference
    bound T2*diam^alpha on triples, and the interval must not exceed
    INTERVAL_LENGTH_FACTOR * (T1/T2)^(1/alpha).  The result interpolates
    exactly and its measured derivative norms are recorded on the object.

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
