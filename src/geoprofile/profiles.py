"""Distance profiles: densely sampled t -> rho(t) with derivative access.

A profile is the distance from a moving point on a unit-speed curve to a
fixed center.  Derivatives may be supplied as analytic callbacks, or
else come with rho from one quintic: the Hermite interpolant of rho' and
rho'' arrays carried by an integrator, or the interpolating spline of the
samples alone (in decreasing order of fidelity).  A profile needs at
least 6 samples, the fewest a quintic spline interpolates.
"""

import numpy as np
from scipy.interpolate import PPoly, make_interp_spline

# largest |rho(t) - rho(t')| / |t - t'| and |t - t'| / (rho(t) + rho(t'))
# a profile may show: 1 by the triangle inequality, plus rounding slack
C_LIPSCHITZ = 1.0 + 1e-6


class ProfileError(ValueError):
    pass


class DistanceProfile:
    """Refuses only samples it cannot interpolate (``ProfileError``); the
    checker's ``lipschitz_triangle`` judges the triangle inequalities."""

    def __init__(self, t_nodes, rho, rho_dot=None, rho_ddot=None,
                 rho_fn=None):
        t = np.asarray(t_nodes, dtype=float)
        r = np.asarray(rho, dtype=float)
        if t.ndim != 1 or t.shape != r.shape or t.size < 6:
            raise ProfileError("need matching 1-d arrays with >= 6 samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(r))):
            raise ProfileError("t_nodes and rho must be finite")
        if np.any(np.diff(t) <= 0):
            raise ProfileError("t_nodes must be strictly increasing")
        if np.any(r <= 0):
            raise ProfileError("rho must be positive")
        carried = [d is not None and not callable(d)
                   for d in (rho_dot, rho_ddot)]
        if carried[0] != carried[1]:
            raise ProfileError(
                "carried derivative arrays need both rho' and rho''")
        self._carried = carried[0]
        if self._carried:
            rho_dot = np.asarray(rho_dot, dtype=float)
            rho_ddot = np.asarray(rho_ddot, dtype=float)
            for name, d in (("rho'", rho_dot), ("rho''", rho_ddot)):
                if d.shape != t.shape or not np.all(np.isfinite(d)):
                    raise ProfileError(f"carried {name} must be finite "
                                       "and shaped like t_nodes")
        self.t_nodes = t
        self.rho = r
        self._rho_fn = rho_fn
        self._rho_dot = rho_dot
        self._rho_ddot = rho_ddot
        self._spline = None

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_callable(cls, fn, interval, n=2001, d1=None, d2=None):
        t = np.linspace(interval[0], interval[1], n)
        return cls(t, fn(t), rho_dot=d1, rho_ddot=d2, rho_fn=fn)

    # -- accessors -------------------------------------------------------

    @property
    def interval(self):
        return float(self.t_nodes[0]), float(self.t_nodes[-1])

    @property
    def spline(self):
        """The one interpolant of rho(t), always quintic.

        With rho' and rho'' arrays carried from an integrator this is
        the Hermite interpolant matching all three, whose divided
        differences stay faithful down to scales far below the node
        spacing; from samples alone it is the quintic interpolating
        spline.  Either way its first two derivatives serve ``deriv``
        and ``second_deriv`` unless callbacks are given.
        """
        if self._spline is None:
            if self._carried:
                self._spline = _quintic_hermite(
                    self.t_nodes, self.rho, self._rho_dot, self._rho_ddot)
            else:
                self._spline = make_interp_spline(self.t_nodes, self.rho,
                                                  k=5)
        return self._spline

    def value(self, t):
        if self._rho_fn is not None:
            return self._rho_fn(t)
        return self.spline(t)

    def local_spacing(self, t):
        """Node spacing of the interval containing each query point."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.t_nodes, t_arr) - 1,
                      0, self.t_nodes.size - 2)
        return self.t_nodes[idx + 1] - self.t_nodes[idx]

    def value_resolution(self, t, rho, dd2_scale):
        """Bound on the evaluation error of ``value``, which reads rho at t.

        Analytic callbacks are good to an ulp; the quintic interpolant
        adds interpolation error h^6 * |rho^(6)| / 128, modeled through
        the local spacing h and a caller-supplied second-derivative
        scale, with rho^(6) estimated by dd2 / rho^4.
        """
        rho = np.abs(np.asarray(rho, dtype=float))
        eps = np.finfo(float).eps
        if self._rho_fn is not None:
            return 2.0 * eps * rho
        h = self.local_spacing(t)
        # piecewise-polynomial evaluation chains cost a few ulps
        return (4.0 * eps * rho
                + h ** 6 * np.abs(dd2_scale) / (128.0 * rho ** 4))

    def deriv(self, t):
        if callable(self._rho_dot):
            return self._rho_dot(t)
        return self.spline(t, 1)

    def second_deriv(self, t):
        if callable(self._rho_ddot):
            return self._rho_ddot(t)
        return self.spline(t, 2)

    def argmin_node(self):
        """Index of the leftmost minimizer among the nodes."""
        return int(np.argmin(self.rho))

    @property
    def m(self):
        return float(self.rho[self.argmin_node()])

    def __len__(self):
        return self.t_nodes.size


def _quintic_hermite(t, rho, rho_dot, rho_ddot):
    """The quintic Hermite interpolant of rho, rho' and rho'' at the nodes
    t, in powers of x = t - t_i on [t_i, t_i+1] of width h: the low
    coefficients are rho_i, rho'_i and rho''_i / 2, so each node but the
    last gives back its carried values.  With D, E and F the Taylor
    remainders at t_i+1 of rho, of rho' (times h) and of rho'' (times h^2),
    the high ones are (10 D - 4 E + F/2) / h^3, (-15 D + 7 E - F) / h^4
    and (6 D - 3 E + F/2) / h^5."""
    h = np.diff(t)
    h2 = h * h
    r0, d0, a2 = rho[:-1], rho_dot[:-1], rho_ddot[:-1] / 2.0
    D = rho[1:] - r0 - d0 * h - a2 * h2
    E = (rho_dot[1:] - d0 - rho_ddot[:-1] * h) * h
    F = (rho_ddot[1:] - rho_ddot[:-1]) * h2
    c = np.array([(6.0 * D - 3.0 * E + 0.5 * F) / h ** 5,
                  (-15.0 * D + 7.0 * E - F) / h ** 4,
                  (10.0 * D - 4.0 * E + 0.5 * F) / h ** 3,
                  a2, d0, r0])
    return PPoly(c, t)


def metric_condition_quotients(t, rho, min_dt):
    """max |rho - rho'| / |t - t'| and max |t - t'| / (rho + rho') over
    pairs of the arrays with |t - t'| > min_dt: the curve points and the
    center satisfy both triangle inequalities when both are <= 1.  NaN in
    rho gives NaN.

    One sort by t, then linear work.  Lipschitz term: with k0(i) the first
    index whose gap from i passes min_dt and k1(i) = k0(k0(i)), a pair
    (i, k) with k >= k1(i) splits at j = k0(i) into two allowed pairs, and
    its quotient is a mediant of theirs, so at most the larger; only the
    irreducible pairs k0(i) <= k < k1(i) are formed (the adjacent pairs
    when no two points lie within min_dt).  Triangle term: Dinkelbach
    steps on max (t_j - t_i) / (rho_i + rho_j); the pair maximizing
    (t_j - lam rho_j) - (t_i + lam rho_i) improves on lam unless lam is
    the maximum.  Both arguments hold in real arithmetic; equality with
    the floating-point maxima over all pairs is tested, not proved.
    """
    order = np.argsort(t, kind="stable")
    t = t[order]
    rho = rho[order]
    n = t.size
    k0 = _first_beyond(t, min_dt)
    k1 = np.append(k0, n)[k0]
    lip = 0.0
    for off in range(int(np.max(k1 - k0, initial=0))):
        i = np.flatnonzero(k0 + off < k1)
        k = k0[i] + off
        lip = np.max(np.abs(rho[i] - rho[k]) / (t[k] - t[i]), initial=lip)
    if lip != lip:
        return float("nan"), float("nan")
    tri = 0.0
    while n:
        j = int(np.argmax(t - tri * rho))
        i = int(np.argmax(-t - tri * rho))
        dt = t[j] - t[i]
        q = dt / (rho[i] + rho[j])
        if not (dt > min_dt and q > tri):
            break
        tri = q
    return float(lip), float(tri)


def _first_beyond(t, min_dt):
    """For sorted t, the first index k with t[k] - t[i] > min_dt, per i
    (t.size where none), by the same float test as the pair mask."""
    n = t.size
    k = np.searchsorted(t, t + min_dt, side="right")
    # searchsorted compares with the rounded t[i] + min_dt; the rounded
    # difference is monotone in t[k], so a few unit steps settle it
    while True:
        back = (k > 0) & (t[k - 1] - t > min_dt)
        if not back.any():
            break
        k -= back
    while True:
        fwd = k < n
        fwd[fwd] = ~(t[k[fwd]] - t[fwd] > min_dt)
        if not fwd.any():
            return k
        k += fwd


def write_profile_csv(profile, path):
    with open(path, "w") as fh:
        fh.write("t,rho\n")
        for t, r in zip(profile.t_nodes, profile.rho):
            fh.write(f"{t:.17g},{r:.17g}\n")


def read_profile_csv(path):
    t, r = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "t,rho":
            raise ProfileError(f"expected header 't,rho', got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ProfileError(f"malformed row at line {line_no}")
            t.append(float(parts[0]))
            r.append(float(parts[1]))
    return DistanceProfile(np.asarray(t), np.asarray(r))
