"""Distance profiles: densely sampled t -> rho(t) with derivative access.

A profile is the distance from a moving point on a unit-speed curve to a
fixed center.  Derivatives may be supplied as analytic callbacks, as
arrays carried by an integrator, or left to spline differentiation of
the samples (in decreasing order of fidelity).
"""

import numpy as np
from scipy.interpolate import BPoly, CubicSpline


class ProfileError(ValueError):
    pass


class DistanceProfile:
    def __init__(self, t_nodes, rho, rho_dot=None, rho_ddot=None,
                 rho_fn=None, validate=True):
        t = np.asarray(t_nodes, dtype=float)
        r = np.asarray(rho, dtype=float)
        if t.ndim != 1 or t.shape != r.shape or t.size < 4:
            raise ProfileError("need matching 1-d arrays with >= 4 samples")
        if np.any(np.diff(t) <= 0):
            raise ProfileError("t_nodes must be strictly increasing")
        if np.any(r <= 0):
            raise ProfileError("rho must be positive")
        self.t_nodes = t
        self.rho = r
        self._rho_fn = rho_fn
        self._rho_dot = rho_dot
        self._rho_ddot = rho_ddot
        self._spline = None
        self._dot_interp = None
        self._ddot_interp = None
        if validate:
            self._validate_metric_conditions()

    def _validate_metric_conditions(self, n_sub=200, slack=1e-6):
        """1-Lipschitz and two-sided triangle bounds on node pairs."""
        idx = np.unique(np.linspace(0, self.t_nodes.size - 1, n_sub).astype(int))
        t, r = self.t_nodes[idx], self.rho[idx]
        dt = np.abs(t[:, None] - t[None, :])
        dr = np.abs(r[:, None] - r[None, :])
        sr = r[:, None] + r[None, :]
        mask = dt > 0
        if np.any(dr[mask] > dt[mask] * (1 + slack)):
            raise ProfileError("profile is not 1-Lipschitz on node pairs")
        if np.any(dt[mask] > sr[mask] * (1 + slack)):
            raise ProfileError(
                "profile violates |t - t'| <= rho(t) + rho(t')")

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_callable(cls, fn, interval, n=2001, d1=None, d2=None,
                      validate=True):
        t = np.linspace(interval[0], interval[1], n)
        return cls(t, fn(t), rho_dot=d1, rho_ddot=d2, rho_fn=fn,
                   validate=validate)

    # -- accessors -------------------------------------------------------

    @property
    def interval(self):
        return float(self.t_nodes[0]), float(self.t_nodes[-1])

    @property
    def spline(self):
        """Best available reconstruction of rho(t).

        With derivative arrays carried from an integrator this is the
        Hermite interpolant matching them (quintic when both are
        present), whose divided differences stay faithful down to scales
        far below the node spacing; otherwise a plain cubic spline.
        """
        if self._spline is None:
            stack = [self.rho]
            if self._rho_dot is not None and not callable(self._rho_dot):
                stack.append(np.asarray(self._rho_dot, dtype=float))
                if self._rho_ddot is not None and not callable(self._rho_ddot):
                    stack.append(np.asarray(self._rho_ddot, dtype=float))
            if len(stack) > 1:
                self._spline = BPoly.from_derivatives(
                    self.t_nodes, np.column_stack(stack))
            else:
                self._spline = CubicSpline(self.t_nodes, self.rho)
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

    def value_resolution(self, t, dd2_scale):
        """Bound on the evaluation error of ``value`` at t.

        Analytic callbacks are good to an ulp; Hermite/spline
        reconstructions add interpolation error, modeled through the
        local spacing and a caller-supplied second-derivative scale
        (interp error of a k-th order piecewise polynomial is
        h^(k+1) * f^(k+1) and higher derivatives are estimated by
        dd2 / rho^j).
        """
        t_arr = np.asarray(t, dtype=float)
        rho = np.abs(np.asarray(self.value(t_arr), dtype=float))
        eps = np.finfo(float).eps
        if self._rho_fn is not None:
            return 2.0 * eps * rho
        # piecewise-polynomial evaluation chains cost a few ulps
        base = 4.0 * eps * rho
        h = self.local_spacing(t_arr)
        quintic = (self._rho_dot is not None
                   and not callable(self._rho_dot)
                   and self._rho_ddot is not None
                   and not callable(self._rho_ddot))
        if quintic:
            return base + h ** 6 * np.abs(dd2_scale) / (128.0 * rho ** 4)
        return base + h ** 4 * np.abs(dd2_scale) / (32.0 * rho ** 2)

    def deriv(self, t):
        if callable(self._rho_dot):
            return self._rho_dot(t)
        if self._rho_dot is not None:
            if self._dot_interp is None:
                self._dot_interp = CubicSpline(
                    self.t_nodes, np.asarray(self._rho_dot, dtype=float))
            return self._dot_interp(t)
        return self._smoothed_derivs()[0](t)

    def second_deriv(self, t):
        if callable(self._rho_ddot):
            return self._rho_ddot(t)
        if self._rho_ddot is not None:
            if self._ddot_interp is None:
                self._ddot_interp = CubicSpline(
                    self.t_nodes, np.asarray(self._rho_ddot, dtype=float))
            return self._ddot_interp(t)
        return self._smoothed_derivs()[1](t)

    def _smoothed_derivs(self):
        """Derivative estimators for sample-only profiles.

        A cubic spline's second derivative carries node-scale sawtooth of
        size h^2; a sliding local-polynomial fit has the same order of
        accuracy but varies smoothly, which downstream Hölder budgets
        need.  Requires (and checks for) uniform spacing; a non-uniform
        sample falls back to the spline.
        """
        if getattr(self, "_sg", None) is not None:
            return self._sg
        dt = np.diff(self.t_nodes)
        uniform = np.allclose(dt, dt[0], rtol=1e-8)
        n = self.t_nodes.size
        if not uniform or n < 11:
            self._sg = (lambda t: self.spline(t, 1),
                        lambda t: self.spline(t, 2))
            return self._sg
        from scipy.signal import savgol_filter
        window = min(31, max(9, (n // 150) | 1))
        d1 = savgol_filter(self.rho, window, 4, deriv=1, delta=dt[0])
        d2 = savgol_filter(self.rho, window, 4, deriv=2, delta=dt[0])
        s1 = CubicSpline(self.t_nodes, d1)
        s2 = CubicSpline(self.t_nodes, d2)
        self._sg = (s1, s2)
        return self._sg

    def argmin_node(self):
        """Index of the leftmost minimizer among the nodes."""
        return int(np.argmin(self.rho))

    @property
    def t0(self):
        return float(self.t_nodes[self.argmin_node()])

    @property
    def m(self):
        return float(self.rho[self.argmin_node()])

    def __len__(self):
        return self.t_nodes.size


def write_profile_csv(profile, path):
    with open(path, "w") as fh:
        fh.write("t,rho\n")
        for t, r in zip(profile.t_nodes, profile.rho):
            fh.write(f"{t:.17g},{r:.17g}\n")


def read_profile_csv(path, validate=True):
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
    return DistanceProfile(np.asarray(t), np.asarray(r), validate=validate)
