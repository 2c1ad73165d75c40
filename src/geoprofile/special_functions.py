"""Comparison functions of constant-curvature geometry.

For a curvature value K the radial solutions of the constant-curvature
Jacobi and Riccati equations are ``sin_k`` and ``cot_k``.  Their
dimensionless forms ``phi`` and ``psi`` satisfy

    r * cot_k(K, r) = phi(K * r**2),      sin_k(K, r) / r = psi(K * r**2),

and both are strictly decreasing, analytic functions on (-inf, pi**2).
All functions accept scalars or numpy arrays and are pure.
"""

import math

import numpy as np

PI_SQUARED = np.pi ** 2

# |x| below this is evaluated by Taylor series: the closed forms suffer
# cancellation as x -> 0 (removable singularity).
_SERIES_CUTOFF = 1e-4

# x*cot(x) = 1 - sum b_n x^(2n); coefficients through x^8.
_PHI_COEFFS = (1.0 / 3.0, 1.0 / 45.0, 2.0 / 945.0, 1.0 / 4725.0)


class DomainError(ValueError):
    """Argument outside the domain of a comparison function."""


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


def phi(x):
    """sqrt(x)*cot(sqrt(x)), continued analytically through x = 0.

    Defined for x < pi**2; phi(0) = 1, strictly decreasing.
    """
    a, scalar = _as_array(x)
    if np.any(a >= PI_SQUARED):
        raise DomainError(f"phi requires x < pi^2, got max {a.max()}")
    out = np.empty_like(a)
    small = np.abs(a) < _SERIES_CUTOFF
    if np.any(small):
        xs = a[small]
        acc = np.zeros_like(xs)
        xp = np.ones_like(xs)
        for b in _PHI_COEFFS:
            xp = xp * xs
            acc += b * xp
        out[small] = 1.0 - acc
    pos = (~small) & (a > 0)
    if np.any(pos):
        s = np.sqrt(a[pos])
        out[pos] = s * np.cos(s) / np.sin(s)
    neg = (~small) & (a < 0)
    if np.any(neg):
        s = np.sqrt(-a[neg])
        # s/tanh(s) is overflow-safe for large s, unlike cosh/sinh.
        out[neg] = s / np.tanh(s)
    return float(out) if scalar else out


def psi(x):
    """sin(sqrt(x))/sqrt(x), continued analytically through x = 0.

    Defined for x < pi**2; psi(0) = 1, strictly decreasing and positive.
    """
    a, scalar = _as_array(x)
    if np.any(a >= PI_SQUARED):
        raise DomainError(f"psi requires x < pi^2, got max {a.max()}")
    out = np.empty_like(a)
    small = np.abs(a) < _SERIES_CUTOFF
    if np.any(small):
        xs = a[small]
        # sum (-1)^n x^n / (2n+1)!
        out[small] = 1.0 - xs / 6.0 + xs * xs / 120.0 - xs ** 3 / 5040.0
    pos = (~small) & (a > 0)
    if np.any(pos):
        s = np.sqrt(a[pos])
        out[pos] = np.sin(s) / s
    neg = (~small) & (a < 0)
    if np.any(neg):
        s = np.sqrt(-a[neg])
        out[neg] = np.sinh(s) / s
    return float(out) if scalar else out


def sin_k(K, r):
    """Radial Jacobi solution of constant curvature K at radius r >= 0.

    sin(sqrt(K)r)/sqrt(K) for K > 0, r for K = 0, sinh-analogue for K < 0.
    Requires K*r**2 < pi**2.
    """
    K = float(K)
    a, scalar = _as_array(r)
    if np.any(a < 0):
        raise DomainError("sin_k requires r >= 0")
    if K > 0 and np.any(K * a * a >= PI_SQUARED):
        raise DomainError(f"sin_k requires K*r^2 < pi^2 (K={K})")
    if K == 0.0:
        out = a.copy()
    elif K > 0:
        s = np.sqrt(K)
        out = np.sin(s * a) / s
    else:
        s = np.sqrt(-K)
        out = np.sinh(s * a) / s
    return float(out) if scalar else out


def cot_k(K, r):
    """Radial Riccati solution of constant curvature K at radius r > 0.

    Logarithmic radial derivative of sin_k; pole at r = 0.
    Requires K*r**2 < pi**2.
    """
    K = float(K)
    a, scalar = _as_array(r)
    if np.any(a <= 0):
        raise DomainError("cot_k requires r > 0 (pole at r = 0)")
    if K > 0 and np.any(K * a * a >= PI_SQUARED):
        raise DomainError(f"cot_k requires K*r^2 < pi^2 (K={K})")
    if K == 0.0:
        out = 1.0 / a
    elif K > 0:
        s = np.sqrt(K)
        out = s * np.cos(s * a) / np.sin(s * a)
    else:
        s = np.sqrt(-K)
        out = s / np.tanh(s * a)
    return float(out) if scalar else out


def phi_prime(x):
    """Derivative of phi; negative on the whole domain."""
    a, scalar = _as_array(x)
    out = np.empty_like(a)
    small = np.abs(a) < _SERIES_CUTOFF
    if np.any(small):
        xs = a[small]
        out[small] = -(1.0 / 3.0) - (2.0 / 45.0) * xs - (6.0 / 945.0) * xs * xs
    big = ~small
    if np.any(big):
        xb = a[big]
        p = phi(xb)
        out[big] = (p - p * p - xb) / (2.0 * xb)
    return float(out) if scalar else out


# phi_inverse: Newton steps after the bisection, and the relative residual
# it must reach.
PHI_INVERSE_NEWTON_STEPS = 6
PHI_INVERSE_TOL = 1e-12
# phi_inverse solves on [-1e6, pi^2 - 1e-9]; its arguments must lie
# strictly inside the image (PHI_INVERSE_Y_MIN, PHI_INVERSE_Y_MAX).
_PHI_INVERSE_X_MIN, _PHI_INVERSE_X_MAX = -1e6, PI_SQUARED - 1e-9
PHI_INVERSE_Y_MIN = phi(_PHI_INVERSE_X_MAX)
PHI_INVERSE_Y_MAX = phi(_PHI_INVERSE_X_MIN)


def _phi_float(x):
    """phi on a Python float, operation for operation as on an array:
    math.sqrt rounds as np.sqrt does, and numpy's cos, sin and tanh agree
    on scalars and arrays (math.tanh does not)."""
    if abs(x) < _SERIES_CUTOFF:
        acc, xp = 0.0, 1.0
        for b in _PHI_COEFFS:
            xp = xp * x
            acc += b * xp
        return 1.0 - acc
    if x > 0:
        s = math.sqrt(x)
        return s * float(np.cos(s)) / float(np.sin(s))
    s = math.sqrt(-x)
    return s / float(np.tanh(s))


def _phi_inverse_float(y):
    """phi_inverse's bisection and Newton steps (phi_prime's formulas) on
    one Python float, bit for bit; returns x and the final bracket."""
    lo, hi = _PHI_INVERSE_X_MIN, _PHI_INVERSE_X_MAX
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _phi_float(mid) > y else (lo, mid)
    x = 0.5 * (lo + hi)
    for _ in range(PHI_INVERSE_NEWTON_STEPS):
        p = _phi_float(x)
        slope = (p - p * p - x) / (2.0 * x) if abs(x) >= _SERIES_CUTOFF \
            else -(1.0 / 3.0) - (2.0 / 45.0) * x - (6.0 / 945.0) * x * x
        x_new = min(max(x - (p - y) / slope, lo), hi)
        if x_new == x:  # a fixed point: later steps return it too
            break
        x = x_new
    return x, lo, hi


def phi_inverse(y):
    """Solve phi(x) = y for x < pi**2.

    Bracketed bisection (phi is strictly decreasing, so this is
    unconditionally safe) refined by Newton steps.  The residual
    |phi(x) - y| is driven below ``PHI_INVERSE_TOL * max(1, |y|)``, or
    (y below about -3e4) the bracket to 2 ulp of x.  A float is solved on
    Python floats, bit-equal to the array path.
    phi_inverse(1.0) is exactly 0.
    """
    a, scalar = _as_array(y)
    if np.any(a <= PHI_INVERSE_Y_MIN) or np.any(a >= PHI_INVERSE_Y_MAX):
        raise DomainError(
            f"phi_inverse argument outside ({PHI_INVERSE_Y_MIN:.3e}, "
            f"{PHI_INVERSE_Y_MAX:.3e})"
        )
    if scalar:
        x, lo, hi = map(np.asarray, _phi_inverse_float(float(a)))
    else:
        lo = np.full_like(a, _PHI_INVERSE_X_MIN)
        hi = np.full_like(a, _PHI_INVERSE_X_MAX)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            too_low = phi(mid) > a  # phi decreasing: x right of mid
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        x = 0.5 * (lo + hi)
        for _ in range(PHI_INVERSE_NEWTON_STEPS):
            resid = phi(x) - a
            step = resid / phi_prime(x)
            x = np.clip(x - step, lo, hi)
    resid = np.abs(phi(x) - a)
    bad = (resid > PHI_INVERSE_TOL * np.maximum(1.0, np.abs(a))) \
        & (hi - lo > 2.0 * np.spacing(np.abs(x)))
    if np.any(bad):
        worst = int(np.argmax(np.where(bad, resid, -1.0)))
        raise ArithmeticError(
            "phi_inverse did not converge: residual "
            f"{resid.flat[worst]:.3e} at y={a.flat[worst]!r}, "
            f"bracket=({lo.flat[worst]!r}, {hi.flat[worst]!r})"
        )
    x = np.where(a == 1.0, 0.0, x)
    return float(x) if scalar else x
