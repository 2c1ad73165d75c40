"""Comparison functions of constant-curvature geometry.

For a curvature value K the radial solutions of the constant-curvature
Jacobi and Riccati equations are ``sin_k`` and ``cot_k``.  Their
dimensionless forms ``phi`` and ``psi`` satisfy

    r * cot_k(K, r) = phi(K * r**2),      sin_k(K, r) / r = psi(K * r**2),

and both are strictly decreasing, analytic functions on (-inf, pi**2).
All functions accept scalars or numpy arrays and are pure.
"""

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

    Defined for x < pi**2; phi(0) = 1, strictly decreasing.  NaN maps
    to NaN.
    """
    a, scalar = _as_array(x)
    if np.any(a >= PI_SQUARED):
        raise DomainError(f"phi requires x < pi^2, got max {a.max()}")
    out = np.full_like(a, np.nan)
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
    NaN maps to NaN.
    """
    a, scalar = _as_array(x)
    if np.any(a >= PI_SQUARED):
        raise DomainError(f"psi requires x < pi^2, got max {a.max()}")
    out = np.full_like(a, np.nan)
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


def _phi_prime(x, p):
    """Derivative of phi at x, given p = phi(x); negative on the whole
    domain.  A Taylor series near 0, else the closed form (the 1.0 keeps
    x = 0 from dividing)."""
    small = np.abs(x) < _SERIES_CUTOFF
    series = -(1.0 / 3.0) - (2.0 / 45.0) * x - (6.0 / 945.0) * x * x
    return np.where(small, series,
                    (p - p * p - x) / (2.0 * np.where(small, 1.0, x)))


# phi_inverse: the Newton steps after the table start, and the relative
# residual it must reach.
PHI_INVERSE_NEWTON_STEPS = 4
PHI_INVERSE_TOL = 1e-12
# phi_inverse solves on [-1e6, pi^2 - 1e-9]; its arguments must lie
# strictly inside the image (PHI_INVERSE_Y_MIN, PHI_INVERSE_Y_MAX).
_PHI_INVERSE_X_MIN, _PHI_INVERSE_X_MAX = -1e6, PI_SQUARED - 1e-9
PHI_INVERSE_Y_MIN = phi(_PHI_INVERSE_X_MAX)
PHI_INVERSE_Y_MAX = phi(_PHI_INVERSE_X_MIN)
# The start table: x geometric in its distance from the pole, hence dense
# toward both ends of the domain, in ascending phi(x) for np.interp.
_PHI_TABLE_X = PI_SQUARED - np.geomspace(
    PI_SQUARED - _PHI_INVERSE_X_MAX, PI_SQUARED - _PHI_INVERSE_X_MIN, 1201)
_PHI_TABLE_Y = phi(_PHI_TABLE_X)


def phi_inverse(y):
    """Solve phi(x) = y for x < pi**2.

    Starts from linear interpolation in a fixed table of (phi(x), x) and
    takes ``PHI_INVERSE_NEWTON_STEPS`` Newton steps, clipped to the domain.
    phi is strictly decreasing and concave, so after the first step they
    approach the root from the right.  A last step moves x one ulp toward
    the root.  The residual |phi(x) - y| is then below
    ``PHI_INVERSE_TOL * max(1, |y|)``, or (y below about -3e4, where no
    double reaches it) the root lies within one ulp of x.
    phi_inverse(1.0) is exactly 0.
    """
    a, scalar = _as_array(y)
    if np.any(a <= PHI_INVERSE_Y_MIN) or np.any(a >= PHI_INVERSE_Y_MAX):
        raise DomainError(
            f"phi_inverse argument outside ({PHI_INVERSE_Y_MIN:.3e}, "
            f"{PHI_INVERSE_Y_MAX:.3e})"
        )
    x = np.interp(a, _PHI_TABLE_Y, _PHI_TABLE_X)
    for _ in range(PHI_INVERSE_NEWTON_STEPS):
        p = phi(x)
        x = np.clip(x - (p - a) / _phi_prime(x, p),
                    _PHI_INVERSE_X_MIN, _PHI_INVERSE_X_MAX)
    # one ulp toward the root: phi(x) > y puts it right of x
    x = np.nextafter(x, x + np.sign(phi(x) - a))
    resid = np.abs(phi(x) - a)
    bad = resid > PHI_INVERSE_TOL * np.maximum(1.0, np.abs(a))
    if np.any(bad):  # a residual out of reach: is the root within one ulp?
        bad &= (phi(np.nextafter(x, -np.inf)) < a) \
            | (a < phi(np.nextafter(x, np.inf)))
    if np.any(bad):
        worst = int(np.argmax(np.where(bad, resid, -1.0)))
        raise ArithmeticError(
            "phi_inverse did not converge: residual "
            f"{resid.flat[worst]:.3e} at y={a.flat[worst]!r}, "
            f"x={x.flat[worst]!r}"
        )
    x = np.where(a == 1.0, 0.0, x)
    return float(x) if scalar else x
