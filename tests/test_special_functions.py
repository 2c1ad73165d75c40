import numpy as np
import pytest

from geoprofile import phi, psi, sin_k, cot_k, phi_inverse, DomainError
from geoprofile.special_functions import (PHI_INVERSE_TOL, PHI_INVERSE_Y_MIN,
                                          PHI_INVERSE_Y_MAX)

PI2 = np.pi ** 2
COTH_1 = np.cosh(1.0) / np.sinh(1.0)   # 1.3130352854993312
SINH_1 = np.sinh(1.0)                  # 1.1752011936438014


def test_phi_anchor_values():
    assert phi(0.0) == 1.0
    assert abs(phi(PI2 / 4)) < 1e-15
    assert abs(phi(-1.0) - COTH_1) < 1e-14


def test_psi_anchor_values():
    assert psi(0.0) == 1.0
    assert abs(psi(PI2 / 4) - 2 / np.pi) < 1e-15
    assert abs(psi(-1.0) - SINH_1) < 1e-14


def test_sin_k_values():
    assert sin_k(0.0, 0.7) == 0.7
    assert abs(sin_k(1.0, np.pi / 2) - 1.0) < 1e-15
    assert abs(sin_k(-1.0, 1.0) - SINH_1) < 1e-14


def test_cot_k_values():
    assert cot_k(0.0, 2.0) == 0.5
    assert abs(cot_k(1.0, np.pi / 2)) < 1e-15
    assert abs(cot_k(-1.0, 1.0) - COTH_1) < 1e-14


def test_phi_inverse_values():
    assert phi_inverse(1.0) == 0.0
    assert abs(phi_inverse(0.0) - PI2 / 4) < 1e-12
    assert abs(phi_inverse(COTH_1) + 1.0) < 1e-12


def test_identities_random_grid(rng):
    for K in (-2.0, -0.5, 1e-6, 0.5, 2.0):
        r = rng.uniform(1e-3, 1.0, 500)
        if K > 0:
            r = r * (np.pi / np.sqrt(K)) * 0.95
        lhs = r * cot_k(K, r)
        rhs = phi(K * r * r)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12
        lhs2 = sin_k(K, r) / r
        rhs2 = psi(K * r * r)
        assert np.max(np.abs(lhs2 - rhs2) / rhs2) < 1e-12


def test_phi_strictly_decreasing():
    x = np.linspace(-30.0, PI2 - 1e-6, 4000)
    v = phi(x)
    assert np.all(np.diff(v) < 0)


def test_psi_decreasing_positive():
    x = np.linspace(-30.0, PI2 - 1e-6, 4000)
    v = psi(x)
    assert np.all(np.diff(v) < 0)
    assert np.all(v > 0)


def test_inverse_of_forward_grid():
    x = np.linspace(-25.0, PI2 - 1e-3, 1000)
    back = phi_inverse(phi(x))
    assert np.max(np.abs(back - x) / np.maximum(1.0, np.abs(x))) < 1e-12


def test_continuity_at_zero_curvature():
    r = np.linspace(1e-3, 1.0, 100)
    for K in (1e-9, -1e-9):
        assert np.max(np.abs(sin_k(K, r) - r) / r) <= 1e-8


@pytest.mark.parametrize("f", [phi, psi])
def test_nan_maps_to_nan(f):
    """NaN in, NaN out, for scalars and arrays alike; the finite entries
    of an array with NaN get the bits they get without it."""
    assert np.isnan(f(np.nan)) and isinstance(f(np.nan), float)
    x = np.array([[np.nan, 1.0, np.nan], [-4.0, 5e-5, np.nan]])
    got = f(x)
    assert np.array_equal(np.isnan(got), np.isnan(x))
    finite = ~np.isnan(x)
    assert np.array_equal(got[finite], f(x[finite]))


def test_domain_errors():
    with pytest.raises(DomainError):
        phi(PI2)
    with pytest.raises(DomainError):
        psi(PI2 + 1.0)
    with pytest.raises(DomainError):
        sin_k(1.0, np.pi + 0.1)
    with pytest.raises(DomainError):
        cot_k(1.0, 0.0)
    with pytest.raises(DomainError):
        cot_k(0.0, -1.0)
    with pytest.raises(DomainError):
        phi_inverse(2e3)


def test_phi_inverse_reports_residual_state():
    # forward values far in the tail still invert
    y = phi(-9.9e5)
    assert abs(phi_inverse(y) + 9.9e5) < 1e-6 * 9.9e5


def test_phi_inverse_scalar_path_equals_array_path():
    """A float and a one-element array take one path and return the same
    bits, on both branches, at the series cutoff and in the tail where
    the residual tolerance is out of reach."""
    cutoff = phi(np.array([1e-4, -1e-4]))
    ys = np.concatenate([
        [1.0, 1.0 + 1e-16, 1.0 - 1e-16, np.nextafter(1.0, 2.0),
         np.nextafter(1.0, 0.0)],
        cutoff, np.nextafter(cutoff, 2.0), np.nextafter(cutoff, 0.0),
        np.linspace(-20.0, 0.999, 150),              # x in (0, pi^2)
        np.geomspace(1.001, 999.0, 150),             # x < 0
        [899.9, -1e4],
        -np.geomspace(3e4, 1e9, 60),                 # conditioning-limited
    ])
    for y in ys:
        scalar = phi_inverse(float(y))
        array = phi_inverse(np.array([y]))[0]
        assert np.float64(scalar).tobytes() == array.tobytes(), y


def test_phi_inverse_conditioning_limited_tail():
    """Near the pole no double reaches the relative residual 1e-12;
    phi_inverse returns x from the closed bracket instead of raising, so
    the root lies within one ulp of x."""
    ys = -np.geomspace(3e4, 1e9, 60)
    for x, y in zip(phi_inverse(ys), ys):
        assert phi(np.nextafter(x, 0.0)) > y >= phi(np.nextafter(x, PI2))


def test_phi_inverse_contract_over_whole_domain():
    """No call raises, and every result meets the residual tolerance or
    has its root within one ulp of x: 2e5 arguments, phi of x spread
    log-uniformly toward both ends of the domain [-1e6, pi^2 - 1e-9],
    and y spread log-uniformly toward both ends of the image."""
    ys = np.concatenate([
        phi(-np.geomspace(1e-12, 1e6, 50000, endpoint=False)),
        phi(PI2 - np.geomspace(PI2, 1e-9, 50000, endpoint=False)),
        -np.geomspace(1e-12, -PHI_INVERSE_Y_MIN, 50000, endpoint=False),
        np.geomspace(1e-12, PHI_INVERSE_Y_MAX, 50000, endpoint=False),
    ])
    x = phi_inverse(ys)
    within_tol = np.abs(phi(x) - ys) <= PHI_INVERSE_TOL * np.maximum(
        1.0, np.abs(ys))
    within_ulp = (phi(np.nextafter(x, -np.inf)) >= ys) \
        & (ys >= phi(np.nextafter(x, np.inf)))
    assert np.all(within_tol | within_ulp)
