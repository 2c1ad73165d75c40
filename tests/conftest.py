import numpy as np
import pytest

from geoprofile import default_constants


@pytest.fixture(scope="session")
def consts():
    return default_constants()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def variable_curvature_disc():
    """Curvature 0.2 + 0.25 sin(6 r + 1) on a disc of radius 0.065, and
    the profile of its geodesic at minimal distance 0.008, half length
    0.038; rho' and rho'' carried from the integrator."""
    from geoprofile.surfaces import variable_curvature_grid, grid_profile

    def K_fn(r, theta):
        return (0.2 + 0.25 * np.sin(6.0 * r + 1.0)) * np.ones_like(theta)

    grid = variable_curvature_grid(K_fn, 0.065)
    return grid, grid_profile(grid, 0.008, 0.038)[0]


@pytest.fixture(scope="session")
def variable_curvature_profile(variable_curvature_disc):
    return variable_curvature_disc[1]
