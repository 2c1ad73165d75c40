import re

import numpy as np
import pytest

from geoprofile import (RadialCurvature, solve_jacobi, solve_riccati,
                        riccati_stability_check, OdeBlowupError,
                        sin_k, cot_k)
from geoprofile.calibration import random_riccati_pair
from geoprofile.ode_core import rk4_step


def const_field(K, R=1.0, H=None):
    return RadialCurvature(
        K=lambda r, K=K: K * np.ones_like(np.asarray(r, dtype=float)),
        R=R, H=H if H is not None else max(abs(K), 1e-6), alpha=0.5)


def test_jacobi_flat_is_identity():
    sol = solve_jacobi(const_field(0.0), step=1e-3)
    assert np.max(np.abs(sol.G - sol.r_nodes)) <= 1e-9


@pytest.mark.parametrize("K", [1.0, -1.0, 0.5, -0.5])
def test_jacobi_constant_curvature(K):
    sol = solve_jacobi(const_field(K), step=1 / 400)
    assert np.max(np.abs(sol.G - sin_k(K, sol.r_nodes))) <= 1e-8


def test_riccati_flat_is_reciprocal():
    sol = solve_riccati(const_field(0.0), step=1e-3)
    rel = np.abs(sol.h - 1.0 / sol.r_nodes) * sol.r_nodes
    assert np.max(rel) <= 1e-9


@pytest.mark.parametrize("K", [1.0, -1.0, 0.7])
def test_riccati_constant_curvature(K):
    sol = solve_riccati(const_field(K), step=1 / 400)
    assert np.max(np.abs(sol.h - cot_k(K, sol.r_nodes))) <= 1e-8


def test_riccati_sandwich_wiggly_field():
    k = RadialCurvature(
        K=lambda r: 0.5 + 0.4 * np.sin(5 * np.asarray(r, dtype=float)),
        R=1.0, H=0.9, alpha=0.5)
    sol = solve_riccati(k, step=1 / 800)
    lo = cot_k(0.9, sol.r_nodes)
    hi = cot_k(-0.9, sol.r_nodes)
    assert np.all(sol.h >= lo - 1e-9)
    assert np.all(sol.h <= hi + 1e-9)
    # cross-check against the independent Jacobi route
    jac = solve_jacobi(k, step=1 / 800)
    sel = sol.r_nodes >= 0.01
    assert np.max(np.abs(sol.h[sel] - jac.h[sel])) <= 1e-7


def test_grid_refinement_order():
    k = const_field(1.0)
    errs = []
    for n in (100, 200):
        sol = solve_jacobi(k, step=1.0 / n)
        errs.append(np.max(np.abs(sol.G - sin_k(1.0, sol.r_nodes))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.9


def test_blowup_reported_with_node():
    k = RadialCurvature(
        K=lambda r: 4.0 * np.ones_like(np.asarray(r, dtype=float)),
        R=2.0, H=4.0, alpha=0.5)
    with pytest.raises(OdeBlowupError) as err:
        solve_jacobi(k, step=1e-3)
    assert 0 < err.value.r_bad <= 2.0


def test_field_validation(consts):
    """RadialCurvature holds a field outside the premises without judging
    it; riccati_stability_check refuses it before solving, so K = 5,
    whose Riccati solution blows up at r = pi/sqrt(5) < R, is refused
    for its sup, and so is K = 5 below r = 0.02 < r_min alone."""
    for K in (lambda r: 5.0 * np.ones_like(np.asarray(r)),
              lambda r: np.where(np.asarray(r) < 0.02, 5.0, 0.0)):
        over = RadialCurvature(K=K, R=1.5, H=1.0)   # sup violates H
        with pytest.raises(ValueError, match=re.escape(
                "sampled |K| = 5 exceeds H = 1.0")):
            riccati_stability_check(const_field(0.0, R=1.5), over, 0.05,
                                    consts)
    wide = const_field(0.0, R=4.0, H=1.0)   # H R^2 too large
    with pytest.raises(ValueError,
                       match=re.escape("H*R^2 = 16 exceeds pi^2/4")):
        riccati_stability_check(wide, wide, 0.05, consts)


def test_stability_identical_fields(consts):
    k = const_field(0.3)
    rep = riccati_stability_check(k, k, r_min=0.05, consts=consts)
    assert rep.verdict
    assert all(r.margin == 0.0 for r in rep.records)


def test_stability_difference_below_r_min(consts):
    """Fields that differ only below r_min still differ in h on
    [r_min, R]: T is taken over every node of the solves, so the check
    measures f there instead of returning zero margins."""
    k1 = const_field(0.0, H=1.0)
    k2 = RadialCurvature(
        K=lambda r: np.where(np.asarray(r, dtype=float) < 0.05, 0.9, 0.0),
        R=1.0, H=1.0, alpha=0.5)
    rep = riccati_stability_check(k1, k2, r_min=0.1, consts=consts)
    assert rep.meta["T"] == 0.9
    assert rep.verdict
    assert all(r.margin > 0.0 for r in rep.records)


def test_stability_constant_difference(consts):
    """K1 = 0.2, K2 = 0: f = cot_{0.2} - 1/r has a closed form."""
    k1 = const_field(0.2)
    k2 = const_field(0.0, H=1e-6)
    rep = riccati_stability_check(k1, k2, r_min=0.05, consts=consts,
                                  step=1e-3)
    assert rep.verdict
    # measured sup|f| matches the closed-form difference at the endpoint
    f_true = abs(cot_k(0.2, 1.0) - 1.0)
    sup_rec = rep.record("riccati_a_sup_f")
    measured = sup_rec.margin * consts.c_riccati_a * rep.meta["T"] * 1.0
    assert abs(measured - f_true) < 1e-6


def test_stability_sine_field(consts):
    k1 = RadialCurvature(
        K=lambda r: 0.3 * np.sin(3 * np.asarray(r, dtype=float)),
        R=1.0, H=0.3, alpha=0.5)
    k2 = const_field(0.0, H=1e-6)
    rep = riccati_stability_check(k1, k2, r_min=0.05, consts=consts)
    assert rep.verdict


def test_stability_random_pairs(consts, rng):
    for _ in range(10):
        k1, k2, r_min = random_riccati_pair(rng)
        rep = riccati_stability_check(k1, k2, r_min, consts, step=k1.R / 1200)
        assert rep.verdict, [f"{r.name}:{r.margin:.3g}" for r in rep.records]


def test_sandwich_random_fields(consts, rng):
    for _ in range(15):
        k1, _, _ = random_riccati_pair(rng)
        sol = solve_riccati(k1, step=k1.R / 1000)
        g_m, h_m = sol.sandwich_margins(k1.H)
        assert g_m <= 1.0 + 1e-9
        assert h_m <= 1.0 + 1e-9


def reference_solve(k, step, riccati):
    """The radial solve with one scalar K call per RHS evaluation, on a
    numpy state stepped by rk4_step: r nodes, h and G (G = None for the
    Riccati route), or OdeBlowupError's r_bad in place of h."""
    R = k.R
    r0 = max(step, R * 1e-4)
    n = max(2, int(np.ceil((R - r0) / step)))
    xs = np.linspace(r0, R, n + 1)
    h = (R - r0) / n
    k0 = float(k.K(r0))
    if riccati:
        y = np.asarray(-k0 * r0 ** 3 / 3.0)

        def f(r, g):
            return -(g * g) / (r * r) - float(k.K(r)) * r * r
    else:
        y = np.array([r0 - k0 * r0 ** 3 / 6.0, 1.0 - k0 * r0 ** 2 / 2.0])

        def f(r, y):
            return np.array([y[1], -float(k.K(r)) * y[0]])
    ys = [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            y = rk4_step(f, xs[i], y, h, f(xs[i], y))
            ys.append(y)
        ys = np.array(ys)
        if riccati:
            hv = 1.0 / xs + ys / xs ** 2
            bad = ~np.isfinite(hv)
            return xs, (xs[np.argmax(bad)] if bad.any() else hv), None
    G = ys[:, 0]
    if np.any(G <= 0):
        return xs, xs[np.argmax(G <= 0)], G
    return xs, ys[:, 1] / G, G


def radial_fields(rng):
    """Random Riccati-pair fields, and two K written for scalars: K(array)
    returns one number, so K is read one point at a time."""
    for _ in range(4):
        yield from random_riccati_pair(rng)[:2]
    yield RadialCurvature(K=lambda r: 0.5, R=1.0, H=0.5, alpha=0.5)
    yield RadialCurvature(K=lambda r: 0.4 * np.sin(3.0 * np.max(r)),
                          R=1.0, H=0.5, alpha=0.5)


def test_radial_solves_equal_scalar_reference(rng):
    """Curvature read once, vectorized, at every RK4 stage radius gives
    the bits of one scalar K call per RHS evaluation."""
    for k in radial_fields(rng):
        for solve, riccati in ((solve_riccati, True), (solve_jacobi, False)):
            sol = solve(k, step=k.R / 700)
            xs, h, G = reference_solve(k, k.R / 700, riccati)
            assert np.array_equal(sol.r_nodes, xs)
            assert np.array_equal(sol.h, h)
            if G is not None:
                assert np.array_equal(sol.G, G)


@pytest.mark.parametrize("solve, riccati", [(solve_riccati, True),
                                            (solve_jacobi, False)])
def test_blowup_node_equals_scalar_reference(solve, riccati):
    k = RadialCurvature(
        K=lambda r: 4.0 * np.ones_like(np.asarray(r, dtype=float)),
        R=2.0, H=4.0, alpha=0.5)
    xs, r_bad, _ = reference_solve(k, 1e-3, riccati)
    assert np.ndim(r_bad) == 0
    with pytest.raises(OdeBlowupError) as err:
        with np.errstate(over="ignore", invalid="ignore"):
            solve(k, step=1e-3)
    assert err.value.r_bad == r_bad
