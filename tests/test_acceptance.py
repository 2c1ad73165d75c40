"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line (run with -s to watch them)."""

import dataclasses
import time

import numpy as np
import pytest

from geoprofile import (phi, psi, sin_k, cot_k, phi_inverse,
                        RadialCurvature, solve_jacobi, solve_riccati,
                        riccati_stability_check, kappa, whitney_extend,
                        twelve_point_configurations, finiteness_check,
                        synthesize, verify_synthesis, MetricGrid)
from geoprofile.calibration import (random_riccati_pair,
                                    random_whitney_dataset)
from geoprofile.surfaces import (flat_profile, spherical_profile,
                                 hyperbolic_profile, constant_curvature_profile,
                                 offset_hyperbola_profile,
                                 perturbed_cone_profile, checker_suite,
                                 roundtrip_suite)

PI2 = np.pi ** 2
F0_FAMILY = ("f0_size", "f0_slope", "f0_slope_pair", "f0_cross_scale")


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_special_function_identities():
    start = time.perf_counter()
    x = np.linspace(-25.0, PI2 - 1e-3, 1000)
    inv_err = np.max(np.abs(phi(phi_inverse(phi(x))) - phi(x))
                     / np.maximum(np.abs(phi(x)), 1e-30))
    worst = inv_err
    for K in (-1.5, -0.3, 0.4, 1.7):
        r = np.linspace(1e-4, 1.0, 1000)
        if K > 0:
            r = r * 0.95 * np.pi / np.sqrt(K)
        e1 = np.max(np.abs(r * cot_k(K, r) - phi(K * r * r))
                    / np.abs(phi(K * r * r)))
        e2 = np.max(np.abs(sin_k(K, r) / r - psi(K * r * r))
                    / psi(K * r * r))
        worst = max(worst, e1, e2)
    elapsed = time.perf_counter() - start
    _report("criterion 1: special-function identities",
            worst <= 1e-10 and elapsed < 1.0,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_constant_curvature_ode_exactness():
    start = time.perf_counter()
    worst = 0.0
    for K in (-1.0, -0.5, 0.0, 0.5, 1.0):
        field = RadialCurvature(
            K=lambda r, K=K: K * np.ones_like(np.asarray(r, dtype=float)),
            R=1.0, H=max(abs(K), 1e-6), alpha=0.5)
        jac = solve_jacobi(field, step=1 / 400)
        worst = max(worst, np.max(np.abs(jac.G - sin_k(K, jac.r_nodes))))
        ric = solve_riccati(field, step=1 / 400)
        worst = max(worst, np.max(np.abs(ric.h - cot_k(K, ric.r_nodes))))
    elapsed = time.perf_counter() - start
    _report("criterion 2: constant-curvature ODE exactness",
            worst <= 1e-7 and elapsed < 5.0,
            f"sup err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_riccati_sandwich_and_stability(consts):
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    violations = 0
    n_fields = 0
    for _ in range(100):
        k1, k2, r_min = random_riccati_pair(rng)
        for field in (k1, k2):
            sol = solve_riccati(field, step=field.R / 900)
            g_m, h_m = sol.sandwich_margins(field.H)
            violations += (g_m > 1 + 1e-9) + (h_m > 1 + 1e-9)
            n_fields += 1
        rep = riccati_stability_check(k1, k2, r_min, consts,
                                      step=k1.R / 900)
        violations += sum(not r.passed for r in rep.records)
    elapsed = time.perf_counter() - start
    _report("criterion 3: Riccati sandwich + stability on 200 fields",
            violations == 0 and n_fields == 200 and elapsed < 30.0,
            f"{violations} violations, {elapsed:.1f}s")


def test_criterion_4_geodesic_equation_oracle():
    worst = 0.0
    for m in (0.01, 0.05, 0.1):
        for K, prof in ((1.0, spherical_profile(1.0, m, (-0.2, 0.2))),
                        (-1.0, hyperbolic_profile(-1.0, m, (-0.2, 0.2)))):
            t = prof.t_nodes
            resid = np.abs(prof.second_deriv(t)
                           - cot_k(K, prof.rho) * (1 - prof.deriv(t) ** 2))
            worst = max(worst, float(np.max(resid)))
    _report("criterion 4: geodesic-equation oracle",
            worst <= 1e-6, f"residual {worst:.2e}")


def test_criterion_5_kappa_recovery():
    worst_const = 0.0
    for K in (-1.0, -0.5, 0.5, 1.0):
        p = constant_curvature_profile(K, 0.05, (-0.2, 0.2))
        worst_const = max(worst_const,
                          float(np.max(np.abs(kappa(p, p.t_nodes) - K))))
    flat = flat_profile(0.01, (-0.2, 0.2))
    flat_err = float(np.max(np.abs(kappa(flat, flat.t_nodes))))
    forced_zero = phi_inverse(1.0) == 0.0
    offs = []
    worst_off = 0.0
    for c in (0.0, 0.5, 0.9, 0.99):
        p = offset_hyperbola_profile(c)
        got = float(kappa(p, 0.0))
        expect = phi_inverse(1.0 - c) / (1.0 - c) ** 2
        worst_off = max(worst_off,
                        abs(got - expect) / max(1.0, abs(expect)))
        offs.append(got)
    diverging = all(b > a for a, b in zip(offs, offs[1:])) and offs[-1] > 1e4
    ok = (worst_const <= 1e-5 and flat_err <= 1e-10 and forced_zero
          and worst_off <= 1e-6 and diverging)
    _report("criterion 5: kappa recovery",
            ok, f"const err {worst_const:.2e}, flat {flat_err:.2e}, "
                f"offset rel {worst_off:.2e}, kappa(c=0.99) = {offs[-1]:.4g}")


def test_criterion_6_finiteness_checker(consts):
    start = time.perf_counter()
    suite = checker_suite(50, seed=0)
    failures = []
    for entry in suite:
        p = entry["profile"]
        rep = finiteness_check(
            p, consts, twelve_point_configurations(p.interval, 240, seed=0))
        if not rep.verdict:
            failures.append(entry["label"])
    offset = offset_hyperbola_profile(0.99)
    rep_off = finiteness_check(
        offset, consts,
        twelve_point_configurations(offset.interval, 240, seed=0))
    offset_ok = (not rep_off.verdict
                 and not rep_off.record("curvature_bound").passed)
    margins = []
    bump_fail = True
    for eps in (1e-2, 1e-3):
        p = perturbed_cone_profile(eps, beta=0.25)  # beta = alpha/2, alpha=1/2
        rep = finiteness_check(
            p, consts, twelve_point_configurations(p.interval, 240, seed=0))
        fam = max(rep.record(n).margin for n in F0_FAMILY)
        margins.append(fam)
        failing = fam > 1.0 or rep.record("kappa_holder").margin > 1.0
        bump_fail &= (not rep.verdict) and failing
    expected_ratio = (1e-3 / 1e-2) ** (0.25 - 0.5)   # eps^(beta - alpha)
    ratio = margins[1] / margins[0]
    scaling_ok = expected_ratio / 3 <= ratio <= expected_ratio * 3
    elapsed = time.perf_counter() - start
    _report("criterion 6: finiteness checker",
            not failures and offset_ok and bump_fail and scaling_ok
            and elapsed < 60.0,
            f"suite fails {failures}, offset_ok {offset_ok}, "
            f"bump margins {margins[0]:.3g}/{margins[1]:.3g} "
            f"(ratio {ratio:.2f} vs {expected_ratio:.2f}), {elapsed:.1f}s")


def test_criterion_7_synthesis_roundtrip(consts):
    start = time.perf_counter()
    bad = []
    for entry in roundtrip_suite(20, seed=1):
        p = entry["profile"]
        res = synthesize(p, consts)
        rep = verify_synthesis(res, p, consts, tol_geo=1e-5, tol_dist=1e-4)
        fails = [r.name for r in rep.records if not r.passed]
        K_fd, _ = res.metric.curvature_fd()
        gam = res.gamma
        sel_t = ((res.metric.theta_nodes >= gam.phi.min())
                 & (res.metric.theta_nodes <= gam.phi.max()))
        sel_r = ((res.metric.r_nodes >= 0.5 * entry["m"])
                 & (res.metric.r_nodes <= np.max(p.rho)))
        sup_sec = float(np.max(np.abs(K_fd[np.ix_(sel_t, sel_r)])))
        if abs(sup_sec - abs(entry["K"])) > 0.1:
            fails.append(f"K sup {sup_sec:.3f} vs {entry['K']:.3f}")
        if fails:
            bad.append((entry["label"], fails))
    elapsed = time.perf_counter() - start
    _report("criterion 7: synthesis round-trip x20",
            not bad and elapsed < 600.0,
            f"failures {bad}, {elapsed:.0f}s")


def test_criterion_8_whitney_constant_stability():
    rng = np.random.default_rng(777)
    interp_worst = 0.0
    cws = []
    for _ in range(100):
        s, T1, T2, interval = random_whitney_dataset(rng)
        ext = whitney_extend(s, 0.5, T1, T2, interval)
        interp_worst = max(interp_worst, float(np.max(np.abs(ext(s.x) - s.y))))
        cws.append(ext.c_w)
    cws = np.asarray(cws)
    recorded = float(np.max(cws))
    stable = np.all(cws <= recorded) and np.max(cws) >= 0.9 * recorded
    _report("criterion 8: Whitney interpolation + C_w stability",
            interp_worst <= 1e-12 and stable,
            f"interp {interp_worst:.2e}, C_w = {recorded:.3f} "
            f"(range {cws.min():.3f}..{cws.max():.3f})")


def test_criterion_9_defect_detection(consts):
    p = spherical_profile(0.4, 0.012, (-0.038, 0.038), n=3001)
    res = synthesize(p, consts)
    rng = np.random.default_rng(5)
    n_r = res.metric.r_nodes.size
    lo = int(np.searchsorted(res.metric.r_nodes, 1.2 * res.summary.m))
    hi = int(np.searchsorted(res.metric.r_nodes, np.max(p.rho)))
    flagged = 0
    for trial in range(10):
        G2 = res.metric.G.copy()
        it = int(rng.integers(0, res.metric.theta_nodes.size))
        ir = int(rng.integers(lo, hi))
        G2[it, ir] *= 1.0 + 1e-2
        bad_grid = MetricGrid(res.metric.r_nodes, res.metric.theta_nodes, G2,
                              dG_dr=res.metric.dG_dr,
                              H=res.metric.H, alpha=res.metric.alpha,
                              validate=False)
        rep = verify_synthesis(dataclasses.replace(res, metric=bad_grid),
                               p, consts, n_dist_pairs=0)
        flagged += int(not rep.record("curvature_holder").passed)
    _report("criterion 9: injected-defect detection",
            flagged == 10, f"{flagged}/10 trials flagged")
