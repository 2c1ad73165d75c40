import tracemalloc

import numpy as np
import pytest

from geoprofile import (kappa, phi0_curve, f0_curve, analyze, phi_inverse,
                        twelve_point_configurations, finiteness_check)
from geoprofile.profiles import (DistanceProfile, ProfileError,
                                 metric_condition_quotients)
from geoprofile.surfaces import (flat_profile, spherical_profile,
                                 hyperbolic_profile, offset_hyperbola_profile,
                                 perturbed_cone_profile, checker_suite,
                                 roundtrip_suite)

F0_RECORDS = ("f0_size", "f0_slope", "f0_slope_pair", "f0_cross_scale")


def test_kappa_flat_exactly_zero():
    p = flat_profile(0.01, (-0.2, 0.2))
    k = kappa(p, p.t_nodes)
    assert np.max(np.abs(k)) < 1e-10
    # the zero is forced exactly when the ratio is exactly 1
    assert phi_inverse(1.0) == 0.0


def test_kappa_constant_curvature_recovery():
    p = spherical_profile(1.0, 0.1, (-0.2, 0.2))
    assert np.max(np.abs(kappa(p, p.t_nodes) - 1.0)) < 1e-6
    q = hyperbolic_profile(-1.0, 0.1, (-0.2, 0.2))
    assert np.max(np.abs(kappa(q, q.t_nodes) + 1.0)) < 1e-6


@pytest.mark.parametrize("c", [0.0, 0.5, 0.9, 0.99])
def test_kappa_offset_profile(c):
    p = offset_hyperbola_profile(c)
    expected = phi_inverse(1.0 - c) / (1.0 - c) ** 2
    assert abs(kappa(p, 0.0) - expected) <= 1e-6 * max(1.0, abs(expected))


def test_phi0_flat_closed_form():
    m = 0.01
    p = flat_profile(m, (-0.2, 0.2))
    s = analyze(p)
    assert np.max(np.abs(s.phi0 - np.arctan(p.t_nodes / m))) < 1e-8
    i0 = p.argmin_node()
    assert s.phi0[i0] == 0.0
    assert np.all(np.diff(s.phi0) > 0)


def test_phi0_spherical_closed_form():
    m = 0.1
    p = spherical_profile(1.0, m, (-0.2, 0.2))
    phi0 = phi0_curve(p, 1.0)
    oracle = np.arctan(np.tan(p.t_nodes) / np.sin(m))
    assert np.max(np.abs(phi0 - oracle)) < 1e-8
    assert np.max(np.abs(phi0)) < 3 * np.pi / 4


def test_f0_identically_zero_cases():
    p = flat_profile(0.02, (-0.2, 0.2))
    assert np.max(np.abs(f0_curve(p, 0.0))) < 1e-10
    q = spherical_profile(1.0, 0.1, (-0.2, 0.2))
    assert np.max(np.abs(f0_curve(q, 1.0))) < 1e-8


def test_f0_spherical_with_flat_reference():
    q = spherical_profile(1.0, 0.1, (-0.2, 0.2))
    got = f0_curve(q, 0.0)
    oracle = 1.0 / np.tan(q.rho) - 1.0 / q.rho
    assert np.max(np.abs(got - oracle)) < 1e-10


def test_summary_fields():
    p = spherical_profile(0.5, 0.05, (-0.2, 0.2))
    s = analyze(p)
    assert s.t0 == 0.0
    assert abs(s.m - 0.05) < 1e-12
    assert abs(s.K0 - 0.5) < 1e-8
    assert abs(s.kappa[len(p) // 2] - 0.5) < 1e-8


def test_configurations_deterministic_and_symmetric():
    cfgs = twelve_point_configurations((-1.0, 1.0), 1, seed=0)
    assert len(cfgs) == 1
    pts = cfgs[0].points
    assert pts.size == 12
    assert np.allclose(np.sort(pts), np.sort(-pts), atol=1e-15)
    again = twelve_point_configurations((-1.0, 1.0), 1, seed=0)
    assert np.array_equal(again[0].points, pts)


@pytest.mark.parametrize("budget", [1, 7, 96, 200])
def test_configuration_count(budget):
    cfgs = twelve_point_configurations((0.0, 2.0), budget, seed=3)
    assert len(cfgs) == budget


def test_configuration_points_property(rng):
    for seed in range(100):
        cfgs = twelve_point_configurations((-0.3, 0.5), 5, seed=seed)
        for cfg in cfgs:
            pts = cfg.points
            assert pts[0] >= -0.3 and pts[-1] <= 0.5
            assert np.min(np.diff(pts)) >= 1e-9 * 0.8


def test_checker_passes_flat(consts):
    p = flat_profile(0.01, (-0.2, 0.2))
    rep = finiteness_check(p, consts,
                           twelve_point_configurations(p.interval, 240))
    assert rep.verdict, [(r.name, r.margin) for r in rep.records if not r.passed]


def test_checker_fails_offset_on_kappa(consts):
    p = offset_hyperbola_profile(0.99)
    rep = finiteness_check(p, consts,
                           twelve_point_configurations(p.interval, 240))
    assert not rep.verdict
    rec = rep.record("curvature_bound")
    assert not rec.passed
    assert rec.margin > 1e3


def test_checker_fails_perturbed_cone(consts):
    p = perturbed_cone_profile(1e-2, 0.25)
    rep = finiteness_check(p, consts,
                           twelve_point_configurations(p.interval, 240))
    assert not rep.verdict
    worst = max(max(rep.record(n).margin for n in F0_RECORDS),
                rep.record("kappa_holder").margin)
    assert worst > 1.0
    # the Euclidean-flavored records stay clean
    assert rep.record("lipschitz_triangle").passed
    assert rep.record("angle_bound").passed


def test_checker_rejects_points_outside_interval(consts):
    p = flat_profile(0.01, (-0.1, 0.1))
    cfgs = twelve_point_configurations((-0.2, 0.2), 4)
    with pytest.raises(ValueError):
        finiteness_check(p, consts, cfgs)


def test_checker_necessity_smoke(consts):
    for entry in checker_suite(4, seed=9):
        p = entry["profile"]
        rep = finiteness_check(
            p, consts, twelve_point_configurations(p.interval, 240))
        assert rep.verdict, entry["label"]


def test_report_json_roundtrip(consts, tmp_path):
    p = flat_profile(0.01, (-0.2, 0.2))
    rep = finiteness_check(p, consts,
                           twelve_point_configurations(p.interval, 24))
    text = rep.to_json()
    assert '"verdict": true' in text
    assert text == rep.to_json()


def test_scaling_of_kappa():
    """Scaling the profile by lam rescales kappa by lam^-2."""
    lam = 0.5
    m = 0.02
    p = spherical_profile(0.8, m, (-0.1, 0.1))

    def rho_s(t):
        return lam * p._rho_fn(np.asarray(t) / lam)

    def d1_s(t):
        return p.deriv(np.asarray(t) / lam)

    def d2_s(t):
        return p.second_deriv(np.asarray(t) / lam) / lam

    ps = DistanceProfile.from_callable(rho_s, (-0.1 * lam, 0.1 * lam),
                                       n=1501, d1=d1_s, d2=d2_s)
    t = 0.03
    k_orig = kappa(p, t)
    k_scaled = kappa(ps, lam * t)
    assert abs(k_scaled - k_orig / lam ** 2) <= 1e-8 * abs(k_orig / lam ** 2)


def all_pairs_quotients(t, rho, min_dt):
    """Both pair quotients over every ordered pair, one row at a time."""
    lip, tri = [], []
    for ti, ri in zip(t, rho):
        dt = np.abs(ti - t)
        mask = dt > min_dt
        lip.append(np.max(np.abs(ri - rho)[mask] / dt[mask], initial=0.0))
        tri.append(np.max(dt[mask] / (ri + rho)[mask], initial=0.0))
    return float(np.max(lip)), float(np.max(tri))


def checker_points(p, budget):
    """The point set of the checker's lipschitz_triangle record."""
    idx = np.unique(np.linspace(0, len(p) - 1, 400).astype(int))
    configs = twelve_point_configurations(p.interval, budget, seed=0)
    return np.concatenate([p.t_nodes[idx]] + [c.points for c in configs])


@pytest.mark.parametrize("n", [7, 128, 389])
def test_metric_quotients_equal_all_pairs_reference(n):
    rng = np.random.default_rng(n)
    t = np.sort(rng.uniform(-0.1, 0.1, n))
    t[n // 2] = t[n // 3]                # an exact duplicate
    t[-1] = t[-2] + 1e-15                # a near duplicate
    rho = np.sqrt(0.01 ** 2 + t ** 2) + rng.normal(0.0, 1e-4, n)
    for min_dt in (0.0, 1e-12 * 0.2):
        got = metric_condition_quotients(t, rho, min_dt)
        assert got == all_pairs_quotients(t, rho, min_dt)
    # the near duplicate dominates the slope unless it is masked out
    assert metric_condition_quotients(t, rho, 0.0)[0] > 1e6
    assert metric_condition_quotients(t, rho, 1e-12 * 0.2)[0] < 1e6


@pytest.mark.parametrize("which", ["bump", "roundtrip"])
def test_metric_quotients_on_checker_points(which):
    if which == "bump":
        p = perturbed_cone_profile(1e-2, 0.25)
    else:
        p = roundtrip_suite(1, seed=1)[0]["profile"]
    a, b = p.interval
    ts = checker_points(p, 240)
    rs = np.asarray(p.value(ts), dtype=float)
    got = metric_condition_quotients(ts, rs, 1e-12 * (b - a))
    assert got == all_pairs_quotients(ts, rs, 1e-12 * (b - a))
    assert 0.0 < got[0] < 1.0 and 0.0 < got[1] < 1.0


def test_metric_quotients_nan_gives_nan():
    t = np.linspace(0.0, 1.0, 300)
    rho = 1.0 + 0.5 * t
    rho[200] = np.nan                    # in the second row block
    lip, tri = metric_condition_quotients(t, rho, 0.0)
    assert np.isnan(lip) and np.isnan(tri)


def test_profile_validation_rejects_metric_violations():
    t = np.linspace(-0.1, 0.1, 51)
    with pytest.raises(ProfileError, match="1-Lipschitz"):
        DistanceProfile(t, 0.01 + 1.5 * np.abs(t))
    with pytest.raises(ProfileError, match="rho\\(t\\) \\+ rho"):
        DistanceProfile(t, np.full_like(t, 1e-3))
    DistanceProfile(t, np.sqrt(0.01 ** 2 + t ** 2))


def test_checker_memory_is_linear(consts):
    """Budget 240 on a 3001-node profile: 3280 points, whose dense pair
    matrices peaked at about 420 MB."""
    p = roundtrip_suite(1, seed=1)[0]["profile"]
    configs = twelve_point_configurations(p.interval, 240, seed=0)
    tracemalloc.start()
    try:
        finiteness_check(p, consts, configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 2 ** 20, peak


def test_checker_stops_at_lipschitz_failure(consts):
    """kappa is undefined on a profile steeper than 1: the report holds
    the failing lipschitz_triangle record alone."""
    t = np.linspace(-0.04, 0.04, 801)
    p = DistanceProfile(t, 0.01 + 1.5 * np.abs(t), validate=False)
    rep = finiteness_check(p, consts,
                           twelve_point_configurations(p.interval, 24))
    assert not rep.verdict
    assert [r.name for r in rep.records] == ["lipschitz_triangle"]
    assert rep.records[0].margin > 1.4
