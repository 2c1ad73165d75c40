import functools
import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import BPoly

from geoprofile import (kappa, curve_angle, f0_curve, analyze, phi_inverse,
                        sin_k, twelve_point_configurations,
                        finiteness_check)
from geoprofile.profile_analysis import C_KAPPA
from geoprofile.profiles import (DistanceProfile, ProfileError,
                                 _quintic_hermite,
                                 metric_condition_quotients,
                                 read_profile_csv, write_profile_csv)
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
    phi0, _, _ = curve_angle(p, lambda r, theta: sin_k(1.0, r),
                             np.zeros(len(p)))
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
    assert abs(kappa(p, p.t_nodes)[len(p) // 2] - 0.5) < 1e-8


def test_analyze_reads_node_slopes_from_curve_samples(monkeypatch):
    """f0 reads rho' at the nodes from the curve samples: one analyze
    evaluates rho' at the nodes once, and f0 is f0_curve's own
    evaluation bit for bit."""
    p = roundtrip_suite(1, seed=1)[0]["profile"]
    want = f0_curve(p, analyze(p).K0)
    calls = []
    deriv = DistanceProfile.deriv
    monkeypatch.setattr(DistanceProfile, "deriv",
                        lambda self, t: calls.append(t) or deriv(self, t))
    s = analyze(p)
    assert sum(np.shape(t) == p.t_nodes.shape for t in calls) == 1
    assert s.K0_clamped is False
    assert np.array_equal(s.f0, want)


def test_large_negative_K0_is_not_clamped():
    """-K0 max_rho^2 = 9 is far below the positive cap's size but well
    inside the range of sinh: K0 and the angle stay exact."""
    p = hyperbolic_profile(-1.0, 0.1, (-3.0, 3.0))
    s = analyze(p)
    assert abs(s.K0 + 1.0) < 1e-12
    assert s.K0_clamped is False
    exact = np.arctan(np.tanh(p.t_nodes) / np.sinh(0.1))
    assert np.max(np.abs(s.phi0 - exact)) < 1e-12


def test_configurations_deterministic_and_symmetric():
    cfgs = twelve_point_configurations((-1.0, 1.0), 1, seed=0)
    assert cfgs.shape == (1, 4, 3)
    pts = cfgs[0].ravel()
    assert np.allclose(pts, -pts[::-1], atol=1e-15)
    again = twelve_point_configurations((-1.0, 1.0), 1, seed=0)
    assert np.array_equal(again, cfgs)


@pytest.mark.parametrize("budget", [1, 7, 96, 200])
def test_configuration_count(budget):
    cfgs = twelve_point_configurations((0.0, 2.0), budget, seed=3)
    assert len(cfgs) == budget


def test_configuration_points_property(rng):
    for seed in range(100):
        for budget in (5, 97):
            cfgs = twelve_point_configurations((-0.3, 0.5), budget,
                                               seed=seed)
            assert cfgs.dtype == float and cfgs.shape == (budget, 4, 3)
            # centres ascending, each cluster ascending, the clusters
            # disjoint: each row read flat is strictly ascending
            assert np.all(np.diff(cfgs[:, :, 1], axis=1) > 0)
            assert np.all(np.diff(cfgs, axis=2) > 0)
            pts = cfgs.reshape(budget, 12)
            assert np.min(np.diff(pts, axis=1)) >= 1e-9 * 0.8
            assert pts.min() >= -0.3 and pts.max() <= 0.5


# sha256 of the configurations as little-endian doubles, recorded from
# the family built one configuration at a time
CONFIG_DIGESTS = {
    ((-0.2, 0.2), 240, 0):
        "21d086033aec0bff23f5123ca3d036feb568288913a79227c0749fca618409aa",
    ((-0.2, 0.2), 960, 0):
        "7be531205cd9cb7845a80b3b7f7dc94c4061514518dea51e877fdcc6712a7322",
    ((-1.0, 1.0), 97, 3):
        "92447b4d851052babadd514d9edb1b8de8fcb567c5486fd19c5ad31e3a45bcc5",
}


@pytest.mark.parametrize("interval,budget,seed", sorted(CONFIG_DIGESTS))
def test_configuration_bytes_are_pinned(interval, budget, seed):
    cfgs = twelve_point_configurations(interval, budget, seed=seed)
    data = np.ascontiguousarray(cfgs, dtype="<f8").tobytes()
    assert (hashlib.sha256(data).hexdigest()
            == CONFIG_DIGESTS[interval, budget, seed])


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


@pytest.mark.parametrize("shape", [(0, 4, 3), (4, 12), (4, 4, 2),
                                   (2, 3, 3), (4, 3)])
def test_checker_rejects_malformed_configurations(consts, shape):
    p = flat_profile(0.01, (-0.1, 0.1))
    with pytest.raises(ValueError, match="configurations must be"):
        finiteness_check(p, consts, np.zeros(shape))


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


def checker_points(p, budget, seed=0):
    """The point set of the checker's lipschitz_triangle record."""
    idx = np.unique(np.linspace(0, len(p) - 1, 400).astype(int))
    configs = twelve_point_configurations(p.interval, budget, seed=seed)
    return np.concatenate([p.t_nodes[idx], configs.ravel()])


@functools.cache
def checker_bench_profiles():
    """The 15 profiles of the checker benchmark at seed 1."""
    return ([e["profile"] for e in checker_suite(12, seed=1)]
            + [perturbed_cone_profile(1e-2, 0.25),
               perturbed_cone_profile(1e-3, 0.25),
               offset_hyperbola_profile(0.99)])


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


def test_metric_quotients_shuffled_input():
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(-0.1, 0.1, 500))
    rho = np.sqrt(0.01 ** 2 + t ** 2) + rng.normal(0.0, 1e-4, t.size)
    perm = rng.permutation(t.size)
    for min_dt in (0.0, 1e-3):
        got = metric_condition_quotients(t[perm], rho[perm], min_dt)
        assert got == all_pairs_quotients(t[perm], rho[perm], min_dt)
        assert got == metric_condition_quotients(t, rho, min_dt)


@pytest.mark.parametrize("same_rho", [True, False])
def test_metric_quotients_many_exact_duplicates(same_rho):
    """40 distinct times, each repeated about 10 times, unsorted."""
    rng = np.random.default_rng(11)
    grid = np.sort(rng.uniform(-0.1, 0.1, 40))
    t = rng.choice(grid, 400)
    rho = np.sqrt(0.01 ** 2 + t ** 2)
    if not same_rho:
        rho = rho + rng.uniform(0.0, 1e-3, t.size)
    for min_dt in (0.0, 1e-12 * 0.2, 1e-3):
        assert (metric_condition_quotients(t, rho, min_dt)
                == all_pairs_quotients(t, rho, min_dt))


def test_metric_quotients_chain_closer_than_min_dt():
    """A chain of points 1e-3 apart under min_dt = 2.5e-3: its steepest
    pair is masked out, and a pair spanning the chain decides."""
    t = np.array([0.0, 1.0, 1.001, 1.002, 1.003, 1.004, 3.0])
    rho = np.array([5.0, 5.0, 5.5, 5.0, 5.0, 5.4, 5.0])
    got = metric_condition_quotients(t, rho, 2.5e-3)
    assert got == all_pairs_quotients(t, rho, 2.5e-3)
    span = (rho[5] - rho[1]) / (t[5] - t[1])           # about 100
    assert got[0] == span
    assert metric_condition_quotients(t, rho, 0.0)[0] > 400.0
    for min_dt in (0.0, 1.5e-3, 2.5e-3, 3.5e-3):
        perm = np.random.default_rng(0).permutation(t.size)
        assert (metric_condition_quotients(t[perm], rho[perm], min_dt)
                == all_pairs_quotients(t, rho, min_dt))


def test_metric_quotients_min_dt_between_float_steps():
    """Times a few ulps apart and min_dt off the float grid: t + min_dt
    rounds past a partner whose difference from t exceeds min_dt."""
    ulp = np.spacing(1.0)
    t = 1.0 + ulp * np.array([0.0, 1.0, 2.0, 3.0, 5.0, 8.0])
    rho = 1.0 + ulp * np.array([0.0, 1.0, 0.0, 2.0, 1.0, 0.0])
    for min_dt in ulp * np.array([0.0, 0.6, 1.0, 1.4, 1.6, 2.5, 2.6]):
        assert (metric_condition_quotients(t, rho, min_dt)
                == all_pairs_quotients(t, rho, min_dt))
    # t + min_dt is exactly 0 < 2**-60, but 2**-60 - t rounds to min_dt
    t = np.array([-1.0, 0.0, 2.0 ** -60])
    rho = np.array([1.0, 3.0, 2.0])
    assert (metric_condition_quotients(t, rho, 1.0)
            == all_pairs_quotients(t, rho, 1.0) == (0.0, 0.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_metric_quotients_random_walk(seed):
    """About 3300 points of a random walk with steps of slope below 1."""
    rng = np.random.default_rng(seed)
    n = 3300
    t = np.cumsum(rng.exponential(1e-4, n))
    rho = 0.05 + np.cumsum(rng.uniform(-0.99, 0.99, n) * np.diff(t, prepend=0))
    if seed:
        perm = rng.permutation(n)
        t, rho = t[perm], rho[perm]
    for min_dt in (0.0, 1e-12 * (t.max() - t.min()), 1e-4):
        assert (metric_condition_quotients(t, rho, min_dt)
                == all_pairs_quotients(t, rho, min_dt))


@pytest.mark.parametrize("k", range(15))
def test_metric_quotients_on_checker_bench_inputs(k):
    """The 15 checker benchmark profiles at budget 240, seed 1."""
    p = checker_bench_profiles()[k]
    a, b = p.interval
    ts = checker_points(p, 240, seed=1)
    rs = np.asarray(p.value(ts), dtype=float)
    assert (metric_condition_quotients(ts, rs, 1e-12 * (b - a))
            == all_pairs_quotients(ts, rs, 1e-12 * (b - a)))


def test_metric_quotients_offset_needs_several_triangle_steps():
    """On the offset profile the widest pair, the first triangle step,
    is not the maximizer."""
    p = offset_hyperbola_profile(0.99)
    a, b = p.interval
    ts = checker_points(p, 240, seed=1)
    rs = np.asarray(p.value(ts), dtype=float)
    got = metric_condition_quotients(ts, rs, 1e-12 * (b - a))
    assert got == all_pairs_quotients(ts, rs, 1e-12 * (b - a))
    lo, hi = np.argmin(ts), np.argmax(ts)
    assert (ts[hi] - ts[lo]) / (rs[lo] + rs[hi]) < got[1]


def test_metric_quotients_nan_gives_nan():
    t = np.linspace(0.0, 1.0, 300)
    rho = 1.0 + 0.5 * t
    rho[200] = np.nan                    # an interior sample
    lip, tri = metric_condition_quotients(t, rho, 0.0)
    assert np.isnan(lip) and np.isnan(tri)


def _lipschitz_triangle(p, consts, budget):
    rep = finiteness_check(
        p, consts, twelve_point_configurations(p.interval, budget))
    return rep, rep.record("lipschitz_triangle")


def test_profile_validation_rejects_metric_violations(consts):
    """Samples that are not 1-Lipschitz, or break the triangle bound,
    build a profile; the checker's first record fails them."""
    t = np.linspace(-0.1, 0.1, 51)
    steep = DistanceProfile(t, 0.01 + 1.5 * np.abs(t))
    low = DistanceProfile(t, np.full_like(t, 1e-3))
    cone = DistanceProfile(t, np.sqrt(0.01 ** 2 + t ** 2))
    for budget in (1, 24, 240):
        rep, rec = _lipschitz_triangle(steep, consts, budget)
        assert rep.records == [rec] and rec.margin > 1.4, budget
        rep, rec = _lipschitz_triangle(low, consts, budget)
        assert not rec.passed and rec.margin > 99.0, budget
        assert _lipschitz_triangle(cone, consts, budget)[1].passed, budget


def test_profile_validation_sees_every_node_pair(consts):
    """One step of slope 1.5 between adjacent nodes 1500 and 1501 of 3001,
    between two nodes of an evenly spaced 400-node subsample:
    lipschitz_triangle reads every node pair, so the step fails it at any
    budget, and the report holds it alone."""
    t = np.linspace(-0.1, 0.1, 3001)
    rho = np.sqrt(0.01 ** 2 + t ** 2)
    rho[1501:] += 1.5 * (t[1501] - t[1500]) - (rho[1501] - rho[1500])
    p = DistanceProfile(t, rho)
    for budget in (1, 24, 240):
        rep, rec = _lipschitz_triangle(p, consts, budget)
        assert rep.records == [rec] and rec.margin > 1.4, budget


# sha256 of finiteness_check(...).to_json() with configurations at seed 0,
# recorded with the all-pairs pass of metric_condition_quotients
CHECK_DIGESTS = {
    ("roundtrip", 240):
        "9d05aac447a2607e542429d1875394b53587467eb21ecd0f1ba679b95cb45a4d",
    ("roundtrip", 960):
        "f9aba5cbd6be04b04e13d91357ad2f1d939f283a053538114f3d941618d0ba67",
    ("bump", 240):
        "3fc074ea5b11a781c7ac58b8962d8845bb2db0c1dd5e7ffa4e68ccf39bc6141e",
    ("bump", 960):
        "7a63c992174420d7dbe3bd6a0d81a3c34b3317208470d704d8e8375522cb8a28",
    ("roundtrip_csv", 240):
        "4c302251901ea7e1dd5dd78e96f9ba5e39c57e6bbab0e6fd937844f1bfcd9305",
    ("offset", 240):
        "0e39f1789e545c238dde3b504f1e517169ebda405dbece6cac5cb7a1daef8b2d",
    ("wave", 240):
        "dd229b128eea4177b79cba4e78fb95e0b4cbc5934d169867762123f983abe814",
    ("bump_beta_alpha", 240):
        "82500658ace7f011b842f524966c698b5d49c1f226e9a1306a71586397a341c4",
}

# the last three admit and shut out clusters at the gate of every
# cluster record
PINNED_PROFILES = {
    "roundtrip": lambda: roundtrip_suite(1, seed=1)[0]["profile"],
    "roundtrip_csv": lambda: roundtrip_suite(1, seed=1)[0]["profile"],
    "bump": lambda: perturbed_cone_profile(1e-2, 0.25),
    # every record fails
    "offset": lambda: offset_hyperbola_profile(0.99),
    # grid-generated, rho' and rho'' carried from the integrator
    "wave": lambda: checker_suite(4, seed=0)[3]["profile"],
    # beta = alpha: the sensitivity gate holds kappa_holder at 0
    "bump_beta_alpha": lambda: perturbed_cone_profile(3e-3, 0.5),
}


@pytest.mark.parametrize("which,budget", sorted(CHECK_DIGESTS))
def test_check_report_bytes_are_pinned(consts, which, budget, tmp_path):
    """The roundtrip_csv case reads the profile back from its CSV: the
    spline's node values differ from the samples in the last bits."""
    p = PINNED_PROFILES[which]()
    if which == "roundtrip_csv":
        write_profile_csv(p, tmp_path / "rt.csv")
        p = read_profile_csv(tmp_path / "rt.csv")
    configs = twelve_point_configurations(p.interval, budget, seed=0)
    text = finiteness_check(p, consts, configs).to_json()
    assert (hashlib.sha256(text.encode()).hexdigest()
            == CHECK_DIGESTS[which, budget])


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


CLUSTER_RECORDS = ("curvature_bound", "kappa_holder") + F0_RECORDS


@pytest.mark.parametrize("profile", [
    lambda: offset_hyperbola_profile(0.99),
    lambda: perturbed_cone_profile(1e-2, 0.25),
    lambda: perturbed_cone_profile(1e-3, 0.25)])
def test_witness_replays_from_configuration_rows(consts, profile):
    """The rows holding every witness centre of a cluster record are a
    family of their own, and give that record's margin and witness."""
    p = profile()
    configs = twelve_point_configurations(p.interval, 240, seed=0)
    full = finiteness_check(p, consts, configs)
    centres = configs[:, :, 1]
    for name in CLUSTER_RECORDS:
        rec = full.record(name)
        rows = np.all([np.any(centres == w, axis=1) for w in rec.witness],
                      axis=0)
        assert 1 <= rows.sum() < len(configs), name
        again = finiteness_check(p, consts, configs[rows]).record(name)
        assert again.margin == rec.margin, name
        assert again.witness == rec.witness, name


@pytest.mark.parametrize("m,h", [(0.2, 0.9), (0.3, 1.2)])
def test_curvature_slack_is_uniform_in_radius(consts, m, h):
    """|kappa| <= H carries one 5% slack at every radius: spheres reaching
    H rho^2 = 0.84 and 1.48 pass at K = 1.04 H, where curvature_bound
    reads 1.04 / 1.05, and fail it at K = 1.06 H."""
    for K in (1.04, 1.06):
        p = spherical_profile(K, m, (-h, h), n=3001)
        rep = finiteness_check(
            p, consts, twelve_point_configurations(p.interval, 240, seed=0))
        rec = rep.record("curvature_bound")
        assert abs(rec.margin - K / (C_KAPPA * consts.H)) < 1e-5, rec.margin
        assert rec.passed == (K < C_KAPPA)
        assert rep.verdict == (K < C_KAPPA)


def test_checker_stops_at_lipschitz_failure(consts):
    """kappa is undefined on a profile steeper than 1: the report holds
    the failing lipschitz_triangle record alone."""
    t = np.linspace(-0.04, 0.04, 801)
    p = DistanceProfile(t, 0.01 + 1.5 * np.abs(t))
    rep = finiteness_check(p, consts,
                           twelve_point_configurations(p.interval, 24))
    assert not rep.verdict
    assert [r.name for r in rep.records] == ["lipschitz_triangle"]
    assert rep.records[0].margin > 1.4


def test_sampled_profile_checks_like_carried(consts,
                                             variable_curvature_profile):
    """The quintic spline of the samples alone gives the check records of
    the profile whose rho' and rho'' the integrator carried."""
    p = variable_curvature_profile
    q = DistanceProfile(p.t_nodes, p.rho)
    configs = twelve_point_configurations(p.interval, 240, seed=0)
    carried = finiteness_check(p, consts, configs).records
    sampled = finiteness_check(q, consts, configs).records
    assert [r.name for r in sampled] == [r.name for r in carried]
    for a, b in zip(carried, sampled):
        assert a.passed == b.passed, a.name
        assert abs(a.margin - b.margin) <= 1e-3, (a.name, a.margin, b.margin)


def test_carried_derivatives_come_in_pairs():
    t = np.linspace(-0.1, 0.1, 51)
    rho = np.sqrt(0.01 ** 2 + t ** 2)
    with pytest.raises(ProfileError, match="both rho' and rho''"):
        DistanceProfile(t, rho, rho_dot=t / rho)
    with pytest.raises(ProfileError, match="both rho' and rho''"):
        DistanceProfile(t, rho, rho_ddot=0.01 ** 2 / rho ** 3)


@pytest.mark.parametrize("which", ["rho_dot", "rho_ddot"])
@pytest.mark.parametrize("bad", ["short", "long", "two", "0-d", "nan", "inf"])
def test_malformed_carried_arrays_are_refused(which, bad):
    """A carried array shaped unlike t_nodes, or holding a non-finite
    value, is refused at construction, not at the first evaluation."""
    t = np.linspace(-0.1, 0.1, 51)
    rho = np.sqrt(0.01 ** 2 + t ** 2)
    arrays = {"rho_dot": t / rho, "rho_ddot": 0.01 ** 2 / rho ** 3}
    d = arrays[which]
    arrays[which] = {"short": d[:-1], "long": np.append(d, d[-1]),
                     "two": d[:2], "0-d": np.asarray(d[0]),
                     "nan": np.where(t == t[7], np.nan, d),
                     "inf": np.where(t == t[7], np.inf, d)}[bad]
    with pytest.raises(ProfileError, match="finite and shaped like t_nodes"):
        DistanceProfile(t, rho, **arrays)


def assert_near_from_derivatives(t, rho, rho_dot, rho_ddot):
    """_quintic_hermite is the interpolant of BPoly.from_derivatives: the
    same breakpoints and extrapolation, and in value, rho' and rho'' at
    15,001 points of the interval the two agree to within
    64 eps S / h^nu, with h the width of the point's interval and S the
    largest of |rho|, |rho'| h and |rho''| h^2 at its ends.  Each form
    rounds its coefficients at about eps S, and the nu-th derivative
    divides them by h^nu."""
    got = _quintic_hermite(t, rho, rho_dot, rho_ddot)
    want = BPoly.from_derivatives(
        t, np.column_stack([rho, rho_dot, rho_ddot]))
    assert np.array_equal(got.x, want.x)
    assert got.extrapolate == want.extrapolate
    h = np.diff(t)
    S = np.max(np.abs([rho[:-1], rho[1:], rho_dot[:-1] * h,
                       rho_dot[1:] * h, rho_ddot[:-1] * h * h,
                       rho_ddot[1:] * h * h]), axis=0)
    ts = np.linspace(t[0], t[-1], 15001)
    i = np.clip(np.searchsorted(t, ts, side="right") - 1, 0, t.size - 2)
    eps = np.finfo(float).eps
    for nu in range(3):
        err = np.abs(got(ts, nu) - want(ts, nu))
        assert np.all(err <= 64.0 * eps * S[i] / h[i] ** nu), nu


@pytest.mark.parametrize("k", range(12))
def test_quintic_hermite_is_from_derivatives_on_checker_profiles(k):
    """The 12 grid-generated profiles of the checker benchmark."""
    p = checker_bench_profiles()[k]
    assert_near_from_derivatives(p.t_nodes, p.rho, p._rho_dot, p._rho_ddot)


def test_quintic_hermite_is_from_derivatives_on_variable_curvature(
        variable_curvature_profile):
    p = variable_curvature_profile
    assert_near_from_derivatives(p.t_nodes, p.rho, p._rho_dot, p._rho_ddot)


def assert_one_polynomial(p):
    """rho' and rho'' of a carried profile are the derivatives of its
    spline at 15,001 points, and the spline gives back the carried rho,
    rho' and rho'' at every node but the last (which the last interval
    reaches at its far end)."""
    ts = np.linspace(*p.interval, 15001)
    assert np.array_equal(p.deriv(ts), p.spline(ts, 1))
    assert np.array_equal(p.second_deriv(ts), p.spline(ts, 2))
    t = p.t_nodes[:-1]
    for nu, carried in enumerate((p.rho, p._rho_dot, p._rho_ddot)):
        assert np.array_equal(p.spline(t, nu), carried[:-1]), nu


@pytest.mark.parametrize("k", range(12))
def test_carried_profile_is_one_polynomial_on_checker_profiles(k):
    assert_one_polynomial(checker_bench_profiles()[k])


def test_carried_profile_is_one_polynomial_on_variable_curvature(
        variable_curvature_profile):
    assert_one_polynomial(variable_curvature_profile)


def test_carried_value_is_within_resolution_of_exact_hermite(
        variable_curvature_profile):
    """At 200 points of each carried profile, the value stays within the
    4 eps rho that value_resolution allows for evaluation of the exact
    Hermite interpolant of the same float data, formed in Fractions."""
    eps = np.finfo(float).eps
    profiles = list(checker_bench_profiles()[:12])
    profiles.append(variable_curvature_profile)
    for k, p in enumerate(profiles):
        ts = np.random.default_rng(k).uniform(*p.interval, 200)
        got = p.value(ts)
        idx = np.clip(np.searchsorted(p.t_nodes, ts, side="right") - 1,
                      0, len(p) - 2)
        for x, i, v in zip(ts, idx, got):
            r0, r1, d0, d1, e0, e1 = (
                Fraction(a[j]) for a in (p.rho, p._rho_dot, p._rho_ddot)
                for j in (i, i + 1))
            h = Fraction(p.t_nodes[i + 1]) - Fraction(p.t_nodes[i])
            s = (Fraction(x) - Fraction(p.t_nodes[i])) / h
            D = r1 - r0 - d0 * h - e0 * h * h / 2
            E = (d1 - d0 - e0 * h) * h
            F = (e1 - e0) * h * h
            exact = (r0 + d0 * h * s + e0 * (h * s) ** 2 / 2
                     + (10 * D - 4 * E + F / 2) * s ** 3
                     + (-15 * D + 7 * E - F) * s ** 4
                     + (6 * D - 3 * E + F / 2) * s ** 5)
            assert abs(Fraction(v) - exact) <= 4 * eps * exact, (k, x)
