import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from geoprofile import (synthesize, verify_synthesis, verify_grid,
                        decompose_annuli, extend_fk, glue_f, analyze,
                        MetricGrid, SynthesisError,
                        twelve_point_configurations, finiteness_check)
from geoprofile import whitney
from geoprofile.profiles import DistanceProfile
from geoprofile.synthesis import (bump_weight, bump_weight_prime, LN2,
                                  assemble_metric, _grid_holder,
                                  _PieceField,
                                  RadialCorrectionField, _dyadic_r_nodes)
from geoprofile.surfaces import (flat_profile, spherical_profile,
                                 hyperbolic_profile, offset_hyperbola_profile,
                                 perturbed_cone_profile,
                                 variable_curvature_grid, grid_profile,
                                 roundtrip_suite, constant_curvature_grid,
                                 constant_curvature_profile, checker_suite)
from geoprofile.special_functions import sin_k, PI_SQUARED
from geoprofile.geodesy import save_metric_json, load_metric_json
from geoprofile.profile_analysis import curve_angle
from geoprofile.whitney import holder_seminorm_pairs, WhitneyExtension


@pytest.fixture(scope="module")
def flat_result(consts):
    p = flat_profile(0.01, (-0.0387, 0.0387), n=3001)
    return p, synthesize(p, consts)


def test_partition_of_unity_sums_to_one():
    x = np.linspace(-3.7, 4.2, 1001)
    total = sum(bump_weight(x - j) for j in range(-6, 7))
    assert np.max(np.abs(total - 1.0)) < 1e-14
    assert bump_weight(-1.0) == 0.0 and bump_weight(1.0) == 0.0
    assert bump_weight(0.0) == 1.0


def test_decompose_flat_annuli(consts):
    p = flat_profile(0.01, (-0.2, 0.2))
    s = analyze(p, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    ks = sorted(d.pieces.keys())
    assert ks == list(range(-7, -1))
    inner = d.pieces[-7][0]
    assert inner.case == "I" and inner.side == "both"
    # lambda lies between min and max of phi0' on the piece
    i_lo, i_hi = inner.node_slice
    seg = s.phi0_prime[i_lo:i_hi + 1]
    assert seg.min() <= inner.lam <= seg.max()
    assert inner.delta == pytest.approx(
        inner.lam ** consts.alpha * 2.0 ** (inner.k * (1 + consts.alpha)))


def test_decompose_case_tags_deep_profile(consts):
    p = flat_profile(0.002, (-0.0399, 0.0399), n=4001)
    s = analyze(p, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    cases = {(pc.k, pc.side): pc.case for pc in d.all_pieces()}
    assert cases[(-9, "both")] == "I"
    sides = [side for (k, side) in cases if k == -5]
    assert sorted(sides) == ["+", "-"]
    all_cases = set(cases.values())
    assert "III" in all_cases or "IV" in all_cases


def test_annulus_rho_confined(consts):
    p = flat_profile(0.004, (-0.06, 0.06), n=3001)
    s = analyze(p, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    for k, plist in d.pieces.items():
        union = len(plist) == 1 and plist[0].side == "both" \
            and d.m <= 2.0 ** (k - 1)
        for piece in plist:
            i_lo, i_hi = piece.node_slice
            seg = p.rho[i_lo:i_hi + 1]
            # a joined crossing may dip into the gap, but never below the
            # quarter-scale threshold that allowed joining
            lo = 2.0 ** (piece.k - 3) if union else 2.0 ** (piece.k - 1)
            assert np.all(seg > lo * (1 - 1e-12))
            assert np.all(seg < 2.0 ** (piece.k + 1) * (1 + 1e-12))


def test_extension_interpolates_curve_values(consts):
    p = flat_profile(0.002, (-0.0399, 0.0399), n=4001)
    s = analyze(p, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    fields = {k: extend_fk(k, d, p, s) for k in d.pieces}
    correction = glue_f(fields, d)
    on_curve = _pointwise_reference(correction, p.rho, s.phi0)[0]
    assert np.max(np.abs(on_curve - s.f0)) <= 1e-8


def test_glue_requires_coverage(consts):
    p = flat_profile(0.01, (-0.0387, 0.0387), n=2001)
    s = analyze(p, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    fields = {k: extend_fk(k, d, p, s) for k in d.pieces}
    fields.pop(sorted(fields)[0])
    with pytest.raises(SynthesisError):
        glue_f(fields, d)


def test_support_floor(consts, flat_result):
    """Below m/2 the grid pass gives f, df/dr and the radial trapezoid
    as exact zeros, and so does the pointwise reference."""
    p, res = flat_result
    r = np.linspace(1e-5, 0.45 * res.summary.m, 50)
    th = np.linspace(-np.pi, np.pi, 21)
    assert np.all(res.correction.on_grid(r, th) == 0.0)
    assert np.all(res.correction.radial_integral(r, th) == 0.0)
    R, TH = np.meshgrid(r, th)
    for part in _pointwise_reference(res.correction, R.ravel(), TH.ravel()):
        assert np.all(part == 0.0)


def test_flat_metric_is_euclidean(flat_result):
    p, res = flat_result
    assert np.max(np.abs(res.metric.G - res.metric.r_nodes[None, :])) < 1e-12
    K0 = res.summary.K0
    K = K0 - res.correction.curvature_term(
        K0, res.metric.r_nodes, res.theta_map.inverse(res.metric.theta_nodes))
    assert np.max(np.abs(K)) < 1e-9


def test_synthesis_refuses_K0_above_one_and_a_half_H(consts):
    """One gate, before any construction: |K0| = 1.55 H is refused with
    the checker's hint, and 1.45 H is synthesized."""
    p = spherical_profile(1.55, 0.0125, (-0.0387, 0.0387), n=3001)
    with pytest.raises(SynthesisError,
                       match="above the admissible bound; run the checker"):
        synthesize(p, consts)
    p = spherical_profile(1.45, 0.0125, (-0.0387, 0.0387), n=3001)
    assert abs(synthesize(p, consts).summary.K0 - 1.45) < 1e-6


@pytest.mark.parametrize("K", [0.5, -0.5])
def test_constant_curvature_metric_recovered(consts, K):
    p = (spherical_profile if K > 0 else hyperbolic_profile)(
        K, 0.0125, (-0.0387, 0.0387), n=3001)
    res = synthesize(p, consts)
    expect = sin_k(K, res.metric.r_nodes)
    assert np.max(np.abs(res.metric.G - expect[None, :])) < 1e-6
    assert abs(res.summary.K0 - K) < 1e-8
    # the curve matches the law-of-cosines path
    rep = verify_synthesis(res, p, consts)
    assert rep.verdict, [(r.name, r.margin) for r in rep.records
                         if not r.passed]


def test_flat_roundtrip_residuals(consts, flat_result):
    p, res = flat_result
    rep = verify_synthesis(res, p, consts)
    assert rep.verdict
    assert rep.record("geodesic_residual").margin * 1e-5 <= 1e-8
    # the glued correction reproduces f0 on the reference curve
    s = res.summary
    on_curve = _pointwise_reference(res.correction, p.rho, s.phi0)[0]
    assert np.max(np.abs(on_curve - s.f0)) <= 1e-12


@pytest.fixture(scope="module")
def synthesized(consts, flat_result, variable_curvature_profile):
    """(profile, synthesis result) by case name: the flat profile, the
    round-trip suite, the variable-curvature disc's geodesic and the
    beta = 1 bumps."""
    profiles = {f"roundtrip{i}": e["profile"]
                for i, e in enumerate(roundtrip_suite(6, seed=1))}
    profiles["variable_curvature"] = variable_curvature_profile
    profiles.update({f"bump{eps:g}": perturbed_cone_profile(eps, 1.0)
                     for eps in (1e-1, 3e-2, 1e-2)})
    cases = {k: (p, synthesize(p, consts)) for k, p in profiles.items()}
    cases["flat"] = flat_result
    return cases


def test_verify_grid_on_synthesized_grid(consts, synthesized, tmp_path):
    """What synthesize reports is what verify finds on the grid it saved:
    without f_holder_budget, which needs the correction field, the two
    reports are byte-identical, failing records included."""
    for case, (p, res) in synthesized.items():
        rep = verify_synthesis(res, p, consts)
        assert rep.records[-1].name == "f_holder_budget", case
        rep.records.pop()
        path = tmp_path / f"{case}.json"
        save_metric_json(res.metric, path)
        grid = load_metric_json(path)
        assert rep.to_json() == verify_grid(grid, p, consts).to_json(), case
        if case == "flat" or case.startswith("roundtrip"):
            assert rep.verdict, (case, [(r.name, r.margin)
                                        for r in rep.records if not r.passed])


@pytest.mark.parametrize("case,tol", [(f"roundtrip{i}", 1e-12)
                                      for i in range(6)]
                         + [("variable_curvature", 1e-8)])
def test_construction_angle_matches_grid_angle(synthesized, case, tol):
    """The construction's curve angle, integrated through the reference
    coefficient, agrees with the angle verify re-integrates through the
    grid (5 sweeps from zero): the grid resolves the curve."""
    p, res = synthesized[case]
    phi = np.zeros_like(p.t_nodes)
    for _ in range(5):
        phi = curve_angle(p, res.metric.value, phi)[0]
    assert np.max(np.abs(res.phi - phi)) <= tol


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_f_holder_budget_is_scale_free(consts, lam):
    """rho -> lam rho(t / lam) with H -> H / lam^2 leaves the margin of
    f_holder_budget unchanged: its allowance scales as the seminorm,
    H^(1 + alpha/2).  A power of 2 maps the dyadic annuli onto
    themselves, so only rounding is left."""
    p = perturbed_cone_profile(1e-2, 1.0)
    a, b = p.interval
    scaled = DistanceProfile.from_callable(
        lambda t: lam * p.value(t / lam), (lam * a, lam * b),
        n=p.t_nodes.size, d1=lambda t: p.deriv(t / lam),
        d2=lambda t: p.second_deriv(t / lam) / lam)
    c_lam = dataclasses.replace(consts, H=consts.H / lam ** 2)
    want = verify_synthesis(synthesize(p, consts), p, consts).record(
        "f_holder_budget").margin
    got = verify_synthesis(synthesize(scaled, c_lam), scaled, c_lam).record(
        "f_holder_budget").margin
    assert abs(got - want) <= 1e-12 * want


def test_verify_grid_passes_generating_wave_disc(consts):
    """A disc the synthesizer did not build realizes its own profile:
    its G is not sin_k(K0, r) near the center, and no record asks it to
    be."""
    entry = [e for e in checker_suite(4, seed=0)
             if e["label"].startswith("wave")][0]
    rep = verify_grid(entry["grid"], entry["profile"], consts)
    assert rep.verdict, [(r.name, r.margin) for r in rep.records
                         if not r.passed]


def test_synthesized_grid_is_reference_below_support_floor(consts):
    """Below half the minimal distance the correction vanishes, so the
    synthesized G is sin_k(K0, r) there, also off constant curvature."""
    res = synthesize(perturbed_cone_profile(1e-2, 1.0), consts)
    r = res.metric.r_nodes
    inner = r <= 0.5 * res.summary.m
    assert np.count_nonzero(inner) > 100
    ratio = res.metric.G[:, inner] / sin_k(res.summary.K0, r[inner])[None, :]
    assert np.max(np.abs(ratio - 1.0)) <= 1e-9


def test_flat_synthesized_angle_is_exact(consts):
    """On a flat profile the synthesized angle is arctan(t / m)."""
    m, half = 1.5e-3, np.sqrt(0.045 ** 2 - 1.5e-3 ** 2)
    p = flat_profile(m, (-half, half), n=3001)
    phi = synthesize(p, consts).phi
    assert np.max(np.abs(phi - np.arctan(p.t_nodes / m))) <= 1e-12


def test_variable_curvature_roundtrip(consts):
    def K_fn(r, theta):
        return (0.2 + 0.25 * np.sin(6.0 * r + 1.0)) * np.ones_like(theta)

    grid = variable_curvature_grid(K_fn, 0.065)
    p, _ = grid_profile(grid, 0.008, 0.038)
    res = synthesize(p, consts)
    rep = verify_synthesis(res, p, consts)
    assert rep.verdict, [(r.name, r.margin) for r in rep.records
                         if not r.passed]
    # reconstructed curvature agrees with the generating field on the sector
    K_fd, K_res = res.metric.curvature_fd()
    sel_t = ((res.metric.theta_nodes >= res.phi.min())
             & (res.metric.theta_nodes <= res.phi.max()))
    sel_r = ((res.metric.r_nodes >= 0.9 * p.m)
             & (res.metric.r_nodes <= np.max(p.rho)))
    K_sec = K_fd[np.ix_(sel_t, sel_r)]
    K_true = K_fn(res.metric.r_nodes[sel_r], np.zeros(1))
    assert abs(np.max(np.abs(K_sec)) - np.max(np.abs(K_true))) < 0.05


def test_theta_map_monotone_bilipschitz(consts):
    p = spherical_profile(0.5, 0.0125, (-0.0387, 0.0387), n=3001)
    res = synthesize(p, consts)
    tm = res.theta_map
    assert np.all(np.diff(tm.nodes_from) > 0)
    assert np.all(np.diff(tm.nodes_to) > 0)
    fwd, inv = tm.lipschitz_constants()
    assert max(fwd, inv) <= 1.5
    g = np.linspace(-np.pi, np.pi, 301)
    assert np.max(np.abs(tm.inverse(tm.forward(g)) - g)) < 1e-12
    # angle-rate ratio surrogate: log of the deformation Lipschitz
    # constant is controlled by (H max(rho)^2)^(1 + alpha/2)
    hr2 = consts.H * float(np.max(p.rho)) ** 2
    assert np.log(max(fwd, inv)) <= \
        consts.c_phi_ratio * hr2 ** (1 + consts.alpha / 2)


def test_piece_seminorm_budgets(consts):
    """Sampled sup and Hölder seminorms of each annulus field f_k and of
    its radial derivative stay within the dyadic budgets (as ratios
    against them)."""
    p = flat_profile(0.002, (-0.0399, 0.0399), n=4001)
    res = synthesize(p, consts)
    assert res.correction.fields
    alpha = consts.alpha
    for k, fld in res.correction.fields.items():
        r = np.geomspace(2.0 ** (k - 1) * 1.001, 2.0 ** (k + 1) * 0.999, 24)
        th = np.linspace(-np.pi * 0.98, np.pi * 0.98, 48)
        R, TH = np.meshgrid(r, th, indexing="ij")
        # f_k = sum_p fade_p (g_p + y_p) and its r-derivative
        V = sum(next(pc.terms(TH, [(None if pc.radial is None
                                    else pc.radial(R), np.ones_like(R))]))
                for pc in fld).ravel()
        D = sum((next(pc.terms(TH, [(pc.radial.deriv(R), np.zeros_like(R))]))
                 for pc in fld if pc.radial is not None),
                np.zeros_like(R)).ravel()
        pts = np.column_stack([(R * np.cos(TH)).ravel(),
                               (R * np.sin(TH)).ravel()])
        sub = slice(0, None, 3)
        semis = {
            "sup_f": np.max(np.abs(V)) / 2.0 ** ((1 + alpha) * k),
            "holder_f": holder_seminorm_pairs(V[sub], pts[sub], alpha)
            / 2.0 ** k,
            "sup_df": np.max(np.abs(D)) / 2.0 ** (alpha * k),
            "holder_df": holder_seminorm_pairs(D[sub], pts[sub], alpha),
        }
        assert all(v <= 5.0 for v in semis.values()), (k, semis)


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_bump_nets_are_extended(consts, beta, monkeypatch):
    """The eps = 3e-3 bump passes the check at beta = 0.5 and 1.0.  Some
    of its case-III nets have their worst triple away from adjacent
    points; synthesis takes T1 and T2 over the same triples that
    whitney_extend checks, so it is not refused.  The measured derivative
    norms of an extension are read only through c_w, so synthesis forms
    none of their pair quotients."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return holder_seminorm_pairs(*args, **kwargs)

    monkeypatch.setattr(whitney, "holder_seminorm_pairs", counting)
    res = synthesize(perturbed_cone_profile(3e-3, beta), consts)
    assert "III" in {pc.case for pc in res.decomposition.all_pieces()}
    assert calls == []


def test_refuses_wild_reference_curvature(consts):
    p = offset_hyperbola_profile(0.99)
    with pytest.raises(SynthesisError):
        synthesize(p, consts)


def test_defect_injection_flagged(consts):
    p = spherical_profile(0.5, 0.0125, (-0.0387, 0.0387), n=3001)
    res = synthesize(p, consts)
    G2 = res.metric.G.copy()
    col = int(np.searchsorted(res.metric.r_nodes, 0.02))
    G2[7, col] *= 1.01
    bad = MetricGrid(res.metric.r_nodes, res.metric.theta_nodes, G2)
    rep = verify_synthesis(dataclasses.replace(res, metric=bad), p, consts)
    assert not rep.record("curvature_holder").passed


@pytest.mark.parametrize("node", [(17, 123), (0, 50)],
                         ids=["interior", "theta_row_0"])
def test_grid_holder_nan_gives_nan(node):
    """NaN on an interior node, or on theta row 0, whose circle pairs
    wrap across the cut, gives NaN."""
    values = np.ones((64, 200))
    values[node] = np.nan
    r_nodes = np.geomspace(1e-3, 0.05, 200)
    assert np.isnan(_grid_holder(values, r_nodes, 0.5, np.zeros(200)))


def _grid_holder_unpruned(values, r_nodes, alpha, resolution):
    """The sweep's pairs, every one evaluated: along the rays at offsets
    round(sqrt(2)^k) and n_r - 1, around the circles at those offsets up
    to n_theta/2."""
    n_t, n_r = values.shape

    def spans(n):
        s = np.unique(np.minimum(np.round(np.sqrt(2.0) ** np.arange(40)),
                                 n - 1)).astype(int)
        return s[s > 0]

    partial = [0.0]
    for s in spans(n_r):
        dv = (np.abs(values[:, s:] - values[:, :-s])
              - resolution[s:] - resolution[:-s])
        den = (r_nodes[s:] - r_nodes[:-s]) ** alpha
        partial.append(np.max(np.maximum(dv, 0.0) / den))
    for s in spans(n_t // 2 + 1):
        dv = (np.abs(np.roll(values, -s, axis=0) - values)
              - resolution - resolution)
        den = (2.0 * r_nodes * np.sin(np.pi * s / n_t)) ** alpha
        partial.append(np.max(np.maximum(dv, 0.0) / den))
    return float(np.max(partial))


def test_grid_holder_pruning_changes_nothing():
    """On random grids (uneven r, per-r resolution, some NaNs) the pruned
    sweep equals the same pairs evaluated without the bound, bit for
    bit."""
    rng = np.random.default_rng(52)
    finite = 0
    for case in range(60):
        n_t = int(rng.choice([2, 3, 8, 31, 64]))
        n_r = int(rng.integers(2, 160))
        r_nodes = np.cumsum(rng.uniform(0.1, 3.0, n_r)) * 1e-3
        values = (np.sin(rng.uniform(5, 200) * r_nodes)[None, :]
                  * np.cos(np.arange(n_t) * 2 * np.pi / n_t)[:, None]
                  + rng.normal(0, rng.uniform(0, 0.2), (n_t, n_r)))
        resolution = rng.uniform(0, 0.3, n_r) * (case % 3 != 0)
        if case % 5 == 4:
            values[tuple(rng.integers((n_t, n_r), size=(2, 2)).T)] = np.nan
        alpha = float(rng.uniform(0.1, 1.0))
        got = _grid_holder(values, r_nodes, alpha, resolution)
        want = _grid_holder_unpruned(values, r_nodes, alpha, resolution)
        assert got == want or np.isnan(got) and np.isnan(want), case
        finite += not np.isnan(got)
    assert finite >= 48  # NaN, which compares trivially, stays rare


def test_curvature_holder_reads_the_exact_seminorm(consts):
    """On a wave disc the record reads the exact seminorm of K_fd over the
    nodes at r >= m/4 (outside them K_fd lies within its resolution) to
    1%, and never above it."""
    p = checker_suite(4, seed=0)[3]["profile"]
    grid = synthesize(p, consts).metric
    K_fd, K_res = grid.curvature_fd()
    got = _grid_holder(K_fd, grid.r_nodes, consts.alpha, K_res[0])
    rep = verify_grid(grid, p, consts)
    assert rep.record("curvature_holder").margin == got / (
        consts.c_k_holder * consts.H ** (1 + consts.alpha / 2))
    out = grid.r_nodes >= p.m / 4
    R, TH = np.meshgrid(grid.r_nodes[out], grid.theta_nodes)
    pts = np.column_stack([(R * np.cos(TH)).ravel(),
                           (R * np.sin(TH)).ravel()])
    exact = holder_seminorm_pairs(K_fd[:, out].ravel(), pts, consts.alpha,
                                  resolution=K_res[:, out].ravel())
    assert 0.99 * exact <= got <= exact, (got, exact)


def test_verify_reads_no_seed(consts):
    """Verification draws no random numbers: the seed moves no byte."""
    p = perturbed_cone_profile(3e-2, 1.0)
    res = synthesize(p, consts)
    reports = {verify_synthesis(res, p, consts, seed=s).to_json()
               for s in (0, 1, 7)}
    assert len(reports) == 1


def test_nonuniform_sampled_roundtrip(consts):
    """A profile sampled at nodes whose spacing varies by a factor 1.46,
    built from the samples alone, passes check, synthesize and verify:
    the curve's angle is integrated per interval of the uneven nodes."""
    p = roundtrip_suite(1, seed=1)[0]["profile"]
    a, b = p.interval
    u = np.linspace(0.0, 1.0, 3001)
    t = a + (b - a) * (u + 0.03 * np.sin(2 * np.pi * u))
    q = DistanceProfile(t, p.value(t))
    configs = twelve_point_configurations(q.interval, 240, seed=0)
    assert finiteness_check(q, consts, configs).verdict
    rep = verify_synthesis(synthesize(q, consts), q, consts)
    assert rep.verdict, [(r.name, r.margin) for r in rep.records
                         if not r.passed]


def test_verify_grid_reports_non_finite_curve_points(consts):
    """G = 0 on the row the curve's angle is anchored to: the curve angle
    is NaN, and geodesic_residual fails at its first NaN point with a
    one-line detail, not a crash."""
    p = spherical_profile(0.5, 0.0125, (-0.0387, 0.0387), n=3001)
    grid = constant_curvature_grid(0.5, 0.05, n_r=400, n_theta=64)
    G = grid.G.copy()
    G[int(np.argmin(np.abs(grid.theta_nodes)))] = 0.0
    zero = MetricGrid(grid.r_nodes, grid.theta_nodes, G)
    with np.errstate(all="ignore"):
        rep = verify_grid(zero, p, consts)
    assert not rep.verdict
    rec = rep.record("geodesic_residual")
    assert not rec.passed and np.isnan(rec.margin)
    assert rec.detail == f"curve angle not finite at t = {rec.witness[0]:.6g}"


@pytest.mark.parametrize("cut", ["R_below_m", "floor_above_m"])
def test_verify_grid_refuses_curve_outside_grid(consts, synthesized, cut):
    """The synthesized grid of roundtrip_suite(1, seed=1)[0] cut to
    r <= 0.3 max rho, whose R lies below the profile's minimum m, or to
    r >= 1.1 m: G is only extrapolated at the curve nodes off
    [r_nodes[0], R], so geodesic_residual fails at the first of them."""
    p, res = synthesized["roundtrip0"]
    g = res.metric
    keep = (g.r_nodes <= 0.3 * np.max(p.rho) if cut == "R_below_m"
            else g.r_nodes >= 1.1 * p.m)
    grid = MetricGrid(g.r_nodes[keep], g.theta_nodes, g.G[:, keep])
    off = (p.rho < grid.r_nodes[0]) | (p.rho > grid.R)
    assert np.all(off) == (cut == "R_below_m") and np.any(off)
    rep = verify_grid(grid, p, consts)
    rec = rep.record("geodesic_residual")
    assert not rep.verdict and not rec.passed and rec.margin == np.inf
    first = p.t_nodes[np.argmax(off)]
    assert rec.witness == [first]
    assert rec.detail == f"curve leaves the grid at t = {first:.6g}"


def test_verify_grid_fails_a_negative_G_node(consts, synthesized):
    """The synthesized grid of roundtrip_suite(1, seed=1)[0] with one node
    negated: a negative ratio G/r never raises the envelope's max, so the
    envelope record fails outright and names the node."""
    p, res = synthesized["roundtrip0"]
    g = res.metric
    G = g.G.copy()
    G[3, 400] = -G[3, 400]
    rep = verify_grid(MetricGrid(g.r_nodes, g.theta_nodes, G), p, consts)
    rec = rep.record("radius_ratio_envelope")
    assert not rec.passed and rec.margin == np.inf
    assert rec.detail == (f"G = {G[3, 400]:.6g} <= 0 at "
                          f"r = {g.r_nodes[400]:.6g}, "
                          f"theta = {g.theta_nodes[3]:.6g}")


def test_verify_grid_fails_a_grid_past_psis_domain(consts, synthesized):
    """The synthesized grid of roundtrip_suite(1, seed=1)[0] verified at
    H = 1e4: c_k_sup H R^2 = 18.4 >= pi^2, where psi has no value, so the
    envelope record fails outright and names c_k_sup H R^2 instead of
    raising.  curvature_sup fails its premise as well."""
    p, res = synthesized["roundtrip0"]
    big = dataclasses.replace(consts, H=1e4)
    rep = verify_grid(res.metric, p, big)
    h_r2 = big.c_k_sup * big.H * res.metric.R ** 2
    assert h_r2 >= PI_SQUARED
    rec = rep.record("radius_ratio_envelope")
    assert not rec.passed and rec.margin == np.inf
    assert rec.detail \
        == f"c_k_sup*H*R^2 = {h_r2:.6g} >= pi^2, outside psi's domain"
    assert not rep.record("curvature_sup").passed


def test_verify_states_the_cat_premise(consts):
    """The sphere disc synthesized for this profile has R = 1.578, so
    c_k_sup H R^2 = 2.74 > pi^2/4: the profile passes check, and verify
    fails curvature_sup on the premise alone, as it does the K = 1 disc
    of R = 1.9, whose curvature is in bounds."""
    p = spherical_profile(1.0, 0.3, (-1.5, 1.5))
    assert finiteness_check(
        p, consts, twelve_point_configurations(p.interval, 240)).verdict
    res = synthesize(p, consts)
    grid = constant_curvature_grid(1.0, 1.9)
    for rep, R in ((verify_synthesis(res, p, consts), res.metric.R),
                   (verify_grid(grid, p, consts), 1.9)):
        premise = consts.c_k_sup * consts.H * R ** 2
        rec = rep.record("curvature_sup")
        assert not rec.passed and rec.margin >= premise / (np.pi ** 2 / 4)
        assert rec.detail == (f"premise c_k_sup*H*R^2 = {premise:.6g} "
                              "exceeds pi^2/4")
        assert [r.name for r in rep.records if not r.passed] \
            == ["curvature_sup"]


def test_verify_grid_reports_grid_records(consts):
    """verify_grid reports the four records that read the grid, and
    verify_synthesis adds the correction field's Hölder budget."""
    p = spherical_profile(0.5, 0.0125, (-0.0387, 0.0387), n=3001)
    grid = constant_curvature_grid(0.5, 0.05, n_r=400, n_theta=64)
    names = ["radius_ratio_envelope", "curvature_sup", "curvature_holder",
             "geodesic_residual"]
    assert [r.name for r in verify_grid(grid, p, consts).records] == names
    res = synthesize(p, consts)
    assert ([r.name for r in verify_synthesis(res, p, consts).records]
            == names + ["f_holder_budget"])


@pytest.mark.parametrize("Kg,Kp,passes", [
    (0.3, 0.3, True), (0.0, 0.0, True), (0.3, 0.0, False),
    (0.3, -0.3, False), (0.0, 0.01, False)])
def test_verify_grid_refuses_wrong_curvature(consts, Kg, Kp, passes):
    """The profile of a geodesic on curvature Kp against a grid of
    curvature Kg: the curve is a geodesic of the grid only when the two
    agree, and geodesic_residual reads the difference (500, 1000 and
    16.7 on the three mismatches)."""
    grid = constant_curvature_grid(Kg, 0.6, n_r=1200, n_theta=256)
    p = constant_curvature_profile(Kp, 0.05, (-0.4, 0.4))
    rec = verify_grid(grid, p, consts).record("geodesic_residual")
    assert rec.passed == passes, rec.margin


@pytest.mark.parametrize("c", [1.0, 0.99, 1.01, 0.95, 1.05])
def test_only_radius_ratio_envelope_sees_a_cone_apex(consts, c):
    """G = c r on every ray is a flat cone, which realizes the flat
    profile exactly: curvature_sup and curvature_holder read 0 and
    geodesic_residual reads below 1e-6, and only radius_ratio_envelope
    sees G'(0) = c, at max(c, 1/c) / (1 + 1e-6).  So no other record
    checks that each ray starts at unit speed."""
    g = constant_curvature_grid(0.0, 0.065)
    cone = MetricGrid(g.r_nodes, g.theta_nodes, c * g.G)
    rep = verify_grid(cone, flat_profile(0.01, (-0.04, 0.04), n=3001), consts)
    assert [r.name for r in rep.records if not r.passed] \
        == ([] if c == 1.0 else ["radius_ratio_envelope"])
    assert rep.record("radius_ratio_envelope").margin \
        == pytest.approx(max(c, 1 / c) / (1 + 1e-6), rel=1e-8)
    assert rep.record("curvature_sup").margin == 0
    assert rep.record("curvature_holder").margin == 0
    assert rep.record("geodesic_residual").margin < 1e-6


def test_fine_bump_checks_synthesizes_and_verifies(consts):
    """The beta = 1 bump at eps = 1e-3, whose curvature's Hölder seminorm
    vanishes with eps: it passes check at budget 240, and the disc
    synthesized for it verifies."""
    p = perturbed_cone_profile(1e-3, 1.0)
    configs = twelve_point_configurations(p.interval, 240, seed=0)
    assert finiteness_check(p, consts, configs).verdict
    rep = verify_synthesis(synthesize(p, consts), p, consts)
    assert rep.verdict, [(r.name, r.margin) for r in rep.records
                         if not r.passed]


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_roundtrip_grids_sit_on_the_dyadic_lattice(consts, alpha):
    """Every r node is 2^(j/64): no gap shrinks at the ends, so the
    radial finite differences read the constant curvature and the round
    trips verify with a Hölder seminorm of exactly 0, at alpha = 1 too."""
    c = dataclasses.replace(consts, alpha=alpha)
    for entry in roundtrip_suite(8, seed=1):
        res = synthesize(entry["profile"], c)
        j = 64 * np.log2(res.metric.r_nodes)
        assert np.max(np.abs(j - np.round(j))) <= 1e-9
        rep = verify_synthesis(res, entry["profile"], c)
        assert rep.verdict, entry["label"]
        assert rep.record("curvature_holder").margin == 0.0, entry["label"]


@pytest.mark.parametrize("eps, n_theta", [(1e-1, 4096), (1e-2, 64),
                                          (1e-3, 64)])
def test_bump_grid_rows_follow_the_curve(consts, eps, n_theta):
    """The theta rows double until the grid's h meets the curve's: the
    coarse bump, whose feature spans the disc, gets the most rows, and
    the fine ones keep 64; each passes the geodesic record."""
    p = perturbed_cone_profile(eps, 1.0)
    grid = synthesize(p, consts).metric
    assert grid.theta_nodes.size == n_theta
    assert verify_grid(grid, p, consts).record(
        "geodesic_residual").margin <= 1.0


def test_fine_bump_synthesis_memory_is_bounded(consts):
    """The eps = 1e-3 bump is met at 64 rows, so its synthesis holds no
    4096-row grid."""
    import tracemalloc
    p = perturbed_cone_profile(1e-3, 1.0)
    tracemalloc.start()
    try:
        synthesize(p, consts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, f"peak {peak / 1e6:.1f} MB"


def test_doubling_stops_at_a_data_floor(consts):
    """On 40,001 samples of sqrt(1e-4 + t^2) the grid's miss of the
    curve's h is the samples' rounding floor, which 128 rows do not
    reduce: the grid keeps 64 rows."""
    t = np.linspace(-0.04, 0.04, 40_001)
    p = DistanceProfile(t, np.sqrt(1e-4 + t * t))
    assert synthesize(p, consts).metric.theta_nodes.size == 64


def _dense_cumulative_radial(field, r_nodes, thetas, chunk=256):
    """Reference: the field's values on the full (theta, r) grid in row
    chunks, then the cumulative trapezoid of those values along each
    ray."""
    thetas = np.asarray(thetas, dtype=float)
    n_th, n_r = thetas.size, r_nodes.size
    dr = np.diff(r_nodes)
    cum = np.empty((n_th, n_r))
    for a in range(0, n_th, chunk):
        b = min(a + chunk, n_th)
        Fc = field.on_grid(r_nodes, thetas[a:b])[0]
        inc = 0.5 * (Fc[:, 1:] + Fc[:, :-1]) * dr[None, :]
        cum[a:b, 0] = 0.0
        cum[a:b, 1:] = np.cumsum(inc, axis=1)
    return cum


class _AnnulusOnly(WhitneyExtension):
    """A Whitney extension that fails when it is read outside its
    interval, the open annulus."""

    def _inside(self, r):
        r = np.asarray(r, dtype=float)
        assert np.all((r > self.a) & (r < self.b)), "y read outside its annulus"

    def __call__(self, t):
        self._inside(t)
        return super().__call__(t)

    def deriv(self, t):
        self._inside(t)
        return super().deriv(t)


def _hand_built_field():
    """Five annuli k = -6..-2, each with a transport piece, an affine-y
    piece and a nonlinear-y piece, all with nonzero g; annulus -4 has a
    capped fade between its sectors.  Every y fails when it is read
    outside its annulus."""
    fields = {}
    for k in range(-6, -1):
        lo, hi = 2.0 ** (k - 1), 2.0 ** (k + 1)

        def radial(x, y, slopes, lo=lo, hi=hi):
            return _AnnulusOnly(a=lo, b=hi, x=x, y=y, slopes=slopes,
                                alpha=0.5, T1=1.0, T2=1.0)

        # affine: the Hermite cubic through two nodes with the secant slope
        a, b = 0.7 * 2.0 ** -k, 0.1 * k
        x_aff = np.array([1.2 * lo, 0.8 * hi])
        affine = radial(x_aff, a * x_aff + b, np.full(2, a))
        c = 9.0 * 2.0 ** -k
        x_wave = np.linspace(1.1 * lo, 0.9 * hi, 9)
        wave = radial(x_wave, 0.4 * np.sin(c * x_wave) + x_wave ** 2,
                      0.4 * c * np.cos(c * x_wave) + 2.0 * x_wave)

        shift = 0.1 * k
        th_a = np.linspace(-2.5, -1.3, 40) + shift
        th_b = np.linspace(-0.6, 0.5, 35) + shift
        th_c = np.linspace(1.1, 2.4, 30) + shift
        cap = 0.2 if k == -4 else None
        pieces = [
            _PieceField(th_a, 0.3 + 0.2 * np.cos(3.0 * th_a), fade_hi=cap),
            _PieceField(th_b, -0.25 + 0.5 * th_b ** 2, affine,
                        fade_lo=cap, fade_hi=cap),
            _PieceField(th_c, 0.15 * np.sin(5.0 * th_c) - 0.05, wave,
                        fade_lo=cap),
        ]
        fields[k] = pieces
    return RadialCorrectionField(fields, m=1.5 * 2.0 ** -7)


def _flat_glued_field(consts):
    """The glued field of the deep flat profile: case I, III and IV
    pieces, the III and IV annuli split into two sectors."""
    p = flat_profile(0.002, (-0.0399, 0.0399), n=4001)
    s = analyze(p, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    assert {pc.case for pc in d.all_pieces()} >= {"I", "III", "IV"}
    fields = {k: extend_fk(k, d, p, s) for k in d.pieces}
    return glue_f(fields, d), s.phi0


@pytest.mark.parametrize("which", ["hand_built", "flat_glued"])
def test_separable_radial_integral_matches_dense(consts, which):
    """The per-piece 1-D radial sums equal the trapezoid of the field
    sampled on the full grid, and the one-cell-per-row gather is the
    table's entry exactly."""
    if which == "hand_built":
        field = _hand_built_field()
        curve_thetas = np.random.default_rng(3).uniform(-np.pi, np.pi, 500)
        r_nodes = _dyadic_r_nodes(1e-4, 0.6)
    else:
        field, phi0 = _flat_glued_field(consts)
        curve_thetas = phi0[::7]
        r_nodes = _dyadic_r_nodes(4.2e-6, 0.042)
    thetas = np.concatenate(
        [curve_thetas, -np.pi + 2 * np.pi * np.arange(64) / 64])
    dense = _dense_cumulative_radial(field, r_nodes, thetas)
    table = field.radial_integral(r_nodes, thetas)
    assert table.shape == dense.shape
    assert np.all(np.isfinite(table))
    scale = np.max(np.abs(dense))
    assert scale > 0.0
    assert np.max(np.abs(table - dense)) <= 1e-12 * scale
    cells = np.random.default_rng(4).integers(0, r_nodes.size, thetas.size)
    cells[:3] = [0, r_nodes.size - 1, r_nodes.size - 2]
    gathered = field.along_curve(r_nodes, cells, r_nodes[cells], thetas)[0]
    assert np.all(gathered == table[np.arange(thetas.size), cells])


def test_correction_radial_derivative_matches_differences():
    """on_grid's radial derivative, which feeds the curvature term,
    agrees with central differences of its value."""
    field = _hand_built_field()
    rng = np.random.default_rng(5)
    r = np.sort(np.exp(rng.uniform(np.log(0.5 * field.m), np.log(0.6), 400)))
    theta = rng.uniform(-np.pi, np.pi, 20)
    deriv = field.on_grid(r, theta)[1]
    h = 1e-7 * r
    fd = (field.on_grid(r + h, theta)[0]
          - field.on_grid(r - h, theta)[0]) / (2.0 * h)
    assert np.max(np.abs(deriv)) > 0.0
    assert np.max(np.abs(fd - deriv)) <= 1e-6 * np.max(np.abs(deriv))


def test_synthesize_memory_is_bounded(consts):
    """Metric assembly integrates the field by 1-D radial sums, so one
    synthesis never holds a curve-nodes-by-radius-nodes field."""
    import tracemalloc
    p = roundtrip_suite(1, seed=1)[0]["profile"]
    tracemalloc.start()
    try:
        synthesize(p, consts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, f"peak {peak / 1e6:.1f} MB"


def _pointwise_reference(field, r, theta):
    """f and df/dr one point at a time, as
    chi sum_k w_k sum_p fade_p (g_p + y_p)."""
    value, deriv = [], []
    for ri, ti in zip(r, theta):
        raw = draw = 0.0
        for k, fld in field.fields.items():
            x = np.log2(ri) - k
            w = float(bump_weight(x))
            if w == 0.0:
                continue
            w_p = float(bump_weight_prime(x)) / (ri * LN2)
            f_k = df_k = 0.0
            for pc in fld:
                fade = float(pc.fade(ti))
                g = float(np.interp(ti, pc.theta_nodes, pc.g_nodes))
                y = y_p = 0.0
                if pc.radial is not None:
                    y, y_p = pc.radial(ri), pc.radial.deriv(ri)
                f_k += fade * (g + y)
                df_k += fade * y_p
            raw += w * f_k
            draw += w_p * f_k + w * df_k
        chi, chi_p = float(field._chi(ri)), float(field._chi_prime(ri))
        value.append(chi * raw)
        deriv.append(chi_p * raw + chi * draw)
    return np.array(value), np.array(deriv)


def test_correction_matches_pointwise_reference():
    """The separable-term sums of both passes equal the glued field
    written out point by point: on_grid's value and radial derivative,
    and along_curve's value at the cell start and at r."""
    field = _hand_built_field()
    rng = np.random.default_rng(6)
    r_nodes = np.sort(np.exp(rng.uniform(np.log(0.4 * field.m),
                                         np.log(0.6), 40)))
    thetas = rng.uniform(-np.pi, np.pi, 10)
    R, TH = np.meshgrid(r_nodes, thetas)
    pairs = list(zip(field.on_grid(r_nodes, thetas)[:2],
                     _pointwise_reference(field, R.ravel(), TH.ravel())))
    r = np.exp(rng.uniform(np.log(0.4 * field.m), np.log(0.6), 400))
    theta = rng.uniform(-np.pi, np.pi, 400)
    r_cells = _dyadic_r_nodes(0.4 * field.m, 0.6)
    cells = np.clip(np.searchsorted(r_cells, r, side="right") - 1,
                    0, r_cells.size - 2)
    _, f_lo, f_at = field.along_curve(r_cells, cells, r, theta)
    pairs += [(f_lo, _pointwise_reference(field, r_cells[cells], theta)[0]),
              (f_at, _pointwise_reference(field, r, theta)[0])]
    for got, ref in pairs:
        scale = np.max(np.abs(ref))
        assert scale > 0.0
        assert np.max(np.abs(got.ravel() - ref)) <= 1e-14 * scale


def test_extend_fk_leaves_decomposition_unchanged(consts):
    for p in (flat_profile(0.002, (-0.0399, 0.0399), n=4001),
              perturbed_cone_profile(1e-2, 1.0)):
        s = analyze(p, alpha=consts.alpha)
        d = decompose_annuli(p, s)
        before = copy.deepcopy(d)
        for k in d.pieces:
            extend_fk(k, d, p, s)
        assert d == before


def test_case_iv_piece_reproduces_end_values(consts):
    """A case IV piece interpolates f0 through its two end nodes."""
    p = perturbed_cone_profile(3e-2, 1.0)
    s = analyze(p, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    checked = 0
    for k, plist in d.pieces.items():
        fld = extend_fk(k, d, p, s)
        for piece, pc in zip(plist, fld):
            if piece.case != "IV":
                continue
            ends = list(piece.node_slice)
            assert sorted(piece.net) == ends and pc.radial is not None
            rho, theta = p.rho[ends], s.phi0[ends]
            got = next(pc.terms(theta, [(pc.radial(rho), np.ones(2))]))
            assert np.max(np.abs(got - s.f0[ends])) <= 1e-12
            assert np.max(np.abs(s.f0[ends])) > 1e-3
            checked += 1
    assert checked == 2


# sha256 of the synthesized arrays (little-endian float64 bytes) and of
# verify_synthesis(..., seed=1).to_json(), per profile and artifact
SYNTH_DIGESTS = {
    ("roundtrip0", "G"):
        "6fd57850f9c00c3ded639c1eaeb2c5db7b2cca2f5e4caec7c7d1bbe4f76bd09a",
    ("roundtrip0", "phi"):
        "7577188943fd750906142ee97dded45ac4f6c1f4c6d7547fa28671293f07d6a2",
    ("roundtrip0", "nodes_to"):
        "1ad046329fd4c5809ec82af371db76782ecf509a8aa5aaf4e441b926159af9ab",
    ("roundtrip0", "verify"):
        "d47340f2debb4b90299fb9ae30824c4e94ccb6b14105cba492d32dbc9fc07ae9",
    ("roundtrip1", "G"):
        "c2e1fee99ab7c6d1065ad92bcf87a63221bf0f0d17890f8aa7a3af0bfdb62b0d",
    ("roundtrip1", "phi"):
        "6bb31e02b0747d30b1f80736d71ab16c00bb7ca1fd04264ec01e2a9b05226b3a",
    ("roundtrip1", "nodes_to"):
        "c970d86f5d132c8c9168b5db0a8898697fd5b5edb7a3fbd5df00824918fd60bf",
    ("roundtrip1", "verify"):
        "ecc92f797d5a26eb99cfc701339fb57b2d95be637110c943a03e91581ec51a4c",
    ("bump", "G"):
        "cfe2557eecbcd421061622bbb635da534b507e107466432bbf4ce10b67c32a17",
    ("bump", "phi"):
        "5f6e644c6a53b488d0332728642c2e9c099e12cfdcce065f13d05cb336f8c304",
    ("bump", "nodes_to"):
        "97d9302cc13734d5aac35f9ca3d318e3e6f3f74350410461d54e9add44da323f",
    ("bump", "verify"):
        "5edca7d02b43d8c8ecd24a0267f04e3da062978196e35976f9143e8e730e0771",
}


def _synth_profiles():
    suite = roundtrip_suite(2, seed=1)
    return {"roundtrip0": suite[0]["profile"],
            "roundtrip1": suite[1]["profile"],
            "bump": perturbed_cone_profile(3e-2, 1.0)}


def _synth_artifact_digests(p, consts):
    res = synthesize(p, consts)
    arrays = {"G": res.metric.G, "phi": res.phi,
              "nodes_to": res.theta_map.nodes_to}
    out = {name: hashlib.sha256(np.ascontiguousarray(
        a, dtype="<f8").tobytes()).hexdigest() for name, a in arrays.items()}
    out["verify"] = hashlib.sha256(verify_synthesis(
        res, p, consts, seed=1).to_json().encode()).hexdigest()
    return out


@pytest.mark.parametrize("which", ["roundtrip0", "roundtrip1", "bump"])
def test_synthesis_bytes_are_pinned(consts, which):
    """The synthesized grid, the curve's angle, the angle map and the
    verify report, bit for bit."""
    got = _synth_artifact_digests(_synth_profiles()[which], consts)
    assert got == {name: SYNTH_DIGESTS[which, name] for name in got}


def test_synthesize_forms_no_curvature_term(consts, monkeypatch):
    """Metric assembly reads the radial integral pass only: the f and
    df/dr pass, which the curvature term reads, is never called."""
    def refused(self, r_nodes, thetas):
        raise AssertionError("synthesize formed f and df/dr on a grid")

    monkeypatch.setattr(RadialCorrectionField, "on_grid", refused)
    res = synthesize(_synth_profiles()["roundtrip0"], consts)
    assert res.metric.G.shape == (res.metric.theta_nodes.size,
                                  res.metric.r_nodes.size)


def test_synthesis_leaves_no_state_between_profiles(consts):
    """A, then B, then A again: A's bytes are the same both times, so
    nothing one synthesis leaves behind moves the next.  Neither
    synthesize nor verify_synthesis writes into the profile, and the
    result keeps no curve samples."""
    profiles = _synth_profiles()
    a, b = profiles["roundtrip0"], profiles["bump"]
    before = dict(a.__dict__)
    first = _synth_artifact_digests(a, consts)
    _synth_artifact_digests(b, consts)
    assert _synth_artifact_digests(a, consts) == first
    assert a.__dict__.keys() == before.keys()
    assert all(a.__dict__[key] is value for key, value in before.items())
    assert synthesize(a, consts).summary.samples is None


def _full_smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 - 15.0 * x + 6.0 * x * x)


def _same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_support_restricted_bump_and_ramp_fade_equal_full_formulas():
    """bump_weight forms its quintics only on its support and fade only on
    its ramps; both equal the formulas on the clipped argument bit for
    bit, on arrays and floats, at the ramp ends, at +-pi, at +-0 and at
    NaN."""
    ends = np.array([-1.0, -0.0, 0.0, 1.0])
    x = np.concatenate([np.linspace(-2.5, 2.5, 1001), ends,
                        np.nextafter(ends, -np.inf),
                        np.nextafter(ends, np.inf), [np.nan, -np.inf, np.inf]])
    _same_bits(bump_weight(x), _full_smoothstep(x + 1.0) - _full_smoothstep(x))
    for xi in x:
        _same_bits(bump_weight(float(xi)),
                   _full_smoothstep(float(xi) + 1.0)
                   - _full_smoothstep(float(xi)))
    for pc in (_PieceField(np.linspace(-0.4, 0.9, 30), np.ones(30)),
               _PieceField(np.linspace(-3.1, 3.05, 30), np.ones(30)),
               _PieceField(np.array([0.2, 0.2 + 1e-12]), np.ones(2))):
        t_lo, t_hi = pc.theta_nodes[0], pc.theta_nodes[-1]
        ramp_ends = np.array([t_lo - pc.fade_lo, t_lo, t_hi,
                              t_hi + pc.fade_hi, -np.pi, np.pi])
        theta = np.concatenate([
            np.linspace(-np.pi, np.pi, 2001), ramp_ends,
            np.nextafter(ramp_ends, -np.inf), np.nextafter(ramp_ends, np.inf),
            [np.nan]])

        def full_fade(th):
            return _full_smoothstep((th - (t_lo - pc.fade_lo)) / pc.fade_lo) \
                * (1.0 - _full_smoothstep((th - t_hi) / pc.fade_hi))

        _same_bits(pc.fade(theta), full_fade(theta))
        _same_bits(pc.fade(theta[:, None]), full_fade(theta[:, None]))
        for th in theta:
            _same_bits(pc.fade(float(th)), full_fade(float(th)))


def _curve_fields(consts):
    """(field, r_cells, r, theta) with curve-like paired points: the hand
    built field (three pieces per annulus, two with a Whitney radial part,
    capped fades) and the deep flat profile's glued field (case I, III and
    IV pieces, split annuli) read on its own curve."""
    rng = np.random.default_rng(7)
    field = _hand_built_field()
    r = np.exp(rng.uniform(np.log(field.m), np.log(0.55), 3000))
    yield (field, _dyadic_r_nodes(1e-4, 0.55), r,
           rng.uniform(-np.pi, np.pi, 3000))
    p = flat_profile(0.002, (-0.0399, 0.0399), n=4001)
    s = analyze(p, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    assert any(len(plist) == 2 for plist in d.pieces.values())
    assert any(pc.net for pc in d.all_pieces())
    field = glue_f({k: extend_fk(k, d, p, s) for k in d.pieces}, d)
    yield field, _dyadic_r_nodes(4.2e-6, float(np.max(p.rho))), p.rho, s.phi0


def test_along_curve_pass_equals_separate_evaluations(consts):
    """One along_curve pass gives the value at the cell start and the
    cell integral that on_grid's tables hold at the cell, bit for bit,
    and the value at r that the pointwise reference gives."""
    for field, r_cells, r, theta in _curve_fields(consts):
        cells = np.clip(np.searchsorted(r_cells, r, side="right") - 1,
                        0, r_cells.size - 2)
        base, f_lo, f_at = field.along_curve(r_cells, cells, r, theta)
        assert np.max(np.abs(f_at)) > 0.0
        for lo in range(0, theta.size, 500):
            rows = np.arange(lo, min(lo + 500, theta.size))
            at = (rows - lo, cells[rows])
            assert np.array_equal(
                f_lo[rows], field.on_grid(r_cells, theta[rows])[0][at])
            assert np.array_equal(
                base[rows], field.radial_integral(r_cells, theta[rows])[at])
        sub = slice(0, None, 10)
        ref = _pointwise_reference(field, r[sub], theta[sub])[0]
        assert np.max(np.abs(f_at[sub] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("which", ["hand_built", "flat_glued"])
def test_grid_pass_equals_separate_evaluations(consts, which):
    """The on_grid pass, which forms f and df/dr over each term's radial
    support only, gives the sums of the terms over the full grid, and the
    radial_integral pass the table that the cumulative trapezoid of each
    term gives, bit for bit."""
    if which == "hand_built":
        field = _hand_built_field()
        r_nodes = _dyadic_r_nodes(1e-4, 0.6)
    else:
        field, _ = _flat_glued_field(consts)
        r_nodes = _dyadic_r_nodes(4.2e-6, 0.042)
    thetas = -np.pi + 2 * np.pi * np.arange(128) / 128
    F, dF = field.on_grid(r_nodes, thetas)
    value, deriv = np.zeros_like(F), np.zeros_like(dF)
    for piece, _, pairs in field._terms(r_nodes, deriv=True):
        for total, term in zip((value, deriv),
                               piece.terms(thetas[:, None], pairs)):
            total += term
    assert np.max(np.abs(dF)) > 0.0
    assert np.array_equal(F, value) and np.array_equal(dF, deriv)
    cum = field.radial_integral(r_nodes, thetas)
    dr = np.diff(r_nodes)
    ref = np.zeros_like(cum)
    for piece, _, [(a, b)] in field._terms(r_nodes):
        ref += next(piece.terms(thetas[:, None], [(
            None if a is None else np.concatenate(
                ([0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * dr))),
            np.concatenate(([0.0], np.cumsum(0.5 * (b[1:] + b[:-1]) * dr))))]))
    assert np.array_equal(cum, ref)
