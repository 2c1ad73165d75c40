import dataclasses

import numpy as np
import pytest

from geoprofile import (synthesize, verify_synthesis, verify_grid,
                        decompose_annuli, extend_fk, glue_f, analyze,
                        MetricGrid, SynthesisError)
from geoprofile.synthesis import bump_weight, assemble_metric, _sample_holder
from geoprofile.surfaces import (flat_profile, spherical_profile,
                                 hyperbolic_profile, offset_hyperbola_profile,
                                 variable_curvature_grid, grid_profile)
from geoprofile.special_functions import sin_k


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
    s = analyze(p, H=consts.H, alpha=consts.alpha)
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
    s = analyze(p, H=consts.H, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    cases = {(pc.k, pc.side): pc.case for pc in d.all_pieces()}
    assert cases[(-9, "both")] == "I"
    sides = [side for (k, side) in cases if k == -5]
    assert sorted(sides) == ["+", "-"]
    all_cases = set(cases.values())
    assert "III" in all_cases or "IV" in all_cases


def test_annulus_rho_confined(consts):
    p = flat_profile(0.004, (-0.06, 0.06), n=3001)
    s = analyze(p, H=consts.H, alpha=consts.alpha)
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
    s = analyze(p, H=consts.H, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    fields = {k: extend_fk(k, d, p, s) for k in d.pieces}
    correction = glue_f(fields, d)
    on_curve = correction.value(p.rho, s.phi0)
    assert np.max(np.abs(on_curve - s.f0)) <= 1e-8


def test_glue_requires_coverage(consts):
    p = flat_profile(0.01, (-0.0387, 0.0387), n=2001)
    s = analyze(p, H=consts.H, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    fields = {k: extend_fk(k, d, p, s) for k in d.pieces}
    fields.pop(sorted(fields)[0])
    with pytest.raises(SynthesisError):
        glue_f(fields, d)


def test_support_floor(consts, flat_result):
    p, res = flat_result
    r = np.linspace(1e-5, 0.45 * res.summary.m, 50)
    th = np.linspace(-np.pi, np.pi, 21)
    R, TH = np.meshgrid(r, th)
    assert np.max(np.abs(res.correction.value(R, TH))) == 0.0


def test_flat_metric_is_euclidean(flat_result):
    p, res = flat_result
    assert np.max(np.abs(res.metric.G - res.metric.r_nodes[None, :])) < 1e-12
    assert np.max(np.abs(res.K_grid)) < 1e-9


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
    assert rep.record("correction_interpolation").margin * 1e-8 <= 1e-12


def test_verify_grid_on_synthesized_grid(consts, flat_result):
    p, res = flat_result
    grid_rep = verify_grid(res.metric, p, consts)
    assert grid_rep.verdict, [(r.name, r.margin) for r in grid_rep.records
                              if not r.passed]
    only_with_synthesis = {"f_holder_budget", "correction_interpolation",
                           "correction_support", "bilipschitz"}
    grid_names = {r.name for r in grid_rep.records}
    assert not grid_names & only_with_synthesis
    full_names = {r.name for r in verify_synthesis(res, p, consts).records}
    assert only_with_synthesis <= full_names
    assert full_names - only_with_synthesis == grid_names


def test_variable_curvature_roundtrip(consts):
    def K_fn(r, theta):
        return (0.2 + 0.25 * np.sin(6.0 * r + 1.0)) * np.ones_like(theta)

    grid = variable_curvature_grid(K_fn, 0.065, H=1.0)
    p, _ = grid_profile(grid, 0.008, 0.038)
    res = synthesize(p, consts)
    rep = verify_synthesis(res, p, consts)
    assert rep.verdict, [(r.name, r.margin) for r in rep.records
                         if not r.passed]
    # reconstructed curvature agrees with the generating field on the sector
    K_fd, K_res = res.metric.curvature_fd(with_resolution=True)
    sel_t = ((res.metric.theta_nodes >= res.gamma.phi.min())
             & (res.metric.theta_nodes <= res.gamma.phi.max()))
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
    """Measured sup/Hölder seminorms per annulus piece stay within the
    dyadic budgets (ratios recorded in diagnostics)."""
    p = flat_profile(0.002, (-0.0399, 0.0399), n=4001)
    res = synthesize(p, consts)
    for k, semis in res.diagnostics["piece_seminorms"].items():
        assert semis["sup_f"] <= 5.0, (k, semis)
        assert semis["holder_f"] <= 5.0, (k, semis)
        assert semis["sup_df"] <= 5.0, (k, semis)
        assert semis["holder_df"] <= 5.0, (k, semis)


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
    bad = MetricGrid(res.metric.r_nodes, res.metric.theta_nodes, G2,
                     dG_dr=res.metric.dG_dr,
                     H=res.metric.H, alpha=res.metric.alpha, validate=False)
    rep = verify_synthesis(dataclasses.replace(res, metric=bad), p, consts)
    assert not rep.record("curvature_holder").passed


def test_sample_holder_nan_gives_nan():
    values = np.ones((64, 200))
    values[17, 123] = np.nan
    r_nodes = np.geomspace(1e-3, 0.05, 200)
    theta_nodes = -np.pi + 2 * np.pi * np.arange(64) / 64
    got = _sample_holder(values, r_nodes, theta_nodes, 0.5,
                         np.random.default_rng(0), np.zeros_like(values))
    assert np.isnan(got)
