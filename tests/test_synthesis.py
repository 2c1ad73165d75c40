import copy
import dataclasses

import numpy as np
import pytest

from geoprofile import (synthesize, verify_synthesis, verify_grid,
                        decompose_annuli, extend_fk, glue_f, analyze,
                        MetricGrid, SynthesisError,
                        twelve_point_configurations, finiteness_check)
from geoprofile import whitney
from geoprofile.profiles import DistanceProfile
from geoprofile.synthesis import (bump_weight, bump_weight_prime, LN2,
                                  assemble_metric, _sample_holder,
                                  _PieceField, AnnulusField,
                                  RadialCorrectionField, _dyadic_r_nodes)
from geoprofile.surfaces import (flat_profile, spherical_profile,
                                 hyperbolic_profile, offset_hyperbola_profile,
                                 perturbed_cone_profile,
                                 variable_curvature_grid, grid_profile,
                                 roundtrip_suite, constant_curvature_grid,
                                 constant_curvature_profile, checker_suite)
from geoprofile.special_functions import sin_k
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
    assert np.max(np.abs(res.correction.value(p.rho, s.phi0) - s.f0)) <= 1e-12


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
        grid = load_metric_json(path, validate=False)
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
    assert np.max(np.abs(res.gamma.phi - phi)) <= tol


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
        d2=lambda t: p.second_deriv(t / lam) / lam, validate=False)
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
    phi = synthesize(p, consts).gamma.phi
    assert np.max(np.abs(phi - np.arctan(p.t_nodes / m))) <= 1e-12


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
    K_fd, K_res = res.metric.curvature_fd()
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
        V = sum(pc.term(TH, None if pc.radial is None else pc.radial(R),
                        np.ones_like(R)) for pc in fld.pieces).ravel()
        D = sum((pc.term(TH, pc.radial.deriv(R), np.zeros_like(R))
                 for pc in fld.pieces if pc.radial is not None),
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
    bad = MetricGrid(res.metric.r_nodes, res.metric.theta_nodes, G2,
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
    zero = MetricGrid(grid.r_nodes, grid.theta_nodes, G, H=grid.H,
                      validate=False)
    with np.errstate(all="ignore"):
        rep = verify_grid(zero, p, consts)
    assert not rep.verdict
    rec = rep.record("geodesic_residual")
    assert not rec.passed and np.isnan(rec.margin)
    assert rec.detail == f"curve angle not finite at t = {rec.witness[0]:.6g}"


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
    grid = constant_curvature_grid(Kg, 0.6, n_r=1200, n_theta=256, H=1)
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
    g = constant_curvature_grid(0.0, 0.065, H=1.0)
    cone = MetricGrid(g.r_nodes, g.theta_nodes, c * g.G, H=1, validate=False)
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


def _dense_cumulative_radial(field, r_nodes, thetas, chunk=256):
    """Reference: the field sampled on the full (theta, r) grid in row
    chunks, then the cumulative trapezoid along each ray."""
    thetas = np.asarray(thetas, dtype=float)
    n_th, n_r = thetas.size, r_nodes.size
    dr = np.diff(r_nodes)
    cum = np.empty((n_th, n_r))
    for a in range(0, n_th, chunk):
        b = min(a + chunk, n_th)
        R = np.tile(r_nodes, (b - a, 1))
        TH = np.tile(thetas[a:b, None], (1, n_r))
        Fc = field.value(R, TH)
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
        fields[k] = AnnulusField(k=k, pieces=pieces)
    return RadialCorrectionField(fields, m=1.5 * 2.0 ** -7)


def _flat_glued_field(consts):
    """The glued field of the deep flat profile: case I, III and IV
    pieces, the III and IV annuli split into two sectors."""
    p = flat_profile(0.002, (-0.0399, 0.0399), n=4001)
    s = analyze(p, H=consts.H, alpha=consts.alpha)
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
    table = field.cumulative_radial(r_nodes, thetas)
    assert table.shape == dense.shape
    assert np.all(np.isfinite(table))
    scale = np.max(np.abs(dense))
    assert scale > 0.0
    assert np.max(np.abs(table - dense)) <= 1e-12 * scale
    cells = np.random.default_rng(4).integers(0, r_nodes.size, thetas.size)
    cells[:3] = [0, r_nodes.size - 1, r_nodes.size - 2]
    gathered = field.cumulative_radial(r_nodes, thetas, cells=cells)
    assert np.all(gathered == table[np.arange(thetas.size), cells])


def test_correction_radial_derivative_matches_differences():
    """value_and_deriv's radial derivative, which feeds the dF term of
    K_grid, agrees with central differences of value."""
    field = _hand_built_field()
    rng = np.random.default_rng(5)
    r = np.exp(rng.uniform(np.log(0.5 * field.m), np.log(0.6), 400))
    theta = rng.uniform(-np.pi, np.pi, 400)
    value, deriv = field.value_and_deriv(r, theta)
    assert np.all(value == field.value(r, theta))
    h = 1e-7 * r
    fd = (field.value(r + h, theta) - field.value(r - h, theta)) / (2.0 * h)
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
            for pc in fld.pieces:
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
    """The separable-term sums equal the glued field written out point by
    point, value and radial derivative alike."""
    field = _hand_built_field()
    rng = np.random.default_rng(6)
    r = np.exp(rng.uniform(np.log(0.4 * field.m), np.log(0.6), 400))
    theta = rng.uniform(-np.pi, np.pi, 400)
    ref_value, ref_deriv = _pointwise_reference(field, r, theta)
    value, deriv = field.value_and_deriv(r, theta)
    assert np.all(value == field.value(r, theta))
    for got, ref in ((value, ref_value), (deriv, ref_deriv)):
        scale = np.max(np.abs(ref))
        assert scale > 0.0
        assert np.max(np.abs(got - ref)) <= 1e-14 * scale


@pytest.mark.parametrize("which", ["hand_built", "flat_glued"])
def test_tensor_and_paired_evaluation_agree(consts, which):
    """A (theta, r) tensor grid and the same points passed as pairs give
    the same bits, value and radial derivative."""
    if which == "hand_built":
        field = _hand_built_field()
        r_nodes = _dyadic_r_nodes(1e-4, 0.6)
    else:
        field, _ = _flat_glued_field(consts)
        r_nodes = _dyadic_r_nodes(4.2e-6, 0.042)
    thetas = -np.pi + 2 * np.pi * np.arange(96) / 96
    tensor = field.value_and_deriv(r_nodes[None, :], thetas[:, None])
    R, TH = np.meshgrid(r_nodes, thetas)
    paired = field.value_and_deriv(R.ravel(), TH.ravel())
    assert np.max(np.abs(tensor[1])) > 0.0
    for t_part, p_part in zip(tensor, paired):
        assert np.array_equal(t_part.ravel(), p_part)
    assert np.array_equal(field.value(R, TH), tensor[0])


def test_extend_fk_leaves_decomposition_unchanged(consts):
    for p in (flat_profile(0.002, (-0.0399, 0.0399), n=4001),
              perturbed_cone_profile(1e-2, 1.0)):
        s = analyze(p, H=consts.H, alpha=consts.alpha)
        d = decompose_annuli(p, s)
        before = copy.deepcopy(d)
        for k in d.pieces:
            extend_fk(k, d, p, s)
        assert d == before


def test_case_iv_piece_reproduces_end_values(consts):
    """A case IV piece interpolates f0 through its two end nodes."""
    p = perturbed_cone_profile(3e-2, 1.0)
    s = analyze(p, H=consts.H, alpha=consts.alpha)
    d = decompose_annuli(p, s)
    checked = 0
    for k, plist in d.pieces.items():
        fld = extend_fk(k, d, p, s)
        for piece, pc in zip(plist, fld.pieces):
            if piece.case != "IV":
                continue
            ends = list(piece.node_slice)
            assert sorted(piece.net) == ends and pc.radial is not None
            rho, theta = p.rho[ends], s.phi0[ends]
            got = pc.term(theta, pc.radial(rho), np.ones(2))
            assert np.max(np.abs(got - s.f0[ends])) <= 1e-12
            assert np.max(np.abs(s.f0[ends])) > 1e-3
            checked += 1
    assert checked == 2
