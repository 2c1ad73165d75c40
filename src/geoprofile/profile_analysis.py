"""Derived curves of a distance profile and the finiteness checker.

From rho alone one can form a curvature proxy kappa, a reference angle
phi0, and the radial correction f0; a profile realizable on a surface
with curvature bound H must satisfy a family of inequalities in these
quantities.  The checker evaluates that family with all derivatives
replaced by divided differences over 12-point configurations (four
3-point clusters spanning three scales), so the verdict depends only on
finitely many samples of rho per configuration.
"""

from dataclasses import dataclass

import numpy as np

from .special_functions import phi, phi_inverse, sin_k, cot_k, DomainError
from .profiles import metric_condition_quotients
from .report import CheckerRecord, CheckerReport

BIG_MARGIN = 1e9
PHI0_BOUND = 3 * np.pi / 4

# Gauss-Legendre nodes/weights on [-1, 1], order 5
_GL_X = np.array([-0.906179845938664, -0.538469310105683, 0.0,
                  0.538469310105683, 0.906179845938664])
_GL_W = np.array([0.236926885056189, 0.478628670499366, 0.568888888888889,
                  0.478628670499366, 0.236926885056189])


def kappa(p, t):
    """Curvature proxy: phi_inverse(rho*rho''/(1-rho'^2)) / rho^2.

    For profiles of genuine surfaces this value is attained by the Gauss
    curvature somewhere on the segment from the center, so |kappa| <= H
    is a necessary condition.
    """
    t_arr = np.asarray(t, dtype=float)
    rho = np.asarray(p.value(t_arr), dtype=float)
    rd = np.asarray(p.deriv(t_arr), dtype=float)
    rdd = np.asarray(p.second_deriv(t_arr), dtype=float)
    one_minus = 1.0 - rd * rd
    if np.any(one_minus <= 0):
        raise DomainError("kappa needs |rho'| < 1")
    v = rho * rdd / one_minus
    out = phi_inverse(v) / rho ** 2
    return float(out) if np.isscalar(t) else out


def _phi0_integrand(p, K0):
    def integrand(s):
        rd = np.asarray(p.deriv(s), dtype=float)
        one_minus = np.clip(1.0 - rd * rd, 0.0, None)
        return np.sqrt(one_minus) / sin_k(K0, p.value(s))
    return integrand


def phi0_curve(p, K0):
    """Reference angle: integral of sqrt(1 - rho'^2)/sin_k(K0, rho) from
    the minimizer; returns values at the profile nodes.

    phi0 vanishes at the minimizer and is strictly increasing.
    """
    t = p.t_nodes
    if K0 * float(np.max(p.rho)) ** 2 >= np.pi ** 2:
        raise DomainError("K0 * max(rho)^2 must stay below pi^2")
    integrand = _phi0_integrand(p, K0)
    # per-interval 5-point Gauss, then signed cumulative sum from t0
    mid = 0.5 * (t[1:] + t[:-1])
    half = 0.5 * np.diff(t)
    samples = integrand((mid[:, None] + half[:, None] * _GL_X[None, :]).ravel())
    samples = samples.reshape(-1, _GL_X.size)
    pieces = half * (samples * _GL_W[None, :]).sum(axis=1)
    cum = np.concatenate(([0.0], np.cumsum(pieces)))
    i0 = p.argmin_node()
    return cum - cum[i0]


def f0_curve(p, K0):
    """Radial correction along the profile:
    rho''/(1 - rho'^2) - cot_k(K0, rho), evaluated at the nodes."""
    t = p.t_nodes
    rd = np.asarray(p.deriv(t), dtype=float)
    rdd = np.asarray(p.second_deriv(t), dtype=float)
    one_minus = 1.0 - rd * rd
    if np.any(one_minus <= 0):
        raise DomainError("f0 needs |rho'| < 1")
    return rdd / one_minus - cot_k(K0, p.rho)


@dataclass
class AnalysisSummary:
    t0: float
    m: float
    K0: float
    t_nodes: np.ndarray
    kappa: np.ndarray
    phi0: np.ndarray
    phi0_prime: np.ndarray
    f0: np.ndarray
    alpha: float
    H: float
    K0_clamped: bool = False

    def to_dict(self):
        return {
            "t0": self.t0, "m": self.m, "K0": self.K0,
            "alpha": self.alpha, "H": self.H,
            "K0_clamped": self.K0_clamped,
            "max_abs_kappa": float(np.max(np.abs(self.kappa))),
            "max_abs_phi0": float(np.max(np.abs(self.phi0))),
            "max_abs_f0": float(np.max(np.abs(self.f0))),
        }


def _clamped_K0(K0, max_rho):
    """Pull K0 inside the sin_k domain for the profile's radii.

    A wildly out-of-range K0 (the checker will fail the curvature record
    anyway) would otherwise make phi0/f0 undefined."""
    cap = 0.81 * np.pi ** 2 / max_rho ** 2
    if K0 > cap:
        return cap, True
    return K0, False


def analyze(p, H=1.0, alpha=0.5):
    """Summary of the derived quantities of a profile."""
    i0 = p.argmin_node()
    t0 = float(p.t_nodes[i0])
    m = float(p.rho[i0])
    K0 = float(kappa(p, t0))
    K0_used, clamped = _clamped_K0(K0, float(np.max(p.rho)))
    t = p.t_nodes
    kap = kappa(p, t)
    phi0 = phi0_curve(p, K0_used)
    phi0p = _phi0_integrand(p, K0_used)(t)
    f0 = f0_curve(p, K0_used)
    return AnalysisSummary(t0=t0, m=m, K0=K0, t_nodes=t, kappa=kap,
                           phi0=phi0, phi0_prime=phi0p, f0=f0,
                           alpha=alpha, H=H, K0_clamped=clamped)


# -- 12-point configurations --------------------------------------------------


@dataclass(frozen=True)
class PointConfiguration:
    """Up to four 3-point clusters spanning three scales inside a window."""

    clusters: tuple

    @property
    def points(self):
        return np.sort(np.concatenate(self.clusters))


N_SCALE_LEVELS = 12
ETA_CYCLE = (3e-3, 1e-3, 1e-4, 3e-5)


def _cluster_centers(c, w, sep_mid, layout):
    """Cluster centers of a configuration window.

    'sym': two pairs straddling the center symmetrically (coarse
    separation w/2).  'offset': one pair on the center, one at half a
    window to the side, so paired quantities are compared between the
    center of the window and a dyadically displaced location.
    """
    if layout == "sym":
        return np.array([c - w / 4.0, c - w / 4.0 + sep_mid,
                         c + w / 4.0 - sep_mid, c + w / 4.0])
    return np.array([c, c + sep_mid, c + w / 2.0 - sep_mid, c + w / 2.0])


def twelve_point_configurations(interval, budget, seed=0):
    """Deterministic seeded family of 12-point subsets covering the interval.

    Each subset is four 3-point clusters: cluster width (fine scale),
    paired clusters separated by sqrt(fine * w) (middle scale), the two
    pairs separated by w/2 (coarse scale), inside a window of width w.
    Window widths sweep dyadic levels, cluster widths a fixed relative
    cycle, and two layouts alternate, so every (location, width)
    combination down to the floor has a deterministic representative.
    The leading configurations are centered in the interval (the first
    one symmetric about the midpoint), so profiles with a central
    minimum are probed arbitrarily close to it.
    """
    a, b = float(interval[0]), float(interval[1])
    D = b - a
    if D <= 0 or budget < 1:
        raise ValueError("need a nonempty interval and budget >= 1")
    min_width = 3e-8 * D
    rng = np.random.default_rng(seed)
    configs = []
    n_eta = len(ETA_CYCLE)
    n_block = n_eta * N_SCALE_LEVELS
    mid = 0.5 * (a + b)
    for j in range(budget):
        level = (j // n_eta) % N_SCALE_LEVELS
        w = D * 2.0 ** (-level)
        if j < n_block:          # centered, symmetric layout
            c, eta, layout, mirror = mid, ETA_CYCLE[j % n_eta], "sym", 1.0
        elif j < 2 * n_block:    # centered, offset layout (both sides)
            c, eta, layout = mid, ETA_CYCLE[j % n_eta], "offset"
            mirror = 1.0 if (j // n_eta) % 2 == 0 else -1.0
        else:
            c = float(rng.uniform(a + w / 2, b - w / 2)) if w < D else mid
            eta = float(np.exp(rng.uniform(np.log(ETA_CYCLE[-1]),
                                           np.log(ETA_CYCLE[0]))))
            layout = "sym" if rng.integers(2) == 0 else "offset"
            mirror = 1.0 if rng.integers(2) == 0 else -1.0
        fine = max(w * eta, min_width)
        fine = min(fine, w / 64.0)
        sep_mid = np.sqrt(fine * w)
        centers = _cluster_centers(0.0, w, sep_mid, layout) * mirror + c
        clusters = tuple(np.array([x - fine, x, x + fine])
                         for x in np.sort(centers))
        pts = np.concatenate(clusters)
        lo, hi = pts.min(), pts.max()
        shift = 0.0
        margin = 1e-9 * D
        if lo < a + margin:
            shift = a + margin - lo
        elif hi > b - margin:
            shift = b - margin - hi
        clusters = tuple(cl + shift for cl in clusters)
        configs.append(PointConfiguration(clusters=clusters))
    return configs


# -- the finiteness checker -----------------------------------------------------


def _cluster_table(p, configs):
    """Divided-difference quantities per cluster, vectorized.

    Derivatives are replaced by symmetric divided differences over the
    cluster's own points; nothing is smoothed globally.
    """
    tri = np.stack([np.stack(cfg.clusters) for cfg in configs])  # (n_cfg,4,3)
    flat = tri.reshape(-1, 3)
    vals = np.asarray(p.value(flat.ravel()), dtype=float).reshape(-1, 3)
    ta, tb, tc = flat[:, 0], flat[:, 1], flat[:, 2]
    ra, rb, rc = vals[:, 0], vals[:, 1], vals[:, 2]
    dd1 = (rc - ra) / (tc - ta)
    dd2 = 2.0 * ((rc - rb) / (tc - tb) - (rb - ra) / (tb - ta)) / (tc - ta)
    return {
        "t": tb.reshape(len(configs), 4),
        "rho": rb.reshape(len(configs), 4),
        "dd1": dd1.reshape(len(configs), 4),
        "dd2": dd2.reshape(len(configs), 4),
        "width": (tc - ta).reshape(len(configs), 4),
    }


def _pair_quantities(tb, rho, f0, phi0p, alpha, i, j):
    """Slope of f0 against rho between cluster centers i, j plus the
    angular penalty xi; returns (slope, xi, valid_pair, same_annulus)."""
    drho = rho[:, i] - rho[:, j]
    dt = tb[:, i] - tb[:, j]
    scale = np.maximum(rho[:, i], rho[:, j])
    valid = np.abs(drho) > 1e-12 * scale
    drho_safe = np.where(valid, drho, 1.0)
    slope = (f0[:, i] - f0[:, j]) / drho_safe
    xi = rho[:, i] ** (1 + alpha) * np.abs(phi0p[:, i]) ** alpha \
        * np.abs(dt) ** alpha / np.abs(drho_safe)
    xi = np.where(valid, xi, np.inf)
    ratio = np.maximum(rho[:, i], rho[:, j]) / np.minimum(rho[:, i], rho[:, j])
    same_annulus = ratio <= 4.0
    return slope, xi, valid, same_annulus


def finiteness_check(p, consts, configs):
    """Evaluate the finiteness inequalities over the configurations.

    Margins are actual/allowed ratios (<= 1 passes); the report records
    the worst margin and its witness points per inequality.  Every
    divided-difference quantity carries a per-cluster resolution bound
    (sample rounding plus 3-point truncation) and only the excess beyond
    resolution counts as a violation, so neither very tight nor very
    wide clusters can flag a realizable profile spuriously.
    """
    a, b = p.interval
    config_pts = np.concatenate([cfg.points for cfg in configs])
    if config_pts.min() < a - 1e-12 or config_pts.max() > b + 1e-12:
        raise ValueError("configuration points outside the profile interval")

    alpha = consts.alpha
    H = consts.H

    # 1-Lipschitz and two-sided triangle bound on sampled pairs; kappa is
    # undefined where the first fails, so the report then holds this alone
    idx = np.unique(np.linspace(0, len(p) - 1, 400).astype(int))
    ts = np.concatenate([p.t_nodes[idx], config_pts])
    rs = np.asarray(p.value(ts), dtype=float)
    lip, tri = (q / consts.c_lipschitz for q in
                metric_condition_quotients(ts, rs, 1e-12 * (b - a)))
    lip_record = CheckerRecord.from_margin("lipschitz_triangle",
                                           max(lip, tri))
    if lip > 1.0:
        return CheckerReport(
            records=[lip_record], constants_version=consts.version,
            meta={"n_configs": len(configs), "alpha": alpha, "H": H})

    h_factor = H ** (1 + alpha / 2)
    summary = analyze(p, H=H, alpha=alpha)
    K0 = summary.K0
    K0_used, _ = _clamped_K0(K0, float(np.max(p.rho)))

    tab = _cluster_table(p, configs)
    tb, rho, dd1, dd2 = tab["t"], tab["rho"], tab["dd1"], tab["dd2"]
    width = tab["width"]
    one_minus = 1.0 - dd1 ** 2
    good = one_minus > 1e-12
    om_safe = np.where(good, one_minus, 1.0)
    v = rho * dd2 / om_safe
    v = np.where(good, v, 1.0)

    # per-cluster divided-difference resolution: evaluation error of the
    # profile (an ulp for callbacks, interpolation error for sampled
    # reconstructions) amplified by the second difference, plus the
    # width-squared truncation of a 3-point stencil (third derivative
    # modeled by dd2/rho).  Only excesses beyond resolution count as
    # violations; the width cycle of the configurations guarantees
    # near-optimal-resolution clusters at every location.
    u_val = np.asarray(p.value_resolution(tb.ravel(), np.abs(dd2).ravel()),
                       dtype=float).reshape(tb.shape)
    dd2_res = 16.0 * u_val / width ** 2 \
        + 0.25 * width ** 2 * np.abs(dd2) / rho ** 2
    dd1_res = 8.0 * u_val / width \
        + 0.125 * width ** 2 * np.abs(dd2) / rho
    om_res = 2.0 * np.abs(dd1) * dd1_res
    with np.errstate(divide="ignore", invalid="ignore"):
        f0_res = np.where(
            good,
            dd2_res / om_safe + np.abs(dd2) * om_res / om_safe ** 2,
            np.inf)
    v_res = rho * f0_res

    # kappa resolution propagated through the decreasing inverse as an
    # interval: [kappa_min, kappa_max] consistent with v +- v_res
    y_lo_cap = phi(np.pi ** 2 * 0.81)
    v_hi = np.clip(v + v_res, y_lo_cap, 9.0e2)
    v_lo = np.clip(v - v_res, y_lo_cap, 9.0e2)
    kap_max = phi_inverse(np.where(good, v_lo, 1.0)) / rho ** 2
    kap_min = phi_inverse(np.where(good, v_hi, 1.0)) / rho ** 2

    records = [lip_record]

    # convexity sandwich: phi(H rho^2) <= v <= phi(-H rho^2).  A cluster
    # may enforce a record only when its resolution is well inside the
    # allowed window (sensitivity gate): the width cycle guarantees such
    # clusters wherever the profile is sampled.
    lo_env = phi(H * rho ** 2)
    hi_env = phi(-H * rho ** 2)
    window = consts.c_rhoest1_hi * hi_env - lo_env / consts.c_rhoest1_lo
    sens = good & (v_res <= 0.5 * window)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_lo = np.where(v + v_res > 0,
                        lo_env / (consts.c_rhoest1_lo * (v + v_res)),
                        BIG_MARGIN)
        m_hi = (v - v_res) / (consts.c_rhoest1_hi * hi_env)
    sandwich = np.where(sens, np.maximum(m_lo, m_hi), 0.0)
    worst = np.unravel_index(np.argmax(sandwich), sandwich.shape)
    records.append(CheckerRecord.from_margin(
        "ddot_sandwich", float(np.max(sandwich)),
        witness=[tb[worst]]))

    # |kappa| <= H at cluster centers: the least |kappa| consistent with
    # the interval [kap_min, kap_max] must stay below the bound
    kap_width = kap_max - kap_min
    sens_k = good & (kap_width <= consts.c_kappa * H)
    kap_best = np.where(kap_min > 0, kap_min,
                        np.where(kap_max < 0, -kap_max, 0.0))
    kap_margin = kap_best / (consts.c_kappa * H)
    kap_margin = np.where(np.abs(v) > 9.0e2, BIG_MARGIN, kap_margin)
    kap_margin = np.where(sens_k, kap_margin, 0.0)
    worst = np.unravel_index(np.argmax(kap_margin), kap_margin.shape)
    records.append(CheckerRecord.from_margin(
        "curvature_bound", float(np.max(kap_margin)),
        witness=[tb[worst]], detail=f"K0={K0:.6g}"))

    # Hölder contrast of kappa: its values are curvatures attained within
    # distance rho of the center, so |kappa(t) - kappa(t')| is bounded by
    # the curvature seminorm times (rho + rho')^alpha; the guaranteed
    # contrast is the gap between the two kappa intervals
    kh_margin = 0.0
    kh_witness = [float(tb[0, 0]), float(tb[0, 1])]
    for i in range(4):
        for j in range(i + 1, 4):
            allowed = consts.c_kappa_alpha * h_factor \
                * (rho[:, i] + rho[:, j]) ** alpha
            both = good[:, i] & good[:, j] \
                & (kap_width[:, i] + kap_width[:, j] <= allowed)
            gap = np.maximum(kap_min[:, i] - kap_max[:, j],
                             kap_min[:, j] - kap_max[:, i])
            quot = np.maximum(gap, 0.0) / allowed
            quot = np.where(both, quot, 0.0)
            idx = int(np.argmax(quot))
            if quot[idx] > kh_margin:
                kh_margin = float(quot[idx])
                kh_witness = [float(tb[idx, i]), float(tb[idx, j])]
    records.append(CheckerRecord.from_margin(
        "kappa_holder", kh_margin, witness=kh_witness))

    # f0 and phi0' at cluster centers (divided-difference versions)
    f0c = dd2 / om_safe - cot_k(K0_used, rho)
    phi0pc = np.sqrt(np.clip(one_minus, 0.0, None)) / sin_k(K0_used, rho)

    allowed_size = consts.c_f0est1 * h_factor * rho ** (1 + alpha)
    size_margin = np.maximum(np.abs(f0c) - f0_res, 0.0) / allowed_size
    size_margin = np.where(good & (f0_res <= 0.5 * allowed_size),
                           size_margin, 0.0)
    worst = np.unravel_index(np.argmax(size_margin), size_margin.shape)
    records.append(CheckerRecord.from_margin(
        "f0_size", float(np.max(size_margin)), witness=[tb[worst]]))

    # pair and cross-scale estimates
    s12, xi12, ok12, same12 = _pair_quantities(tb, rho, f0c, phi0pc, alpha, 0, 1)
    s34, xi34, ok34, same34 = _pair_quantities(tb, rho, f0c, phi0pc, alpha, 2, 3)
    ok12 &= good[:, 0] & good[:, 1]
    ok34 &= good[:, 2] & good[:, 3]
    drho12 = np.abs(rho[:, 0] - rho[:, 1])
    drho34 = np.abs(rho[:, 2] - rho[:, 3])
    with np.errstate(divide="ignore", invalid="ignore"):
        res12 = (f0_res[:, 0] + f0_res[:, 1]) / np.where(ok12, drho12, 1.0)
        res34 = (f0_res[:, 2] + f0_res[:, 3]) / np.where(ok34, drho34, 1.0)

    slope_margins = []
    for slope, xi, res, ok, same, i, j in (
            (s12, xi12, res12, ok12, same12, 0, 1),
            (s34, xi34, res34, ok34, same34, 2, 3)):
        r_geo = np.sqrt(rho[:, i] * rho[:, j])
        allowed = consts.c_f0est2 * h_factor * (r_geo ** alpha + xi)
        lhs = np.maximum(np.abs(slope) - res, 0.0)
        marg = np.where(ok & same & (res <= 0.5 * allowed),
                        lhs / allowed, 0.0)
        slope_margins.append(marg)
    slope_margin = np.maximum(*slope_margins)
    worst = int(np.argmax(slope_margin))
    records.append(CheckerRecord.from_margin(
        "f0_slope", float(np.max(slope_margin)), witness=[tb[worst, 0]]))

    diam = np.max(tb, axis=1) - np.min(tb, axis=1)
    both = ok12 & ok34
    all_same = both & same12 & same34 & (
        np.max(rho, axis=1) / np.min(rho, axis=1) <= 4.0)
    allowed3 = consts.c_f0est3 * h_factor * (diam ** alpha + xi12 + xi34)
    lhs3 = np.maximum(np.abs(s12 - s34) - res12 - res34, 0.0)
    marg3 = np.where(all_same & (res12 + res34 <= 0.5 * allowed3),
                     lhs3 / allowed3, 0.0)
    worst = int(np.argmax(marg3))
    records.append(CheckerRecord.from_margin(
        "f0_slope_pair", float(np.max(marg3)), witness=[tb[worst, 0]]))

    cross_ok = both & same12 & same34
    cot0 = cot_k(K0_used, rho[:, 0])
    cot2 = cot_k(K0_used, rho[:, 2])
    lhs4 = np.abs(s12 + 2 * f0c[:, 0] * cot0 - s34 - 2 * f0c[:, 2] * cot2)
    res4 = res12 + res34 + 2 * f0_res[:, 0] * np.abs(cot0) \
        + 2 * f0_res[:, 2] * np.abs(cot2)
    allowed4 = consts.c_f0est4 * h_factor * (diam ** alpha + xi12 + xi34)
    marg4 = np.where(cross_ok & (res4 <= 0.5 * allowed4),
                     np.maximum(lhs4 - res4, 0.0) / allowed4, 0.0)
    worst = int(np.argmax(marg4))
    records.append(CheckerRecord.from_margin(
        "f0_cross_scale", float(np.max(marg4)), witness=[tb[worst, 0]]))

    # angle-rate ratio over dyadic windows (dense curves)
    phi0p = summary.phi0_prime
    rho_dense = p.rho
    marg_ratio = 0.0
    witness_ratio = [float(p.t_nodes[0])]
    n = len(p)
    for level in range(0, 7):
        n_win = 2 ** level
        edges = np.linspace(0, n, n_win + 1).astype(int)
        starts = list(edges[:-1])
        if level > 0:
            width = edges[1] - edges[0]
            starts += list(np.asarray(edges[:-1][:-1]) + width // 2)
        for ss in starts:
            ee = min(ss + (n // n_win), n)
            if ee - ss < 8:
                continue
            seg_p = phi0p[ss:ee]
            seg_r = rho_dense[ss:ee]
            ratio_p = np.max(seg_p) / np.min(seg_p)
            ratio_r = np.max(seg_r) / np.min(seg_r)
            marg = ratio_p / (consts.c_phi0vary_C
                              * ratio_r ** consts.c_phi0vary_Cprime)
            if marg > marg_ratio:
                marg_ratio = marg
                witness_ratio = [float(p.t_nodes[ss])]
    records.append(CheckerRecord.from_margin(
        "angle_ratio", marg_ratio, witness=witness_ratio))

    # |phi0| <= 3 pi / 4
    worst_idx = int(np.argmax(np.abs(summary.phi0)))
    records.append(CheckerRecord.from_margin(
        "angle_bound",
        float(np.max(np.abs(summary.phi0)))
        / (consts.c_phi0_bound * PHI0_BOUND),
        witness=[float(p.t_nodes[worst_idx])]))

    return CheckerReport(
        records=records, constants_version=consts.version,
        meta={"K0": K0, "K0_clamped": bool(summary.K0_clamped),
              "m": summary.m, "t0": summary.t0,
              "n_configs": len(configs), "alpha": alpha, "H": H})
