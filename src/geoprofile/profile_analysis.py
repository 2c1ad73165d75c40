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

from .special_functions import (phi, phi_inverse, sin_k, cot_k, DomainError,
                                PHI_INVERSE_Y_MIN, PHI_INVERSE_Y_MAX)
from .profiles import metric_condition_quotients
from .report import CheckerRecord, CheckerReport

BIG_MARGIN = 1e9
PHI0_BOUND = 3 * np.pi / 4
# sinh overflows a double just above 710.
_SINH_ARG_MAX = 700.0

# Gauss-Legendre nodes/weights on [-1, 1], order 5
_GL_X = np.array([-0.906179845938664, -0.538469310105683, 0.0,
                  0.538469310105683, 0.906179845938664])
_GL_W = np.array([0.236926885056189, 0.478628670499366, 0.568888888888889,
                  0.478628670499366, 0.236926885056189])


def kappa(p, t):
    """Curvature proxy: phi_inverse(rho*rho''/(1-rho'^2)) / rho^2.

    For profiles of genuine surfaces this value is attained by the Gauss
    curvature somewhere on the segment from the center, so |kappa| <= H
    is a necessary condition.  Where rho*rho''/(1-rho'^2) lies above the
    range of phi_inverse (a minimum sharper than any curvature it
    resolves) kappa is -inf, and where it lies below, +inf.
    """
    t_arr = np.asarray(t, dtype=float)
    rho = np.asarray(p.value(t_arr), dtype=float)
    rd = np.asarray(p.deriv(t_arr), dtype=float)
    rdd = np.asarray(p.second_deriv(t_arr), dtype=float)
    one_minus = 1.0 - rd * rd
    if np.any(one_minus <= 0):
        raise DomainError("kappa needs |rho'| < 1")
    v = rho * rdd / one_minus
    above, below = v >= PHI_INVERSE_Y_MAX, v <= PHI_INVERSE_Y_MIN
    out = np.where(above, -np.inf, np.where(
        below, np.inf,
        phi_inverse(np.where(above | below, 1.0, v)) / rho ** 2))
    return float(out) if np.isscalar(t) else out


def curve_angle(p, coefficient, theta):
    """Unit-speed angle of the curve in the polar form dr^2 + G^2 dtheta^2:
    phi' = sqrt(1 - rho'^2) / G, integrated from the profile minimum.

    G on the curve is ``coefficient(rho, theta)``, read at the nodes and
    at the 5 Gauss-Legendre points of each interval, where theta is
    interpolated linearly between the node angles ``theta``.  One sweep
    integrates per interval and anchors the angle to vanish at
    ``p.argmin_node()``; feeding the result back as ``theta`` solves for
    a coefficient read at the angle itself.  Returns phi, the integrand
    phi' and rho' at the nodes.
    """
    t = p.t_nodes
    mid = 0.5 * (t[1:] + t[:-1])
    half = 0.5 * np.diff(t)
    s = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    th_s = (0.5 * (theta[1:] + theta[:-1]))[:, None] \
        + (0.5 * np.diff(theta))[:, None] * _GL_X[None, :]

    def integrand(u, th):
        rd = np.asarray(p.deriv(u), dtype=float)
        speed = np.sqrt(np.clip(1.0 - rd * rd, 0.0, None))
        return speed / coefficient(p.value(u), th), rd

    samples, _ = integrand(s, th_s.ravel())
    pieces = half * (samples.reshape(-1, _GL_X.size) * _GL_W[None, :]).sum(
        axis=1)
    cum = np.concatenate(([0.0], np.cumsum(pieces)))
    phi_dot, rd = integrand(t, theta)
    return cum - cum[p.argmin_node()], phi_dot, rd


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
    phi0: np.ndarray
    phi0_prime: np.ndarray
    f0: np.ndarray
    alpha: float
    H: float
    K0_clamped: bool = False


def _clamped_K0(K0, max_rho):
    """Pull K0 inside [floor, cap] for the profile's radii:
    cap = 0.81 pi^2 / max_rho^2 keeps sin_k defined, and
    floor = -(_SINH_ARG_MAX / max_rho)^2 keeps its sinh finite.

    A wildly out-of-range K0 (the checker will fail the curvature record
    anyway) would otherwise make phi0/f0 undefined or overflow; every K0
    in between is used as it is."""
    cap = 0.81 * np.pi ** 2 / max_rho ** 2
    if K0 > cap:
        return cap, True
    floor = -(_SINH_ARG_MAX / max_rho) ** 2
    if K0 < floor:
        return floor, True
    return K0, False


def analyze(p, H=1.0, alpha=0.5):
    """Summary of the derived quantities of a profile."""
    i0 = p.argmin_node()
    t0 = float(p.t_nodes[i0])
    m = float(p.rho[i0])
    K0 = kappa(p, t0)
    K0_used, clamped = _clamped_K0(K0, float(np.max(p.rho)))
    t = p.t_nodes
    phi0, phi0p, _ = curve_angle(p, lambda r, theta: sin_k(K0_used, r),
                                 np.zeros_like(t))
    f0 = f0_curve(p, K0_used)
    return AnalysisSummary(t0=t0, m=m, K0=K0, t_nodes=t,
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


def _gated_record(name, margin, res, allowed, valid, witness, detail=""):
    """The record of one inequality over clusters or cluster pairs.

    An entry counts only where it is ``valid`` and its resolution ``res``
    is at most half its allowance (the sensitivity gate); every other
    entry counts 0.  The width cycle of the configurations guarantees
    clusters that pass the gate wherever the profile is sampled.  The
    first worst entry gives the margin, and the ``witness`` arrays,
    broadcast to the margin's shape, its points.
    """
    margin = np.where(valid & (res <= 0.5 * allowed), margin, 0.0)
    worst = np.unravel_index(np.argmax(margin), margin.shape)
    return CheckerRecord.from_margin(
        name, float(np.max(margin)),
        witness=[np.broadcast_to(w, margin.shape)[worst] for w in witness],
        detail=detail)


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
    kap_max, kap_min = phi_inverse(
        np.where(good, np.stack([v_lo, v_hi]), 1.0)) / rho ** 2

    records = [lip_record]

    # convexity sandwich: phi(H rho^2) <= v <= phi(-H rho^2)
    lo_env = phi(H * rho ** 2)
    hi_env = phi(-H * rho ** 2)
    window = consts.c_rhoest1_hi * hi_env - lo_env / consts.c_rhoest1_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        m_lo = np.where(v + v_res > 0,
                        lo_env / (consts.c_rhoest1_lo * (v + v_res)),
                        BIG_MARGIN)
        m_hi = (v - v_res) / (consts.c_rhoest1_hi * hi_env)
    records.append(_gated_record("ddot_sandwich", np.maximum(m_lo, m_hi),
                                 v_res, window, good, [tb]))

    # |kappa| <= H at cluster centers: the least |kappa| consistent with
    # the interval [kap_min, kap_max] must stay below the bound
    kap_width = kap_max - kap_min
    allowed = consts.c_kappa * H
    kap_margin = np.maximum(np.maximum(kap_min, -kap_max), 0.0) / allowed
    kap_margin = np.where(np.abs(v) > 9.0e2, BIG_MARGIN, kap_margin)
    records.append(_gated_record(
        "curvature_bound", kap_margin, 0.5 * kap_width, allowed, good, [tb],
        detail=f"K0={K0:.6g}"))

    # Hölder contrast of kappa: its values are curvatures attained within
    # distance rho of the center, so |kappa(t) - kappa(t')| is bounded by
    # the curvature seminorm times (rho + rho')^alpha; the guaranteed
    # contrast is the gap between the two kappa intervals.  The 6 cluster
    # pairs are rows, so the first worst entry is pair-major.
    i, j = np.triu_indices(4, 1)
    k_min, k_max, k_width = kap_min.T, kap_max.T, kap_width.T
    allowed = consts.c_kappa_alpha * h_factor \
        * (rho.T[i] + rho.T[j]) ** alpha
    gap = np.maximum(k_min[i] - k_max[j], k_min[j] - k_max[i])
    records.append(_gated_record(
        "kappa_holder", np.maximum(gap, 0.0) / allowed,
        0.5 * (k_width[i] + k_width[j]), allowed, good.T[i] & good.T[j],
        [tb.T[i], tb.T[j]]))

    # f0 and phi0' at cluster centers (divided-difference versions)
    f0c = dd2 / om_safe - cot_k(K0_used, rho)
    phi0pc = np.sqrt(np.clip(one_minus, 0.0, None)) / sin_k(K0_used, rho)

    allowed = consts.c_f0est1 * h_factor * rho ** (1 + alpha)
    records.append(_gated_record(
        "f0_size", np.maximum(np.abs(f0c) - f0_res, 0.0) / allowed,
        f0_res, allowed, good, [tb]))

    # slope of f0 against rho on the cluster pairs (0, 1) and (2, 3), one
    # column each, with the angular penalty xi
    i, j = [0, 2], [1, 3]
    drho = rho[:, i] - rho[:, j]
    ok = (np.abs(drho) > 1e-12 * np.maximum(rho[:, i], rho[:, j])) \
        & good[:, i] & good[:, j]
    drho_safe = np.where(ok, drho, 1.0)
    slope = (f0c[:, i] - f0c[:, j]) / drho_safe
    xi = np.where(ok, rho[:, i] ** (1 + alpha)
                  * np.abs(phi0pc[:, i]) ** alpha
                  * np.abs(tb[:, i] - tb[:, j]) ** alpha / np.abs(drho_safe),
                  np.inf)
    same = np.maximum(rho[:, i], rho[:, j]) \
        / np.minimum(rho[:, i], rho[:, j]) <= 4.0
    with np.errstate(divide="ignore", invalid="ignore"):
        res = (f0_res[:, i] + f0_res[:, j]) / np.abs(drho_safe)

    allowed = consts.c_f0est2 * h_factor \
        * (np.sqrt(rho[:, i] * rho[:, j]) ** alpha + xi)
    records.append(_gated_record(
        "f0_slope", np.maximum(np.abs(slope) - res, 0.0) / allowed,
        res, allowed, ok & same, [tb[:, :1]]))

    # cross-scale estimates between the two pairs
    pairs_same = np.all(ok & same, axis=1)
    spread = (np.max(tb, axis=1) - np.min(tb, axis=1)) ** alpha \
        + xi[:, 0] + xi[:, 1]
    allowed = consts.c_f0est3 * h_factor * spread
    records.append(_gated_record(
        "f0_slope_pair",
        np.maximum(np.abs(slope[:, 0] - slope[:, 1]) - res[:, 0] - res[:, 1],
                   0.0) / allowed,
        res[:, 0] + res[:, 1], allowed,
        pairs_same & (np.max(rho, axis=1) / np.min(rho, axis=1) <= 4.0),
        [tb[:, 0]]))

    cot = cot_k(K0_used, rho[:, i])
    lhs = np.abs(slope[:, 0] + 2 * f0c[:, 0] * cot[:, 0]
                 - slope[:, 1] - 2 * f0c[:, 2] * cot[:, 1])
    res4 = res[:, 0] + res[:, 1] + 2 * f0_res[:, 0] * np.abs(cot[:, 0]) \
        + 2 * f0_res[:, 2] * np.abs(cot[:, 1])
    allowed = consts.c_f0est4 * h_factor * spread
    records.append(_gated_record(
        "f0_cross_scale", np.maximum(lhs - res4, 0.0) / allowed, res4,
        allowed, pairs_same, [tb[:, 0]]))

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
