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
from .profiles import metric_condition_quotients, C_LIPSCHITZ
from .report import CheckerRecord, CheckerReport

BIG_MARGIN = 1e9
# The theory fixes these constants; calibration never widens them.
PHI0_BOUND = 3 * np.pi / 4  # |phi0| <= 3 pi / 4, exact
C_KAPPA = 1.05              # |kappa| <= C_KAPPA * H: 5% numerical slack
C_PHI0VARY_CPRIME = 2.05    # exponent of the rho ratio in angle_ratio
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


def curve_samples(p):
    """What ``curve_angle`` reads of the profile: rho and
    sqrt(1 - rho'^2) at the 5 Gauss-Legendre points of each interval
    followed by the nodes, and rho' at the nodes."""
    t = p.t_nodes
    s = ((0.5 * (t[1:] + t[:-1]))[:, None]
         + (0.5 * np.diff(t))[:, None] * _GL_X[None, :]).ravel()
    rd_s, rd = (np.asarray(p.deriv(u), dtype=float) for u in (s, t))
    rd_all = np.concatenate([rd_s, rd])
    speed = np.sqrt(np.clip(1.0 - rd_all * rd_all, 0.0, None))
    return np.concatenate([p.value(s), p.value(t)]), speed, rd


def curve_angle(p, coefficient, theta, samples=None):
    """Unit-speed angle of the curve in the polar form dr^2 + G^2 dtheta^2:
    phi' = sqrt(1 - rho'^2) / G, integrated from the profile minimum.

    G on the curve is one call of ``coefficient(rho, theta)`` at the 5
    Gauss-Legendre points of each interval and at the nodes, where theta
    is interpolated linearly between the node angles ``theta``.  One sweep
    integrates per interval and anchors the angle to vanish at
    ``p.argmin_node()``; feeding the result back as ``theta`` solves for
    a coefficient read at the angle itself.  ``samples`` are
    ``curve_samples(p)``, computed here when not given.  Returns phi,
    the integrand phi' and rho' at the nodes.
    """
    rho, speed, rd = samples or curve_samples(p)
    half = 0.5 * np.diff(p.t_nodes)
    th_s = (0.5 * (theta[1:] + theta[:-1]))[:, None] \
        + (0.5 * np.diff(theta))[:, None] * _GL_X[None, :]
    phi_dot = speed / coefficient(rho, np.concatenate([th_s.ravel(), theta]))
    pieces = half * (phi_dot[:th_s.size].reshape(-1, _GL_X.size)
                     * _GL_W[None, :]).sum(axis=1)
    cum = np.concatenate(([0.0], np.cumsum(pieces)))
    # a copy, so that phi' holds no Gauss-Legendre samples alive
    return cum - cum[p.argmin_node()], phi_dot[th_s.size:].copy(), rd


def f0_curve(p, K0, samples=None):
    """Radial correction along the profile:
    rho''/(1 - rho'^2) - cot_k(K0, rho), evaluated at the nodes, with
    rho' read from ``samples = curve_samples(p)`` when they are given."""
    t = p.t_nodes
    rd = samples[2] if samples else np.asarray(p.deriv(t), dtype=float)
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
    phi0: np.ndarray
    phi0_prime: np.ndarray
    f0: np.ndarray
    alpha: float
    K0_clamped: bool = False
    samples: tuple = None  # curve_samples(p), for synthesis only


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


def analyze(p, alpha=0.5):
    """Summary of the derived quantities of a profile."""
    i0 = p.argmin_node()
    t0 = float(p.t_nodes[i0])
    m = float(p.rho[i0])
    K0 = kappa(p, t0)
    K0_used, clamped = _clamped_K0(K0, float(np.max(p.rho)))
    samples = curve_samples(p)
    phi0, phi0p, _ = curve_angle(p, lambda r, theta: sin_k(K0_used, r),
                                 np.zeros_like(p.t_nodes), samples)
    f0 = f0_curve(p, K0_used, samples)
    return AnalysisSummary(t0=t0, m=m, K0=K0, phi0=phi0, phi0_prime=phi0p,
                           f0=f0, alpha=alpha, K0_clamped=clamped,
                           samples=samples)


# -- 12-point configurations --------------------------------------------------


N_SCALE_LEVELS = 12
ETA_CYCLE = (3e-3, 1e-3, 1e-4, 3e-5)


def twelve_point_configurations(interval, budget, seed=0):
    """Deterministic seeded family of 12-point subsets covering the interval.

    Returns a float array of shape (budget, 4, 3): each configuration is
    four 3-point clusters, ordered by centre, each cluster ascending.
    Cluster width (fine scale) is a fraction eta of the window width w,
    paired clusters are separated by sqrt(fine * w) (middle scale) and
    the two pairs by w/2 (coarse scale).  Window widths sweep dyadic
    levels, eta a fixed relative cycle, and two layouts alternate, so
    every (location, width) combination down to the floor has a
    deterministic representative:

    - 'sym': two pairs straddling the window centre symmetrically;
    - 'offset': one pair on the centre, one half a window to the side
      (on either side), so paired quantities are compared between the
      centre of the window and a dyadically displaced location.

    The leading configurations are centred in the interval (the first
    one symmetric about the midpoint), so profiles with a central
    minimum are probed arbitrarily close to it; from configuration
    2 * 4 * N_SCALE_LEVELS on, centre, eta, layout and side are drawn
    from the seeded generator.  A configuration that pokes out of the
    interval is shifted back inside.
    """
    a, b = float(interval[0]), float(interval[1])
    D = b - a
    if D <= 0 or budget < 1:
        raise ValueError("need a nonempty interval and budget >= 1")
    n_eta = len(ETA_CYCLE)
    n_block = n_eta * N_SCALE_LEVELS
    j = np.arange(budget)
    w = D / 2 ** ((j // n_eta) % N_SCALE_LEVELS)
    c = np.full(budget, 0.5 * (a + b))
    eta = np.take(ETA_CYCLE, j % n_eta)
    sym = j < n_block
    mirror = np.where(sym | ((j // n_eta) % 2 == 0), 1.0, -1.0)
    rng = np.random.default_rng(seed)
    log_eta = np.log(ETA_CYCLE[-1]), np.log(ETA_CYCLE[0])
    for k in range(2 * n_block, budget):
        if w[k] < D:
            c[k] = rng.uniform(a + w[k] / 2, b - w[k] / 2)
        eta[k] = np.exp(rng.uniform(*log_eta))
        sym[k] = rng.integers(2) == 0
        mirror[k] = 1.0 if rng.integers(2) == 0 else -1.0
    fine = np.minimum(np.maximum(w * eta, 3e-8 * D), w / 64.0)
    sep = np.sqrt(fine * w)
    offsets = np.where(
        sym[:, None],
        np.stack([-w / 4.0, -w / 4.0 + sep, w / 4.0 - sep, w / 4.0], axis=1),
        np.stack([np.zeros(budget), sep, w / 2.0 - sep, w / 2.0], axis=1))
    x = np.sort(offsets * mirror[:, None] + c[:, None], axis=1)
    fine = fine[:, None]
    configs = np.stack([x - fine, x, x + fine], axis=2)
    lo, hi = configs[:, 0, 0], configs[:, 3, 2]
    margin = 1e-9 * D
    shift = np.where(lo < a + margin, a + margin - lo,
                     np.where(hi > b - margin, b - margin - hi, 0.0))
    return configs + shift[:, None, None]


# -- the finiteness checker -----------------------------------------------------


def _window_ratios(x, windows):
    """max/min of x over each window [windows[2k], windows[2k + 1]); the
    appended last value makes an end of len(x) a valid reduceat index."""
    x = np.append(x, x[-1])
    return np.maximum.reduceat(x, windows)[::2] \
        / np.minimum.reduceat(x, windows)[::2]


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

    ``configs`` is an (n, 4, 3) array of n >= 1 configurations, four
    ascending 3-point clusters each, as `twelve_point_configurations`
    makes them; any subset of its rows is a family of its own.
    """
    configs = np.asarray(configs, dtype=float)
    if configs.ndim != 3 or configs.shape[1:] != (4, 3) \
            or len(configs) < 1:
        raise ValueError(f"configurations must be an (n >= 1, 4, 3) array, "
                         f"got shape {configs.shape}")
    a, b = p.interval
    if configs.min() < a - 1e-12 or configs.max() > b + 1e-12:
        raise ValueError("configuration points outside the profile interval")

    alpha = consts.alpha
    H = consts.H

    # 1-Lipschitz and two-sided triangle bound on every sample node and
    # configuration point; kappa is undefined where the first fails, so
    # the report then holds this alone
    ts = np.concatenate([p.t_nodes, configs.ravel()])
    config_rho = np.asarray(p.value(configs.ravel()), dtype=float)
    rs = np.concatenate([p.rho, config_rho])
    lip, tri = (q / C_LIPSCHITZ for q in
                metric_condition_quotients(ts, rs, 1e-12 * (b - a)))
    lip_record = CheckerRecord.from_margin("lipschitz_triangle",
                                           max(lip, tri))
    if lip > 1.0:
        return CheckerReport(
            records=[lip_record], constants_version=consts.version,
            meta={"n_configs": len(configs), "alpha": alpha, "H": H})

    h_factor = H ** (1 + alpha / 2)
    summary = analyze(p, alpha=alpha)
    K0 = summary.K0
    K0_used, _ = _clamped_K0(K0, float(np.max(p.rho)))

    # divided differences over each cluster's own points; nothing is
    # smoothed globally
    ta, tb, tc = np.moveaxis(configs, 2, 0)
    ra, rho, rc = np.moveaxis(config_rho.reshape(configs.shape), 2, 0)
    dd1 = (rc - ra) / (tc - ta)
    dd2 = 2.0 * ((rc - rho) / (tc - tb) - (rho - ra) / (tb - ta)) / (tc - ta)
    width = tc - ta
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
    u_val = p.value_resolution(tb, rho, np.abs(dd2))
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

    # |kappa| <= H at cluster centers: the least |kappa| consistent with
    # the interval [kap_min, kap_max] must stay below the bound.  phi is
    # strictly decreasing, so this is also the comparison sandwich
    # phi(H rho^2) <= v <= phi(-H rho^2), stated once with one slack.
    kap_width = kap_max - kap_min
    allowed = C_KAPPA * H
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

    # angle-rate ratio over dyadic windows (dense curves); the pow stays
    # per window: numpy's array pow differs from the scalar one in the last bit
    n = len(p)
    windows = []
    for level in range(0, 7):
        n_win = 2 ** level
        edges = np.linspace(0, n, n_win + 1).astype(int)
        starts = list(edges[:-1])
        if level > 0:
            width = edges[1] - edges[0]
            starts += list(np.asarray(edges[:-1][:-1]) + width // 2)
        for ss in starts:
            ee = min(ss + (n // n_win), n)
            if ee - ss >= 8:
                windows += [ss, ee]
    ratio_p = _window_ratios(summary.phi0_prime, windows)
    ratio_r = _window_ratios(p.rho, windows)
    marg_ratio = 0.0
    witness_ratio = [float(p.t_nodes[0])]
    for ss, rp, rr in zip(windows[::2], ratio_p, ratio_r):
        marg = rp / (consts.c_phi0vary_C * rr ** C_PHI0VARY_CPRIME)
        if marg > marg_ratio:
            marg_ratio = marg
            witness_ratio = [float(p.t_nodes[ss])]
    records.append(CheckerRecord.from_margin(
        "angle_ratio", marg_ratio, witness=witness_ratio))

    # |phi0| <= 3 pi / 4
    worst_idx = int(np.argmax(np.abs(summary.phi0)))
    records.append(CheckerRecord.from_margin(
        "angle_bound",
        float(np.max(np.abs(summary.phi0))) / PHI0_BOUND,
        witness=[float(p.t_nodes[worst_idx])]))

    return CheckerReport(
        records=records, constants_version=consts.version,
        meta={"K0": K0, "K0_clamped": bool(summary.K0_clamped),
              "m": summary.m, "t0": summary.t0,
              "n_configs": len(configs), "alpha": alpha, "H": H})
