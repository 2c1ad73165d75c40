"""Constructive synthesis of a metric realizing a distance profile.

Given a checker-passing profile the pipeline is: split the disc into
dyadic annuli, extend the radial correction f0 from the reference curve
to each annulus (by angular transport or by interpolating a radial net),
glue with a partition of unity in log2(r), integrate the corrected
coefficient G, deform the reference angle into the true one with an
r-preserving bi-Lipschitz map, and verify the result independently:
curvature bounds by finite differences, the geodesic equation along the
curve, and pairwise distances by shooting.
"""

from dataclasses import dataclass, field

import numpy as np

from .special_functions import sin_k, cot_k
from .whitney import (SampledFunction, whitney_extend, holder_seminorm_pairs,
                      HypothesisViolation, INTERVAL_LENGTH_FACTOR)
from .profile_analysis import analyze
from .geodesy import MetricGrid, GeodesicPath, PolarPoint, distance
from .report import CheckerRecord, CheckerReport

LN2 = np.log(2.0)
R_NODES_PER_OCTAVE = 64     # geometric radial grid nodes per dyadic band
MIN_SECTOR_GAP = 0.35       # angular separation asserted between split pieces
FADE_WIDTH = 0.45           # angular width of the theta cutoff beyond the sweep


class SynthesisError(RuntimeError):
    pass


# -- partition of unity -------------------------------------------------------


def _smoothstep(x):
    """C^2 quintic ramp: 0 below 0, 1 above 1."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 - 15.0 * x + 6.0 * x * x)


def _smoothstep_prime(x):
    inside = (x > 0.0) & (x < 1.0)
    xc = np.clip(x, 0.0, 1.0)
    return np.where(inside, 30.0 * xc ** 2 * (1.0 - xc) ** 2, 0.0)


def bump_weight(x):
    """C^2 bump supported on (-1, 1) with sum_j bump_weight(x - j) = 1."""
    return _smoothstep(x + 1.0) - _smoothstep(x)


def bump_weight_prime(x):
    return _smoothstep_prime(x + 1.0) - _smoothstep_prime(x)


# -- annulus decomposition -----------------------------------------------------


@dataclass
class AnnulusPiece:
    k: int
    side: str              # "both", "-", "+"
    case: str              # "I".."IV"
    lam: float
    delta: float
    node_slice: tuple      # (i_lo, i_hi) indices into the profile nodes
    theta_lo: float = 0.0
    theta_hi: float = 0.0
    fallback: bool = False


@dataclass
class AnnulusDecomposition:
    pieces: dict           # k -> list[AnnulusPiece]
    m: float

    def all_pieces(self):
        for k in sorted(self.pieces):
            for piece in self.pieces[k]:
                yield piece


def _runs(mask, merge_gap=3):
    """Contiguous index runs of True, merging nearly-touching runs
    (guards against isolated nodes at annulus boundaries)."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], cuts + 1))
    ends = np.concatenate((cuts, [idx.size - 1]))
    raw = [(int(idx[s]), int(idx[e])) for s, e in zip(starts, ends)]
    merged = [raw[0]]
    for lo, hi in raw[1:]:
        if lo - merged[-1][1] <= merge_gap:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _piece_case(p, s, k, i_lo, i_hi, alpha):
    """Case predicate in order I, II, III, IV plus lambda and delta."""
    rd = np.asarray(p.deriv(p.t_nodes[i_lo:i_hi + 1]), dtype=float)
    phi0p = s.phi0_prime[i_lo:i_hi + 1]
    lam = float(np.sqrt(np.max(phi0p) * np.min(phi0p)))
    delta = lam ** alpha * 2.0 ** (k * (1 + alpha))
    length = float(p.t_nodes[i_hi] - p.t_nodes[i_lo])
    if np.min(np.abs(rd)) <= 0.5:
        case = "I"
    elif alpha < 1.0 and length <= (2.0 ** k * lam ** alpha) ** (1.0 / (1.0 - alpha)):
        case = "II"
    elif length >= delta:
        case = "III"
    else:
        case = "IV"
    return case, lam, delta


def decompose_annuli(p, s):
    """Dyadic annuli, their parameter intervals, rates and case tags.

    The annulus at scale k is 2^(k-1) < r < 2^(k+1); its preimage under
    rho has one component, or two which are handled jointly (as a flat
    crossing) when the minimum is above 2^(k-3) and separately when it is
    deeper.
    """
    if len(p) == 0:
        raise SynthesisError("empty profile")
    rho = p.rho
    m = float(np.min(rho))
    rho_max = float(np.max(rho))
    alpha = s.alpha
    k_min = int(np.floor(np.log2(m)))
    k_max = int(np.ceil(np.log2(rho_max)))
    pieces = {}
    for k in range(k_min - 1, k_max + 1):
        lo_r, hi_r = 2.0 ** (k - 1), 2.0 ** (k + 1)
        mask = (rho > lo_r) & (rho < hi_r)
        runs = _runs(mask)
        if not runs:
            continue
        plist = []
        if len(runs) == 2 and m > 2.0 ** (k - 3):
            i_lo, i_hi = runs[0][0], runs[1][1]
            lam = float(np.sqrt(np.max(s.phi0_prime[i_lo:i_hi + 1])
                                * np.min(s.phi0_prime[i_lo:i_hi + 1])))
            delta = lam ** alpha * 2.0 ** (k * (1 + alpha))
            plist.append(AnnulusPiece(
                k=k, side="both", case="I", lam=lam, delta=delta,
                node_slice=(i_lo, i_hi),
                theta_lo=float(s.phi0[i_lo]), theta_hi=float(s.phi0[i_hi])))
        else:
            for run_idx, (i_lo, i_hi) in enumerate(runs):
                side = "both" if len(runs) == 1 else ("-" if run_idx == 0 else "+")
                case, lam, delta = _piece_case(p, s, k, i_lo, i_hi, alpha)
                plist.append(AnnulusPiece(
                    k=k, side=side, case=case, lam=lam, delta=delta,
                    node_slice=(i_lo, i_hi),
                    theta_lo=float(s.phi0[i_lo]), theta_hi=float(s.phi0[i_hi])))
        if len(plist) == 2:
            gap = plist[1].theta_lo - plist[0].theta_hi
            if gap < MIN_SECTOR_GAP:
                raise SynthesisError(
                    f"split annulus k={k}: angular gap {gap:.4f} below "
                    f"{MIN_SECTOR_GAP}")
        pieces[k] = plist
    return AnnulusDecomposition(pieces=pieces, m=m)


# -- per-annulus extensions ----------------------------------------------------


class _PieceField:
    """One annulus piece as a vectorized function of (r, theta).

    value = fade(theta) * (y(r) + g(theta)); the theta part g carries the
    profile values, the radial part y the net interpolant (zero for the
    transport cases).  The fade is a C^1 cutoff over FADE_WIDTH beyond
    the swept range, clamped inside (-pi, pi).
    """

    def __init__(self, theta_nodes, g_nodes, y_fn=None, y_prime_fn=None,
                 fade_lo=None, fade_hi=None):
        self.theta_nodes = theta_nodes
        self.g_nodes = g_nodes
        self.y_fn = y_fn
        self.y_prime_fn = y_prime_fn
        t_lo, t_hi = theta_nodes[0], theta_nodes[-1]
        lo = min(FADE_WIDTH, 0.9 * (t_lo + np.pi))
        hi = min(FADE_WIDTH, 0.9 * (np.pi - t_hi))
        if fade_lo is not None:
            lo = min(lo, fade_lo)
        if fade_hi is not None:
            hi = min(hi, fade_hi)
        self.fade_lo = max(lo, 1e-6)
        self.fade_hi = max(hi, 1e-6)

    def _fade(self, theta):
        t_lo, t_hi = self.theta_nodes[0], self.theta_nodes[-1]
        up = _smoothstep((theta - (t_lo - self.fade_lo)) / self.fade_lo)
        down = 1.0 - _smoothstep((theta - t_hi) / self.fade_hi)
        return up * down

    def value(self, r, theta):
        g = np.interp(theta, self.theta_nodes, self.g_nodes)
        base = g if self.y_fn is None else g + self.y_fn(r)
        return self._fade(theta) * base

    def d_dr(self, r, theta):
        if self.y_prime_fn is None:
            return np.zeros_like(np.asarray(r, dtype=float))
        return self._fade(theta) * self.y_prime_fn(r)


@dataclass
class AnnulusField:
    k: int
    piece_fns: list
    seminorms: dict = field(default_factory=dict)

    def value(self, r, theta):
        out = np.zeros(np.broadcast(r, theta).shape)
        for fn in self.piece_fns:
            out += fn.value(r, theta)
        return out

    def d_dr(self, r, theta):
        out = np.zeros(np.broadcast(r, theta).shape)
        for fn in self.piece_fns:
            out += fn.d_dr(r, theta)
        return out

    def measure_seminorms(self, alpha, n_r=24, n_th=48, rng=None):
        """Sampled sup and Hölder seminorms of f_k and its radial
        derivative, as ratios against the dyadic budgets."""
        k = self.k
        r = np.geomspace(2.0 ** (k - 1) * 1.001, 2.0 ** (k + 1) * 0.999, n_r)
        th = np.linspace(-np.pi * 0.98, np.pi * 0.98, n_th)
        R, TH = np.meshgrid(r, th, indexing="ij")
        V = self.value(R, TH)
        D = self.d_dr(R, TH)
        pts = np.column_stack([(R * np.cos(TH)).ravel(),
                               (R * np.sin(TH)).ravel()])
        sub = slice(0, None, 3)
        self.seminorms = {
            "sup_f": float(np.max(np.abs(V))) / 2.0 ** ((1 + alpha) * k),
            "holder_f": holder_seminorm_pairs(V.ravel()[sub], pts[sub], alpha)
            / 2.0 ** k,
            "sup_df": float(np.max(np.abs(D))) / 2.0 ** (alpha * k),
            "holder_df": holder_seminorm_pairs(D.ravel()[sub], pts[sub], alpha),
        }
        return self.seminorms


def _net_indices(t, i_lo, i_hi, delta):
    """Greedy left-to-right delta-net among node indices [i_lo, i_hi]."""
    picks = [i_lo]
    for i in range(i_lo + 1, i_hi + 1):
        if t[i] - t[picks[-1]] >= delta:
            picks.append(i)
    if picks[-1] != i_hi and t[i_hi] - t[picks[-1]] >= 0.25 * delta:
        picks.append(i_hi)
    return picks


def extend_fk(k, decomp, p, s):
    """Extension of f0 to the annulus at scale k, honoring the case tag.

    Transport cases carry f0 along rays of constant angle; net cases add
    a radial interpolant through the delta-net values (full interpolation
    for case III, affine for case IV) so that the curve values are
    reproduced exactly.  A degenerate net demotes III to IV (flagged).
    """
    plist = decomp.pieces.get(k)
    if not plist:
        raise SynthesisError(f"annulus k={k} has no parameter interval")
    t = p.t_nodes
    alpha = s.alpha
    k_lo, k_hi = 2.0 ** (k - 1), 2.0 ** (k + 1)
    fade_caps = [(None, None)] * len(plist)
    if len(plist) == 2:
        gap = plist[1].theta_lo - plist[0].theta_hi
        cap = min(FADE_WIDTH, 0.45 * gap)
        fade_caps = [(None, cap), (cap, None)]
    fns = []
    for piece, (cap_lo, cap_hi) in zip(plist, fade_caps):
        i_lo, i_hi = piece.node_slice
        th_nodes = s.phi0[i_lo:i_hi + 1]
        f0_nodes = s.f0[i_lo:i_hi + 1]
        rho_nodes = p.rho[i_lo:i_hi + 1]
        if th_nodes.size == 1:
            th_nodes = np.concatenate([th_nodes, th_nodes + 1e-12])
            f0_nodes = np.concatenate([f0_nodes, f0_nodes])
            rho_nodes = np.concatenate([rho_nodes, rho_nodes])
        case = piece.case
        if case in ("I", "II"):
            fns.append(_PieceField(th_nodes, f0_nodes,
                                   fade_lo=cap_lo, fade_hi=cap_hi))
            continue
        picks = _net_indices(t, i_lo, i_hi, piece.delta)
        if case == "III" and len(picks) < 2:
            case = "IV"
            piece.fallback = True
        if case == "III":
            xs = p.rho[picks]
            ys = s.f0[picks]
            order = np.argsort(xs)
            xs, ys = xs[order], ys[order]
            keep = np.concatenate(([True], np.diff(xs) > 1e-14))
            xs, ys = xs[keep], ys[keep]
            if xs.size < 2:
                case = "IV"
                piece.fallback = True
            else:
                sf = SampledFunction(xs, ys)
                dx = np.diff(xs)
                sec = np.diff(ys) / dx
                T1 = max(np.max(np.abs(sec)), 1e-12)
                T2 = 1e-12
                for j in range(len(sec) - 1):
                    diam = xs[j + 2] - xs[j]
                    T2 = max(T2, abs(sec[j + 1] - sec[j]) / diam ** alpha)
                span = k_hi - k_lo
                T1 = max(T1, T2 * (span / INTERVAL_LENGTH_FACTOR) ** alpha
                         * (1 + 1e-9))
                try:
                    ext = whitney_extend(sf, alpha, T1 * (1 + 1e-9),
                                         T2 * (1 + 1e-9), (k_lo, k_hi))
                except HypothesisViolation as exc:
                    raise SynthesisError(
                        f"annulus k={k}: net data violates extension "
                        f"hypotheses: {exc}") from exc
                g_nodes = f0_nodes - ext(rho_nodes)
                fns.append(_PieceField(th_nodes, g_nodes, y_fn=ext,
                                       y_prime_fn=ext.deriv,
                                       fade_lo=cap_lo, fade_hi=cap_hi))
                piece.case = "III"
                continue
        if case == "IV":
            j0, j1 = i_lo, i_hi
            x0, x1 = p.rho[j0], p.rho[j1]
            if abs(x1 - x0) < 1e-14:
                fns.append(_PieceField(th_nodes, f0_nodes,
                                       fade_lo=cap_lo, fade_hi=cap_hi))
                piece.case = "II"
                continue
            slope = (s.f0[j1] - s.f0[j0]) / (x1 - x0)
            inter = s.f0[j0] - slope * x0

            def y_fn(r, a=slope, b=inter):
                return a * np.asarray(r, dtype=float) + b

            def y_prime_fn(r, a=slope):
                return np.full_like(np.asarray(r, dtype=float), a)

            g_nodes = f0_nodes - y_fn(rho_nodes)
            fns.append(_PieceField(th_nodes, g_nodes, y_fn=y_fn,
                                   y_prime_fn=y_prime_fn,
                                   fade_lo=cap_lo, fade_hi=cap_hi))
            piece.case = "IV"
    fld = AnnulusField(k=k, piece_fns=fns)
    fld.measure_seminorms(alpha)
    return fld


# -- gluing ---------------------------------------------------------------------


class RadialCorrectionField:
    """f = chi(r) * sum_k w_k(r) f_k(r, theta), zero below m/2.

    The weights w_k(r) = bump(log2 r - k) form a partition of unity, so at
    every radius at most two annulus fields contribute; chi is an extra
    C^2 radial cutoff that kills the field identically on r < m/2 while
    leaving it untouched at the curve radii (all >= m).
    """

    def __init__(self, fields_by_k, m):
        self.fields = dict(fields_by_k)
        self.m = float(m)
        self._chi_lo = 0.5 * self.m
        self._chi_hi = 0.98 * self.m

    def _chi(self, r):
        return _smoothstep((r - self._chi_lo) / (self._chi_hi - self._chi_lo))

    def _chi_prime(self, r):
        return _smoothstep_prime(
            (r - self._chi_lo) / (self._chi_hi - self._chi_lo)) \
            / (self._chi_hi - self._chi_lo)

    def _weighted(self, r, theta, want_deriv):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        r, theta = np.broadcast_arrays(r, theta)
        val = np.zeros(r.shape)
        der = np.zeros(r.shape) if want_deriv else None
        live = r > self._chi_lo
        if not np.any(live):
            return val, der
        rl = r[live]
        tl = theta[live]
        x = np.log2(rl)
        j0 = np.floor(x).astype(int)
        for off in (0, 1):
            j = j0 + off
            w = bump_weight(x - j)
            for k in np.unique(j):
                fld = self.fields.get(int(k))
                if fld is None:
                    continue
                sel = (j == k) & (w > 0)
                if not np.any(sel):
                    continue
                sub_val = np.zeros(rl.shape)
                sub_val[sel] = fld.value(rl[sel], tl[sel])
                chunk = np.zeros(r.shape)
                chunk[live] = w * sub_val
                val += chunk
                if want_deriv:
                    wp = bump_weight_prime(x - j) / (rl * LN2)
                    sub_der = np.zeros(rl.shape)
                    sub_der[sel] = fld.d_dr(rl[sel], tl[sel])
                    chunk_d = np.zeros(r.shape)
                    chunk_d[live] = wp * sub_val + w * sub_der
                    der += chunk_d
        return val, der

    def value(self, r, theta):
        raw, _ = self._weighted(r, theta, want_deriv=False)
        return self._chi(np.asarray(r, dtype=float)) * raw

    def value_and_deriv(self, r, theta):
        raw, draw = self._weighted(r, theta, want_deriv=True)
        r_arr = np.asarray(r, dtype=float)
        chi = self._chi(r_arr)
        return chi * raw, chi * draw + self._chi_prime(r_arr) * raw


def glue_f(fields_by_k, decomp):
    """Glue per-annulus extensions with the log2-dyadic partition of unity."""
    needed = set(decomp.pieces.keys())
    missing = needed - set(int(k) for k in fields_by_k)
    if missing:
        raise SynthesisError(f"coverage gap: no extension for annuli {missing}")
    return RadialCorrectionField(fields_by_k, decomp.m)


# -- assembly --------------------------------------------------------------------


@dataclass
class ThetaMap:
    """r-preserving piecewise-linear deformation of the angle and its
    exact piecewise-linear inverse."""
    nodes_from: np.ndarray
    nodes_to: np.ndarray

    def forward(self, theta):
        return np.interp(theta, self.nodes_from, self.nodes_to)

    def inverse(self, theta):
        return np.interp(theta, self.nodes_to, self.nodes_from)

    def lipschitz_constants(self):
        slopes = np.diff(self.nodes_to) / np.diff(self.nodes_from)
        return float(np.max(slopes)), float(np.max(1.0 / slopes))


@dataclass
class SynthesisResult:
    metric: MetricGrid
    gamma: GeodesicPath
    theta_map: ThetaMap
    K_grid: np.ndarray
    correction: RadialCorrectionField
    summary: object
    decomposition: AnnulusDecomposition
    diagnostics: dict = field(default_factory=dict)


def _dyadic_r_nodes(r_min, r_max):
    k_bot = int(np.floor(np.log2(r_min)))
    k_top = int(np.ceil(np.log2(r_max)))
    nodes = []
    for k in range(k_bot, k_top + 1):
        band = np.geomspace(2.0 ** k, 2.0 ** (k + 1), R_NODES_PER_OCTAVE,
                            endpoint=False)
        nodes.append(band)
    r = np.concatenate(nodes)
    r = r[(r >= r_min) & (r <= r_max)]
    r = np.unique(np.concatenate([[r_min], r, [r_max]]))
    return r


def _cumulative_radial(field, r_nodes, thetas, chunk=256):
    """Cumulative trapezoid of f along each ray; rows follow ``thetas``."""
    thetas = np.asarray(thetas, dtype=float)
    n_th, n_r = thetas.size, r_nodes.size
    F = np.empty((n_th, n_r))
    dr = np.diff(r_nodes)
    cum = np.empty((n_th, n_r))
    for a in range(0, n_th, chunk):
        b = min(a + chunk, n_th)
        R = np.tile(r_nodes, (b - a, 1))
        TH = np.tile(thetas[a:b, None], (1, n_r))
        Fc = field.value(R, TH)
        F[a:b] = Fc
        inc = 0.5 * (Fc[:, 1:] + Fc[:, :-1]) * dr[None, :]
        cum[a:b, 0] = 0.0
        cum[a:b, 1:] = np.cumsum(inc, axis=1)
    return F, cum


def _curve_angle(p, coefficient, theta, sweeps=1):
    """Unit-speed angle of the curve: phi' = sqrt(1 - rho'^2) / G.

    G on the curve is ``coefficient(rho, theta)``, taken at the angles
    ``theta`` of the nodes and at their means on the interval midpoints.
    Each sweep integrates by per-interval Simpson, anchors the angle to
    vanish at the profile minimum and feeds it back as ``theta``, so
    several sweeps solve for a coefficient read at the angle itself.
    Returns phi and phi' at the nodes (phi' from the last sweep's G) and
    rho' at the nodes.
    """
    t = p.t_nodes
    tm = 0.5 * (t[1:] + t[:-1])
    rd = np.asarray(p.deriv(t), dtype=float)
    speed = np.sqrt(np.clip(1.0 - rd * rd, 0.0, None))
    rho_m = np.asarray(p.value(tm), dtype=float)
    rd_m = np.asarray(p.deriv(tm), dtype=float)
    speed_m = np.sqrt(np.clip(1.0 - rd_m * rd_m, 0.0, None))
    dt = np.diff(t)
    i0 = p.argmin_node()
    for _ in range(sweeps):
        integrand = speed / coefficient(p.rho, theta)
        integrand_m = speed_m / coefficient(rho_m,
                                            0.5 * (theta[1:] + theta[:-1]))
        pieces = dt / 6.0 * (integrand[:-1] + 4.0 * integrand_m
                             + integrand[1:])
        cum = np.concatenate(([0.0], np.cumsum(pieces)))
        theta = cum - cum[i0]
    return theta, integrand, rd


def assemble_metric(p, s, decomp, correction, r_pad=1.05):
    """Build the metric grid, the deformed curve, and the angle map.

    G(r, theta) = sin_k(K0, r) * exp of the radial integral of the glued
    correction at the pulled-back angle; radial derivatives come from the
    defining relations (no numerical differentiation).
    """
    K0 = s.K0
    if abs(K0) > s.H * 1.5:
        raise SynthesisError(
            f"|K0| = {abs(K0):.4g} far above H = {s.H}: checker should "
            "have rejected this profile")
    t = p.t_nodes
    rho = p.rho
    rho_max = float(np.max(rho))
    R = rho_max * r_pad
    r_min = 1e-4 * R

    # reference coefficient along the curve: radial integrals at phi0
    r_sub = _dyadic_r_nodes(r_min, rho_max)

    def reference_coefficient(r, theta):
        _, cum = _cumulative_radial(correction, r_sub, theta)
        idx = np.clip(np.searchsorted(r_sub, r, side="right") - 1,
                      0, len(r_sub) - 2)
        base = cum[np.arange(len(r)), idx]
        f_lo = correction.value(r_sub[idx], theta)
        f_at = correction.value(r, theta)
        integral = base + 0.5 * (f_lo + f_at) * (r - r_sub[idx])
        return sin_k(K0, r) * np.exp(integral)

    phi, phi_dot, rd = _curve_angle(p, reference_coefficient, s.phi0)

    if np.any(np.diff(phi) <= 0):
        bad = int(np.argmax(np.diff(phi) <= 0))
        raise SynthesisError(
            f"deformed angle not strictly increasing at t = {t[bad]:.6g}")

    # piecewise-linear theta map, identity outside a padded sweep
    lo0, hi0 = float(s.phi0[0]), float(s.phi0[-1])
    lo1, hi1 = float(phi[0]), float(phi[-1])
    gap_hi = max(0.3, 3.0 * abs(hi1 - hi0))
    gap_lo = max(0.3, 3.0 * abs(lo1 - lo0))
    edge_hi = min(np.pi * 0.999, max(hi0, hi1) + gap_hi)
    edge_lo = max(-np.pi * 0.999, min(lo0, lo1) - gap_lo)
    if edge_hi <= max(hi0, hi1) or edge_lo >= min(lo0, lo1):
        raise SynthesisError("swept sector leaves no room for the angle map")
    stride = max(1, len(t) // 512)
    sub = np.unique(np.concatenate([np.arange(0, len(t), stride),
                                    [len(t) - 1]]))
    nodes_from = np.concatenate([[-np.pi, edge_lo], s.phi0[sub], [edge_hi, np.pi]])
    nodes_to = np.concatenate([[-np.pi, edge_lo], phi[sub], [edge_hi, np.pi]])
    if np.any(np.diff(nodes_from) <= 0) or np.any(np.diff(nodes_to) <= 0):
        raise SynthesisError("theta map nodes not strictly increasing")
    tmap = ThetaMap(nodes_from=nodes_from, nodes_to=nodes_to)

    # grid resolution: resolve the finest angular net scale
    scale = np.inf
    for piece in decomp.all_pieces():
        scale = min(scale, piece.lam * piece.delta)
    if not np.isfinite(scale) or scale <= 0:
        scale = 0.1
    n_theta = int(np.clip(np.ceil(2 * np.pi / scale), 64, 4096))
    theta_nodes = -np.pi + 2 * np.pi * np.arange(n_theta) / n_theta
    theta_back = tmap.inverse(theta_nodes)

    r_nodes = _dyadic_r_nodes(r_min, R)
    F_grid, cum_grid = _cumulative_radial(correction, r_nodes, theta_back)
    _, dF_grid = correction.value_and_deriv(
        np.tile(r_nodes, (n_theta, 1)),
        np.tile(theta_back[:, None], (1, len(r_nodes))))
    sinr = sin_k(K0, r_nodes)[None, :]
    cotr = cot_k(K0, r_nodes)[None, :]
    G = sinr * np.exp(cum_grid)
    dG = (cotr + F_grid) * G
    K_grid = K0 - (F_grid ** 2 + 2.0 * F_grid * cotr + dF_grid)

    H_grid = max(float(np.max(np.abs(K_grid))) * 1.05, abs(K0) * 1.05, 1e-6)
    metric = MetricGrid(r_nodes, theta_nodes, G, dG_dr=dG,
                        H=H_grid, alpha=s.alpha, validate=False)

    rdd = np.asarray(p.second_deriv(t), dtype=float)
    gamma = GeodesicPath(t_nodes=t, rho=rho, phi=phi, rho_dot=rd,
                         phi_dot=phi_dot, rho_ddot=rdd,
                         unit_speed_residual=0.0)
    lips = tmap.lipschitz_constants()
    diagnostics = {
        "n_theta": n_theta,
        "n_r": len(r_nodes),
        "H_grid": H_grid,
        "bilipschitz": max(lips),
        "K0": K0,
    }
    return SynthesisResult(metric=metric, gamma=gamma, theta_map=tmap,
                           K_grid=K_grid, correction=correction, summary=s,
                           decomposition=decomp,
                           diagnostics=diagnostics)


def synthesize(p, consts):
    """Full pipeline: analyze, decompose, extend, glue, assemble."""
    s = analyze(p, H=consts.H, alpha=consts.alpha)
    if abs(s.K0) > consts.c_kappa * consts.H * 1.5:
        raise SynthesisError(
            f"|K0| = {abs(s.K0):.4g} above the admissible bound; "
            "run the checker first")
    decomp = decompose_annuli(p, s)
    fields = {k: extend_fk(k, decomp, p, s) for k in decomp.pieces}
    correction = glue_f(fields, decomp)
    result = assemble_metric(p, s, decomp, correction)
    result.diagnostics["piece_seminorms"] = {
        int(k): fields[k].seminorms for k in fields}
    return result


# -- verification -----------------------------------------------------------------


def _sample_holder(values, r_nodes, theta_nodes, alpha, rng, resolution,
                   n_cross=10_000):
    """Hölder seminorm of a grid function by multi-scale pair sampling:
    all pairs within decimated annulus blocks plus random cross pairs.
    Euclidean chordal distances; a lower-bound estimator.  Only the pair
    differences beyond the summed per-node ``resolution`` are counted.
    NaN values give NaN.
    """
    n_t, n_r = values.shape
    partial = [0.0]
    k_lo = int(np.floor(np.log2(r_nodes[0])))
    k_hi = int(np.ceil(np.log2(r_nodes[-1])))
    th_idx = np.arange(0, n_t, max(1, n_t // 8))
    for k in range(k_lo, k_hi + 1):
        r_idx = np.flatnonzero((r_nodes >= 2.0 ** k)
                               & (r_nodes < 2.0 ** (k + 1)))[::4]
        if r_idx.size == 0:
            continue
        R, TH = np.meshgrid(r_nodes[r_idx], theta_nodes[th_idx],
                            indexing="xy")
        pts = np.column_stack([(R * np.cos(TH)).ravel(),
                               (R * np.sin(TH)).ravel()])
        partial.append(holder_seminorm_pairs(
            values[np.ix_(th_idx, r_idx)].ravel(), pts, alpha,
            resolution=resolution[np.ix_(th_idx, r_idx)].ravel()))
    it = rng.integers(0, n_t, size=n_cross)
    ir = rng.integers(0, n_r, size=n_cross)
    jt = rng.integers(0, n_t, size=n_cross)
    jr = rng.integers(0, n_r, size=n_cross)
    r1, th1 = r_nodes[ir], theta_nodes[it]
    r2, th2 = r_nodes[jr], theta_nodes[jt]
    d = np.sqrt(np.maximum(r1 ** 2 + r2 ** 2
                           - 2 * r1 * r2 * np.cos(th1 - th2), 0.0))
    dv = np.maximum(np.abs(values[it, ir] - values[jt, jr])
                    - resolution[it, ir] - resolution[jt, jr], 0.0)
    ok = d > 0
    if np.any(ok):
        partial.append(np.max(dv[ok] / d[ok] ** alpha))
    # exhaustive adjacent-node sweep: guarantees single-node defects are
    # seen regardless of the random sampling
    dr = np.diff(r_nodes)
    dv_r = np.maximum(np.abs(np.diff(values, axis=1))
                      - resolution[:, 1:] - resolution[:, :-1], 0.0)
    partial.append(np.max(dv_r / dr[None, :] ** alpha))
    if n_t > 1:
        dth = 2 * np.pi / n_t
        arc = 2.0 * r_nodes * np.sin(dth / 2.0)
        rolled = np.roll(values, -1, axis=0)
        rolled_res = np.roll(resolution, -1, axis=0)
        dv_t = np.maximum(np.abs(rolled - values)
                          - resolution - rolled_res, 0.0)
        partial.append(np.max(dv_t / arc[None, :] ** alpha))
    # np.max, unlike the builtin, keeps a NaN partial maximum
    return float(np.max(partial))


def verify_synthesis(res, p, consts, tol_geo=1e-5, tol_unit=1e-6,
                     tol_dist=1e-4, n_dist_pairs=4, seed=0):
    """Independent checks of a synthesis result; always returns a report.

    Curvature is recomputed from G by radial finite differences (never
    from the stored analytic derivatives), the geodesic equation is
    evaluated through the grid interpolant, and pairwise distances along
    the curve are measured by angle shooting.
    """
    return _verify(res.metric, res.gamma, res.summary, res.correction,
                   res.diagnostics["bilipschitz"], consts, tol_geo, tol_dist,
                   seed, tol_unit=tol_unit, n_dist_pairs=n_dist_pairs)


def verify_grid(grid, p, consts, tol_geo=1e-5, tol_dist=1e-4, seed=0):
    """Verify a metric grid against a profile, e.g. a grid read from disk.

    The angle of the curve is re-integrated from the grid coefficient
    (convention: it vanishes at the profile minimum), then the checks of
    ``verify_synthesis`` run, less those that need the correction field
    or the angle map (neither is stored with a grid).
    """
    t = p.t_nodes
    phi, phi_dot, rd = _curve_angle(p, grid.value, np.zeros_like(t),
                                    sweeps=5)
    gamma = GeodesicPath(t_nodes=t, rho=p.rho, phi=phi, rho_dot=rd,
                         phi_dot=phi_dot,
                         rho_ddot=np.asarray(p.second_deriv(t), dtype=float),
                         unit_speed_residual=0.0)
    s = analyze(p, H=consts.H, alpha=consts.alpha)
    return _verify(grid, gamma, s, None, None, consts, tol_geo, tol_dist,
                   seed)


def _verify(grid, gamma, s, correction, bilipschitz, consts, tol_geo,
            tol_dist, seed, tol_unit=1e-6, n_dist_pairs=4):
    """The verification battery; ``correction`` and ``bilipschitz`` are
    None when only the grid is known."""
    rng = np.random.default_rng(seed)
    alpha = consts.alpha
    H = consts.H
    records = []

    # construction exactness below the support floor
    m = s.m
    r_nodes = grid.r_nodes
    inner = r_nodes <= 0.5 * m
    if np.any(inner):
        ratio = grid.G[:, inner] / sin_k(s.K0, r_nodes[inner])[None, :]
        worst = float(np.max(np.abs(ratio - 1.0)))
    else:
        worst = 0.0
    records.append(CheckerRecord.from_margin(
        "boundary_limit", worst / 1e-9))

    from .special_functions import psi as _psi
    ratio_env = grid.G / r_nodes[None, :]
    lo_env = _psi(grid.H * r_nodes ** 2)
    hi_env = _psi(-grid.H * r_nodes ** 2)
    env_margin = max(np.max(lo_env[None, :] / ratio_env),
                     np.max(ratio_env / hi_env[None, :]))
    records.append(CheckerRecord.from_margin(
        "radius_ratio_envelope", float(env_margin) / (1 + 1e-6)))

    # curvature bounds from finite differences on G; FD values carry a
    # rounding resolution that blows up at geometrically small spacings,
    # so only super-resolution excesses count
    K_fd, K_res = grid.curvature_fd(with_resolution=True)
    sup_excess = np.maximum(np.abs(K_fd) - K_res, 0.0)
    sup_k = float(np.max(sup_excess))
    records.append(CheckerRecord.from_margin(
        "curvature_sup", sup_k / (consts.c_k_sup * H)))
    hol_k = _sample_holder(K_fd, r_nodes, grid.theta_nodes, alpha, rng,
                           resolution=K_res)
    records.append(CheckerRecord.from_margin(
        "curvature_holder",
        hol_k / (consts.c_k_holder * H ** (1 + alpha / 2)),
        detail=f"sampled [K]_alpha = {hol_k:.4g}"))

    # analytic-route Hölder budget of f^2 + 2 f cot + df/dr
    if correction is not None:
        rs = np.geomspace(max(0.55 * m, r_nodes[0]), r_nodes[-1] * 0.999, 40)
        ths = np.linspace(-np.pi * 0.95, np.pi * 0.95, 40)
        RS, THS = np.meshgrid(rs, ths, indexing="ij")
        fv, dfv = correction.value_and_deriv(RS, THS)
        gam_term = fv ** 2 + 2 * fv * cot_k(s.K0, RS) + dfv
        pts = np.column_stack([(RS * np.cos(THS)).ravel(),
                               (RS * np.sin(THS)).ravel()])
        hol_gamma = holder_seminorm_pairs(gam_term.ravel()[::2], pts[::2],
                                          alpha)
        records.append(CheckerRecord.from_margin(
            "f_holder_budget", hol_gamma / consts.c_f_holder_budget,
            detail=f"sampled seminorm = {hol_gamma:.4g}"))

    # geodesic equation along the curve, h through the grid interpolant
    t = gamma.t_nodes
    g_on, h_on = grid.value_and_h(gamma.rho, gamma.phi)
    resid_geo = np.abs(gamma.rho_ddot - h_on * (1.0 - gamma.rho_dot ** 2))
    worst_i = int(np.argmax(resid_geo))
    records.append(CheckerRecord.from_margin(
        "geodesic_residual", float(np.max(resid_geo)) / tol_geo,
        witness=[t[worst_i]]))

    # unit-speed residual of the stored curve
    from .geodesy import _unit_speed_residual
    res_unit = _unit_speed_residual(grid, t, gamma.rho, gamma.phi,
                                    gamma.rho_dot)
    records.append(CheckerRecord.from_margin(
        "unit_speed", res_unit / tol_unit))

    # correction interpolation and support
    if correction is not None:
        f_curve = correction.value(gamma.rho, s.phi0)
        interp_err = float(np.max(np.abs(f_curve - s.f0)))
        records.append(CheckerRecord.from_margin(
            "correction_interpolation", interp_err / 1e-8))
        if np.any(inner):
            RR, TT = np.meshgrid(r_nodes[inner], grid.theta_nodes)
            sup_inner = float(np.max(np.abs(correction.value(RR, TT))))
        else:
            sup_inner = 0.0
        records.append(CheckerRecord.from_margin(
            "correction_support", sup_inner / 1e-12))

    # bi-Lipschitz constant of the angle map
    if bilipschitz is not None:
        records.append(CheckerRecord.from_margin(
            "bilipschitz", bilipschitz / consts.c_bilipschitz))

    # independent pairwise distances by shooting
    tol_d = tol_dist * grid.R
    n = len(t)
    picks = np.linspace(0.12, 0.88, n_dist_pairs)
    worst_d = 0.0
    witness_d = []
    for frac in picks:
        i = int(frac * (n - 1))
        j = int(((frac + 0.35) % 1.0) * (n - 1))
        if i == j:
            continue
        pi = PolarPoint(gamma.rho[i], gamma.phi[i])
        pj = PolarPoint(gamma.rho[j], gamma.phi[j])
        try:
            d = distance(grid, pi, pj)
        except Exception as exc:  # report, never crash the verifier
            records.append(CheckerRecord.from_margin(
                "distance_pairs", 1e9, witness=[t[i], t[j]],
                detail=f"shooting failed: {exc}"))
            break
        err = abs(d - abs(t[i] - t[j]))
        if err > worst_d:
            worst_d = err
            witness_d = [t[i], t[j]]
    else:
        records.append(CheckerRecord.from_margin(
            "distance_pairs", worst_d / tol_d, witness=witness_d))

    return CheckerReport(
        records=records, constants_version=consts.version,
        meta={"K0": s.K0, "m": s.m, "H_grid": grid.H,
              "sup_K_fd": sup_k, "n_theta": len(grid.theta_nodes)})
