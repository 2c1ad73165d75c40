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

from dataclasses import dataclass

import numpy as np

from .special_functions import sin_k, cot_k, psi
from .whitney import (SampledFunction, whitney_extend, extension_bounds,
                      holder_seminorm_pairs, HypothesisViolation)
from .profile_analysis import analyze, curve_angle, kappa
from .geodesy import (MetricGrid, GeodesicPath, PolarPoint, distance,
                      five_point_stencil, _unit_speed_residual)
from .report import CheckerRecord, CheckerReport

LN2 = np.log(2.0)
R_NODES_PER_OCTAVE = 64     # geometric radial grid nodes per dyadic band
MIN_SECTOR_GAP = 0.35       # angular separation asserted between split pieces
FADE_WIDTH = 0.45           # angular width of the theta cutoff beyond the sweep
TOL_UNIT_SPEED = 1e-6       # unit-speed residual of the curve that margin 1 allows


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
    net: tuple = ()        # radial net node indices by radius (III, IV)


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


def _rates(s, k, i_lo, i_hi, alpha):
    """Angular rate lambda (geometric mean of the extremes of phi0' over
    the nodes [i_lo, i_hi]) and net scale delta of an annulus piece."""
    phi0p = s.phi0_prime[i_lo:i_hi + 1]
    lam = float(np.sqrt(np.max(phi0p) * np.min(phi0p)))
    return lam, lam ** alpha * 2.0 ** (k * (1 + alpha))


def _net_indices(t, i_lo, i_hi, delta):
    """Greedy left-to-right delta-net among node indices [i_lo, i_hi]."""
    picks = [i_lo]
    for i in range(i_lo + 1, i_hi + 1):
        if t[i] - t[picks[-1]] >= delta:
            picks.append(i)
    if picks[-1] != i_hi and t[i_hi] - t[picks[-1]] >= 0.25 * delta:
        picks.append(i_hi)
    return picks


def _by_radius(rho, picks):
    """The node indices ``picks`` ordered by radius, one per radius
    (radii within 1e-14 count as one)."""
    picks = np.asarray(picks)
    picks = picks[np.argsort(rho[picks])]
    keep = np.concatenate(([True], np.diff(rho[picks]) > 1e-14))
    return tuple(int(i) for i in picks[keep])


def _piece_case(p, s, k, i_lo, i_hi, alpha):
    """Case predicate in order I, II, III, IV plus lambda, delta and the
    radial net.  Case III interpolates the delta-net, case IV the two
    end nodes; a net with fewer than two distinct radii demotes III to
    IV, and IV to II."""
    rd = np.asarray(p.deriv(p.t_nodes[i_lo:i_hi + 1]), dtype=float)
    lam, delta = _rates(s, k, i_lo, i_hi, alpha)
    length = float(p.t_nodes[i_hi] - p.t_nodes[i_lo])
    net = ()
    if np.min(np.abs(rd)) <= 0.5:
        case = "I"
    elif alpha < 1.0 and length <= (2.0 ** k * lam ** alpha) ** (1.0 / (1.0 - alpha)):
        case = "II"
    else:
        case = "III" if length >= delta else "IV"
        if case == "III":
            net = _by_radius(p.rho, _net_indices(p.t_nodes, i_lo, i_hi, delta))
        if len(net) < 2:
            case = "IV"
            net = _by_radius(p.rho, [i_lo, i_hi])
        if len(net) < 2:
            case, net = "II", ()
    return case, lam, delta, net


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
            lam, delta = _rates(s, k, i_lo, i_hi, alpha)
            plist.append(AnnulusPiece(
                k=k, side="both", case="I", lam=lam, delta=delta,
                node_slice=(i_lo, i_hi),
                theta_lo=float(s.phi0[i_lo]), theta_hi=float(s.phi0[i_hi])))
        else:
            for run_idx, (i_lo, i_hi) in enumerate(runs):
                side = "both" if len(runs) == 1 else ("-" if run_idx == 0 else "+")
                case, lam, delta, net = _piece_case(p, s, k, i_lo, i_hi, alpha)
                plist.append(AnnulusPiece(
                    k=k, side=side, case=case, lam=lam, delta=delta,
                    node_slice=(i_lo, i_hi),
                    theta_lo=float(s.phi0[i_lo]), theta_hi=float(s.phi0[i_hi]),
                    net=net))
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
    """One annulus piece as a function of (r, theta):
    fade(theta) * (g(theta) + y(r)).

    The theta part g carries the profile values; the optional radial
    part y, a ``WhitneyExtension`` through the piece's radial net,
    carries the net interpolant (absent for the transport cases).  The
    fade is a C^2 cutoff over FADE_WIDTH beyond the swept range, clamped
    inside (-pi, pi).
    """

    def __init__(self, theta_nodes, g_nodes, radial=None,
                 fade_lo=None, fade_hi=None):
        self.theta_nodes = theta_nodes
        self.g_nodes = g_nodes
        self.radial = radial
        t_lo, t_hi = theta_nodes[0], theta_nodes[-1]
        lo = min(FADE_WIDTH, 0.9 * (t_lo + np.pi))
        hi = min(FADE_WIDTH, 0.9 * (np.pi - t_hi))
        if fade_lo is not None:
            lo = min(lo, fade_lo)
        if fade_hi is not None:
            hi = min(hi, fade_hi)
        self.fade_lo = max(lo, 1e-6)
        self.fade_hi = max(hi, 1e-6)

    def fade(self, theta):
        t_lo, t_hi = self.theta_nodes[0], self.theta_nodes[-1]
        up = _smoothstep((theta - (t_lo - self.fade_lo)) / self.fade_lo)
        down = 1.0 - _smoothstep((theta - t_hi) / self.fade_hi)
        return up * down

    def term(self, theta, a, b):
        """fade(theta) * (a + g(theta) * b) for radial factors a and b;
        ``a`` is None for a piece without a radial part.  One expression
        per case, so numpy reuses its temporaries on large grids."""
        g = np.interp(theta, self.theta_nodes, self.g_nodes)
        if a is None:
            return self.fade(theta) * (g * b)
        return self.fade(theta) * (a + g * b)


@dataclass
class AnnulusField:
    k: int
    pieces: list           # _PieceField


def extend_fk(k, decomp, p, s):
    """Extension of f0 to the annulus at scale k, honoring the case tag.

    Transport cases (I, II) carry f0 along rays of constant angle; net
    cases (III, IV) add a radial interpolant through the values at the
    piece's radial net, so that the curve values are reproduced exactly.
    T1 and T2 come from ``extension_bounds``, the same pairs and triples
    ``whitney_extend`` checks, so only non-finite net data is refused.
    On the two-node net of case IV the extension is the secant line.
    """
    plist = decomp.pieces.get(k)
    if not plist:
        raise SynthesisError(f"annulus k={k} has no parameter interval")
    interval = (2.0 ** (k - 1), 2.0 ** (k + 1))
    fade_caps = [(None, None)] * len(plist)
    if len(plist) == 2:
        gap = plist[1].theta_lo - plist[0].theta_hi
        cap = min(FADE_WIDTH, 0.45 * gap)
        fade_caps = [(None, cap), (cap, None)]
    pieces = []
    for piece, (cap_lo, cap_hi) in zip(plist, fade_caps):
        i_lo, i_hi = piece.node_slice
        th_nodes = s.phi0[i_lo:i_hi + 1]
        g_nodes = s.f0[i_lo:i_hi + 1]
        rho_nodes = p.rho[i_lo:i_hi + 1]
        if th_nodes.size == 1:
            th_nodes = np.concatenate([th_nodes, th_nodes + 1e-12])
            g_nodes = np.concatenate([g_nodes, g_nodes])
            rho_nodes = np.concatenate([rho_nodes, rho_nodes])
        radial = None
        if piece.net:
            net = list(piece.net)
            sf = SampledFunction(p.rho[net], s.f0[net])
            bounds = extension_bounds(sf, s.alpha, interval)
            try:
                radial = whitney_extend(sf, s.alpha, *bounds, interval)
            except HypothesisViolation as exc:
                raise SynthesisError(
                    f"annulus k={k}: net data violates extension "
                    f"hypotheses: {exc}") from exc
            g_nodes = g_nodes - radial(rho_nodes)
        pieces.append(_PieceField(th_nodes, g_nodes, radial,
                                  fade_lo=cap_lo, fade_hi=cap_hi))
    return AnnulusField(k=k, pieces=pieces)


# -- gluing ---------------------------------------------------------------------


class RadialCorrectionField:
    """f = chi(r) * sum_k w_k(r) f_k(r, theta), zero below m/2.

    The weights w_k(r) = bump(log2 r - k) form a partition of unity, so at
    every radius at most two annulus fields contribute; chi is an extra
    C^2 radial cutoff that kills the field identically on r < m/2 while
    leaving it untouched at the curve radii (all >= m).

    Each piece p of f_k is fade_p(theta) * (g_p(theta) + y_p(r)), so f is
    a sum of separable terms fade_p(theta) * (A(r) + g_p(theta) * B(r))
    with B = chi w_k and A = B y_p.  This is the one route by which f is
    evaluated: ``value`` sums the terms with (A, B), the radial
    derivative with (A', B'), and ``cumulative_radial`` with the 1-D
    cumulative trapezoids of A and B.  y_p is read only where w_k > 0,
    and ``value`` forms each term only over the bounding box of that
    radial support, so a large tensor grid never meets every piece.
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

    def _terms(self, r, deriv=False):
        """Each piece with its radial factors on r's own shape: ``on``
        (where w_k > 0) and the pairs [(A, B)], with ``deriv`` also
        (A', B').  A is None for a piece without a radial part."""
        live = r > self._chi_lo
        x = np.log2(r, where=live, out=np.zeros(r.shape))
        chi = self._chi(r)
        chi_p = self._chi_prime(r) if deriv else None
        for k in sorted(self.fields):
            w = bump_weight(x - k)
            on = live & (w > 0)
            if not np.any(on):
                continue
            b = np.where(on, chi * w, 0.0)
            if deriv:
                w_p = np.zeros(r.shape)
                w_p[on] = bump_weight_prime(x[on] - k) / (r[on] * LN2)
                b_p = np.where(on, chi_p * w + chi * w_p, 0.0)
            for piece in self.fields[k].pieces:
                a = a_p = None
                if piece.radial is not None:
                    y = np.zeros(r.shape)
                    y[on] = piece.radial(r[on])
                    a = b * y
                    if deriv:
                        y_p = np.zeros(r.shape)
                        y_p[on] = piece.radial.deriv(r[on])
                        a_p = b_p * y + b * y_p
                yield piece, on, [(a, b), (a_p, b_p)] if deriv else [(a, b)]

    def _sums(self, r, theta, deriv):
        """The term sums at the broadcast (r, theta), each term over the
        bounding box of its ``on`` only: f, and with ``deriv`` df/dr."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(r.shape, theta.shape)
        nd = max(len(shape), 1)
        r = r.reshape((1,) * (nd - r.ndim) + r.shape)
        theta = theta.reshape((1,) * (nd - theta.ndim) + theta.shape)
        sums = [np.zeros(np.broadcast_shapes(r.shape, theta.shape))
                for _ in range(1 + deriv)]
        for piece, on, pairs in self._terms(r, deriv):
            box = tuple(slice(i.min(), i.max() + 1) if n > 1 else slice(None)
                        for i, n in zip(np.nonzero(on), on.shape))
            th = theta[tuple(sl if n > 1 else slice(None)
                             for sl, n in zip(box, theta.shape))]
            for total, (a, b) in zip(sums, pairs):
                total[box] += piece.term(th, None if a is None else a[box],
                                         b[box])
        return [total.reshape(shape) for total in sums]

    def value(self, r, theta):
        return self._sums(r, theta, deriv=False)[0]

    def value_and_deriv(self, r, theta):
        return tuple(self._sums(r, theta, deriv=True))

    def cumulative_radial(self, r_nodes, thetas, cells=None):
        """Cumulative trapezoid of f along the rays at ``thetas`` over the
        increasing ``r_nodes``: the (len(thetas), len(r_nodes)) table, or
        with ``cells`` only its entry [i, cells[i]] for each row i.

        The trapezoid is linear, so it is the sum of the terms with the
        1-D cumulative trapezoids of A and B as radial factors.
        """
        r = np.asarray(r_nodes, dtype=float)
        thetas = np.asarray(thetas, dtype=float)
        th = thetas[:, None] if cells is None else thetas
        dr = np.diff(r)

        def cumulative(v):
            cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dr)))
            return cum if cells is None else cum[cells]

        out = np.zeros((thetas.size, r.size) if cells is None else thetas.shape)
        for piece, _, [(a, b)] in self._terms(r):
            out += piece.term(th, None if a is None else cumulative(a),
                              cumulative(b))
        return out


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
        idx = np.clip(np.searchsorted(r_sub, r, side="right") - 1,
                      0, len(r_sub) - 2)
        base = correction.cumulative_radial(r_sub, theta, cells=idx)
        f_lo = correction.value(r_sub[idx], theta)
        f_at = correction.value(r, theta)
        integral = base + 0.5 * (f_lo + f_at) * (r - r_sub[idx])
        return sin_k(K0, r) * np.exp(integral)

    phi, phi_dot, rd = curve_angle(p, reference_coefficient, s.phi0)

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
    F_grid, dF_grid = correction.value_and_deriv(r_nodes[None, :],
                                                 theta_back[:, None])
    cum_grid = correction.cumulative_radial(r_nodes, theta_back)
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
    return SynthesisResult(metric=metric, gamma=gamma, theta_map=tmap,
                           K_grid=K_grid, correction=correction, summary=s,
                           decomposition=decomp)


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
    return assemble_metric(p, s, decomp, correction)


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


def verify_synthesis(res, p, consts, tol_geo=1e-5, tol_dist=1e-4,
                     n_dist_pairs=4, seed=0):
    """The records of ``verify_grid``, run on the synthesized grid and
    curve, plus the Hölder budget of the curvature correction term,
    which needs the correction field; always returns a report."""
    s = res.summary
    report = _verify(res.metric, res.gamma, s.K0, s.m, consts, tol_geo,
                     tol_dist, seed, n_dist_pairs=n_dist_pairs)
    # analytic-route Hölder budget of f^2 + 2 f cot + df/dr
    rs = np.geomspace(max(0.55 * s.m, res.metric.r_nodes[0]),
                      res.metric.r_nodes[-1] * 0.999, 40)
    ths = np.linspace(-np.pi * 0.95, np.pi * 0.95, 40)
    RS, THS = np.meshgrid(rs, ths, indexing="ij")
    fv, dfv = res.correction.value_and_deriv(RS, THS)
    gam_term = fv ** 2 + 2 * fv * cot_k(s.K0, RS) + dfv
    pts = np.column_stack([(RS * np.cos(THS)).ravel(),
                           (RS * np.sin(THS)).ravel()])
    hol_gamma = holder_seminorm_pairs(gam_term.ravel()[::2], pts[::2],
                                      consts.alpha)
    report.records.append(CheckerRecord.from_margin(
        "f_holder_budget", hol_gamma / consts.c_f_holder_budget,
        detail=f"sampled seminorm = {hol_gamma:.4g}"))
    return report


def verify_grid(grid, p, consts, tol_geo=1e-5, tol_dist=1e-4, seed=0):
    """Verify that a metric grid realizes a profile, e.g. a grid read
    from disk or one the synthesizer did not build.

    The angle of the curve is re-integrated from the grid coefficient
    (convention: it vanishes at the profile minimum) in 5 sweeps from
    zero; then every record reads only the grid and that curve:
    curvature bounds by finite differences on G, the geodesic equation
    along the curve, and pairwise distances by angle shooting.
    """
    t = p.t_nodes
    phi = np.zeros_like(t)
    for _ in range(5):
        phi, phi_dot, rd = curve_angle(p, grid.value, phi)
    gamma = GeodesicPath(t_nodes=t, rho=p.rho, phi=phi, rho_dot=rd,
                         phi_dot=phi_dot,
                         rho_ddot=np.asarray(p.second_deriv(t), dtype=float),
                         unit_speed_residual=0.0)
    return _verify(grid, gamma, kappa(p, p.t0), p.m, consts, tol_geo,
                   tol_dist, seed)


def _verify(grid, gamma, K0, m, consts, tol_geo, tol_dist, seed,
            n_dist_pairs=4):
    """The verification battery: it reads only the grid and the curve.
    K0 and m are reported in the meta."""
    rng = np.random.default_rng(seed)
    alpha = consts.alpha
    H = consts.H
    records = []

    r_nodes = grid.r_nodes
    ratio_env = grid.G / r_nodes[None, :]
    lo_env = psi(grid.H * r_nodes ** 2)
    hi_env = psi(-grid.H * r_nodes ** 2)
    env_margin = max(np.max(lo_env[None, :] / ratio_env),
                     np.max(ratio_env / hi_env[None, :]))
    records.append(CheckerRecord.from_margin(
        "radius_ratio_envelope", float(env_margin) / (1 + 1e-6)))

    # curvature bounds from finite differences on G; FD values carry a
    # rounding resolution that blows up at geometrically small spacings,
    # so only super-resolution excesses count
    K_fd, K_res = grid.curvature_fd()
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

    # geodesic equation along the curve, h through the grid interpolant
    t = gamma.t_nodes
    g_on, h_on = grid.value_and_h(gamma.rho, gamma.phi)
    resid_geo = np.abs(gamma.rho_ddot - h_on * (1.0 - gamma.rho_dot ** 2))
    worst_i = int(np.argmax(resid_geo))
    records.append(CheckerRecord.from_margin(
        "geodesic_residual", float(np.max(resid_geo)) / tol_geo,
        witness=[t[worst_i]]))

    # unit-speed residual of the stored curve
    res_unit = _unit_speed_residual(grid, gamma.rho, gamma.phi,
                                    gamma.rho_dot, five_point_stencil(t))
    records.append(CheckerRecord.from_margin(
        "unit_speed", res_unit / TOL_UNIT_SPEED))

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
        try:
            d = distance(grid, PolarPoint(gamma.rho[i], gamma.phi[i]),
                         PolarPoint(gamma.rho[j], gamma.phi[j]))
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
        meta={"K0": K0, "m": m, "H_grid": grid.H,
              "sup_K_fd": sup_k, "n_theta": len(grid.theta_nodes)})
