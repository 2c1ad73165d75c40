"""Constructive synthesis of a metric realizing a distance profile.

Given a checker-passing profile the pipeline is: split the disc into
dyadic annuli, extend the radial correction f0 from the reference curve
to each annulus (by angular transport or by interpolating a radial net),
glue with a partition of unity in log2(r), integrate the corrected
coefficient G, deform the reference angle into the true one with an
r-preserving bi-Lipschitz map, and verify the result independently:
curvature bounds by finite differences and the geodesic equation along
the curve.
"""

from dataclasses import dataclass, replace

import numpy as np

from .special_functions import sin_k, cot_k, psi, PI_SQUARED
from .whitney import (SampledFunction, whitney_extend, extension_bounds,
                      holder_seminorm_pairs, HypothesisViolation)
from .profile_analysis import analyze, curve_angle, curve_samples
from .geodesy import MetricGrid
from .ode_core import _cumulative, _envelope_margin
from .report import CheckerRecord, CheckerReport

LN2 = np.log(2.0)
R_NODES_PER_OCTAVE = 64     # geometric radial grid nodes per dyadic band
MIN_SECTOR_GAP = 0.35       # angular separation asserted between split pieces
FADE_WIDTH = 0.45           # angular width of the theta cutoff beyond the sweep
R_PAD = 1.05                # disc radius over the profile's largest rho
# tolerance of geodesic_residual: |rho'' - h (1 - rho'^2)| along the curve
TOL_GEO = 1e-5


class SynthesisError(RuntimeError):
    pass


# -- partition of unity -------------------------------------------------------


def _smoothstep(x):
    """C^2 quintic ramp: 0 below 0, 1 above 1.  On an array the quintic is
    formed on [0, 1) and at NaN only, so a bump weight pays for it on its
    support and a fade on its ramps."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:  # scalar pow: numpy's array pow differs in the last bit
        x = np.clip(x, 0.0, 1.0)
        return x ** 3 * (10.0 - 15.0 * x + 6.0 * x * x)
    out = (x >= 1.0).astype(float)
    ramp = ~((x < 0.0) | (x >= 1.0))
    xr = x[ramp]
    out[ramp] = xr ** 3 * (10.0 - 15.0 * xr + 6.0 * xr * xr)
    return out


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
    IV, and IV to II.  Node rho' is read from analyze's s.samples."""
    rd = s.samples[2][i_lo:i_hi + 1]
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

    def terms(self, theta, pairs):
        """fade(theta) * (a + g(theta) * b) for each pair (a, b) of radial
        factors, the theta factors formed once; ``a`` is None for a piece
        without a radial part.  One expression per case, so numpy reuses
        its temporaries on large grids."""
        g = np.interp(theta, self.theta_nodes, self.g_nodes)
        fade = self.fade(theta)
        for a, b in pairs:
            yield fade * (g * b) if a is None else fade * (a + g * b)


def extend_fk(k, decomp, p, s):
    """Extension of f0 to the annulus at scale k, honoring the case tag.

    Transport cases (I, II) carry f0 along rays of constant angle; net
    cases (III, IV) add a radial interpolant through the values at the
    piece's radial net, so that the curve values are reproduced exactly.
    T1 and T2 come from ``extension_bounds``, the same pairs and triples
    ``whitney_extend`` checks, so only non-finite net data is refused.
    On the two-node net of case IV the extension is the secant line.
    Returns f_k as its list of ``_PieceField``, one per piece.
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
    return pieces


# -- gluing ---------------------------------------------------------------------


class RadialCorrectionField:
    """f = chi(r) * sum_k w_k(r) f_k(r, theta), zero below m/2.

    The weights w_k(r) = bump(log2 r - k) form a partition of unity, so at
    every radius at most two annulus fields contribute; chi is an extra
    C^2 radial cutoff that kills the field identically on r < m/2 while
    leaving it untouched at the curve radii (all >= m).

    Each piece p of f_k is fade_p(theta) * (g_p(theta) + y_p(r)), so f is
    a sum of separable terms fade_p(theta) * (A(r) + g_p(theta) * B(r))
    with B = chi w_k and A = B y_p, y_p read only where w_k > 0.  f is
    read through passes of these terms alone, each forming only what its
    reader reads: ``along_curve`` at paired (r, theta) points, and on a
    (theta, r) tensor grid ``radial_integral`` for G and ``on_grid`` for
    the curvature term.  The cumulative trapezoids of A and B give the
    linear radial trapezoid of f, (A, B) give f and (A', B') give df/dr.
    ``fields`` maps k to the pieces of f_k.
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
            for piece in self.fields[k]:
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

    def along_curve(self, r_cells, cells, r, theta):
        """At the paired (r, theta), whose cells in the increasing
        ``r_cells`` start at r_cells[cells]: the cumulative trapezoid of f
        to the cell start, f at the cell start and f at r.  The cell
        starts' radial factors are gathered from those of r_cells."""
        n, dr = r_cells.size, np.diff(r_cells)

        def parts(v):
            return (None,) * 3 if v is None else (
                _cumulative(v[:n], dr)[cells], v[:n][cells], v[n:])

        out = np.zeros((3,) + theta.shape)
        for piece, _, [(a, b)] in self._terms(np.concatenate([r_cells, r])):
            for total, term in zip(out, piece.terms(
                    theta, zip(parts(a), parts(b)))):
                total += term
        return out

    def radial_integral(self, r_nodes, thetas):
        """The cumulative radial trapezoid of f on the (thetas, r_nodes)
        tensor grid."""
        dr = np.diff(r_nodes)
        out = np.zeros((thetas.size, r_nodes.size))
        for piece, _, [(a, b)] in self._terms(r_nodes):
            out += next(piece.terms(thetas[:, None], [
                (None if a is None else _cumulative(a, dr),
                 _cumulative(b, dr))]))
        return out

    def on_grid(self, r_nodes, thetas):
        """f and df/dr on the (thetas, r_nodes) tensor grid, formed over
        the radial span of each term's support only."""
        out = np.zeros((2, thetas.size, r_nodes.size))
        for piece, on, pairs in self._terms(r_nodes, deriv=True):
            idx = np.flatnonzero(on)
            sl = slice(idx[0], idx[-1] + 1)
            for total, term in zip(out, piece.terms(
                    thetas[:, None], [(None if a is None else a[sl], b[sl])
                                      for a, b in pairs])):
                total[:, sl] += term
        return out

    def curvature_term(self, K0, r_nodes, thetas):
        """f^2 + 2 f cot_k(K0, r) + df/dr, which is K0 - K of the
        synthesized metric, on the (thetas, r_nodes) tensor grid."""
        f, df = self.on_grid(r_nodes, thetas)
        return f ** 2 + 2.0 * f * cot_k(K0, r_nodes)[None, :] + df


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
    """The grid, the curve's angle phi at the profile's nodes (its rho and
    t are the profile's), the angle map, the field (K = K0 - its
    ``curvature_term``), the summary less its samples, the annuli."""
    metric: MetricGrid
    phi: np.ndarray
    theta_map: ThetaMap
    correction: RadialCorrectionField
    summary: object
    decomposition: AnnulusDecomposition


def _dyadic_r_nodes(r_min, r_max):
    """The lattice 2^(j/R_NODES_PER_OCTAVE) from the node at or below r_min
    to the first node at or above r_max, so that every pair of adjacent
    nodes has the one ratio 2^(1/R_NODES_PER_OCTAVE)."""
    j = np.log2([r_min, r_max]) * R_NODES_PER_OCTAVE
    return 2.0 ** (np.arange(np.floor(j[0]), np.ceil(j[1]) + 1)
                   / R_NODES_PER_OCTAVE)


def assemble_metric(p, s, decomp, correction):
    """Build the metric grid, the curve's angle, and the angle map.

    G(r, theta) = sin_k(K0, r) * exp of the radial integral of the glued
    correction at the pulled-back angle; nothing else is formed on the
    grid.  The r nodes are the dyadic lattice over [1e-4 R, R]; the theta
    rows double from 64 until the grid's h along the curve misses the
    curve's own, f0 + cot_k(K0, rho), by at most TOL_GEO / 2 once
    weighted by 1 - rho'^2, up to 4096 rows or until a doubling stops
    reducing that miss: the grid with the least miss is kept.
    """
    K0 = s.K0
    t = p.t_nodes
    rho_max = float(np.max(p.rho))
    R = rho_max * R_PAD
    r_min = 1e-4 * R

    # reference coefficient along the curve: radial integrals at phi0
    r_nodes = _dyadic_r_nodes(r_min, R)
    r_sub = np.append(r_nodes[r_nodes < rho_max], rho_max)

    def reference_coefficient(r, theta):
        idx = np.clip(np.searchsorted(r_sub, r, side="right") - 1,
                      0, len(r_sub) - 2)
        base, f_lo, f_at = correction.along_curve(r_sub, idx, r, theta)
        integral = base + 0.5 * (f_lo + f_at) * (r - r_sub[idx])
        return sin_k(K0, r) * np.exp(integral)

    phi = curve_angle(p, reference_coefficient, s.phi0, s.samples)[0]

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

    h_curve = s.f0 + cot_k(K0, p.rho)
    weight = 1.0 - s.samples[2] ** 2

    def grid_with(n_theta):
        theta_nodes = -np.pi + 2 * np.pi * np.arange(n_theta) / n_theta
        G = sin_k(K0, r_nodes)[None, :] * np.exp(
            correction.radial_integral(r_nodes, tmap.inverse(theta_nodes)))
        grid = MetricGrid(r_nodes, theta_nodes, G)
        h_grid = grid.value_and_h(p.rho, phi)[1]
        return grid, float(np.max(np.abs(h_grid - h_curve) * weight))

    n_theta = 64
    grid, miss = grid_with(n_theta)
    while miss > TOL_GEO / 2 and n_theta < 4096:
        del grid  # one grid at a time: a rejected doubling rebuilds it
        grid, finer = grid_with(2 * n_theta)
        if not finer < miss:
            del grid
            grid = grid_with(n_theta)[0]
            break
        n_theta, miss = 2 * n_theta, finer

    # the curve samples are spent: the result does not keep them alive
    return SynthesisResult(metric=grid, phi=phi, theta_map=tmap,
                           correction=correction,
                           summary=replace(s, samples=None),
                           decomposition=decomp)


def synthesize(p, consts):
    """Full pipeline: analyze, decompose, extend, glue, assemble."""
    s = analyze(p, alpha=consts.alpha)
    if abs(s.K0) > consts.H * 1.5:
        raise SynthesisError(
            f"|K0| = {abs(s.K0):.4g} above the admissible bound; "
            "run the checker first")
    decomp = decompose_annuli(p, s)
    fields = {k: extend_fk(k, decomp, p, s) for k in decomp.pieces}
    correction = glue_f(fields, decomp)
    return assemble_metric(p, s, decomp, correction)


# -- verification -----------------------------------------------------------------


def _grid_holder(values, r_nodes, alpha, resolution):
    """Hölder seminorm of a function on a uniform (theta, r) grid, a lower
    bound by one multi-scale sweep: each node against the nodes at offsets
    round(sqrt(2)^k) and the full span, along its ray (distance r_j - r_i)
    and around its circle (chord 2 r sin(pi s / n_theta), s <= n_theta/2),
    counting only what a difference has beyond the two nodes' summed
    ``resolution`` (one per r node).  A column pair is skipped when the
    quotient of its columns' value ranges cannot beat the best so far; the
    quotient is non-decreasing in the spread, so skipping changes nothing.
    NaN values give NaN."""
    n_t, n_r = values.shape
    rays = np.ascontiguousarray(values.T)
    hi, lo = np.max(rays, axis=1), np.min(rays, axis=1)

    def spans(n):
        return sorted({min(round(2.0 ** (k / 2)), n - 1)
                       for k in range(2 * n.bit_length() + 1)} - {0})

    def quotient(spread, a, b, den):
        return np.maximum(spread - resolution[b] - resolution[a], 0.0) / den

    j = np.arange(n_r)
    sweeps = ([(j[:-s], j[s:], 0, (r_nodes[s:] - r_nodes[:-s]) ** alpha)
               for s in spans(n_r)]
              + [(j, j, s, (2.0 * r_nodes * np.sin(np.pi * s / n_t)) ** alpha)
                 for s in spans(n_t // 2 + 1)])
    best = 0.0
    for ja, jb, shift, den in sweeps:
        bound = quotient(np.maximum(hi[jb] - lo[ja], hi[ja] - lo[jb]),
                         ja, jb, den)
        # a NaN bound fails the comparison, so NaN columns are evaluated
        k = np.flatnonzero(~(bound <= best))
        if k.size:
            spread = np.max(np.abs(np.roll(rays[jb[k]], -shift, axis=1)
                                   - rays[ja[k]]), axis=1)
            # np.max, unlike the builtin, keeps a NaN maximum
            q = quotient(spread, ja[k], jb[k], den[k])
            best = float(np.max(np.append(q, best)))
    return best


def verify_synthesis(res, p, consts, seed=0):
    """``verify_grid`` on the synthesized grid, which is the grid
    ``save_metric_json`` writes, plus the Hölder budget of the curvature
    correction term, which needs the correction field; always returns a
    report.  Without ``f_holder_budget`` the report is the one ``verify``
    gives for the saved grid, byte for byte.  The bench passes ``seed``;
    nothing reads it, as verification draws no random numbers."""
    s = res.summary
    report = verify_grid(res.metric, p, consts)
    # analytic-route Hölder budget of the curvature term
    rs = np.geomspace(max(0.55 * s.m, res.metric.r_nodes[0]),
                      res.metric.r_nodes[-1] * 0.999, 40)
    ths = np.linspace(-np.pi * 0.95, np.pi * 0.95, 40)
    RS, THS = np.meshgrid(rs, ths, indexing="ij")
    gam_term = res.correction.curvature_term(s.K0, rs, ths).T
    pts = np.column_stack([(RS * np.cos(THS)).ravel(),
                           (RS * np.sin(THS)).ravel()])
    hol_gamma = holder_seminorm_pairs(gam_term.ravel()[::2], pts[::2],
                                      consts.alpha)
    report.records.append(CheckerRecord.from_margin(
        "f_holder_budget",
        hol_gamma / (consts.c_f_holder_budget
                     * consts.H ** (1 + consts.alpha / 2)),
        detail=f"sampled seminorm = {hol_gamma:.4g}"))
    return report


def verify_grid(grid, p, consts):
    """Verify that a metric grid realizes a profile: the grid that
    ``synthesize`` saved, or one it did not build.

    The angle of the curve is re-integrated from the grid coefficient
    (convention: it vanishes at the profile minimum) in at most 5 sweeps
    from zero; a sweep that returns its input bit for bit ends them, as
    every later sweep would repeat it.  Then every record reads only the
    grid and that curve: curvature bounds by finite differences on G,
    and the geodesic equation along the curve, which fails at once if the
    curve leaves [r_nodes[0], R], where G is only extrapolated.
    Distances need no record of their own: under K <= H and
    H R^2 <= pi^2/4 the disc is a convex CAT(H) ball, whose geodesics
    shorter than pi/sqrt(H) are unique and minimizing, so the curve's
    length is its distance once the curvature and geodesic records pass.
    ``curvature_sup`` states both halves of that premise with the H it
    enforces, c_k_sup H, and ``radius_ratio_envelope`` compares G/r with
    the comparison envelope at that same H.  The envelope fails any G <= 0,
    and any c_k_sup H R^2 that reaches pi^2, where psi has no value; such
    a disc has failed the premise of ``curvature_sup`` already.
    Nor does unit speed: the angle above is integrated through G itself,
    so the curve is unit-speed in the grid by construction.
    """
    t = p.t_nodes
    phi = np.zeros_like(t)
    samples = curve_samples(p)
    for _ in range(5):
        prev = phi
        phi, _, rd = curve_angle(p, grid.value, phi, samples)
        if np.array_equal(phi, prev):
            break
    del samples  # freed before the grid records, where verify peaks
    alpha = consts.alpha
    H = consts.H
    H_v = consts.c_k_sup * H   # bound of curvature_sup and the envelope
    records = []

    r_nodes = grid.r_nodes
    h_r2 = H_v * r_nodes ** 2
    env_detail = ""
    if h_r2[-1] >= PI_SQUARED:
        # psi has no value there: no envelope to compare against
        env_margin, env_detail = np.inf, (
            f"c_k_sup*H*R^2 = {h_r2[-1]:.6g} >= pi^2, outside psi's domain")
    else:
        env_margin = _envelope_margin(grid.G / r_nodes[None, :], psi(h_r2),
                                      psi(-h_r2)) / (1 + 1e-6)
        bad_G = np.argwhere(grid.G <= 0)
        if bad_G.size:
            # the margin is inf: name the first such node
            i, j = bad_G[0]
            env_detail = (f"G = {grid.G[i, j]:.6g} <= 0 at "
                          f"r = {r_nodes[j]:.6g}, "
                          f"theta = {grid.theta_nodes[i]:.6g}")
    records.append(CheckerRecord.from_margin(
        "radius_ratio_envelope", env_margin, detail=env_detail))

    # curvature bounds from finite differences on G; FD values carry a
    # rounding resolution that blows up at geometrically small spacings,
    # so only super-resolution excesses count
    K_fd, K_res = grid.curvature_fd()
    sup_excess = np.maximum(np.abs(K_fd) - K_res, 0.0)
    sup_k = float(np.max(sup_excess))
    sup_margin, sup_detail = sup_k / H_v, ""
    if h_r2[-1] > PI_SQUARED / 4:
        sup_margin = max(sup_margin, h_r2[-1] / (PI_SQUARED / 4))
        sup_detail = f"premise c_k_sup*H*R^2 = {h_r2[-1]:.6g} exceeds pi^2/4"
    records.append(CheckerRecord.from_margin(
        "curvature_sup", sup_margin, detail=sup_detail))
    hol_k = _grid_holder(K_fd, r_nodes, alpha, K_res[0])  # K_res is per r
    records.append(CheckerRecord.from_margin(
        "curvature_holder",
        hol_k / (consts.c_k_holder * H ** (1 + alpha / 2)),
        detail=f"sampled [K]_alpha = {hol_k:.4g}"))

    # geodesic equation along the curve, h through the grid interpolant
    _, h_on = grid.value_and_h(p.rho, phi)
    rho_ddot = np.asarray(p.second_deriv(t), dtype=float)
    resid_geo = np.abs(rho_ddot - h_on * (1.0 - rd ** 2))
    worst_i = int(np.argmax(resid_geo))
    margin_geo = float(np.max(resid_geo)) / TOL_GEO
    bad_phi = np.flatnonzero(~np.isfinite(phi))
    detail = (f"curve angle not finite at t = {t[bad_phi[0]]:.6g}"
              if bad_phi.size else "")
    # off [r_nodes[0], R] G is extrapolated, so no residual there counts
    outside = np.flatnonzero((p.rho < r_nodes[0]) | (p.rho > grid.R))
    if outside.size:
        worst_i, margin_geo = int(outside[0]), np.inf
        detail = f"curve leaves the grid at t = {t[worst_i]:.6g}"
    records.append(CheckerRecord.from_margin(
        "geodesic_residual", margin_geo, witness=[t[worst_i]],
        detail=detail))

    return CheckerReport(
        records=records, constants_version=consts.version,
        meta={"m": p.m, "H": H,
              "sup_K_fd": sup_k, "n_theta": len(grid.theta_nodes)})
