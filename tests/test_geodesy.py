import base64
import itertools
import json
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from geoprofile import (MetricGrid, PolarPoint, geodesic_integrate, distance,
                        distance_profile, save_metric_json, load_metric_json,
                        phi)
from geoprofile import geodesy, synthesis
from geoprofile.geodesy import GeodesicDomainError
from geoprofile.surfaces import (constant_curvature_grid, flat_profile,
                                 roundtrip_suite)


@pytest.fixture(scope="module")
def flat_big():
    return constant_curvature_grid(0.0, 2.0)


@pytest.fixture(scope="module")
def sphere():
    return constant_curvature_grid(1.0, 1.5)


@pytest.fixture(scope="module")
def hyperbolic():
    return constant_curvature_grid(-1.0, 1.0)


@pytest.fixture(scope="module")
def small_sphere():
    return constant_curvature_grid(0.3, 0.052)


def test_flat_line(flat_big):
    path = geodesic_integrate(flat_big, PolarPoint(1.0, 0.0), 0.0, +1, 0.8,
                              step=1e-3)
    t = path.t_nodes
    assert np.max(np.abs(path.rho - np.sqrt(1 + t * t))) < 1e-9
    assert np.max(np.abs(path.phi - np.arctan(t))) < 1e-9
    assert path.unit_speed_residual <= 1e-7


def test_sphere_law_of_cosines(sphere):
    m = 0.3
    path = geodesic_integrate(sphere, PolarPoint(m, 0.0), 0.0, +1, 0.5,
                              step=1e-3)
    oracle = np.arccos(np.cos(m) * np.cos(path.t_nodes))
    assert np.max(np.abs(path.rho - oracle)) < 1e-6
    assert path.unit_speed_residual <= 1e-6


def test_zero_length_path(sphere):
    path = geodesic_integrate(sphere, PolarPoint(0.4, 0.1), 0.3, +1, 0.0)
    assert path.t_nodes.size == 1
    assert path.unit_speed_residual == 0.0


def test_path_exits_domain(flat_big):
    with pytest.raises(GeodesicDomainError):
        geodesic_integrate(flat_big, PolarPoint(1.9, 0.0), 0.9, +1, 1.0,
                           step=1e-3)


def test_flat_distance(flat_big):
    d = distance(flat_big, PolarPoint(1.0, 0.0), PolarPoint(1.0, np.pi / 2))
    assert abs(d - np.sqrt(2)) < 1e-6


def test_sphere_distance(sphere):
    p, q = PolarPoint(0.3, 0.0), PolarPoint(0.4, 0.5)
    oracle = np.arccos(np.cos(0.3) * np.cos(0.4)
                       + np.sin(0.3) * np.sin(0.4) * np.cos(0.5))
    assert abs(distance(sphere, p, q) - oracle) < 1e-5


def test_distance_same_point(sphere):
    p = PolarPoint(0.35, 1.2)
    assert distance(sphere, p, p) == 0.0


def test_distance_same_ray(sphere):
    assert abs(distance(sphere, PolarPoint(0.5, 0.3),
                        PolarPoint(0.2, 0.3)) - 0.3) < 1e-12


def test_triangle_inequality(small_sphere, rng):
    pts = [PolarPoint(rng.uniform(0.004, 0.048), rng.uniform(-np.pi, np.pi))
           for _ in range(9)]
    d = {}
    for i, j in itertools.combinations(range(len(pts)), 2):
        d[i, j] = d[j, i] = distance(small_sphere, pts[i], pts[j])
    checked = 0
    for i, j, k in itertools.permutations(range(len(pts)), 3):
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-6
        checked += 1
    assert checked >= 100


def test_profile_extraction_matches_radius(sphere):
    m = 0.25
    path = geodesic_integrate(sphere, PolarPoint(m, 0.0), 0.0, +1, 0.4,
                              step=1e-3)
    prof = distance_profile(path)
    assert np.array_equal(prof.rho, path.rho)
    oracle = np.arccos(np.cos(m) * np.cos(prof.t_nodes))
    assert np.max(np.abs(prof.rho - oracle)) < 1e-6


def test_profile_metric_conditions(sphere):
    path = geodesic_integrate(sphere, PolarPoint(0.25, 0.0), 0.0, +1, 0.4,
                              step=1e-3)
    prof = distance_profile(path)
    t, r = prof.t_nodes[::40], prof.rho[::40]
    dt = np.abs(t[:, None] - t[None, :])
    dr = np.abs(r[:, None] - r[None, :])
    sr = r[:, None] + r[None, :]
    mask = dt > 0
    assert np.all(dr[mask] <= dt[mask] * (1 + 1e-9))
    assert np.all(dt[mask] <= sr[mask] * (1 + 1e-9))


def test_geodesic_equation_residual(sphere):
    """rho'' = h(gamma) (1 - rho'^2) along integrated paths, with h read
    back through the interpolant."""
    path = geodesic_integrate(sphere, PolarPoint(0.3, 0.2), 0.15, +1, 0.4,
                              step=5e-4)
    g, h = sphere.value_and_h(path.rho, path.phi)
    resid = np.abs(path.rho_ddot - h * (1 - path.rho_dot ** 2))
    assert np.max(resid) <= 1e-5


def test_convexity_surrogate(sphere):
    """Second divided differences positive and rho rho''/(1 - rho'^2)
    inside the constant-curvature envelope."""
    path = geodesic_integrate(sphere, PolarPoint(0.3, 0.0), 0.0, +1, 0.5,
                              step=1e-3)
    r, rd, rdd = path.rho, path.rho_dot, path.rho_ddot
    dd2 = np.diff(path.rho, 2)
    assert np.all(dd2 > 0)
    v = r * rdd / (1 - rd ** 2)
    H = 1.0
    assert np.all(v >= phi(H * r ** 2) - 1e-7)
    assert np.all(v <= phi(-H * r ** 2) + 1e-7)


def test_ddot_sup_bound(small_sphere, consts):
    m = 0.01
    path = geodesic_integrate(small_sphere, PolarPoint(m, 0.0), 0.0, +1,
                              0.03, step=5e-5)
    sup = np.max(np.abs(path.rho_ddot))
    assert sup <= consts.c_rhoddot / m


def test_grid_json_roundtrip(tmp_path, small_sphere):
    """A saved grid reads back bit for bit and re-saves byte for byte, and
    G costs at most 11 bytes per node: 8 raw bytes in base64.  A NaN with
    its payload, an inf and a -0.0 keep their bits in the file; MetricGrid
    then refuses the values it cannot interpolate."""
    path = tmp_path / "grid.json"
    save_metric_json(small_sphere, path)
    loaded = load_metric_json(path)
    for attr in ("G", "r_nodes", "theta_nodes"):
        assert getattr(loaded, attr).tobytes() \
            == getattr(small_sphere, attr).tobytes(), attr
    assert loaded.G.flags.writeable
    n_t, n_r = small_sphere.G.shape
    assert path.stat().st_size <= 11 * n_t * n_r + 25 * (n_t + n_r)
    path2 = tmp_path / "grid2.json"
    save_metric_json(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()

    G = small_sphere.G.copy()
    G[0, 1] = np.frombuffer(b"\x01\x00\x00\x00\x00\x00\xf8\x7f", "<f8")[0]
    G[2, 3], G[4, 5] = np.inf, -0.0
    odd = tmp_path / "odd.json"
    save_metric_json(SimpleNamespace(
        r_nodes=small_sphere.r_nodes,
        theta_nodes=small_sphere.theta_nodes, G=G), odd)
    assert base64.b64decode(json.loads(odd.read_text())["G"]) \
        == G.astype("<f8").tobytes()
    with pytest.raises(ValueError):
        load_metric_json(odd)


def test_grid_validation_rejects_bad_G(consts):
    """The grid builds; verify judges G = 3r off the envelope."""
    r = np.linspace(1e-4, 0.05, 100)
    theta = -np.pi + 2 * np.pi * np.arange(8) / 8
    G = np.tile(r, (8, 1)) * 3.0   # badly off the envelope
    p = flat_profile(0.01, (-0.04, 0.04), n=3001)
    rep = synthesis.verify_grid(MetricGrid(r, theta, G), p, consts)
    assert not rep.record("radius_ratio_envelope").passed


def _grid_with_zero_row(grid):
    """``grid`` with G = 0 on the theta = -pi row."""
    G = grid.G.copy()
    G[0] = 0.0
    return MetricGrid(grid.r_nodes, grid.theta_nodes, G)


def test_point_path_equals_array_path(sphere):
    """A float point is evaluated on Python floats, arrays through numpy;
    both give the same bits, inside and outside the node ranges."""
    rng = np.random.default_rng(5)
    r_nodes, theta_nodes = sphere.r_nodes, sphere.theta_nodes
    r = np.concatenate([
        rng.uniform(r_nodes[0], sphere.R, 2000),
        r_nodes[::97], [sphere.R],                       # node hits
        [0.0, 0.5 * r_nodes[0], 1.1 * sphere.R, 7.0],   # outside the nodes
        rng.uniform(0.0, 1.2 * sphere.R, 200)])
    theta = np.concatenate([
        rng.uniform(-np.pi, np.pi, 2000),
        theta_nodes[np.arange(r_nodes[::97].size) % theta_nodes.size],
        [np.pi], [-np.pi, np.pi, 3 * np.pi, -10.0],
        rng.uniform(-20.0, 20.0, 200)])                  # outside [-pi, pi)
    g_arr, h_arr = sphere.value_and_h(r, theta)
    v_arr = sphere.value(r, theta)
    for k in range(r.size):
        g, h = sphere.value_and_h(float(r[k]), float(theta[k]))
        v = sphere.value(float(r[k]), float(theta[k]))
        assert type(g) is float and type(h) is float and type(v) is float
        assert (g, h, v) == (g_arr[k], h_arr[k], v_arr[k]), (r[k], theta[k])


def test_grid_pickles(small_sphere):
    """The memoryview behind the point path is rebuilt, not pickled."""
    copy = pickle.loads(pickle.dumps(small_sphere))
    assert np.array_equal(copy.G, small_sphere.G)
    assert copy.value_and_h(0.03, 1.0) == small_sphere.value_and_h(0.03, 1.0)


def test_grid_holds_one_coefficient_table():
    """A built grid holds G and one (4, n_r - 1, n_theta) table of cubic
    coefficients: dG_dr is formed from that table, not stored beside it.
    The per-ray splines are fitted a block of rays at a time, so the build
    peaks under twice the table, which is the one CubicSpline of all rays
    bit for bit."""
    n_t, n_r = 512, 852
    r = np.linspace(1e-3, 1.0, n_r)
    theta = -np.pi + 2 * np.pi * np.arange(n_t) / n_t
    G = r[None, :] * (1.0 + 0.1 * np.cos(theta)[:, None])
    tracemalloc.start()
    try:
        grid = MetricGrid(r, theta, G)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = 4 * (n_r - 1) * n_t * 8
    assert held <= G.nbytes + table + 2**20, (held, G.nbytes, table)
    assert peak <= 2 * table, (peak, table)
    want = CubicSpline(r, G.T).c
    assert np.array_equal(grid._cg.reshape(want.shape), want)
    assert grid.value(0.5, 0.0) > 0


def test_curvature_fd_peaks_at_K_and_one_temporary():
    """The second difference is formed in K itself through one G-sized
    temporary: the traced peak is K, one temporary and small rows."""
    n_t, n_r = 512, 852
    r = np.linspace(1e-3, 1.0, n_r)
    theta = -np.pi + 2 * np.pi * np.arange(n_t) / n_t
    G = r[None, :] * (1.0 + 0.1 * np.cos(theta)[:, None])
    grid = MetricGrid(r, theta, G)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        K, res = grid.curvature_fd()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= K.nbytes + G.nbytes + 2**20, (peak, G.nbytes)
    assert np.all(np.isfinite(K)) and res.shape == G.shape


def test_point_path_falls_back_to_numpy(sphere):
    """Where Python floats would raise, numpy's inf and NaN come back."""
    zero = _grid_with_zero_row(sphere)
    with np.errstate(all="ignore"):
        g, h = zero.value_and_h(0.4, -np.pi)
        assert g == 0.0 and np.isnan(h)
        assert np.isinf(0.5 / g)       # a numpy zero, as on the array path
        for theta in (np.nan, np.inf):
            g, h = sphere.value_and_h(0.3, theta)
            g_arr, h_arr = sphere.value_and_h(np.array([0.3]),
                                              np.array([theta]))
            assert np.array_equal([g, h], [g_arr[0], h_arr[0]],
                                  equal_nan=True)


# Distances recorded with the bracket taken from the chord direction; the
# arithmetic of a shot is fixed, so they must repeat bit for bit.
RECORDED_DISTANCES = [
    ("flat_big", (0.5, 2.0), (0.8, 2.5), 0.43351349797137617),
    ("sphere", (0.3, 0.0), (0.4, 0.5), 0.19567710030935406),
    ("small_sphere", (0.01, 0.2), (0.04, -2.0), 0.04659174222253014),
    ("small_sphere", (0.03, 3.0), (0.045, 1.0), 0.06362739832276665),
]
RECORDED_PATHS = [  # (rho, phi, rho_dot, phi_dot, rho_ddot) at the end,
    # and the unit-speed residual
    ("flat_big", (1.0, 0.0), 0.0, 1, 0.8,
     (1.2806248474865611, 0.6747409422235547, 0.6246950475544241,
      0.6097560975609798, 0.47613951795307075, 1.5737411374061594e-12)),
    ("sphere", (0.3, 0.2), 0.15, 1, 0.4,
     (0.530288816953069, 1.0651944512011022, 0.8162685764671489,
      1.1421363251347139, 0.5691672168081336, 1.2189749210023137e-10)),
    ("small_sphere", (0.01, 0.0), 0.0, -1, 0.03,
     (0.031622633347393576, -1.2490742768726701, 0.948678066898922,
      -10.001041600419036, 3.1622895912685305, 1.607235818745778e-05)),
]


def _scan_bracket(miss, psi0):
    """A coarse bracket: the first sign change of the miss over 11 launch
    angles from PSI_MIN to PSI_MAX, shrunk to finite ends, or None."""
    psis = np.linspace(geodesy.PSI_MIN, geodesy.PSI_MAX, 11)
    vals = [miss(ps)[0] for ps in psis]
    for i in range(psis.size - 1):
        if np.sign(vals[i]) != np.sign(vals[i + 1]):
            bracket = geodesy._finite_bracket(miss, psis[i], vals[i],
                                              psis[i + 1], vals[i + 1])
            if bracket is not None:
                return tuple(sorted(bracket))
    return None


@pytest.mark.parametrize("name,p,q,want", RECORDED_DISTANCES,
                         ids=["flat_big", "sphere", "small_sphere-inner",
                              "small_sphere-outer"])
def test_distance_repeats_recorded_value(request, monkeypatch, name, p, q,
                                         want):
    """The recorded value repeats; with the coarse scan bracket in place
    of the chord bracket Brent's method stops at another shot that hits,
    and the distance moves by at most 1e-9*R."""
    grid = request.getfixturevalue(name)
    assert distance(grid, PolarPoint(*p), PolarPoint(*q)) == want
    monkeypatch.setattr(geodesy, "_chord_bracket", _scan_bracket)
    scanned = distance(grid, PolarPoint(*p), PolarPoint(*q))
    assert abs(scanned - want) <= 1e-9 * grid.R


@pytest.mark.parametrize("name,start,rho_dot0,sign,length,want",
                         RECORDED_PATHS)
def test_geodesic_integrate_repeats_recorded_values(request, name, start,
                                                    rho_dot0, sign, length,
                                                    want):
    grid = request.getfixturevalue(name)
    path = geodesic_integrate(grid, PolarPoint(*start), rho_dot0, sign,
                              length)
    got = (path.rho[-1], path.phi[-1], path.rho_dot[-1], path.phi_dot[-1],
           path.rho_ddot[-1], path.unit_speed_residual)
    assert got == want


def test_distance_on_degenerate_input_repeats_recorded_values(sphere):
    """A zero-G row (the source point on it divides by G = 0) gives the
    recorded values; a non-finite coordinate is refused.

    The grid breaks the positivity of G that ``distance`` relies on, so
    the value of the pair crossing the zero row pins the arithmetic of
    the shots, not a distance: where the steps fall on the zero row
    decides it."""
    zero = _grid_with_zero_row(sphere)
    with np.errstate(all="ignore"):
        assert distance(zero, PolarPoint(0.4, -np.pi),
                        PolarPoint(0.3, -2.2)) == 0.7
        assert distance(zero, PolarPoint(0.4, 2.8),
                        PolarPoint(0.3, -2.8)) == 0.21702727598073202
    with pytest.raises(ValueError):
        PolarPoint(np.nan, 0.3)
    with pytest.raises(ValueError):
        PolarPoint(0.5, np.nan)


def _law_of_cosines(K, a, b, dtheta):
    """Distance between points at radii a and b, dtheta apart, on the
    disc of constant curvature K."""
    if K == 0.0:
        return np.sqrt(a * a + b * b - 2 * a * b * np.cos(dtheta))
    s = np.sqrt(abs(K))
    if K > 0:
        c = (np.cos(s * a) * np.cos(s * b)
             + np.sin(s * a) * np.sin(s * b) * np.cos(dtheta))
        return np.arccos(np.clip(c, -1.0, 1.0)) / s
    c = (np.cosh(s * a) * np.cosh(s * b)
         - np.sinh(s * a) * np.sinh(s * b) * np.cos(dtheta))
    return np.arccosh(max(c, 1.0)) / s


@pytest.fixture
def shot_calls(monkeypatch):
    """The arguments of the shots ``distance`` makes, in order."""
    calls = []
    shoot = geodesy._shoot_to_angle

    def counted(*args):
        calls.append(args)
        return shoot(*args)

    monkeypatch.setattr(geodesy, "_shoot_to_angle", counted)
    return calls


def test_distance_matches_law_of_cosines(request, shot_calls):
    """Seeded random pairs on each constant-curvature grid, and a
    near-radial pair, against the closed form of curvature K.  The
    near-radial pair lies inside the zone where ``distance`` returns the
    radial path.  On the K = -1 grid the chord shot of a long chord
    leaves the disc outward, and its infinite miss still points the
    bracket the right way."""
    for name, K in (("flat_big", 0.0), ("sphere", 1.0), ("hyperbolic", -1.0),
                    ("small_sphere", 0.3)):
        grid = request.getfixturevalue(name)
        R = grid.R
        rng = np.random.default_rng(11)
        pairs = [((rng.uniform(0.05, 0.95) * R, rng.uniform(-np.pi, np.pi)),
                  (rng.uniform(0.05, 0.95) * R, rng.uniform(-np.pi, np.pi)))
                 for _ in range(20)]
        pairs.append(((0.6 * R, 0.3), (0.3 * R, 0.3 + 1e-4)))
        for p, q in pairs:
            d = distance(grid, PolarPoint(*p), PolarPoint(*q))
            want = _law_of_cosines(K, p[0], q[0],
                                   abs(geodesy._wrap_angle(q[1] - p[1])))
            assert abs(d - want) < 1e-5, (name, p, q, d, want)
    hyperbolic = request.getfixturevalue("hyperbolic")
    del shot_calls[:]
    d = distance(hyperbolic, PolarPoint(0.9, 0.0), PolarPoint(0.85, 3.0))
    assert abs(d - _law_of_cosines(-1.0, 0.9, 0.85, 3.0)) < 1e-9
    assert len(shot_calls) <= 15
    # the first shot again, with the floor and length distance() gave it,
    # at the step of geodesy's one step rule
    chord_shot = geodesy._shoot_to_angle(*shot_calls[0])
    assert chord_shot == (np.inf, None, None)


NEAR_RADIAL_CASES = [
    (name, K, a, b, dtheta)
    for name, K in (("flat_big", 0.0), ("sphere", 1.0), ("hyperbolic", -1.0),
                    ("small_sphere", 0.3))
    for a, b in ((0.6, 0.3), (0.9, 0.1), (0.5, 0.45), (0.95, 0.05))
    for dtheta in (1e-6, 1e-5, 3e-5, 1e-4, 1e-3, 3e-3, 1e-2)]


@pytest.mark.parametrize("name,K,a,b,dtheta", NEAR_RADIAL_CASES)
def test_near_radial_distance_matches_law_of_cosines(request, name, K, a, b,
                                                     dtheta):
    """Pairs a few launch-angle steps off one ray: inside the near-radial
    zone the radial path answers, outside it the shooting does, both
    within 1e-6*R of the closed form."""
    grid = request.getfixturevalue(name)
    R = grid.R
    d = distance(grid, PolarPoint(a * R, 0.3), PolarPoint(b * R, 0.3 + dtheta))
    assert abs(d - _law_of_cosines(K, a * R, b * R, dtheta)) <= 1e-6 * R


@pytest.mark.parametrize("name", ["small_sphere", "flat_big"])
def test_distance_is_scale_covariant(request, name):
    """Scaling the disc by lambda (r -> lambda r, G -> lambda G) scales
    every distance by lambda: the shots hold no length but R."""
    grid = request.getfixturevalue(name)
    R = grid.R
    rng = np.random.default_rng(3)
    pairs = [((rng.uniform(0.05, 0.95) * R, rng.uniform(-np.pi, np.pi)),
              (rng.uniform(0.05, 0.95) * R, rng.uniform(-np.pi, np.pi)))
             for _ in range(4)]
    base = [distance(grid, PolarPoint(*p), PolarPoint(*q)) for p, q in pairs]
    for lam in (0.5, 2.0, 3.0):
        scaled = MetricGrid(lam * grid.r_nodes, grid.theta_nodes,
                            lam * grid.G)
        for (p, q), d in zip(pairs, base):
            got = distance(scaled, PolarPoint(lam * p[0], p[1]),
                           PolarPoint(lam * q[0], q[1]))
            assert abs(got - lam * d) <= 1e-12 * scaled.R, (lam, p, q)


@pytest.fixture(scope="module")
def roundtrip_discs(consts):
    """Two synthesized round-trip discs, each as (profile, result)."""
    return [(e["profile"], synthesis.synthesize(e["profile"], consts))
            for e in roundtrip_suite(2, seed=1)]


def _per_distance(discs, count):
    """What ``count()`` grows by in each distance between curve points
    of ``discs``: 4 pairs per disc, the first at 0.12 ... 0.88 of the
    nodes and the second 0.35 further round.  Each distance is the
    curve's arclength between them, within 1e-4*R."""
    spent = []
    for p, res in discs:
        n = p.t_nodes.size
        for frac in np.linspace(0.12, 0.88, 4):
            i = int(frac * (n - 1))
            j = int(((frac + 0.35) % 1.0) * (n - 1))
            before = count()
            d = distance(res.metric, PolarPoint(p.rho[i], res.phi[i]),
                         PolarPoint(p.rho[j], res.phi[j]))
            spent.append(count() - before)
            arc = abs(p.t_nodes[i] - p.t_nodes[j])
            assert abs(d - arc) <= 1e-4 * res.metric.R
    return spent


def test_curve_distances_need_few_shots(roundtrip_discs, shot_calls):
    """The chord bracket keeps the median at most 8 shots per distance on
    synthesized discs."""
    shots = _per_distance(roundtrip_discs, lambda: len(shot_calls))
    assert len(shots) >= 8
    assert np.median(shots) <= 8


def test_curve_distances_need_few_rhs(roundtrip_discs, monkeypatch):
    """The step rule keeps the median at most 1,400 evaluations of the
    geodesic right-hand side per distance on synthesized discs."""
    calls = [0]
    value_and_h = MetricGrid.value_and_h

    def counted(self, r, theta):
        calls[0] += 1
        return value_and_h(self, r, theta)

    monkeypatch.setattr(MetricGrid, "value_and_h", counted)
    rhs = _per_distance(roundtrip_discs, lambda: calls[0])
    assert len(rhs) >= 8
    assert np.median(rhs) <= 1400
