import re
import tracemalloc
from itertools import chain, combinations, islice, permutations

import numpy as np
import pytest

from geoprofile import (SampledFunction, divided_difference, holder_seminorm,
                        whitney_extend, HypothesisViolation)
from geoprofile.calibration import random_whitney_dataset
from geoprofile.whitney import (holder_seminorm_pairs,
                                check_extension_hypotheses, extension_bounds,
                                _extension_sweep)


def brute_divided_difference(x, y):
    """Textbook recursion, independent of the library implementation."""
    if len(x) == 1:
        return y[0]
    return (brute_divided_difference(x[:-1], y[:-1])
            - brute_divided_difference(x[1:], y[1:])) / (x[0] - x[-1])


def test_second_difference_of_square():
    s = SampledFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0]))
    assert divided_difference(s, [0, 1, 2]) == 1.0


def test_constant_vanishes():
    s = SampledFunction(np.array([0.0, 0.5, 2.0]), np.full(3, 3.7))
    assert divided_difference(s, [0, 1, 2]) == 0.0


def test_cubic_leading_coefficient():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    s = SampledFunction(x, x ** 3)
    got = divided_difference(s, [0, 1, 2, 3])
    expect = brute_divided_difference(list(x), list(x ** 3))
    assert abs(got - expect) < 1e-14
    assert abs(got - 1.0) < 1e-14


def test_permutation_symmetry(rng):
    x = np.sort(rng.uniform(0, 1, 7))
    y = rng.normal(size=7)
    s = SampledFunction(x, y)
    for size in (2, 3, 4, 5):
        for subset in combinations(range(7), size):
            base = divided_difference(s, list(subset))
            for perm in list(permutations(subset))[:8]:
                # permuted index lists must give the same value
                xs = x[list(perm)]
                ys = y[list(perm)]
                val = brute_divided_difference(list(xs), list(ys))
                assert abs(val - base) < 1e-9 * max(1, abs(base))


def test_duplicate_points_rejected():
    s = SampledFunction(np.array([0.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        divided_difference(s, [0, 1, 1])


def test_holder_seminorm_constant_and_linear():
    x = np.linspace(0, 1, 50)
    assert holder_seminorm(SampledFunction(x, np.ones(50)), 0.5) == 0.0
    assert abs(holder_seminorm(SampledFunction(x, x), 1.0) - 1.0) < 1e-12


def test_holder_seminorm_sqrt_on_dyadic_grid():
    x = np.concatenate(([0.0], np.sort(2.0 ** -np.arange(1, 20, dtype=float))))
    y = np.sqrt(x)
    got = holder_seminorm(SampledFunction(x, y), 0.5)
    # brute force over pairs
    brute = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            brute = max(brute, abs(y[i] - y[j]) / abs(x[i] - x[j]) ** 0.5)
    assert abs(got - brute) < 1e-12
    assert abs(got - 1.0) < 1e-12


def test_two_point_extension_is_line():
    s = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    ext = whitney_extend(s, 1.0, 1.0, 1.0, (0.0, 1.0))
    g = np.linspace(0, 1, 101)
    assert np.max(np.abs(ext(g) - g)) < 1e-14
    assert abs(ext.measured_sup_deriv - 1.0) < 1e-12


def test_quadratic_extension_bounds():
    x = np.array([0.0, 0.5, 1.0])
    s = SampledFunction(x, x ** 2)
    # secants have slope <= 1.5, slope gaps <= 2 * diam
    ext = whitney_extend(s, 1.0, 1.6, 2.0, (0.0, 1.0))
    assert np.max(np.abs(ext(x) - x ** 2)) < 1e-12
    assert ext.measured_holder_deriv <= 2.0 * ext.c_w + 1e-9


def test_interpolation_exactness(rng):
    for _ in range(20):
        s, T1, T2, interval = random_whitney_dataset(rng)
        ext = whitney_extend(s, 0.5, T1, T2, interval)
        assert np.max(np.abs(ext(s.x) - s.y)) <= 1e-12 * max(
            1.0, np.max(np.abs(s.y)))


def test_violation_reports_witness():
    x = np.array([0.0, 0.5, 1.0])
    y = np.array([0.0, 10.0, 0.0])   # violates both conditions by far
    s = SampledFunction(x, y)
    with pytest.raises(HypothesisViolation) as err:
        whitney_extend(s, 1.0, 1.0, 1.0, (0.0, 1.0))
    assert len(err.value.witness) >= 2


def test_interval_length_guard():
    s = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    with pytest.raises(HypothesisViolation):
        whitney_extend(s, 0.5, 1.0, 100.0, (0.0, 1.0))


def test_scaling_covariance(rng):
    """Extending f(lambda x) and rescaling equals rescaling the extension."""
    alpha = 0.5
    s, T1, T2, _ = random_whitney_dataset(rng)
    lam = (T1 / T2) ** (1 / alpha)
    ext = whitney_extend(s, alpha, T1, T2, (0.0, 1.0))
    xs = s.x / lam
    ss = SampledFunction(xs, s.y)
    ext_s = whitney_extend(ss, alpha, T1 * lam, T2 * lam ** (1 + alpha),
                           (0.0, 1.0 / lam))
    g = np.linspace(0, 1, 257)
    a = ext(g)
    b = ext_s(g / lam)
    assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(a)))


def test_finiteness_surrogate_second_differences(rng):
    """If all 4-point divided differences are bounded, the second
    difference-quotient field has bounded Hölder seminorm."""
    alpha = 0.5
    t = np.linspace(0.0, 1.0, 400)
    y = np.sin(3.0 * t) + 0.2 * t ** 2
    s = SampledFunction(t, y)
    # A = sup |f[X]| diam(X)^(1-alpha) over random 4-point subsets
    A = 0.0
    for _ in range(2000):
        idx = np.sort(rng.choice(400, size=4, replace=False))
        val = brute_divided_difference(list(t[idx]), list(y[idx]))
        A = max(A, abs(val) * (t[idx[-1]] - t[idx[0]]) ** (1 - alpha))
    # second difference-quotient field ~ f''/2
    quot = np.array([
        brute_divided_difference(list(t[i - 1:i + 2]), list(y[i - 1:i + 2]))
        for i in range(1, 399)])
    semi = holder_seminorm(SampledFunction(t[1:-1], quot), alpha)
    assert semi <= 8.0 * A


def dense_holder(values, points, alpha, resolution=None):
    """All pairs at once, as one N x N matrix: the reference formula."""
    v = np.asarray(values, dtype=float)
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    d = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(-1))
    dv = np.abs(v[:, None] - v[None, :])
    if resolution is not None:
        dv = np.maximum(dv - resolution[:, None] - resolution[None, :], 0.0)
    mask = d > 0
    return float(np.max(dv[mask] / d[mask] ** alpha, initial=0.0))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [7, 128, 389])
@pytest.mark.parametrize("with_resolution", [False, True])
def test_holder_pairs_equals_dense_reference(dim, n, with_resolution):
    rng = np.random.default_rng(n * 10 + dim)
    pts = rng.uniform(1e-5, 1.0, size=(n, dim) if dim > 1 else n)
    if dim == 1:
        pts = np.sort(pts)
    pts[n // 2] = pts[n // 3]          # a duplicate point pair is skipped
    vals = np.sin(7.0 * np.atleast_2d(pts.T).sum(0)) + rng.normal(0, 1e-3, n)
    res = rng.uniform(0.0, 1e-3, n) if with_resolution else None
    for alpha in (0.5, 1.0):
        got = holder_seminorm_pairs(vals, pts, alpha, resolution=res)
        assert got == dense_holder(vals, pts, alpha, res)
        assert got > 0.0


def test_holder_pairs_equals_dense_reference_at_both_pruning_extremes():
    """Pure noise: the closest pairs win, and every block pair but the
    diagonal ones and their neighbours is pruned by its bound.  A linear
    function at alpha = 1: every quotient is at most its gradient's norm
    and every bound exceeds it, so no block pair is pruned.  Smooth
    data lies between the two."""
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 1.0, 1025)
    pts = rng.uniform(0.0, 1.0, (700, 2))
    cases = [(rng.normal(size=x.size), x, 0.5),
             (rng.normal(size=700), pts, 0.5),
             (x, x, 1.0),
             (pts[:, 0] - 2.0 * pts[:, 1], pts, 1.0),
             (np.sin(9.0 * x), x, 0.5),
             (np.sqrt(x), x, 0.5)]
    for vals, p, alpha in cases:
        assert holder_seminorm_pairs(vals, p, alpha) == dense_holder(
            vals, p, alpha)
        res = rng.uniform(0.0, 1e-3, vals.size)
        assert holder_seminorm_pairs(vals, p, alpha, res) == dense_holder(
            vals, p, alpha, res)


@pytest.mark.parametrize("with_resolution", [False, True])
def test_holder_pairs_edge_inputs_equal_dense_reference(with_resolution):
    """Unsorted points on a line, duplicate points straddling block
    boundaries, all-equal points or values, n = 2 and 3-d points."""
    rng = np.random.default_rng(12)
    line = rng.uniform(0.0, 1.0, 300)
    # each point repeated 1 to 3 times: duplicate groups straddle the
    # block boundaries; their pairs have distance 0 and are skipped
    repeated = np.repeat(np.sort(line), rng.integers(1, 4, line.size))
    cases = [(np.cos(5.0 * line) + rng.normal(0.0, 1e-3, line.size), line),
             (rng.normal(size=repeated.size), repeated),
             (rng.normal(size=50), np.full(50, 0.25)),
             (np.full(50, 3.0), rng.uniform(0.0, 1.0, (50, 2))),
             (np.array([1.0, -2.0]), np.array([0.3, 0.1])),
             (rng.normal(size=400), rng.uniform(0.0, 1.0, (400, 3)))]
    for vals, pts in cases:
        res = (rng.uniform(0.0, 1e-3, vals.size) if with_resolution
               else None)
        for alpha in (0.5, 1.0):
            got = holder_seminorm_pairs(vals, pts, alpha, resolution=res)
            assert got == dense_holder(vals, pts, alpha, res)
    order = rng.permutation(line.size)
    vals = np.sin(7.0 * line)
    assert (holder_seminorm_pairs(vals[order], line[order], 0.5)
            == holder_seminorm_pairs(vals, line, 0.5))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
def test_holder_pairs_secant_bound_equals_dense_reference(alpha):
    """On a line each block pair is also bounded by the largest adjacent
    secant from its first block to its last.  A step between two adjacent
    samples, inside a block and across a block boundary: a near pair
    wins at alpha = 0.5 and 1, a pair of distant blocks at 0.1.  Smooth
    data plus noise keeps more block pairs above the best than one pass
    evaluates (at alpha = 1 and 0.5).  17 points leave a last block of
    one point; 0 points give 0.  Extreme scales: subnormal values, points spaced about
    1e-160, whose squared distances are not normal floats, and secants
    that overflow to inf while the quotients stay finite."""
    rng = np.random.default_rng(13)
    x = np.linspace(0.0, 1.0, 1025)          # 32 blocks of 33 points
    cases = []
    for k in (10 * 33 + 16, 10 * 33 - 1):    # inside a block, across
        y = x.copy()
        y[k + 1:] += 0.5
        cases.append((y, x))
    cases.append((x + rng.normal(0.0, 1e-9, x.size), x))
    cases.append((np.sqrt(x) + rng.normal(0.0, 1e-6, x.size), x))
    cases.append((np.sin(3.0 * x[:17]), x[:17]))   # a last block of 1
    cases.append((x[:0], x[:0]))
    cases.append((1e-310 * np.sin(3.0 * x), x))
    tiny = 1e-160 * np.cumsum(rng.uniform(0.5, 1.5, 300))
    cases.append((tiny / 1e-160 * (1.0 + rng.normal(0.0, 1e-9, 300)), tiny))
    if alpha < 1:
        cases.append((1e300 * rng.normal(size=x.size), 1e-8 * x))
    for vals, pts in cases:
        assert holder_seminorm_pairs(vals, pts, alpha) == dense_holder(
            vals, pts, alpha)
    y = np.sin(3.0 * x)
    y[500] = np.nan                    # in a middle block
    assert np.isnan(holder_seminorm_pairs(y, x, alpha))


def test_holder_seminorm_matches_dense_reference():
    """On a line the kernel's sqrt(d*d) equals |d| bit for bit."""
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(1e-5, 1.0, 2049))
    y = np.cos(9.0 * x) + rng.normal(0.0, 1e-4, x.size)
    dx = np.abs(x[:, None] - x[None, :])
    dy = np.abs(y[:, None] - y[None, :])
    mask = dx > 0
    want = float(np.max(dy[mask] / dx[mask] ** 0.5, initial=0.0))
    assert holder_seminorm(SampledFunction(x, y), 0.5) == want


def test_holder_pairs_nan_gives_nan():
    x = np.linspace(0.0, 1.0, 259)
    y = x ** 2
    y[-1] = np.nan                     # in the last block
    assert np.isnan(holder_seminorm_pairs(y, x, 0.5))
    y = x ** 2
    y[0] = np.nan                      # in the first block
    assert np.isnan(holder_seminorm_pairs(y, x, 0.5))


def test_holder_pairs_inf_and_nan_give_nan():
    """Values holding an inf and a NaN give NaN, as the dense formula
    does: the inf quotient, found first, does not end the search before
    the NaN's block pairs are evaluated."""
    x = np.linspace(0.0, 1.0, 1025)
    y = np.sin(x)
    y[3] = np.inf                      # in the first block
    y[700] = np.nan                    # in a middle block
    with np.errstate(invalid="ignore"):    # inf - inf on the diagonal
        assert np.isnan(dense_holder(y, x, 0.5))
        assert np.isnan(holder_seminorm_pairs(y, x, 0.5))


def test_holder_pairs_memory_is_linear():
    """2049 points, the derivative grid of WhitneyExtension: one dense
    N x N pass over them peaks at about 132 MB."""
    x = np.linspace(0.0, 1.0, 2049)
    y = np.sqrt(x)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        holder_seminorm_pairs(y, x, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak


def dense_pair_maximum(x, y):
    """max |dy|/|dx| over the upper triangle of pairs, from dense N x N
    arrays; NaN when a value is NaN."""
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    iu = np.triu_indices(x.size, 1)
    return float(np.max(np.abs(dy[iu] / dx[iu])))


@pytest.mark.parametrize("damage", ["jump_late", "jump_last_row",
                                    "nan_middle", "nan_first", "intact"])
def test_pair_condition_equals_dense_reference(damage):
    """The check raises exactly when some pair breaks |dy| <= T1|dx|; its
    message carries the all-pairs maximum, attained by the adjacent pair
    it names as witness."""
    n = 389
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = 0.5 * np.sin(x)
    T1 = 0.6
    if damage == "jump_late":
        y[296:] += 0.05
    elif damage == "jump_last_row":
        y[-1] += 0.05
    elif damage == "nan_middle":
        y[200] = np.nan
    elif damage == "nan_first":
        y[0] = np.nan
    dense = dense_pair_maximum(x, y)
    s = SampledFunction(x, y)
    if dense <= T1:
        check_extension_hypotheses(s, 0.5, T1, 1e6)
        assert damage == "intact"
        return
    with pytest.raises(HypothesisViolation) as err:
        check_extension_hypotheses(s, 0.5, T1, 1e6)
    assert str(err.value).startswith("pair condition")
    quotient = float(re.search(r"\): (\S+) > ",
                               str(err.value)).group(1))
    i, j = np.searchsorted(x, err.value.witness)
    assert j == i + 1
    attained = abs(y[j] - y[i]) / (x[j] - x[i])
    if np.isnan(dense):
        assert np.isnan(quotient) and np.isnan(attained)
    else:
        assert quotient == dense == attained


def test_pair_condition_memory_is_linear():
    """3000 samples passing both conditions: the dense pair arrays of one
    N x N pass peak at about 309 MB."""
    x = np.linspace(0.0, 1.0, 3000)
    s = SampledFunction(x, 0.5 * np.sin(x))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        secants = check_extension_hypotheses(s, 0.5, 1.0, 1e3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(secants, np.diff(s.y) / np.diff(x))
    assert peak <= 32 * 2 ** 20, peak


def reference_triple_quotients(x, y, alpha, triples, chunk=400_000):
    """|s_ij - s_jk| / (x_k - x_i)^alpha and the triples, for the index
    triples listed, in chunks so memory stays bounded."""
    triples = iter(triples)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(triples, chunk)),
                           dtype=np.intp)
        if flat.size == 0:
            return
        i, j, k = flat.reshape(-1, 3).T
        s_ij = (y[i] - y[j]) / (x[i] - x[j])
        s_jk = (y[j] - y[k]) / (x[j] - x[k])
        yield np.abs(s_ij - s_jk) / (x[k] - x[i]) ** alpha, (i, j, k)


@pytest.mark.parametrize("n", [3, 25, 400, 401])
def test_extension_sweep_equals_combinations_reference(n):
    """Every triple up to n = 400, adjacent triples above: the sweep's
    worst pair and triple equal the references', and each witness
    attains its maximum.  On this smooth data non-adjacent triples win."""
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = np.abs(x - 0.5) ** 1.5 + 0.1 * np.sin(5.0 * x)
    alpha = 0.5
    triples = (combinations(range(n), 3) if n <= 400
               else ((i, i + 1, i + 2) for i in range(n - 2)))
    want = max(float(np.max(q))
               for q, _ in reference_triple_quotients(x, y, alpha, triples))
    secants, (q1, (i, j)), (q2, (a, b, c)) = _extension_sweep(x, y, alpha)
    assert np.array_equal(secants, np.diff(y) / np.diff(x))
    assert q1 == dense_pair_maximum(x, y) == abs(y[j] - y[i]) / (x[j] - x[i])
    assert q2 == want
    [(at_witness, _)] = reference_triple_quotients(x, y, alpha, [(a, b, c)])
    assert at_witness[0] == want
    if n == 25 or n == 400:
        assert c - a > 2
    for bad in (0, n // 2, n - 1):
        y_nan = y.copy()
        y_nan[bad] = np.nan
        with pytest.raises(HypothesisViolation):
            check_extension_hypotheses(SampledFunction(x, y_nan), alpha,
                                       np.inf, np.inf)


def test_extension_bounds_are_accepted(rng):
    """whitney_extend accepts the bounds extension_bounds gives, also on
    a net whose worst triple is not adjacent (secants 0, 1, 2: triple
    (0, 1, 3) has gap 1.5 over diam 3, above 1/sqrt(2) of each adjacent
    triple)."""
    alpha = 0.5
    for _ in range(20):
        s, _, _, interval = random_whitney_dataset(rng, alpha=alpha)
        whitney_extend(s, alpha, *extension_bounds(s, alpha, interval),
                       interval)
    s = SampledFunction(np.array([0.0, 1.0, 2.0, 3.0]),
                        np.array([0.0, 0.0, 1.0, 3.0]))
    T1, T2 = extension_bounds(s, alpha, (0.0, 3.0))
    assert T2 > 1.5 / 3.0 ** 0.5 > 2.0 ** -0.5
    ext = whitney_extend(s, alpha, T1, T2, (0.0, 3.0))
    assert np.max(np.abs(ext(s.x) - s.y)) < 1e-12
    with pytest.raises(HypothesisViolation, match="triple condition"):
        whitney_extend(s, alpha, T1, 2.0 ** -0.5 * (1 + 1e-9), (0.0, 3.0))
