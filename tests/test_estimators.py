"""Tests for covariance estimators, eigendecomposition, and the
spherical comparator."""

import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from passfpca import (
    AsymmetrySurfaceError,
    ConvergenceError,
    CovarianceSurface,
    DegenerateSampleError,
    DimensionMismatchError,
    FunctionalSample,
    InsufficientSampleError,
    Pipeline,
    SampleTooLargeError,
    SimulationConfig,
    eigendecompose,
    fourier_truth,
    generate,
    inner_product,
    l2_norm,
    make_grid,
    mean_function,
    mspc,
    pass_covariance,
    sample_covariance,
    spatial_median,
)
from passfpca import estimators


def _sample(values):
    values = np.asarray(values, dtype=float)
    return FunctionalSample(values)


# ---------------------------------------------------------------------------
# mean_function


def test_mean_function_trivial():
    sample = _sample([np.zeros(6), np.full(6, 2.0)])
    np.testing.assert_allclose(mean_function(sample), np.ones(6))
    single = _sample([np.arange(6.0)])
    np.testing.assert_allclose(mean_function(single), np.arange(6.0))


def test_mean_function_recovers_truth_at_scale():
    # CLT bound: total score variance is 3.75, so at n=800 the pointwise
    # deviation stays well below 0.3.
    sample, truth = generate(SimulationConfig(n=800, seed=123))
    deviation = np.max(np.abs(mean_function(sample) - truth.mean))
    assert deviation < 0.3


# ---------------------------------------------------------------------------
# sample_covariance


def test_sample_covariance_requires_two_curves():
    with pytest.raises(InsufficientSampleError):
        sample_covariance(_sample([np.ones(5)]))


def test_sample_covariance_identical_curves_zero():
    sample = _sample([np.arange(5.0), np.arange(5.0), np.arange(5.0)])
    surface = sample_covariance(sample)
    np.testing.assert_allclose(surface.matrix, 0.0, atol=0.0)


def test_sample_covariance_symmetric_pair():
    f = np.array([1.0, -2.0, 0.5, 3.0])
    surface = sample_covariance(_sample([f, -f]))
    np.testing.assert_allclose(surface.matrix, 2.0 * np.outer(f, f),
                               rtol=1e-14)


def test_sample_covariance_matches_brute_force_exactly():
    # The accumulation order is chosen so the result matches a literal
    # double loop bit for bit on small samples.
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            values = rng.standard_normal((n, 7)) * rng.uniform(0.1, 10)
            surface = sample_covariance(_sample(values))
            n_pts = values.shape[1]
            mean = np.zeros(n_pts)
            for i in range(n):
                mean += values[i]
            mean /= n
            expected = np.zeros((n_pts, n_pts))
            for i in range(n):
                centered = values[i] - mean
                for j in range(n_pts):
                    for k in range(n_pts):
                        expected[j, k] += centered[j] * centered[k]
            expected /= n - 1
            assert np.array_equal(surface.matrix, expected)


def test_sample_covariance_is_exact_at_2_to_the_510():
    # Products of curves this large overflow a float, while the surface,
    # at about 2^1020, does not; power-of-two scaling is exact.
    values = np.random.default_rng(3).standard_normal((1000, 6))
    base = sample_covariance(_sample(values)).matrix
    big = sample_covariance(_sample(np.ldexp(values, 510))).matrix
    assert np.array_equal(big, np.ldexp(base, 1020))


def _row_loop_covariance(values):
    """The classical surface by one outer product per curve, added in
    curve order: the reference the one contraction must match bit for
    bit."""
    values, exponent = estimators._unit_scale(values)
    centered = values - values.mean(axis=0)
    acc = np.zeros((values.shape[1], values.shape[1]))
    for row in centered:
        acc += row[:, None] * row[None, :]
    return np.ldexp(acc / (values.shape[0] - 1), 2 * exponent)


@pytest.mark.parametrize("n, n_points", [(600, 401), (2000, 101),
                                         (200, 101), (50, 300)])
def test_sample_covariance_matches_the_row_loop_bitwise(n, n_points):
    # The perfbench shapes, and fewer curves than grid points.
    rng = np.random.default_rng(n + n_points)
    values = rng.standard_t(3, (n, n_points)) * 2.5 + 1.0
    assert np.array_equal(sample_covariance(_sample(values)).matrix,
                          _row_loop_covariance(values))


def test_sample_covariance_ignores_memory_layout():
    # A Fortran-ordered copy and strided views give the C-ordered
    # sample's bits: einsum sums a Fortran operand's curve axis in
    # another order, so the sample stores its curves in C order.
    rng = np.random.default_rng(8)
    wide = rng.standard_normal((240, 2 * 61))
    values = np.ascontiguousarray(wide[::2, ::2])
    expected = _row_loop_covariance(values)
    assert np.array_equal(sample_covariance(_sample(values)).matrix,
                          expected)
    for layout in (np.asfortranarray(values), wide[::2, ::2]):
        assert not layout.flags.c_contiguous
        sample = _sample(layout)
        assert sample.values.flags.c_contiguous
        assert np.array_equal(sample_covariance(sample).matrix, expected)
    # Every other stage, too: when a sample kept a Fortran-ordered copy
    # as it was, these outputs moved by up to 1.0e-15.
    sample, _ = generate(SimulationConfig(
        n=200, seed=3, score_law="lognormal", outlier_scheme="ol2",
        noise_sd=0.5))
    padded = np.zeros((sample.n, 2 * sample.grid.n_points))
    padded[:, ::2] = sample.values
    methods = ("pass", "pass_mc", "pass_elliptical", "mspc")
    expected = [Pipeline(sample).evaluate(m) for m in methods]
    for layout in (np.asfortranarray(sample.values), padded[:, ::2]):
        pipeline = Pipeline(_sample(layout))
        for method, want in zip(methods, expected):
            got = pipeline.evaluate(method)
            for name in ("eigenvalues", "eigenfunctions", "ratios",
                         "iterations", "final_delta"):
                if hasattr(want, name):
                    assert np.array_equal(getattr(got, name),
                                          getattr(want, name)), (method,
                                                                 name)


def test_sample_covariance_centres_constant_points_exactly():
    # The mean of 30 copies of a value is not always that value, so
    # centring leaves rounding noise unless constant points are zeroed.
    sample, _ = generate(SimulationConfig(n=30, seed=0))
    copies = np.tile(sample.values[0], (30, 1))
    assert np.any(copies - copies.mean(axis=0) != 0.0)
    assert not np.any(sample_covariance(_sample(copies)).matrix)
    # One constant grid point among varying ones: its row and column
    # are zero, and the rest is the row loop's.
    values = sample.values.copy()
    values[:, 7] = values[0, 7]
    matrix = sample_covariance(_sample(values)).matrix
    assert not np.any(matrix[7]) and not np.any(matrix[:, 7])
    assert np.array_equal(np.delete(np.delete(matrix, 7, 0), 7, 1),
                          _row_loop_covariance(np.delete(values, 7, 1)))


def test_sample_covariance_recovers_spectrum():
    sample, _ = generate(SimulationConfig(n=800, seed=5))
    system = eigendecompose(sample_covariance(sample), 4)
    truth = np.array([2.0, 1.0, 0.5, 0.25])
    np.testing.assert_allclose(system.eigenvalues, truth, rtol=0.25)


# ---------------------------------------------------------------------------
# pass_covariance


@pytest.mark.parametrize("n", [1, 2, 3, 600, 601, 2000])
def test_column_medians_match_numpy_median_bitwise(n):
    rng = np.random.default_rng(n)
    for values in (rng.standard_normal((n, 7)),
                   rng.integers(-3, 4, size=(n, 7)) / 4.0):
        assert (estimators._column_medians(values).tobytes()
                == np.median(values, axis=0).tobytes())


def test_pass_covariance_two_curves_rank_one():
    sample = _sample([np.array([1.0, 0.0, 2.0]),
                      np.array([0.0, 1.0, -1.0])])
    surface = pass_covariance(sample)
    system = eigendecompose(surface, 3)
    np.testing.assert_allclose(system.eigenvalues[0], 1.0, atol=1e-12)
    np.testing.assert_allclose(system.eigenvalues[1:], 0.0, atol=1e-12)


def test_pass_covariance_drops_identical_pair():
    curve = np.array([1.0, 2.0, 3.0, 4.0])
    other = np.array([0.0, -1.0, 1.0, 2.0])
    surface = pass_covariance(_sample([curve, curve, other]))
    trace = surface.grid.spacing * np.trace(surface.matrix)
    assert trace == pytest.approx(1.0, abs=1e-12)
    # Only the two distinct pairs contribute; both share the same
    # difference vector, so the surface is rank one.
    diff = curve - other
    expected = np.outer(diff, diff) / (surface.grid.spacing * diff @ diff)
    np.testing.assert_allclose(surface.matrix, expected, rtol=1e-12)


def test_pass_covariance_unit_trace_and_translation_scale_invariance():
    rng = np.random.default_rng(99)
    sample, _ = generate(SimulationConfig(n=60, score_law="frechet",
                                          seed=31))
    surface = pass_covariance(sample)
    trace = surface.grid.spacing * np.trace(surface.matrix)
    assert trace == pytest.approx(1.0, abs=1e-10)
    shift = rng.standard_normal(sample.grid.n_points)
    shifted = FunctionalSample(sample.values + shift)
    np.testing.assert_allclose(pass_covariance(shifted).matrix,
                               surface.matrix, atol=1e-12)
    scaled = FunctionalSample(sample.values * -3.7)
    np.testing.assert_allclose(pass_covariance(scaled).matrix,
                               surface.matrix, atol=1e-12)


def test_pass_covariance_huge_values():
    # Squared pair norms of these curves overflow unless the sample is
    # rescaled first.
    values = np.array([[1e200, 0.0, 0.0], [0.0, 1e200, 1.0],
                       [1.0, 2.0, 3.0]])
    surface = pass_covariance(_sample(values))
    assert np.all(np.isfinite(surface.matrix))
    assert surface.grid.spacing * np.trace(surface.matrix) == pytest.approx(
        1.0, abs=1e-12)
    np.testing.assert_allclose(
        surface.matrix, pass_covariance(_sample(values * 1e-200)).matrix,
        rtol=0.0, atol=1e-12)
    # Power-of-two scalings are exact, so the surface does not move a bit.
    for power in (-600, 300):
        scaled = pass_covariance(_sample(np.ldexp(values, power)))
        assert np.array_equal(scaled.matrix, surface.matrix)


def test_pass_covariance_near_duplicate_pairs():
    # Two pairs sit just above the coincidence cut (relative squared
    # distances 1e-10 and 5e-12 of the largest pair norm); their terms
    # must enter as exactly as the well-separated ones.
    rng = np.random.default_rng(12)
    n_points = 30
    base = rng.standard_normal((6, n_points))
    spacing = 1.0 / n_points
    diffs = base[:, None, :] - base[None, :, :]
    max_norm = spacing * np.max(np.sum(diffs ** 2, axis=2))
    directions = rng.standard_normal((2, n_points))
    directions /= np.sqrt(spacing * np.sum(directions ** 2, axis=1,
                                           keepdims=True))
    near = [base[0] + np.sqrt(1e-10 * max_norm) * directions[0],
            base[1] + np.sqrt(5e-12 * max_norm) * directions[1]]
    values = np.vstack([base, near])
    sample = _sample(values)

    n = values.shape[0]
    norms = {(i, j): spacing * np.sum((values[i] - values[j]) ** 2)
             for i in range(n) for j in range(i + 1, n)}
    largest = max(norms.values())
    for i, j, rel in ((0, 6, 1e-10), (1, 7, 5e-12)):
        assert norms[i, j] / largest == pytest.approx(rel, rel=1e-3)
    literal = np.zeros((n_points, n_points))
    kept = 0
    for (i, j), norm in norms.items():
        if norm > 1e-12 * largest:
            diff = values[i] - values[j]
            literal += np.outer(diff, diff) / norm
            kept += 1
    assert kept == len(norms)
    literal /= kept

    surface = pass_covariance(sample)
    assert spacing * np.trace(surface.matrix) == pytest.approx(1.0,
                                                               abs=1e-12)
    assert np.max(np.abs(surface.matrix - literal)) <= 1e-12


def _literal_pass(values):
    """The PASS average written out pair by pair."""
    n, n_points = values.shape
    spacing = 1.0 / n_points
    norms = {(i, j): spacing * np.sum((values[i] - values[j]) ** 2)
             for i in range(n) for j in range(i + 1, n)}
    largest = max(norms.values())
    acc = np.zeros((n_points, n_points))
    kept = 0
    for (i, j), norm in norms.items():
        if norm > 1e-12 * largest:
            diff = values[i] - values[j]
            acc += np.outer(diff, diff) / norm
            kept += 1
    return acc / kept


def _assert_matches_literal(values, scale=1.0):
    """The surface of ``values * scale`` agrees with the literal pair loop
    on ``values``, in the default blocks of rows and in blocks of one,
    two and three rows."""
    literal = _literal_pass(values)
    for rows in (None, 1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            if rows is not None:
                patch.setattr(estimators, "_BLOCK_BYTES",
                              8 * len(values) * rows)
            surface = pass_covariance(_sample(values * scale))
        assert np.max(np.abs(surface.matrix - literal)) <= 1e-12, rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 12), n_points=st.integers(3, 20),
       seed=st.integers(0, 2 ** 32 - 1),
       offset=st.floats(-1e4, 1e4),
       outlier_scale=st.floats(1.0, 1e4),
       near_rel=st.floats(1e-11, 1e-5),
       picks=st.tuples(st.integers(0, 11), st.integers(0, 11)))
def test_pass_covariance_matches_literal_pair_loop(
        n, n_points, seed, offset, outlier_scale, near_rel, picks):
    # n distinct curves, one of them an outlier, plus an exact duplicate
    # of one curve and a near duplicate of another, all under a constant
    # offset.
    rng = np.random.default_rng(seed)
    spacing = 1.0 / n_points
    base = rng.standard_normal((n, n_points))
    base[0] *= outlier_scale
    diffs = base[:, None, :] - base[None, :, :]
    largest = spacing * np.max(np.sum(diffs ** 2, axis=2))
    direction = rng.standard_normal(n_points)
    direction /= np.sqrt(spacing * direction @ direction)
    duplicate = base[picks[0] % n]
    near = base[picks[1] % n] + np.sqrt(near_rel * largest) * direction
    values = np.vstack([base, duplicate, near]) + offset
    _assert_matches_literal(values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 10), n_points=st.integers(3, 20),
       seed=st.integers(0, 2 ** 32 - 1),
       offset=st.floats(-1e6, 1e6),
       log_rel=st.floats(-5.0, -0.5),
       picks=st.tuples(st.integers(0, 9), st.integers(0, 9)))
def test_pass_covariance_gram_band_matches_literal_pair_loop(
        n, n_points, seed, offset, log_rel, picks):
    # Pairs far from the median whose squared distance is 1e-5 to 0.3 of
    # their squared norms, on both sides of the close cut (1e-3) and of
    # the edge of the exact-difference band (4e-3), plus an exact
    # duplicate, all under a constant offset.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, n_points))
    far = 10.0 * rng.standard_normal((2, n_points))
    near = far + np.sqrt(10.0 ** log_rel) * np.linalg.norm(
        far, axis=1, keepdims=True) * rng.standard_normal((2, n_points)) / (
        np.sqrt(n_points))
    values = np.vstack([base, far, near, base[picks[0] % n],
                        far[picks[1] % 2]]) + offset
    _assert_matches_literal(values)


def _symmetric_pair_sample(cut, factor, rng):
    """Curves whose coordinatewise median is exactly zero, holding the pair
    ``u + d, u - d`` (and its negatives) with squared distance ``factor``
    times the close cut ``1e-3 (r_a + r_b)`` or the coincidence cut
    ``1e-12`` times the largest pair norm; returns the curves and the
    pair's squared distance over the cut, computed from the curves."""
    n_points = 16
    spacing = 1.0 / n_points
    base = rng.standard_normal((3, n_points))
    big = 20.0 * rng.standard_normal(n_points)
    u = 2.0 * rng.standard_normal(n_points)
    w = rng.standard_normal(n_points)
    if cut == "close":
        # 4 |d|^2 = c (|u + d|^2 + |u - d|^2) = 2 c (|u|^2 + |d|^2).
        c = factor * 1e-3
        d = np.sqrt(2.0 * c * (u @ u) / ((4.0 - 2.0 * c) * (w @ w))) * w
    else:
        # The largest pair is (big, -big): 4 |d|^2 = factor 1e-12 4 |big|^2.
        d = np.sqrt(factor * 1e-12 * (big @ big) / (w @ w)) * w
    pair = np.array([u + d, u - d])
    values = np.vstack([np.zeros(n_points), base, -base, big, -big, pair,
                        -pair])
    assert not np.median(values, axis=0).any()
    diff = values[-4] - values[-3]
    sq = spacing * diff @ diff
    if cut == "close":
        radii = spacing * np.sum(values[-4:-2] ** 2)
        return values, sq / (1e-3 * radii)
    largest = max(spacing * np.sum((a - b) ** 2)
                  for a in values for b in values)
    return values, sq / (1e-12 * largest)


@pytest.mark.parametrize("factor", [1.0 - 1e-9, 1.0 + 1e-9])
@pytest.mark.parametrize("cut", ["close", "coincidence"])
def test_pass_covariance_at_the_cuts_matches_literal_pair_loop(cut, factor):
    # A pair a part in 1e9 to either side of each cut: the Gram norms err
    # by far more than that, so both cuts must read exact norms.
    values, ratio = _symmetric_pair_sample(cut, factor,
                                           np.random.default_rng(8))
    assert (ratio - 1.0) * (factor - 1.0) > 0.0
    assert abs(ratio - factor) < 1e-10
    _assert_matches_literal(values)


def test_pass_covariance_exact_duplicates_match_literal_pair_loop():
    # Repeated curves, some far from the median, are dropped as the
    # literal loop drops them; the rest enter exactly once.
    rng = np.random.default_rng(21)
    base = rng.standard_normal((8, 12))
    base[0] *= 1e3
    values = base[[0, 0, 0, 1, 2, 2, 3, 4, 5, 6, 7, 7]] + 1e4
    _assert_matches_literal(values)


def test_pass_covariance_at_1e200_matches_literal_pair_loop():
    # Scaling does not move the surface, also for curves whose squared
    # norms would overflow: duplicates, near duplicates and an outlier.
    rng = np.random.default_rng(5)
    base = rng.standard_normal((9, 10))
    base[0] *= 1e4
    values = np.vstack([base, base[3], base[4] + 1e-7 * base[5]])
    _assert_matches_literal(values, scale=1e200)


@pytest.mark.parametrize("factor", [1.0 - 1e-9, 1.0 + 1e-9])
def test_pass_covariance_near_the_median_matches_literal_pair_loop(factor):
    # Three curves at the coordinatewise median (squared norm 0 after
    # centring) and two near-median pairs (a, -a), (b, -b) whose squared
    # distances are `factor` and 2 `factor` times the coincidence cut,
    # all ahead of the largest pair (big, -big) in index order; then
    # an exact duplicate and, far from the median, a pair (u + d, u - d)
    # at `factor` times the cut.  A near-median pair's cuts are the
    # coincidence cut, known only once the largest pair norm is.
    rng = np.random.default_rng(30)
    n_points = 12
    spacing = 1.0 / n_points
    base = rng.standard_normal((3, n_points))
    big = 20.0 * rng.standard_normal(n_points)
    u = 2.0 * rng.standard_normal(n_points)
    w = rng.standard_normal((3, n_points))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    # The largest pair is (big, -big): its squared distance is 4 |big|^2.
    cut = 1e-12 * 4.0 * (big @ big)
    a = np.sqrt(factor * cut / 4.0) * w[0]
    b = np.sqrt(2.0 * factor * cut / 4.0) * w[1]
    d = np.sqrt(factor * cut / 4.0) * w[2]
    pair = np.array([u + d, u - d])
    values = np.vstack([np.zeros((3, n_points)), a, -a, b, -b, base, -base,
                        base[0], -base[0], pair, -pair, big, -big])
    assert not np.median(values, axis=0).any()
    norms = {(i, j): spacing * np.sum((values[i] - values[j]) ** 2)
             for i in range(len(values)) for j in range(i + 1, len(values))}
    largest = max(norms.values())
    assert largest == norms[len(values) - 2, len(values) - 1]
    for i, j in ((3, 4), (15, 16)):
        ratio = norms[i, j] / (1e-12 * largest)
        assert (ratio - 1.0) * (factor - 1.0) > 0.0
        assert abs(ratio - factor) < 1e-10
    _assert_matches_literal(values)


def test_pass_covariance_memory_estimate_covers_the_traced_peak(
        monkeypatch):
    sample, _ = generate(SimulationConfig(n=2000, seed=12))
    estimates = []
    monkeypatch.setattr(estimators, "_check_memory",
                        lambda n_bytes, what: estimates.append(n_bytes))
    tracemalloc.start()
    try:
        pass_covariance(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [estimate] = estimates
    assert peak <= estimate <= 1.25 * peak


@pytest.mark.parametrize("noise", [1e-13, 1e-5])
def test_pass_covariance_memory_estimate_covers_near_duplicate_clusters(
        monkeypatch, noise):
    # Two clusters of 600 copies of a and -a, jittered by `noise` times
    # |a|^2 in squared norm: every pair within a cluster is in the band,
    # coincident at 1e-13 and close at 1e-5, so the band's indices and
    # exact differences are as many as they can be.
    rng = np.random.default_rng(41)
    a = rng.standard_normal(101)
    values = np.where(np.arange(1200)[:, None] < 600, a, -a)
    values = values + np.sqrt(noise * (a @ a) / 101) * rng.standard_normal(
        values.shape)
    sample = _sample(values)
    estimates = []
    monkeypatch.setattr(estimators, "_check_memory",
                        lambda n_bytes, what: estimates.append(n_bytes))
    tracemalloc.start()
    try:
        pass_covariance(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [estimate] = estimates
    assert peak <= estimate


def test_pass_covariance_peak_has_no_n_squared_term():
    # 4000 curves on 20 points: a whole n x n array of pair norms would
    # be 128 MB; the blocked pass needs a few MB.
    sample = _sample(np.random.default_rng(40).standard_normal((4000, 20)))
    tracemalloc.start()
    try:
        pass_covariance(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_pass_covariance_fails_fast_on_huge_samples(monkeypatch):
    # With physical memory pinned a byte below the guard's estimate for
    # 2000 curves on 101 points, the guard must refuse before allocating
    # anything of that size.
    monkeypatch.setattr(
        estimators, "_physical_memory",
        lambda: estimators._pair_weight_bytes(2000, 101) - 1)
    sample = _sample(np.zeros((2000, 101)))
    tracemalloc.start()
    try:
        with pytest.raises(SampleTooLargeError):
            pass_covariance(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_physical_memory_is_optional(monkeypatch):
    memory = estimators._physical_memory()
    assert memory is None or memory > 0

    def unsupported(name):
        raise ValueError(name)

    monkeypatch.setattr(os, "sysconf", unsupported)
    assert estimators._physical_memory() is None
    # Without a reading there is no guard.
    surface = pass_covariance(_sample([[0.0, 1.0], [1.0, 0.0]]))
    assert 0.5 * np.trace(surface.matrix) == pytest.approx(1.0)


def test_pass_covariance_degenerate_sample():
    same = np.ones((4, 5))
    with pytest.raises(DegenerateSampleError):
        pass_covariance(_sample(same))
    with pytest.raises(InsufficientSampleError):
        pass_covariance(_sample([np.ones(5)]))


def test_pass_covariance_first_eigenfunction_accuracy():
    sample, truth = generate(SimulationConfig(n=200, seed=314))
    system = eigendecompose(pass_covariance(sample), 4)
    grid = sample.grid
    target = truth.eigenfunctions[:, 0]
    est = system.eigenfunctions[:, 0]
    if inner_product(est, target, grid) < 0:
        est = -est
    assert l2_norm(est - target, grid) ** 2 < 0.05


# ---------------------------------------------------------------------------
# eigendecompose


def test_eigendecompose_synthesized_surface():
    grid = make_grid(101)
    truth = fourier_truth(grid)
    matrix = (truth.eigenfunctions * truth.eigenvalues) \
        @ truth.eigenfunctions.T
    surface = CovarianceSurface(matrix)
    system = eigendecompose(surface, 4)
    np.testing.assert_allclose(system.eigenvalues, truth.eigenvalues,
                               atol=1e-2)
    for col in range(4):
        est = system.eigenfunctions[:, col]
        target = truth.eigenfunctions[:, col]
        if inner_product(est, target, grid) < 0:
            est = -est
        assert l2_norm(est - target, grid) ** 2 < 1e-3


def test_eigendecompose_zero_surface():
    surface = CovarianceSurface(np.zeros((8, 8)))
    system = eigendecompose(surface, 3)
    np.testing.assert_allclose(system.eigenvalues, 0.0, atol=0.0)


def test_eigendecompose_trace_identity_for_pass():
    sample, _ = generate(SimulationConfig(n=50, score_law="lognormal",
                                          seed=88))
    surface = pass_covariance(sample)
    system = eigendecompose(surface, surface.grid.n_points)
    assert system.eigenvalues.sum() == pytest.approx(1.0, abs=1e-8)


def test_eigendecompose_output_conventions():
    sample, _ = generate(SimulationConfig(n=80, seed=17))
    system = eigendecompose(pass_covariance(sample), 4)
    grid = sample.grid
    assert np.all(np.diff(system.eigenvalues) <= 1e-12)
    assert np.all(system.eigenvalues >= -1e-10)
    for a in range(4):
        assert l2_norm(system.eigenfunctions[:, a], grid) == pytest.approx(
            1.0, abs=1e-8)
        peak = np.argmax(np.abs(system.eigenfunctions[:, a]))
        assert system.eigenfunctions[peak, a] > 0
        for b in range(a + 1, 4):
            ip = inner_product(system.eigenfunctions[:, a],
                               system.eigenfunctions[:, b], grid)
            assert abs(ip) < 1e-8


@pytest.mark.parametrize("n_points, q", [(2, 2), (6, 1), (6, 6), (40, 4),
                                         (40, 40), (101, 4), (401, 4)])
def test_eigendecompose_matches_full_eigh(n_points, q):
    # numpy's full eigh, cut to the top q, against scipy's subset solver
    # (a different LAPACK driver) on random symmetric matrices, under the
    # same ordering, sign rule and scaling.
    rng = np.random.default_rng(1000 + 10 * n_points + q)
    a = rng.standard_normal((n_points, n_points))
    matrix = (a + a.T) / 2.0
    system = eigendecompose(CovarianceSurface(matrix), q)
    evals, evecs = scipy.linalg.eigh(
        matrix, subset_by_index=[n_points - q, n_points - 1])
    evals, evecs = evals[::-1], evecs[:, ::-1]
    peaks = np.argmax(np.abs(evecs), axis=0)
    evecs = evecs * np.sign(evecs[peaks, np.arange(q)])
    spacing = 1.0 / n_points
    np.testing.assert_allclose(system.eigenvalues, evals * spacing,
                               rtol=0, atol=1e-12 * np.abs(evals).max())
    np.testing.assert_allclose(system.eigenfunctions,
                               evecs * np.sqrt(n_points), rtol=0,
                               atol=1e-10)


def test_eigendecompose_rejects_bad_inputs():
    asym = np.eye(6)
    asym[0, 5] = 1.0
    with pytest.raises(AsymmetrySurfaceError):
        CovarianceSurface(asym)
    with pytest.raises(DimensionMismatchError):
        CovarianceSurface(np.where(np.eye(6) > 0, np.nan, 0.0))
    surface = CovarianceSurface(np.eye(6))
    with pytest.raises(DimensionMismatchError):
        eigendecompose(surface, 0)
    with pytest.raises(DimensionMismatchError):
        eigendecompose(surface, 7)


# ---------------------------------------------------------------------------
# spatial_median


def test_spatial_median_single_curve():
    curve = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    median = spatial_median(_sample([curve]))
    np.testing.assert_allclose(median, curve)
    # Coincident curves are their own median, exactly.
    sample, _ = generate(SimulationConfig(n=30, seed=0))
    copies = np.tile(sample.values[0], (30, 1))
    assert np.array_equal(spatial_median(_sample(copies)), copies[0])


def test_spatial_median_symmetric_sample():
    rng = np.random.default_rng(3)
    center = rng.standard_normal(21)
    offsets = rng.standard_normal((4, 21))
    values = np.concatenate([center + offsets, center - offsets])
    median = spatial_median(_sample(values), tol=1e-10)
    np.testing.assert_allclose(median, center, atol=1e-6)


def test_spatial_median_matches_brute_force():
    # Three non-collinear curves: search the affine span on a fine grid
    # of barycentric weights and compare objectives at the optimum.
    curves = np.array([[1.0, 0.0, 0.0, 1.0],
                       [0.0, 2.0, 0.0, -1.0],
                       [0.0, 0.0, 3.0, 0.5]])
    sample = _sample(curves)
    grid = sample.grid

    def objective(m):
        return sum(np.sqrt(grid.spacing * np.sum((c - m) ** 2))
                   for c in curves)

    best_val = np.inf
    best_point = None
    mesh = np.linspace(-0.2, 1.2, 71)
    for a in mesh:
        for b in mesh:
            point = (a * curves[0] + b * curves[1]
                     + (1 - a - b) * curves[2])
            val = objective(point)
            if val < best_val:
                best_val, best_point = val, point
    median = spatial_median(sample, tol=1e-12, max_iter=2000)
    assert objective(median) <= best_val + 1e-9
    assert np.max(np.abs(median - best_point)) < 0.05
    assert abs(objective(median) - best_val) < 1e-3


def test_spatial_median_nonconvergence_carries_iterate():
    sample, _ = generate(SimulationConfig(n=50, seed=2))
    with pytest.raises(ConvergenceError) as info:
        spatial_median(sample, tol=1e-15, max_iter=2)
    err = info.value
    assert err.last_iterate.shape == (sample.grid.n_points,)
    assert err.iterations == 2
    assert err.final_delta > 0


# ---------------------------------------------------------------------------
# mspc


def test_mspc_symmetric_pair_recovers_direction():
    rng = np.random.default_rng(21)
    center = rng.standard_normal(31)
    f = rng.standard_normal(31)
    sample = _sample([center + f, center - f])
    system = mspc(sample, 1)
    grid = sample.grid
    direction = f / l2_norm(f, grid)
    est = system.eigenfunctions[:, 0]
    if inner_product(est, direction, grid) < 0:
        est = -est
    np.testing.assert_allclose(est, direction, atol=1e-5)


def test_mspc_degenerate():
    with pytest.raises(DegenerateSampleError):
        mspc(_sample(np.ones((3, 5))), 1)
    # Copies of a curve whose mean is inexact: the median is the curve
    # itself, not a Weiszfeld iterate within rounding of it.
    sample, _ = generate(SimulationConfig(n=30, seed=0))
    with pytest.raises(DegenerateSampleError):
        mspc(_sample(np.tile(sample.values[0], (30, 1))), 4)
    with pytest.raises(InsufficientSampleError):
        mspc(_sample([np.ones(5)]), 1)


def test_mspc_gaussian_first_eigenfunction():
    # Single replicate sanity check; the replicated accuracy bands live
    # in the acceptance suite.
    sample, truth = generate(SimulationConfig(n=200, seed=2718))
    system = mspc(sample, 4)
    grid = sample.grid
    target = truth.eigenfunctions[:, 0]
    est = system.eigenfunctions[:, 0]
    if inner_product(est, target, grid) < 0:
        est = -est
    assert l2_norm(est - target, grid) ** 2 < 0.1


def test_mspc_is_scale_free_at_1e160():
    # Squared distances of curves this large overflow a float unless the
    # median's iteration and the signs run on a rescaled copy.
    sample, _ = generate(SimulationConfig(n=50, score_law="lognormal",
                                          outlier_scheme="ol2", seed=5))
    base = mspc(sample, 4)
    big_sample = FunctionalSample(sample.values * 1e160)
    big = mspc(big_sample, 4)
    np.testing.assert_allclose(big.eigenfunctions, base.eigenfunctions,
                               rtol=0, atol=1e-6)
    np.testing.assert_allclose(big.eigenvalues, base.eigenvalues,
                               rtol=1e-6)
    np.testing.assert_allclose(spatial_median(big_sample) / 1e160,
                               spatial_median(sample), rtol=0, atol=1e-6)


def test_pass_and_classical_agree_on_clean_large_samples():
    # With no contamination both surfaces share their eigenfunctions in
    # the limit; at n=800 the leading ones agree to within 10 degrees
    # for a typical draw of every score law.  (Rare heavy-tailed draws
    # can swap the classical estimator's components entirely, which is
    # the failure mode the pairwise estimator exists to avoid.)
    for law in ("gaussian", "multivariate_t", "frechet", "chisquare",
                "lognormal"):
        sample, _ = generate(SimulationConfig(n=800, score_law=law,
                                              seed=12345))
        grid = sample.grid
        pass_first = eigendecompose(pass_covariance(sample),
                                    1).eigenfunctions[:, 0]
        classical_first = eigendecompose(sample_covariance(sample),
                                         1).eigenfunctions[:, 0]
        cosine = abs(inner_product(pass_first, classical_first, grid))
        angle = np.degrees(np.arccos(min(cosine, 1.0)))
        assert angle < 10.0, f"{law}: {angle:.1f} degrees"
