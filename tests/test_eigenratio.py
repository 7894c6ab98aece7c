"""Tests for pair projections, the fixed-point ratio solvers, and the
convergence diagnostic."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.spatial.distance import pdist

from passfpca import (
    DegenerateSampleError,
    DimensionMismatchError,
    EigenSystem,
    FunctionalSample,
    PairScores,
    SCORE_LAWS,
    SampleTooLargeError,
    SimulationConfig,
    ThresholdError,
    convergence_condition,
    cpve,
    eigendecompose,
    eigenratio_elliptical,
    eigenratio_mc,
    elliptical_expectation,
    generate,
    make_grid,
    pair_scores,
    pass_covariance,
    rank_select,
    sample_covariance,
)
from passfpca import eigenratio, estimators


def _gaussian_fit(n, seed, trim=0.0):
    sample, _ = generate(SimulationConfig(n=n, seed=seed))
    system = eigendecompose(pass_covariance(sample), 4)
    scores = pair_scores(sample, system, 4, trim)
    return sample, system, scores


def _synthetic_pairscores(rng, n_pairs, q):
    """Standardized i.i.d. Gaussian projections with no trimming."""
    raw = rng.standard_normal((n_pairs, q))
    raw = raw / np.sqrt(np.mean(raw ** 2, axis=0))
    return PairScores(np.square(raw), np.ones(q),
                      np.ones(n_pairs, dtype=bool))


def _stable_sort_reference(sample, basis, trim_fraction):
    """Pair scores written out literally: per component, a stable
    ascending argsort of the magnitudes trims the last
    ``ceil(trim_fraction * P)``, so ties go at the highest index.

    Returns the ``(P, q)`` raw pair projections and their per-component
    retention, the standardizers, and the squared scores of the jointly
    retained pairs without their all-zero rows.
    """
    proj = sample.grid.spacing * (sample.values @ basis)
    i_idx, j_idx = np.triu_indices(sample.n, k=1)
    raw = proj[i_idx] - proj[j_idx]
    n_pairs, q = raw.shape
    n_trim = math.ceil(trim_fraction * n_pairs)
    retained = np.ones((n_pairs, q), dtype=bool)
    for col in range(q):
        order = np.argsort(np.abs(raw[:, col]), kind="stable")
        retained[order[n_pairs - n_trim:], col] = False
    standardizers = np.array([np.mean(raw[retained[:, col], col] ** 2)
                              for col in range(q)])
    squared = raw[retained.all(axis=1)] ** 2 / standardizers
    return raw, retained, standardizers, squared[squared.any(axis=1)]


def _assert_matches_reference(scores, sample, basis, trim_fraction):
    """Check ``scores`` against :func:`_stable_sort_reference`: the joint
    mask exactly, the standardizers and squared scores to rounding."""
    raw, retained, standardizers, squared = _stable_sort_reference(
        sample, basis, trim_fraction)
    np.testing.assert_array_equal(scores.joint_mask, retained.all(axis=1))
    np.testing.assert_allclose(scores.standardizers, standardizers,
                               rtol=1e-12)
    np.testing.assert_allclose(scores.squared, squared, rtol=1e-12)
    return raw, retained


# ---------------------------------------------------------------------------
# pair_scores


def test_pair_scores_single_pair():
    values = np.vstack([np.zeros(6), np.linspace(0, 1, 6)])
    sample = FunctionalSample(values)
    system = eigendecompose(pass_covariance(sample), 2)
    scores = pair_scores(sample, system, 2, trim_fraction=0.0)
    assert scores.n_pairs == 1
    squared = scores.squared[0]
    for col in range(2):
        if scores.standardizers[col] > 0:
            assert squared[col] == pytest.approx(1.0, rel=1e-10)


def test_pair_scores_column_means_without_trimming():
    _, _, scores = _gaussian_fit(n=200, seed=42, trim=0.0)
    assert scores.joint_mask.all()
    assert scores.squared.shape == (scores.n_pairs, 4)
    means = np.mean(scores.squared, axis=0)
    np.testing.assert_allclose(means, 1.0, atol=1e-10)


def test_pair_scores_trim_counts(monkeypatch):
    sample, system, _ = _gaussian_fit(n=40, seed=9)
    n_pairs = 40 * 39 // 2
    # The kept rows move in one block of a column, then in eight.
    for block_bytes in (eigenratio._BLOCK_BYTES, 256 * 100):
        monkeypatch.setattr(eigenratio, "_BLOCK_BYTES", block_bytes)
        for fraction in (0.01, 0.05, 0.1):
            scores = pair_scores(sample, system, 4, trim_fraction=fraction)
            _, retained = _assert_matches_reference(
                scores, sample, system.eigenfunctions, fraction)
            expected = math.ceil(fraction * n_pairs)
            np.testing.assert_array_equal((~retained).sum(axis=0),
                                          expected)


def test_pair_scores_trimmed_are_the_largest():
    sample, system, _ = _gaussian_fit(n=30, seed=4)
    scores = pair_scores(sample, system, 4, trim_fraction=0.05)
    raw, retained = _assert_matches_reference(
        scores, sample, system.eigenfunctions, 0.05)
    magnitudes = np.abs(raw)
    for col in range(4):
        kept = magnitudes[retained[:, col], col]
        cut = magnitudes[~retained[:, col], col]
        assert kept.max() <= cut.min() + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 30), log_points=st.integers(1, 4),
       q=st.integers(1, 3), trim_fraction=st.floats(0.001, 0.1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pair_scores_trim_matches_stable_sort_on_ties(
        n, log_points, q, trim_fraction, seed):
    # Small-integer curves and basis on a power-of-two grid make every
    # projection exact, so many pairs tie at the trimming threshold.
    rng = np.random.default_rng(seed)
    n_points = 2 ** log_points
    values = rng.integers(-2, 3, size=(n, n_points)).astype(float)
    basis = rng.integers(-1, 2, size=(n_points, q)).astype(float)
    basis[0] = 1.0
    system = EigenSystem(np.ones(q), basis)
    sample = FunctionalSample(values)
    try:
        scores = pair_scores(sample, system, q, trim_fraction)
    except DegenerateSampleError:
        return
    _assert_matches_reference(scores, sample, basis, trim_fraction)


def _selection_columns(size):
    """Columns that stress the selection's bound: ties everywhere, a
    mass of zeros, sorted runs, and one whose sample reads high, so
    that the first bound admits too few candidates."""
    rng = np.random.default_rng(size)
    mostly_zero = np.zeros(size)
    spread = rng.choice(size, size // 50, replace=False)
    mostly_zero[spread] = rng.integers(1, 4, spread.size)
    # Every sampled offset holds 2.0 and the largest values, 5.0, sit
    # only at offsets the sample skips.  Every rank of the sample gives
    # the bound 2.0, which fewer than n_trim = 0.1 * size values reach,
    # so the bound must widen past the sample.
    sampled = np.zeros(size, dtype=bool)
    sampled[eigenratio._sample_offsets(size)] = True
    widening = np.where(sampled, 2.0, 1.0)
    widening[np.flatnonzero(~sampled)[::97]] = 5.0
    assert np.count_nonzero(widening >= 2.0) < math.ceil(0.1 * size)
    return {"all_equal": np.full(size, 0.25),
            "mostly_zero": mostly_zero,
            "ascending": np.arange(size, dtype=float),
            "descending": np.arange(size, 0, -1, dtype=float),
            "widening": widening}


@pytest.mark.parametrize("block_rows", [None, 100])
@pytest.mark.parametrize("size", [4950, 19_900])
def test_selection_matches_stable_sort(monkeypatch, size, block_rows):
    # The cleared set is the last n_trim of a stable ascending argsort:
    # ties at the threshold go to the highest indices, also when the
    # scan for them from the end crosses blocks of 100 rows.
    if block_rows is not None:
        monkeypatch.setattr(eigenratio, "_BLOCK_BYTES", 256 * block_rows)
    for name, column in _selection_columns(size).items():
        before = column.copy()
        for count in (1, math.ceil(0.02 * size), math.ceil(0.1 * size),
                      size - 1):
            order = np.argsort(column, kind="stable")
            expected = np.sort(order[size - count:])
            cleared = eigenratio._largest_indices(column, count)
            np.testing.assert_array_equal(cleared, expected,
                                          err_msg=f"{name}, {count}")
        np.testing.assert_array_equal(column, before)


def _assert_small_selection_among_zeros(nonzero, size):
    """Ones at ``nonzero`` among ``size`` zeros, with 2% to clear: the
    threshold is zero, and the selection's traced peak stays under 3
    bytes a value."""
    column = np.zeros(size)
    column[nonzero] = 1.0
    tracemalloc.start()
    try:
        cleared = eigenratio._largest_indices(column, size // 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * size
    zeros = np.flatnonzero(column == 0.0)
    np.testing.assert_array_equal(cleared, np.union1d(
        nonzero, zeros[zeros.size - (size // 50 - nonzero.size):]))


def test_selection_scratch_stays_small_on_a_mass_of_ties():
    # 99% zeros, as from coincident curves, with the threshold at zero:
    # the zeros it clears are found by a scan from the end and never
    # become candidates, which would take 16 bytes a value.
    size = 1_000_000
    _assert_small_selection_among_zeros(np.sort(np.random.default_rng(
        8).choice(size, size // 100, replace=False)), size)


def test_selection_scratch_stays_small_on_values_at_a_stride():
    # Ones at every 100th offset: a sample taken at a stride of 100
    # would read only ones and widen its bound to -inf, which makes
    # every value a candidate.
    size = 1_000_000
    _assert_small_selection_among_zeros(np.arange(0, size, 100), size)


@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 600, 2000])
def test_pair_differences_are_bitwise_pdist(n):
    # Slices for the early rows, one gather for the last 256: the same
    # bits as scipy's condensed squared distances, pair for pair.
    rng = np.random.default_rng(n)
    column = rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, n))
    column[n // 2:n // 2 + 2] = column[0]
    out = np.empty(n * (n - 1) // 2)
    eigenratio._pair_sq_diffs(column, out)
    expected = pdist(column[:, None], "sqeuclidean")
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def test_pair_scores_fills_each_component_once(monkeypatch):
    # One pass: each component's pair differences are built once, into
    # the scores' own column, and the constructor takes no extra flag.
    columns = []
    fill = eigenratio._pair_sq_diffs
    monkeypatch.setattr(eigenratio, "_pair_sq_diffs",
                        lambda column, out: (columns.append(out.size),
                                             fill(column, out)))
    sample, system, _ = _gaussian_fit(n=50, seed=2)
    for q in (1, 3):
        columns.clear()
        pair_scores(sample, system, q, 0.02)
        assert columns == [50 * 49 // 2] * q
    assert list(inspect.signature(PairScores).parameters) == [
        "squared", "standardizers", "joint_mask"]


def test_pair_scores_fails_fast_on_huge_samples(monkeypatch):
    monkeypatch.setattr(estimators, "_physical_memory", lambda: 16 * 2 ** 30)
    sample = FunctionalSample(np.zeros((100_000, 2)))
    system = EigenSystem(np.ones(1), np.ones((2, 1)))
    tracemalloc.start()
    try:
        with pytest.raises(SampleTooLargeError):
            pair_scores(sample, system, 1, 0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("q, trim", [(1, 0.0), (1, 0.02), (1, 0.1),
                                     (4, 0.0), (4, 0.02), (4, 0.1)])
def test_pair_scores_memory_estimate_covers_the_traced_peak(
        monkeypatch, q, trim):
    sample, _ = generate(SimulationConfig(n=600, seed=12))
    system = eigendecompose(pass_covariance(sample), 4)
    estimates = []
    monkeypatch.setattr(eigenratio, "_check_memory",
                        lambda n_bytes, what: estimates.append(n_bytes))
    tracemalloc.start()
    try:
        scores = pair_scores(sample, system, q, trim)
        eigenratio_mc(scores, system.eigenvalues[:q])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [estimate] = estimates
    assert peak <= estimate <= 1.25 * peak


@pytest.mark.parametrize("q", [1, 4])
def test_pair_scores_memory_estimate_covers_the_peak_at_2000_curves(
        monkeypatch, q):
    # Here the tail gather's slack is under half a byte a pair, so the
    # estimate must cover every P-long array alive at the peak: the two
    # masks that find the jointly retained rows, beside the scores.
    sample, _ = generate(SimulationConfig(n=2000, seed=12))
    system = eigendecompose(pass_covariance(sample), 4)
    estimates = []
    monkeypatch.setattr(eigenratio, "_check_memory",
                        lambda n_bytes, what: estimates.append(n_bytes))
    tracemalloc.start()
    try:
        scores = pair_scores(sample, system, q, 0.0)
        eigenratio_mc(scores, system.eigenvalues[:q])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [estimate] = estimates
    assert peak <= estimate <= 1.25 * peak


@pytest.mark.parametrize("q, trim", [(1, 0.0), (1, 0.02), (4, 0.0),
                                     (4, 0.02)])
def test_pair_scores_memory_estimate_covers_coincident_curves(
        monkeypatch, q, trim):
    # Eleven identical curves give 55 pairs that score zero in every
    # component; dropping their rows must not copy the M x q scores.
    sample, _ = generate(SimulationConfig(n=600, seed=12))
    values = sample.values.copy()
    values[300:310] = values[0]
    sample = FunctionalSample(values)
    system = eigendecompose(pass_covariance(sample), 4)
    estimates = []
    monkeypatch.setattr(eigenratio, "_check_memory",
                        lambda n_bytes, what: estimates.append(n_bytes))
    tracemalloc.start()
    try:
        scores = pair_scores(sample, system, q, trim)
        eigenratio_mc(scores, system.eigenvalues[:q])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [estimate] = estimates
    assert peak <= estimate
    assert scores.squared.shape[0] <= np.count_nonzero(scores.joint_mask) - 55
    assert scores.squared.any(axis=1).all()
    assert scores.squared.flags.f_contiguous


@pytest.mark.parametrize("trim", [0.0, 0.02])
@pytest.mark.parametrize("coincident", [False, True])
def test_pair_scores_are_component_major(coincident, trim):
    # Each component is one contiguous column, also after the rows of
    # coincident curves are packed out of the same buffer.
    sample, _ = generate(SimulationConfig(n=120, seed=31))
    values = sample.values.copy()
    if coincident:
        values[60:66] = values[0]
    sample = FunctionalSample(values)
    system = eigendecompose(pass_covariance(sample), 4)
    scores = pair_scores(sample, system, 4, trim)
    assert scores.squared.flags.f_contiguous
    assert scores.squared.any(axis=1).all()
    dropped = np.count_nonzero(scores.joint_mask) - scores.squared.shape[0]
    assert dropped == (21 if coincident else 0)  # 7 equal curves


@pytest.mark.parametrize("zero_rows", [0, 2])
@pytest.mark.parametrize("order", ["C", "F"])
def test_mc_results_do_not_depend_on_the_caller_layout(order, zero_rows):
    # The same values in the caller's layout, which the constructor
    # copies without writing to the caller's array.  All-zero rows stay:
    # the MC solver rejects them, and the diagnostic gives them no
    # weight.
    _, system, scores = _gaussian_fit(n=100, seed=23, trim=0.02)
    at = [0, 300][:zero_rows]
    squared = np.asarray(np.insert(scores.squared, at, 0.0, axis=0),
                         order=order)
    assert squared.flags.c_contiguous == (order == "C")
    kept = squared.copy()
    copied = PairScores(squared, scores.standardizers,
                        np.insert(scores.joint_mask, at, True))
    assert copied.squared.flags.f_contiguous
    assert np.array_equal(squared, kept)
    assert np.array_equal(copied.squared, squared)
    base = eigenratio_mc(scores, system.eigenvalues)
    if zero_rows:
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(DegenerateSampleError,
                              match="nonpositive expectation"):
            eigenratio_mc(copied, system.eigenvalues)
    else:
        again = eigenratio_mc(copied, system.eigenvalues)
        assert np.array_equal(again.ratios, base.ratios)
        assert again.iterations == base.iterations
    x_star = base.ratios[1:]
    assert np.array_equal(convergence_condition(copied, x_star).margin,
                          convergence_condition(scores, x_star).margin)


def test_rebuilding_pair_scores_output_allocates_nothing():
    # pair_scores has dropped the all-zero rows and laid the scores out
    # component-major, so the constructor has nothing to scan or copy.
    _, _, scores = _gaussian_fit(n=300, seed=4, trim=0.02)
    tracemalloc.start()
    try:
        again = PairScores(scores.squared, scores.standardizers,
                           scores.joint_mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again.squared is scores.squared
    assert peak < 1024


def test_pair_scores_validation():
    sample, system, _ = _gaussian_fit(n=20, seed=1)
    with pytest.raises(DimensionMismatchError):
        pair_scores(sample, system, 5, 0.0)
    with pytest.raises(DimensionMismatchError):
        pair_scores(sample, system, 0, 0.0)
    with pytest.raises(DimensionMismatchError):
        pair_scores(sample, system, 4, 0.2)
    with pytest.raises(DimensionMismatchError):
        pair_scores(sample, system, 4, -0.01)


def test_pair_scores_degenerate_component():
    # Curves vary only along a direction exactly orthogonal to the basis,
    # so every pair projection is identically zero.
    grid = make_grid(8)
    flat = np.ones(8)
    alternating = np.tile([1.0, -1.0], 4)
    values = np.outer([1.0, 2.0, -1.0], flat)
    sample = FunctionalSample(values)
    basis = np.column_stack(
        [alternating / np.sqrt(grid.spacing * alternating @ alternating)])
    system = EigenSystem(np.array([1.0]), basis)
    with pytest.raises(DegenerateSampleError):
        pair_scores(sample, system, 1, 0.0)


def test_pair_scores_and_mc_ratios_are_scale_free_at_1e160():
    # Squared projections of curves this large overflow a float unless
    # the sample is rescaled before projecting.
    sample, _ = generate(SimulationConfig(n=50, score_law="lognormal",
                                          outlier_scheme="ol2", seed=5))
    system = eigendecompose(pass_covariance(sample), 4)
    base = pair_scores(sample, system, 4)
    big = pair_scores(FunctionalSample(sample.values * 1e160), system, 4)
    np.testing.assert_array_equal(big.joint_mask, base.joint_mask)
    np.testing.assert_allclose(big.squared, base.squared, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(
        eigenratio_mc(big, system.eigenvalues).ratios,
        eigenratio_mc(base, system.eigenvalues).ratios, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# eigenratio_mc


def test_eigenratio_mc_symmetric_fixed_point():
    rng = np.random.default_rng(0)
    column = rng.standard_normal(5000)
    column = column / np.sqrt(np.mean(column ** 2))
    scores = PairScores(np.square(np.column_stack([column] * 3)),
                        np.ones(3), np.ones(5000, dtype=bool))
    estimate = eigenratio_mc(scores, np.array([0.4, 0.4, 0.4]))
    np.testing.assert_allclose(estimate.ratios, 1.0, atol=0.0)
    assert estimate.converged
    assert estimate.iterations == 1


def test_eigenratio_mc_recovers_truth_at_moderate_size():
    # Median over a few replicates keeps single-sample noise from
    # dominating the accuracy check.
    estimates = []
    for seed in range(5):
        sample, system, scores = _gaussian_fit(n=400, seed=seed, trim=0.02)
        classical = eigendecompose(sample_covariance(sample), 4)
        init = classical.eigenvalues / classical.eigenvalues[0]
        estimate = eigenratio_mc(scores, system.eigenvalues, init=init)
        assert estimate.converged
        estimates.append(estimate.ratios)
    median = np.median(estimates, axis=0)
    np.testing.assert_allclose(median, [1.0, 0.5, 0.25, 0.125], atol=0.05)


def test_eigenratio_mc_multistart_uniqueness():
    _, system, scores = _gaussian_fit(n=200, seed=77, trim=0.02)
    starts = [None,
              np.array([1.0, 1.0, 1.0, 1.0]),
              np.array([1.0, 0.5, 0.25, 0.125]),
              np.array([1.0, 0.9, 0.5, 0.3])]
    solutions = [eigenratio_mc(scores, system.eigenvalues, init=s).ratios
                 for s in starts]
    for other in solutions[1:]:
        np.testing.assert_allclose(other, solutions[0], atol=1e-6)


def test_eigenratio_mc_fixed_point_residence():
    _, system, scores = _gaussian_fit(n=150, seed=8, trim=0.02)
    estimate = eigenratio_mc(scores, system.eigenvalues, tol=1e-10)
    assert estimate.converged
    again = eigenratio_mc(scores, system.eigenvalues,
                          init=estimate.ratios, tol=1e-8, max_iter=1)
    assert again.converged
    assert again.final_delta <= 1e-8


def test_eigenratio_mc_scale_invariance():
    _, system, scores = _gaussian_fit(n=100, seed=55, trim=0.02)
    base = eigenratio_mc(scores, system.eigenvalues)
    scaled = eigenratio_mc(scores, system.eigenvalues * 37.5)
    np.testing.assert_allclose(scaled.ratios, base.ratios, atol=1e-12)


def test_eigenratio_mc_monotone_ratios():
    for seed in (10, 20, 30):
        _, system, scores = _gaussian_fit(n=200, seed=seed, trim=0.02)
        estimate = eigenratio_mc(scores, system.eigenvalues)
        assert estimate.converged
        assert np.all(np.diff(estimate.ratios) <= 1e-8)


@pytest.mark.parametrize("law", SCORE_LAWS)
def test_eigenratio_mc_untrimmed_rank_q_is_standardizer_ratio(law):
    # With rank-q curves, no outliers and no trimming, every pair's
    # squared norm is the sum of its q squared projections, and the
    # fixed point reduces to the ratio of mean squared projections.
    sample, _ = generate(SimulationConfig(n=200, score_law=law, seed=1))
    system = eigendecompose(pass_covariance(sample), 4)
    scores = pair_scores(sample, system, 4, 0.0)
    estimate = eigenratio_mc(scores, system.eigenvalues)
    assert estimate.converged
    expected = scores.standardizers / scores.standardizers[0]
    assert np.max(np.abs(estimate.ratios - expected)) <= 1e-6


def test_eigenratio_mc_nonconvergence_is_flagged():
    _, system, scores = _gaussian_fit(n=100, seed=3, trim=0.02)
    estimate = eigenratio_mc(scores, system.eigenvalues, tol=1e-14,
                             max_iter=2)
    assert not estimate.converged
    assert estimate.iterations == 2
    assert estimate.final_delta > 1e-14
    assert estimate.ratios[0] == 1.0


def test_eigenratio_mc_rejects_all_zero_rows():
    _, system, scores = _gaussian_fit(n=100, seed=21, trim=0.02)
    # Five jointly retained all-zero rows, at the ends and inside, in a
    # hand-built layer: pair_scores never keeps such rows, and the
    # constructor does not look for them, so the solver refuses them.
    rows = scores.squared.shape[0]
    padded = PairScores(
        np.insert(scores.squared, [0, 1, 1, 500, rows], 0.0, axis=0),
        scores.standardizers,
        np.insert(scores.joint_mask, [0, 1, 1, 500, scores.n_pairs], True))
    assert padded.squared.shape[0] == rows + 5
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(DegenerateSampleError,
                          match="nonpositive expectation"):
        eigenratio_mc(padded, system.eigenvalues)


def test_eigenratio_mc_no_joint_pair():
    # Each pair is trimmed in some component, so none is kept in all;
    # the solvers never see such scores because they cannot be built.
    with pytest.raises(DegenerateSampleError, match="no pair is retained"):
        PairScores(np.empty((0, 3)), np.ones(3), np.zeros(6, dtype=bool))


def test_eigenratio_mc_all_joint_rows_zero():
    # Curves 0 and 1 coincide on the basis, and every other pair is
    # among the two largest of some component, which trims 2 of the 15
    # pairs: the one jointly retained pair projects to zero, while each
    # component keeps pairs that carry signal.
    columns = []
    for j in range(2, 6):  # the pairs of curve j with the two twins
        column = np.full(6, 5.0)
        column[[0, 1]] = 0.0
        column[j] = 10.0
        columns.append(column)
    for centre, leaves in [(2, [3, 4]), (5, [2, 3]), (4, [3, 5])]:
        column = np.full(6, 5.0)
        column[centre], column[leaves] = 10.0, 0.0
        columns.append(column)
    sample = FunctionalSample(np.column_stack(columns))
    system = EigenSystem(np.ones(7), np.eye(7))
    with pytest.raises(DegenerateSampleError, match="zero projection norm"):
        pair_scores(sample, system, 7, 0.1)


def test_eigenratio_mc_validation():
    _, system, scores = _gaussian_fit(n=50, seed=6, trim=0.0)
    with pytest.raises(DegenerateSampleError):
        eigenratio_mc(scores, np.array([1.0, 0.5, 0.25, -0.1]))
    with pytest.raises(DimensionMismatchError):
        eigenratio_mc(scores, np.array([1.0, 0.5, 0.6, 0.25]))
    with pytest.raises(DimensionMismatchError):
        eigenratio_mc(scores, system.eigenvalues,
                      init=np.array([1.0, -0.5, 0.25, 0.125]))
    with pytest.raises(DimensionMismatchError):
        eigenratio_mc(scores, system.eigenvalues[:3])


_FIXED_POINT_REJECTIONS = {
    "kappa-matrix": ({"pass_eigenvalues": [[1.0, 0.5, 0.25, 0.125]]},
                     DimensionMismatchError),
    "kappa-empty": ({"pass_eigenvalues": []}, DimensionMismatchError),
    "kappa-nan": ({"pass_eigenvalues": [1.0, 0.5, np.nan, 0.125]},
                  DimensionMismatchError),
    "kappa-inf": ({"pass_eigenvalues": [np.inf, 0.5, 0.25, 0.125]},
                  DimensionMismatchError),
    "kappa-zero": ({"pass_eigenvalues": [1.0, 0.5, 0.25, 0.0]},
                   DegenerateSampleError),
    "kappa-increasing": ({"pass_eigenvalues": [1.0, 0.5, 0.6, 0.125]},
                         DimensionMismatchError),
    "tol-zero": ({"tol": 0.0}, DimensionMismatchError),
    "max_iter-zero": ({"max_iter": 0}, DimensionMismatchError),
    "init-short": ({"init": [1.0, 0.5, 0.25]}, DimensionMismatchError),
    "init-negative": ({"init": [1.0, -0.5, 0.25, 0.125]},
                      DimensionMismatchError),
    "init-nan": ({"init": [1.0, np.nan, 1.0, 1.0]}, DimensionMismatchError),
    "init-inf": ({"init": [1.0, np.inf, 1.0, 1.0]}, DimensionMismatchError),
}
_EXPECTATION_REJECTIONS = {
    "matrix": [[1.0, 0.5]], "empty": [], "negative": [1.0, -0.5],
    "zero": [1.0, 0.0], "nan": [1.0, np.nan], "inf": [1.0, np.inf],
}


@pytest.mark.parametrize("target, kwargs, error", [
    *[pytest.param(solver, kwargs, error, id=f"{solver}-{name}")
      for solver in ("mc", "elliptical")
      for name, (kwargs, error) in _FIXED_POINT_REJECTIONS.items()],
    *[pytest.param("expectation", {"ratios": ratios},
                   DimensionMismatchError, id=f"expectation-{name}")
      for name, ratios in _EXPECTATION_REJECTIONS.items()],
])
def test_solver_inputs_are_rejected(target, kwargs, error):
    # A NaN start or eigenvalue compares False with zero, so only an
    # explicit finiteness check turns it into a documented error rather
    # than a raw ValueError from the quadrature's arange.
    if target == "expectation":
        with pytest.raises(error):
            elliptical_expectation(**kwargs)
        return
    kwargs = {"pass_eigenvalues": [1.0, 0.5, 0.25, 0.125], **kwargs}
    with pytest.raises(error):
        if target == "mc":
            eigenratio_mc(_drawn_pairscores(0, 50, 4, "gaussian"), **kwargs)
        else:
            eigenratio_elliptical(**kwargs)


# ---------------------------------------------------------------------------
# the accelerated fixed-point loop


def _quotient_mean_expectations(squared):
    """The MC expectations as the column means of the M x q quotient."""
    def f_eval(lam):
        denom = squared[:, 0] + squared[:, 1:] @ lam[1:]
        return (squared / denom[:, None]).mean(axis=0)
    return f_eval


def _plain_fixed_point(f_eval, pass_eigenvalues, tol, max_iter):
    """The unaccelerated iteration from all-ones ratios, written out."""
    kappa_ratios = pass_eigenvalues / pass_eigenvalues[0]
    current = np.ones_like(kappa_ratios)
    for iterations in range(1, max_iter + 1):
        f = f_eval(current)
        proposal = kappa_ratios * (f[0] / f)
        proposal[0] = 1.0
        delta = np.max(np.abs(proposal - current))
        current = proposal
        if delta <= tol:
            return current, iterations, True
    return current, max_iter, False


def _drawn_pairscores(seed, n_pairs, q, law):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_pairs, q)) * 0.7 ** np.arange(q)
    if law == "t3":
        raw /= np.sqrt(rng.chisquare(3, size=(n_pairs, 1)) / 3)
    elif law == "lognormal":
        raw = np.exp(raw) - np.exp(0.5 * 0.49 ** np.arange(q))
    return PairScores(np.square(raw), np.ones(q),
                      np.ones(n_pairs, dtype=bool))


def test_mc_step_matches_quotient_mean(monkeypatch):
    # eigenratio_mc's step sums matrix-vector products over blocks of
    # rows; it must agree with the quotient's column means to rounding,
    # in one block and in four blocks of 700 rows and a remainder of 200.
    captured = []
    run = eigenratio._run_fixed_point

    def record(f_eval, *args):
        captured.append(f_eval)
        return run(f_eval, *args)

    monkeypatch.setattr(eigenratio, "_run_fixed_point", record)
    rng = np.random.default_rng(12)
    for block_bytes in (eigenratio._BLOCK_BYTES, 256 * 700):
        monkeypatch.setattr(eigenratio, "_BLOCK_BYTES", block_bytes)
        for law in ("gaussian", "t3", "lognormal"):
            scores = _drawn_pairscores(5, 3000, 4, law)
            eigenratio_mc(scores, np.array([0.4, 0.3, 0.2, 0.1]))
            reference = _quotient_mean_expectations(scores.squared)
            for _ in range(5):
                lam = np.concatenate(
                    ([1.0], np.exp(rng.uniform(-5, 3, 3))))
                np.testing.assert_allclose(captured[-1](lam),
                                           reference(lam), rtol=1e-13,
                                           atol=0.0)


def test_eigenratio_mc_scratch_stays_in_blocks_at_2000_curves():
    # A whole-array step takes a weight per retained pair, about 15 MB
    # here; over blocks of rows, one reused vector is the scratch.
    _, system, scores = _gaussian_fit(n=2000, seed=12, trim=0.02)
    tracemalloc.start()
    try:
        eigenratio_mc(scores, system.eigenvalues)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * estimators._BLOCK_BYTES


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_pairs=st.integers(20, 400),
       law=st.sampled_from(["gaussian", "t3", "lognormal"]),
       kappa=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
def test_accelerated_solver_converges_where_plain_loop_does(
        seed, n_pairs, law, kappa):
    kappa = np.sort(kappa)[::-1]
    scores = _drawn_pairscores(seed, n_pairs, kappa.size, law)
    tol = 1e-10
    plain, _, plain_converged = _plain_fixed_point(
        _quotient_mean_expectations(scores.squared), kappa, tol, 500)
    estimate = eigenratio_mc(scores, kappa, tol=tol)
    if plain_converged:
        assert estimate.converged
        assert np.max(np.abs(estimate.ratios - plain)) <= 10 * tol


def test_anderson_mixing_cuts_iterations():
    for seed in (10, 20, 30):
        _, system, scores = _gaussian_fit(n=200, seed=seed, trim=0.02)
        plain, plain_iterations, plain_converged = _plain_fixed_point(
            _quotient_mean_expectations(scores.squared),
            system.eigenvalues, 1e-8, 500)
        estimate = eigenratio_mc(scores, system.eigenvalues)
        assert plain_converged and estimate.converged
        assert 2 * estimate.iterations <= plain_iterations
        assert np.max(np.abs(estimate.ratios - plain)) <= 1e-7


def test_fallback_keeps_iterates_positive():
    # Slope 0.99 above 2 puts the root of the residual's linear
    # extension at -50, where Anderson mixing over points on that piece
    # lands; below 2 the map contracts to its fixed point 1.
    def plain_map(x):
        return 0.99 * x - 0.5 if x >= 2.0 else 1.0 + 0.48 * (x - 1.0)

    points = []

    def f_eval(lam):
        points.append(lam.copy())
        return np.array([plain_map(lam[1]), 1.0])

    estimate = eigenratio._run_fixed_point(
        f_eval, np.ones(2), np.array([1.0, 5.0]), 1e-10, 100)
    assert estimate.converged
    assert estimate.ratios[1] == pytest.approx(1.0, abs=1e-10)
    assert estimate.iterations == len(points)
    assert all(p[0] == 1.0 and p[1] > 0.0 for p in points)
    # The third point is the plain step: mixing would have given -50.
    assert points[2][1] == plain_map(points[1][1])


def test_max_iter_returns_plain_step_and_its_residual():
    # Without convergence the loop returns G(x) at the last point it
    # evaluated, and final_delta is ||G(x) - x||_inf there.
    _, system, scores = _gaussian_fit(n=100, seed=3, trim=0.02)
    squared = scores.squared
    points = []

    def f_eval(lam):
        points.append(lam.copy())
        return _quotient_mean_expectations(squared)(lam)

    kappa_ratios = system.eigenvalues / system.eigenvalues[0]
    estimate = eigenratio._run_fixed_point(
        f_eval, kappa_ratios, np.ones(4), 1e-14, 5)
    assert not estimate.converged
    assert estimate.iterations == len(points) == 5
    last = points[-1]
    f = _quotient_mean_expectations(squared)(last)
    image = kappa_ratios * (f[0] / f)
    image[0] = 1.0
    np.testing.assert_array_equal(estimate.ratios, image)
    assert estimate.final_delta == np.max(np.abs(image - last))


# ---------------------------------------------------------------------------
# elliptical_expectation


def test_elliptical_expectation_symmetric_half():
    assert elliptical_expectation([1.0, 1.0])[0] == pytest.approx(
        0.5, abs=1e-9)
    assert elliptical_expectation([1.0, 1.0])[1] == pytest.approx(
        0.5, abs=1e-9)


def test_elliptical_expectation_two_component_closed_form():
    # E[U1^2 / (U1^2 + x U2^2)] = 1 / (1 + sqrt(x)).
    for x in (0.5, 0.25, 0.1, 0.9):
        value = elliptical_expectation([1.0, x])[0]
        assert value == pytest.approx(1.0 / (1.0 + math.sqrt(x)), abs=1e-8)
    assert elliptical_expectation([1.0, 0.5])[0] == pytest.approx(
        2.0 - math.sqrt(2.0), abs=1e-8)


def test_elliptical_expectation_vanishing_second_component():
    assert elliptical_expectation([1.0, 1e-12])[0] == pytest.approx(
        1.0, abs=1e-5)


def test_elliptical_expectation_single_component():
    # E[U^2 / (r U^2)] = 1 / r.
    assert elliptical_expectation([2.5])[0] == pytest.approx(
        0.4, rel=1e-14)


def test_elliptical_expectation_sum_identity():
    rng = np.random.default_rng(12)
    for _ in range(10):
        q = rng.integers(2, 7)
        ratios = rng.uniform(0.05, 2.0, size=q)
        total = sum(ratios[j - 1] * elliptical_expectation(ratios)[j - 1]
                    for j in range(1, q + 1))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_elliptical_expectation_monte_carlo_spot_check():
    ratios = np.array([1.0, 0.6, 0.3, 0.1])
    rng = np.random.default_rng(2024)
    draws = rng.standard_normal((1_000_000, 4))
    weighted = (draws ** 2 * ratios).sum(axis=1)
    for j in (1, 3):
        mc = np.mean(draws[:, j - 1] ** 2 / weighted)
        assert elliptical_expectation(ratios)[j - 1] == pytest.approx(
            mc, abs=3e-3)


def test_elliptical_expectation_validation():
    with pytest.raises(DimensionMismatchError):
        elliptical_expectation([1.0, -0.5])


@pytest.mark.parametrize("x", [1e-7, 1e-12, 1e-26, 1e-50, 1e-100,
                               1e-200, 1e-300])
def test_elliptical_expectation_two_component_small_ratios(x):
    f = elliptical_expectation([1.0, x])
    assert f[0] == pytest.approx(1.0 / (1.0 + math.sqrt(x)), rel=1e-12)
    assert f[1] == pytest.approx(1.0 / (x + math.sqrt(x)), rel=1e-12)


def _quad_expectations(ratios):
    """The integral by adaptive quadrature over v in [0, inf)."""
    def integrand(v, j):
        return 0.5 / ((1.0 + ratios[j] * v)
                      * np.prod(np.sqrt(1.0 + ratios * v)))
    return np.array([quad(integrand, 0.0, np.inf, args=(j,), epsabs=0.0,
                          epsrel=1e-12, limit=200)[0]
                     for j in range(ratios.size)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(decades=st.sampled_from([4, 300]),
       exponents=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_elliptical_expectation_log_uniform_ratios(decades, exponents):
    ratios = 10.0 ** (-decades * np.array(exponents))
    f = elliptical_expectation(ratios)
    assert f.shape == ratios.shape
    assert np.all(np.isfinite(f)) and np.all(f > 0.0)
    assert abs(ratios @ f - 1.0) <= 1e-12
    if decades == 4:
        np.testing.assert_allclose(f, _quad_expectations(ratios),
                                   rtol=1e-8, atol=0.0)


# ---------------------------------------------------------------------------
# eigenratio_elliptical


def test_eigenratio_elliptical_equal_eigenvalues():
    estimate = eigenratio_elliptical(np.array([0.3, 0.3, 0.3]))
    np.testing.assert_allclose(estimate.ratios, 1.0, atol=1e-10)


def test_eigenratio_elliptical_gaussian_run():
    sample, system, _ = _gaussian_fit(n=400, seed=101)
    estimate = eigenratio_elliptical(system.eigenvalues)
    assert estimate.converged
    np.testing.assert_allclose(estimate.ratios,
                               [1.0, 0.5, 0.25, 0.125], atol=0.07)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(tail=st.lists(st.integers(50, 1000), min_size=1, max_size=4))
def test_eigenratio_elliptical_recovers_exact_fixed_point(tail):
    # PASS eigenvalues built from exact elliptical expectations at known
    # ratios make those ratios the fixed point; the solver must find it.
    ratios = np.array([1.0] + sorted((k / 1000 for k in tail),
                                     reverse=True))
    q = ratios.size
    f = np.array([elliptical_expectation(ratios)[k - 1]
                  for k in range(1, q + 1)])
    kappa = ratios * f / f[0]
    estimate = eigenratio_elliptical(kappa)
    assert estimate.converged
    assert np.max(np.abs(estimate.ratios - ratios)) <= 1e-6


@pytest.mark.parametrize("x", [1e-7, 1e-9, 1e-12])
def test_eigenratio_elliptical_tiny_ratio(x):
    # At q = 2 the PASS ratio sqrt(x) has the fixed point x.
    kappa = np.array([1.0, math.sqrt(x)])
    estimate = eigenratio_elliptical(kappa)
    assert estimate.converged
    assert abs(estimate.ratios[1] - x) <= 1e-8
    precise = eigenratio_elliptical(kappa, tol=1e-6 * x)
    assert precise.converged
    assert abs(precise.ratios[1] - x) <= 1e-6 * x


def test_eigenratio_mc_agrees_with_elliptical_on_synthetic_scores():
    # Scores drawn from the Gaussian model make the pair average and the
    # integral two estimates of the same expectation.
    truth = np.array([1.0, 0.5, 0.25, 0.125])
    evaluations = np.array([elliptical_expectation(truth)[j - 1]
                            for j in range(1, 5)])
    kappa = truth * evaluations / evaluations[0]
    rng = np.random.default_rng(314)
    scores = _synthetic_pairscores(rng, 20_000, 4)
    mc = eigenratio_mc(scores, kappa)
    elliptical = eigenratio_elliptical(kappa)
    assert mc.converged and elliptical.converged
    np.testing.assert_allclose(mc.ratios, elliptical.ratios, atol=0.05)
    np.testing.assert_allclose(elliptical.ratios, truth, atol=1e-6)


# ---------------------------------------------------------------------------
# convergence_condition


def test_convergence_condition_gaussian_margins_positive():
    _, _, scores = _gaussian_fit(n=200, seed=42, trim=0.02)
    diagnostic = convergence_condition(scores, [0.5, 0.25, 0.125])
    assert diagnostic.margin.shape == (3,)
    assert np.all(diagnostic.margin > 0)
    np.testing.assert_allclose(diagnostic.bound, [2.0, 4.0, 8.0])
    np.testing.assert_allclose(diagnostic.margin,
                               diagnostic.bound - diagnostic.lhs)


def test_convergence_condition_scratch_stays_in_blocks_at_2000_curves():
    # Whole-array temporaries cost 49 bytes per retained pair; summed over
    # bounded blocks of rows, the scratch is a few megabytes.
    _, system, scores = _gaussian_fit(n=2000, seed=12, trim=0.02)
    x_star = eigenratio_mc(scores, system.eigenvalues).ratios[1:]
    tracemalloc.start()
    try:
        convergence_condition(scores, x_star)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * scores.squared.shape[0]


def test_convergence_condition_blocks_match_whole_array_sums(monkeypatch):
    # Thousands of blocks of rows against the sums over all rows at
    # once; only the order of additions differs.
    _, _, scores = _gaussian_fit(n=200, seed=42, trim=0.02)
    x_star = np.array([0.5, 0.25, 0.125])
    squared = scores.squared
    weights = 1.0 / (squared @ np.concatenate(([1.0], x_star)))
    first_order = weights @ squared
    ratio1 = squared * weights[:, None]
    cross = ratio1.T @ ratio1
    lhs = np.abs(cross[1:, 1:] / first_order[1:, None]
                 - cross[0, 1:] / first_order[0]).sum(axis=1)
    monkeypatch.setattr(eigenratio, "_BLOCK_BYTES", 1000)
    np.testing.assert_allclose(convergence_condition(scores, x_star).lhs,
                               lhs, rtol=1e-12)


def test_convergence_condition_cap_for_vanishing_component():
    rng = np.random.default_rng(6)
    scores = _synthetic_pairscores(rng, 10_000, 2)
    diagnostic = convergence_condition(scores, [1e-15])
    assert diagnostic.bound[0] == pytest.approx(1e12)
    assert diagnostic.margin[0] > 1e11


def test_convergence_condition_exchangeable_components():
    rng = np.random.default_rng(15)
    scores = _synthetic_pairscores(rng, 200_000, 3)
    diagnostic = convergence_condition(scores, [0.5, 0.5])
    assert diagnostic.margin[0] == pytest.approx(diagnostic.margin[1],
                                                 rel=0.05)


def test_convergence_condition_validation():
    rng = np.random.default_rng(1)
    scores = _synthetic_pairscores(rng, 100, 3)
    with pytest.raises(DimensionMismatchError):
        convergence_condition(scores, [0.5])
    with pytest.raises(DimensionMismatchError):
        convergence_condition(scores, [0.5, -0.1])


# ---------------------------------------------------------------------------
# cpve and rank_select


def test_cpve_arithmetic():
    values = [2.0, 1.0, 0.5, 0.25]
    assert cpve(values, 1) == pytest.approx(2.0 / 3.75)
    assert cpve(values, 4) == pytest.approx(1.0)
    assert cpve([1.0, 0.0, 0.0], 1) == pytest.approx(1.0)


def test_cpve_validation():
    with pytest.raises(DegenerateSampleError):
        cpve([0.0, 0.0], 1)
    with pytest.raises(DimensionMismatchError):
        cpve([1.0, 0.5], 3)


def test_rank_select_basic():
    spectrum = [0.5, 0.3, 0.15, 0.05]
    assert rank_select(spectrum, 0.9) == 3
    assert rank_select(spectrum, 0.5) == 1
    assert rank_select(spectrum, 0.999) == 4


def test_rank_select_unreachable():
    with pytest.raises(ThresholdError):
        rank_select([0.5, 0.3], 0.99)
    with pytest.raises(DimensionMismatchError):
        rank_select([0.5, 0.3], 1.5)


def test_rank_select_conservative_for_classical_spectrum():
    sample, _ = generate(SimulationConfig(n=400, seed=60))
    grid_points = sample.grid.n_points
    pass_spectrum = eigendecompose(pass_covariance(sample),
                                   grid_points).eigenvalues
    classical_spectrum = eigendecompose(sample_covariance(sample),
                                        grid_points).eigenvalues
    pass_spectrum = np.clip(pass_spectrum, 0.0, None)
    classical_spectrum = np.clip(classical_spectrum, 0.0, None)
    # The classical spectrum is not trace-normalized, so convert it to
    # proportions before ranking.
    classical_spectrum = classical_spectrum / classical_spectrum.sum()
    for threshold in (0.8, 0.9, 0.95):
        assert rank_select(pass_spectrum, threshold) >= rank_select(
            classical_spectrum, threshold)
