"""Tests for pair projections, the fixed-point ratio solvers, and the
convergence diagnostic."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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
from passfpca import estimators


def _gaussian_fit(n, seed, trim=0.0):
    sample, _ = generate(SimulationConfig(n=n, seed=seed))
    system = eigendecompose(pass_covariance(sample), 4)
    scores = pair_scores(sample, system, 4, trim)
    return sample, system, scores


def _synthetic_pairscores(rng, n_pairs, q):
    """Standardized i.i.d. Gaussian projections with no trimming."""
    raw = rng.standard_normal((n_pairs, q))
    raw = raw / np.sqrt(np.mean(raw ** 2, axis=0))
    return PairScores(q=q, scores=raw, standardizers=np.ones(q),
                      trim_fraction=0.0,
                      retained=np.ones((n_pairs, q), dtype=bool))


# ---------------------------------------------------------------------------
# pair_scores


def test_pair_scores_single_pair():
    values = np.vstack([np.zeros(6), np.linspace(0, 1, 6)])
    sample = FunctionalSample(values)
    system = eigendecompose(pass_covariance(sample), 2)
    scores = pair_scores(sample, system, 2, trim_fraction=0.0)
    assert scores.n_pairs == 1
    squared = scores.scores[0] ** 2
    for col in range(2):
        if scores.standardizers[col] > 0:
            assert squared[col] == pytest.approx(1.0, rel=1e-10)


def test_pair_scores_column_means_without_trimming():
    _, _, scores = _gaussian_fit(n=200, seed=42, trim=0.0)
    means = np.mean(scores.scores ** 2, axis=0)
    np.testing.assert_allclose(means, 1.0, atol=1e-10)
    assert scores.retained.all()


def test_pair_scores_trim_counts():
    sample, system, _ = _gaussian_fit(n=40, seed=9)
    n_pairs = 40 * 39 // 2
    for fraction in (0.01, 0.05, 0.1):
        scores = pair_scores(sample, system, 4, trim_fraction=fraction)
        expected = math.ceil(fraction * n_pairs)
        removed = (~scores.retained).sum(axis=0)
        np.testing.assert_array_equal(removed, expected)
        # Retained squared scores still average to one by construction.
        for col in range(4):
            kept = scores.scores[scores.retained[:, col], col]
            assert np.mean(kept ** 2) == pytest.approx(1.0, rel=1e-8)


def test_pair_scores_trimmed_are_the_largest():
    sample, system, _ = _gaussian_fit(n=30, seed=4)
    scores = pair_scores(sample, system, 4, trim_fraction=0.05)
    for col in range(4):
        kept = np.abs(scores.scores[scores.retained[:, col], col])
        cut = np.abs(scores.scores[~scores.retained[:, col], col])
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
    grid = make_grid(n_points)
    values = rng.integers(-2, 3, size=(n, n_points)).astype(float)
    basis = rng.integers(-1, 2, size=(n_points, q)).astype(float)
    basis[0] = 1.0
    system = EigenSystem(np.ones(q), basis)
    sample = FunctionalSample(values)
    try:
        scores = pair_scores(sample, system, q, trim_fraction)
    except DegenerateSampleError:
        return
    proj = grid.spacing * (values @ basis)
    i_idx, j_idx = np.triu_indices(n, k=1)
    raw = proj[i_idx] - proj[j_idx]
    n_pairs = raw.shape[0]
    n_trim = math.ceil(trim_fraction * n_pairs)
    expected = np.ones((n_pairs, q), dtype=bool)
    for col in range(q):
        order = np.argsort(np.abs(raw[:, col]), kind="stable")
        expected[order[n_pairs - n_trim:], col] = False
    np.testing.assert_array_equal(scores.retained, expected)


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
    np.testing.assert_array_equal(big.retained, base.retained)
    np.testing.assert_allclose(big.scores, base.scores, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        eigenratio_mc(big, system.eigenvalues).ratios,
        eigenratio_mc(base, system.eigenvalues).ratios, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# eigenratio_mc


def test_eigenratio_mc_symmetric_fixed_point():
    rng = np.random.default_rng(0)
    column = rng.standard_normal(5000)
    column = column / np.sqrt(np.mean(column ** 2))
    scores = PairScores(q=3, scores=np.column_stack([column] * 3),
                        standardizers=np.ones(3), trim_fraction=0.0,
                        retained=np.ones((5000, 3), dtype=bool))
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


def test_eigenratio_mc_ignores_all_zero_rows():
    _, system, scores = _gaussian_fit(n=100, seed=21, trim=0.02)
    # Five jointly retained all-zero rows, at the ends and inside.
    positions = [0, 1, 1, 500, scores.n_pairs]
    padded = PairScores(
        q=4, scores=np.insert(scores.scores, positions, 0.0, axis=0),
        standardizers=scores.standardizers, trim_fraction=0.02,
        retained=np.insert(scores.retained, positions, True, axis=0))
    base = eigenratio_mc(scores, system.eigenvalues)
    again = eigenratio_mc(padded, system.eigenvalues)
    assert np.array_equal(again.ratios, base.ratios)
    assert again.iterations == base.iterations
    x_star = base.ratios[1:]
    assert np.array_equal(convergence_condition(padded, x_star).margin,
                          convergence_condition(scores, x_star).margin)


def test_eigenratio_mc_no_joint_pair():
    # Each pair is trimmed in some component, so none is kept in all.
    rng = np.random.default_rng(3)
    retained = np.ones((6, 3), dtype=bool)
    retained[[0, 1], 0] = False
    retained[[2, 3], 1] = False
    retained[[4, 5], 2] = False
    scores = PairScores(q=3, scores=rng.standard_normal((6, 3)),
                        standardizers=np.ones(3), trim_fraction=0.1,
                        retained=retained)
    with pytest.raises(DegenerateSampleError, match="no pair is retained"):
        eigenratio_mc(scores, np.array([1.0, 0.5, 0.25]))
    with pytest.raises(DegenerateSampleError, match="no pair is retained"):
        convergence_condition(scores, [0.5, 0.25])


def test_eigenratio_mc_all_joint_rows_zero():
    # The jointly retained pairs project to zero; only pairs trimmed in
    # some component carry signal.
    rng = np.random.default_rng(4)
    values = np.zeros((6, 2))
    values[:3] = rng.standard_normal((3, 2))
    retained = np.ones((6, 2), dtype=bool)
    retained[:3, 0] = False
    scores = PairScores(q=2, scores=values, standardizers=np.ones(2),
                        trim_fraction=0.1, retained=retained)
    with pytest.raises(DegenerateSampleError, match="zero projection norm"):
        eigenratio_mc(scores, np.array([1.0, 0.5]))
    with pytest.raises(DegenerateSampleError, match="zero projection norm"):
        convergence_condition(scores, [0.5])


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
