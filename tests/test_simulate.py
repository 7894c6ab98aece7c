"""Tests for the synthetic data generator: score laws, contamination
schemes, noise, and reproducibility."""

import math

import numpy as np
import pytest
from scipy import stats

from passfpca import (
    DimensionMismatchError,
    FunctionalSample,
    SimulationConfig,
    draw_scores,
    fourier_truth,
    generate,
    inject_outliers,
    make_grid,
)
from passfpca.simulate import (
    _FRECHET_MEAN,
    _FRECHET_VAR,
    _LOGNORMAL_MEAN,
    _LOGNORMAL_VAR,
)

_EIGENVALUES = np.array([2.0, 1.0, 0.5, 0.25])


# ---------------------------------------------------------------------------
# standardization constants


def test_frechet_constants_match_reference_distribution():
    reference = stats.invweibull(c=3.0, scale=2.0)
    assert _FRECHET_MEAN == pytest.approx(reference.mean(), rel=1e-12)
    assert _FRECHET_VAR == pytest.approx(reference.var(), rel=1e-12)


def test_lognormal_constants_match_reference_distribution():
    reference = stats.lognorm(s=2.0)
    assert _LOGNORMAL_MEAN == pytest.approx(reference.mean(), rel=1e-12)
    assert _LOGNORMAL_VAR == pytest.approx(reference.var(), rel=1e-12)


# ---------------------------------------------------------------------------
# score laws


def test_draw_scores_shapes_and_validation():
    rng = np.random.default_rng(0)
    assert draw_scores("gaussian", 7, rng).shape == (7, 4)
    with pytest.raises(DimensionMismatchError):
        draw_scores("cauchy", 7, rng)


@pytest.mark.parametrize("law", ["gaussian", "chisquare", "multivariate_t"])
def test_light_tailed_scores_match_moments(law):
    rng = np.random.default_rng(99)
    scores = draw_scores(law, 200_000, rng)
    np.testing.assert_allclose(scores.mean(axis=0), 0.0, atol=0.02)
    np.testing.assert_allclose(scores.var(axis=0), _EIGENVALUES,
                               rtol=0.05)


@pytest.mark.parametrize("law", ["frechet", "lognormal"])
def test_heavy_tailed_scores_are_centered(law):
    # Fourth moments are infinite (frechet) or astronomically large
    # (lognormal), so only the mean is checked at this sample size.
    rng = np.random.default_rng(7)
    scores = draw_scores(law, 200_000, rng)
    np.testing.assert_allclose(scores.mean(axis=0), 0.0, atol=0.03)


def test_chisquare_scores_are_right_skewed():
    rng = np.random.default_rng(3)
    scores = draw_scores("chisquare", 200_000, rng)
    skew = stats.skew(scores[:, 0])
    assert skew == pytest.approx(math.sqrt(8.0), rel=0.1)


def test_multivariate_t_components_are_dependent():
    # Scores share the chi-square mixing variable, so squared scores
    # correlate across components even though the scores themselves are
    # uncorrelated.
    rng = np.random.default_rng(21)
    scores = draw_scores("multivariate_t", 200_000, rng)
    plain = np.corrcoef(scores[:, 0], scores[:, 1])[0, 1]
    squared = np.corrcoef(scores[:, 0] ** 2, scores[:, 1] ** 2)[0, 1]
    assert abs(plain) < 0.02
    assert squared > 0.1


# ---------------------------------------------------------------------------
# configuration


def test_simulation_config_defaults():
    config = SimulationConfig(n=50, seed=1)
    assert config.n_points == 101
    assert config.score_law == "gaussian"
    assert config.outlier_scheme == "none"
    assert config.outlier_fraction == 0.05
    assert config.noise_sd == 0.0


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(n=0, seed=1)
    with pytest.raises(ValueError):
        SimulationConfig(n=10, n_points=1, seed=1)
    with pytest.raises(ValueError):
        SimulationConfig(n=10, score_law="weibull", seed=1)
    with pytest.raises(ValueError):
        SimulationConfig(n=10, outlier_scheme="ol3", seed=1)
    with pytest.raises(ValueError):
        SimulationConfig(n=10, outlier_fraction=0.5, seed=1)
    with pytest.raises(ValueError):
        SimulationConfig(n=10, outlier_fraction=-0.01, seed=1)
    for noise_sd in (-1.0, math.nan, math.inf, True):
        with pytest.raises(ValueError):
            SimulationConfig(n=10, noise_sd=noise_sd, seed=1)
    with pytest.raises(ValueError):
        SimulationConfig(n=10, outlier_fraction=False, seed=1)
    with pytest.raises(ValueError):
        SimulationConfig(n=10, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(n=10, seed=2 ** 64)


# ---------------------------------------------------------------------------
# ground truth


def test_fourier_truth_components():
    grid = make_grid(101)
    truth = fourier_truth(grid)
    np.testing.assert_allclose(
        truth.mean, 2.0 * grid.points * (1.0 - grid.points))
    np.testing.assert_array_equal(truth.eigenvalues, _EIGENVALUES)
    gram = grid.spacing * truth.eigenfunctions.T @ truth.eigenfunctions
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-3)
    assert truth.outlier_mask is None


# ---------------------------------------------------------------------------
# outlier injection


def _clean_sample(n, seed=0):
    grid = make_grid(101)
    truth = fourier_truth(grid)
    rng = np.random.default_rng(seed)
    scores = draw_scores("gaussian", n, rng)
    values = truth.mean + scores @ truth.eigenfunctions.T
    return FunctionalSample(values), truth, scores


def test_inject_outliers_count_is_ceiling():
    for n, fraction, expected in ((100, 0.05, 5), (101, 0.05, 6),
                                  (10, 0.033, 1), (40, 0.0, 0)):
        sample, truth, scores = _clean_sample(n)
        _, mask = inject_outliers(sample, truth, "ol1", fraction,
                                  np.random.default_rng(5), scores)
        assert mask.sum() == expected


def test_inject_outliers_shift_scheme():
    sample, truth, scores = _clean_sample(30)
    contaminated, mask = inject_outliers(sample, truth, "ol1", 0.1,
                                         np.random.default_rng(8), scores)
    assert mask.sum() == 3
    np.testing.assert_allclose(contaminated.values[mask],
                               sample.values[mask] + 5.0, atol=1e-10)
    assert np.array_equal(contaminated.values[~mask], sample.values[~mask])


def test_inject_outliers_score_scheme_construction():
    sample, truth, scores = _clean_sample(25)
    contaminated, mask = inject_outliers(sample, truth, "ol2", 0.2,
                                         np.random.default_rng(2), scores)
    basis = truth.eigenfunctions.copy()
    basis[:, 0] = sample.grid.points
    modified = scores[mask].copy()
    modified[:, 0] += 3.0 * math.sqrt(truth.eigenvalues[0])
    expected = truth.mean + modified @ basis.T
    np.testing.assert_allclose(contaminated.values[mask], expected,
                               atol=1e-12)
    assert np.array_equal(contaminated.values[~mask], sample.values[~mask])


def test_inject_outliers_validation():
    sample, truth, scores = _clean_sample(10)
    with pytest.raises(DimensionMismatchError):
        inject_outliers(sample, truth, "shift", 0.1,
                        np.random.default_rng(0), scores)


# ---------------------------------------------------------------------------
# generate


def test_generate_is_deterministic():
    config = SimulationConfig(n=40, score_law="frechet",
                              outlier_scheme="ol2", noise_sd=1.0, seed=77)
    first_sample, first_truth = generate(config)
    second_sample, second_truth = generate(config)
    assert np.array_equal(first_sample.values, second_sample.values)
    assert np.array_equal(first_truth.outlier_mask,
                          second_truth.outlier_mask)


def test_generate_seeds_are_independent():
    base = SimulationConfig(n=40, seed=5)
    other = SimulationConfig(n=40, seed=6)
    first, _ = generate(base)
    second, _ = generate(other)
    assert not np.array_equal(first.values, second.values)


def test_generate_clean_sample_spans_truth():
    sample, truth = generate(SimulationConfig(n=20, seed=9))
    assert not truth.outlier_mask.any()
    # Noise-free curves lie in the span of mean + basis: projecting onto
    # the basis and reconstructing reproduces them.
    centered = sample.values - truth.mean
    basis = truth.eigenfunctions
    gram = basis.T @ basis
    coefs = np.linalg.solve(gram, basis.T @ centered.T).T
    np.testing.assert_allclose(coefs @ basis.T, centered, atol=1e-8)


def test_generate_outlier_mask_matches_fraction():
    sample, truth = generate(SimulationConfig(
        n=100, outlier_scheme="ol1", outlier_fraction=0.05, seed=3))
    assert truth.outlier_mask.sum() == 5
    assert truth.outlier_mask.shape == (100,)


def test_generate_zero_fraction_has_no_outliers():
    _, truth = generate(SimulationConfig(
        n=50, outlier_scheme="ol1", outlier_fraction=0.0, seed=3))
    assert truth.outlier_mask is None or not truth.outlier_mask.any()


def test_generate_noise_stream_is_independent_of_contamination():
    quiet = SimulationConfig(n=60, outlier_scheme="ol1", seed=13)
    loud = SimulationConfig(n=60, outlier_scheme="ol1", noise_sd=2.0,
                            seed=13)
    clean_sample, clean_truth = generate(quiet)
    noisy_sample, noisy_truth = generate(loud)
    assert np.array_equal(clean_truth.outlier_mask,
                          noisy_truth.outlier_mask)
    residual = noisy_sample.values - clean_sample.values
    assert abs(residual.mean()) < 0.05
    assert residual.std() == pytest.approx(2.0, rel=0.05)


def test_generate_contamination_leaves_other_curves_alone():
    plain, _ = generate(SimulationConfig(n=60, seed=21))
    dirty, truth = generate(SimulationConfig(
        n=60, outlier_scheme="ol1", outlier_fraction=0.05, seed=21))
    mask = truth.outlier_mask
    assert np.array_equal(dirty.values[~mask], plain.values[~mask])
    assert not np.array_equal(dirty.values[mask], plain.values[mask])
