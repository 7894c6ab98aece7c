"""Tests for curve pre-smoothing and covariance surface smoothing."""

import numpy as np
import pytest

from passfpca import (
    BasisSizeError,
    CovarianceSurface,
    DimensionMismatchError,
    FunctionalSample,
    InsufficientSampleError,
    SimulationConfig,
    eigendecompose,
    fourier_truth,
    generate,
    make_grid,
    pass_covariance,
    presmooth,
    smooth_surface,
)


def _noisy_sample(n=50, noise_sd=1.0, seed=0):
    sample, _ = generate(SimulationConfig(n=n, noise_sd=noise_sd, seed=seed))
    return sample


def _first_eigenfunction_mse(surface, reference):
    est = eigendecompose(surface, 1).eigenfunctions[:, 0]
    if est @ reference < 0:
        est = -est
    return surface.grid.spacing * float(np.sum((est - reference) ** 2))


# ---------------------------------------------------------------------------
# presmooth


def test_presmooth_zero_penalty_is_identity():
    sample = _noisy_sample(n=10, seed=3)
    out = presmooth(sample, penalty=0.0)
    assert np.array_equal(out.values, sample.values)
    assert out.grid == sample.grid


def test_presmooth_infinite_penalty_gives_least_squares_line():
    grid = make_grid(30)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((4, 30))
    sample = FunctionalSample(grid=grid, values=values)
    out = presmooth(sample, penalty=np.inf)
    for raw, fitted in zip(values, out.values):
        slope, intercept = np.polyfit(grid.points, raw, 1)
        line = slope * grid.points + intercept
        np.testing.assert_allclose(fitted, line, atol=1e-8)


def test_presmooth_gcv_keeps_noise_free_signals():
    grid = make_grid(101)
    truth = fourier_truth(grid)
    sample = FunctionalSample(grid=grid, values=truth.eigenfunctions.T.copy())
    out = presmooth(sample)
    assert np.max(np.abs(out.values - sample.values)) < 0.05


def test_presmooth_gcv_reduces_noise():
    clean, _ = generate(SimulationConfig(n=30, seed=11))
    noisy, _ = generate(SimulationConfig(n=30, noise_sd=1.0, seed=11))
    smoothed = presmooth(noisy)
    err_raw = np.mean((noisy.values - clean.values) ** 2)
    err_smooth = np.mean((smoothed.values - clean.values) ** 2)
    assert err_smooth < 0.5 * err_raw


def test_presmooth_validation():
    sample = _noisy_sample(n=5, seed=1)
    for penalty in (-1.0, np.nan):
        with pytest.raises(DimensionMismatchError):
            presmooth(sample, penalty=penalty)
    short = FunctionalSample(grid=make_grid(3), values=np.ones((2, 3)))
    with pytest.raises(InsufficientSampleError):
        presmooth(short)


def test_noise_inflates_diagonal_only():
    # Pointwise noise adds a spike exactly on the diagonal; adjacent
    # off-diagonal cells stay at the smooth surface level.
    clean, _ = generate(SimulationConfig(n=300, seed=17))
    noisy, _ = generate(SimulationConfig(n=300, noise_sd=2.0, seed=17))
    for sample, inflated in ((clean, False), (noisy, True)):
        matrix = pass_covariance(sample).matrix
        diag = np.diag(matrix).mean()
        adjacent = np.diag(matrix, k=1).mean()
        if inflated:
            assert diag > 1.5 * adjacent
        else:
            assert diag < 1.2 * adjacent


# ---------------------------------------------------------------------------
# smooth_surface


def test_smooth_surface_noise_free_fidelity():
    grid = make_grid(101)
    truth = fourier_truth(grid)
    matrix = (truth.eigenfunctions * truth.eigenvalues
              ) @ truth.eigenfunctions.T
    surface = CovarianceSurface(grid=grid, matrix=matrix)
    smoothed = smooth_surface(surface)
    phi1 = truth.eigenfunctions[:, 0]
    direct = _first_eigenfunction_mse(surface, phi1)
    after = _first_eigenfunction_mse(smoothed, phi1)
    assert abs(after - direct) < 5e-3


def test_smooth_surface_noisy_gaussian_accuracy():
    # Average first-eigenfunction error over independent replicates of
    # the standard Gaussian setting with unit noise.
    grid = make_grid(101)
    phi1 = fourier_truth(grid).eigenfunctions[:, 0]
    errors = []
    for seed in range(20):
        sample, _ = generate(SimulationConfig(n=200, noise_sd=1.0,
                                              seed=seed))
        surface = smooth_surface(pass_covariance(sample))
        errors.append(_first_eigenfunction_mse(surface, phi1))
    assert 0.9e-2 < np.mean(errors) < 2.7e-2


def test_smooth_surface_reproduces_constants():
    grid = make_grid(40)
    surface = CovarianceSurface(grid=grid, matrix=np.full((40, 40), 0.7))
    smoothed = smooth_surface(surface)
    np.testing.assert_allclose(smoothed.matrix, 0.7, atol=1e-6)


def test_smooth_surface_ignores_diagonal():
    # The fit uses off-diagonal cells only, so any diagonal inflation,
    # however large, leaves the result unchanged bit for bit.
    surface = pass_covariance(_noisy_sample(n=40, noise_sd=1.0, seed=29))
    inflated = CovarianceSurface(
        grid=surface.grid,
        matrix=surface.matrix + 1e3 * np.eye(surface.grid.n_points))
    for penalty in (None, 1e-4):
        assert np.array_equal(
            smooth_surface(surface, penalty=penalty).matrix,
            smooth_surface(inflated, penalty=penalty).matrix)


def test_smooth_surface_output_exactly_symmetric():
    surface = pass_covariance(_noisy_sample(n=60, noise_sd=1.0, seed=23))
    smoothed = smooth_surface(surface)
    assert np.array_equal(smoothed.matrix, smoothed.matrix.T)
    assert np.isfinite(smoothed.matrix).all()


def test_smooth_surface_fixed_penalty_path():
    surface = pass_covariance(_noisy_sample(n=40, noise_sd=1.0, seed=31))
    manual = smooth_surface(surface, penalty=1e-4)
    assert manual.matrix.shape == surface.matrix.shape
    assert np.isfinite(manual.matrix).all()


def test_smooth_surface_validation():
    surface = pass_covariance(_noisy_sample(n=20, seed=3))
    for basis_size in (3, 102):
        with pytest.raises(BasisSizeError):
            smooth_surface(surface, basis_size=basis_size)
    smooth_surface(surface, basis_size=4)
    for penalty in (-1.0, np.nan):
        with pytest.raises(DimensionMismatchError):
            smooth_surface(surface, penalty=penalty)
