"""Tests for curve pre-smoothing and covariance surface smoothing."""

import math

import numpy as np
import pytest
from scipy.interpolate import BSpline

from passfpca import (
    BasisSizeError,
    CovarianceSurface,
    FunctionalSample,
    InsufficientSampleError,
    SimulationConfig,
    eigendecompose,
    fourier_truth,
    generate,
    make_grid,
    pass_covariance,
    presmooth,
    sample_covariance,
    smooth_surface,
)
from passfpca import smoothing


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


def test_curve_penalty_null_space_is_the_lines():
    # The penalty vanishes on exactly the straight lines, the limit of
    # the ridge fit as its penalty grows.
    for n_points, atol in ((30, 1e-11), (101, 1e-9)):
        eigs, vecs = smoothing._curve_smoother(n_points)
        null = vecs[:, eigs <= 1e-12 * eigs.max()]
        assert null.shape == (n_points, 2)
        points = make_grid(n_points).points
        lines = np.column_stack([np.ones(n_points), points])
        np.testing.assert_allclose(null @ (null.T @ lines), lines,
                                   rtol=0, atol=atol)


def test_presmooth_gcv_keeps_noise_free_signals():
    grid = make_grid(101)
    truth = fourier_truth(grid)
    sample = FunctionalSample(truth.eigenfunctions.T.copy())
    out = presmooth(sample)
    assert np.max(np.abs(out.values - sample.values)) < 0.05


def test_presmooth_gcv_reduces_noise():
    clean, _ = generate(SimulationConfig(n=30, seed=11))
    noisy, _ = generate(SimulationConfig(n=30, noise_sd=1.0, seed=11))
    smoothed = presmooth(noisy)
    err_raw = np.mean((noisy.values - clean.values) ** 2)
    err_smooth = np.mean((smoothed.values - clean.values) ** 2)
    assert err_smooth < 0.5 * err_raw


@pytest.mark.parametrize("n_points", [41, 101])
@pytest.mark.parametrize("noise_sd", [0.0, 0.3, 1.0])
def test_presmooth_gcv_picks_the_per_curve_minimum(n_points, noise_sd):
    sample, _ = generate(SimulationConfig(n=60, n_points=n_points,
                                          noise_sd=noise_sd, seed=47))
    smoothed = presmooth(sample).values
    eigs, vecs = smoothing._curve_smoother(n_points)
    for curve, row in zip(sample.values, smoothed):
        # The literal loop: each candidate's GCV score in turn, keeping
        # the first strict minimum.
        rotated = curve @ vecs
        best_gcv, expected = math.inf, None
        for candidate in smoothing._CURVE_PENALTIES:
            shrink = 1.0 / (1.0 + candidate * eigs)
            rss = np.sum((rotated * (1.0 - shrink)) ** 2)
            gcv = n_points * rss / (n_points - shrink.sum()) ** 2
            if gcv < best_gcv:
                best_gcv, expected = gcv, (rotated * shrink) @ vecs.T
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("power", [-900, 900])
def test_presmooth_scales_with_the_curves_by_powers_of_two(power):
    # The squared residuals of GCV would overflow at 2^900 and underflow
    # at 2^-900; at unit scale the penalty choice and the fit are exact.
    sample = _noisy_sample(n=20, noise_sd=0.5, seed=2)
    scaled = presmooth(FunctionalSample(np.ldexp(sample.values, power)))
    assert np.array_equal(np.ldexp(scaled.values, -power),
                          presmooth(sample).values)


def test_presmooth_validation():
    short = FunctionalSample(np.ones((2, 3)))
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
    surface = CovarianceSurface(matrix)
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
    surface = CovarianceSurface(np.full((40, 40), 0.7))
    smoothed = smooth_surface(surface)
    np.testing.assert_allclose(smoothed.matrix, 0.7, atol=1e-6)


def test_smooth_surface_ignores_diagonal():
    # The fit uses off-diagonal cells only, so any diagonal inflation,
    # however large, leaves the result unchanged bit for bit.
    surface = pass_covariance(_noisy_sample(n=40, noise_sd=1.0, seed=29))
    inflated = CovarianceSurface(
        surface.matrix + 1e3 * np.eye(surface.grid.n_points))
    assert np.array_equal(smooth_surface(surface).matrix,
                          smooth_surface(inflated).matrix)


def test_smooth_surface_output_exactly_symmetric():
    surface = pass_covariance(_noisy_sample(n=60, noise_sd=1.0, seed=23))
    smoothed = smooth_surface(surface)
    assert np.array_equal(smoothed.matrix, smoothed.matrix.T)
    assert np.isfinite(smoothed.matrix).all()


@pytest.mark.parametrize("power", [-960, 960])
def test_smooth_surface_scales_with_the_surface_by_powers_of_two(power):
    surface = sample_covariance(_noisy_sample(n=40, noise_sd=0.5, seed=2))
    scaled = smooth_surface(
        CovarianceSurface(np.ldexp(surface.matrix, power)))
    assert np.array_equal(np.ldexp(scaled.matrix, -power),
                          smooth_surface(surface).matrix)


def test_smooth_surface_validation():
    surface = pass_covariance(_noisy_sample(n=20, seed=3))
    for basis_size in (3, 102):
        with pytest.raises(BasisSizeError):
            smooth_surface(surface, basis_size=basis_size)
    smooth_surface(surface, basis_size=4)


@pytest.mark.parametrize("basis_size", [4, 15, 30])
def test_bspline_basis_matches_scipy(basis_size):
    # The Cox-de Boor design matrix against scipy's on every grid size
    # from 8 to 401; each row is a partition of unity.
    degree = 3
    knots = np.concatenate([np.zeros(degree),
                            np.linspace(0.0, 1.0, basis_size - degree + 1),
                            np.ones(degree)])
    for n_points in range(8, 402):
        points = make_grid(n_points).points
        basis = smoothing._bspline_basis(points, basis_size)
        expected = BSpline.design_matrix(points, knots, degree,
                                         extrapolate=False).toarray()
        assert np.max(np.abs(basis - expected)) <= 1e-15
        assert np.max(np.abs(basis.sum(axis=1) - 1.0)) <= 1e-15


# ---------------------------------------------------------------------------
# surface smoother operators


def _literal_operators(n_points, basis_size):
    """Build a surface smoother, with the normal matrix over the
    off-diagonal cells and the roughness penalty written out term by
    term from their definitions."""
    smoother = smoothing._SurfaceSmoother(make_grid(n_points).points,
                                          basis_size)
    basis, m = smoother.basis, smoother.m
    design = np.array([np.kron(basis[j], basis[k])
                       for j in range(n_points) for k in range(n_points)
                       if j != k])
    # One row per second difference of the coefficient grid, along
    # either margin.
    rows = []
    for a in range(m - 2):
        for b in range(m):
            for cells in ([(a + i, b) for i in range(3)],
                          [(b, a + i) for i in range(3)]):
                row = np.zeros((m, m))
                for cell, weight in zip(cells, (1.0, -2.0, 1.0)):
                    row[cell] = weight
                rows.append(row.reshape(-1))
    rows = np.array(rows)
    return smoother, design.T @ design, rows.T @ rows


def test_surface_normal_matrix_matches_literal_design():
    # T' (X'X + ridge) T = I for the literal off-diagonal design X.
    smoother, normal, _ = _literal_operators(9, 5)
    transform = smoother.transform
    ridged = normal + 1e-10 * np.eye(25)
    np.testing.assert_allclose(transform.T @ ridged @ transform,
                               np.eye(25), rtol=0, atol=1e-12)


def test_surface_transform_diagonalizes_both_forms():
    smoother, normal, penalty = _literal_operators(101, 15)
    transform = smoother.transform
    ridged = normal + 1e-10 * np.eye(225)
    np.testing.assert_allclose(transform.T @ ridged @ transform,
                               np.eye(225), rtol=0, atol=1e-12)
    eigs = smoother.penalty_eigs
    np.testing.assert_allclose(transform.T @ penalty @ transform,
                               np.diag(eigs), rtol=0,
                               atol=1e-12 * eigs.max())


def test_surface_gcv_picks_the_per_candidate_minimum(monkeypatch):
    clean, _ = generate(SimulationConfig(n=100, seed=41))
    surfaces = [pass_covariance(_noisy_sample(n=100, seed=37)),
                sample_covariance(_noisy_sample(n=100, noise_sd=0.3, seed=39)),
                pass_covariance(clean),
                pass_covariance(_noisy_sample(n=60, noise_sd=2.0, seed=43))]
    candidates = smoothing._SURFACE_PENALTIES
    for surface in surfaces:
        smoother = smoothing._surface_smoother(surface.grid.n_points, 15)
        # The literal loop: each candidate's GCV score in turn, keeping
        # the first strict minimum.
        filled = surface.matrix.copy()
        np.fill_diagonal(filled, 0.0)
        u = smoother.transform.T @ (
            smoother.basis.T @ filled @ smoother.basis).reshape(-1)
        yss = float(np.sum(filled * filled))
        best_gcv, best = math.inf, None
        for index, candidate in enumerate(candidates):
            d = 1.0 / (1.0 + candidate * smoother.penalty_eigs)
            rss = yss - 2.0 * np.sum(u * u * d) + np.sum((u * d) ** 2)
            gcv = smoother.n_cells * rss / (smoother.n_cells - d.sum()) ** 2
            if gcv < best_gcv:
                best_gcv, best = gcv, index
        full = smooth_surface(surface).matrix
        neighbour = best + 1 if best + 1 < candidates.size else best - 1
        with monkeypatch.context() as patch:
            patch.setattr(smoothing, "_SURFACE_PENALTIES",
                          candidates[best:best + 1])
            assert np.array_equal(smooth_surface(surface).matrix, full)
            patch.setattr(smoothing, "_SURFACE_PENALTIES",
                          candidates[neighbour:neighbour + 1])
            assert not np.array_equal(smooth_surface(surface).matrix, full)
