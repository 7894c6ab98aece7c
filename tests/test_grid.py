"""Tests for grids, inner products, and norms."""

import numpy as np
import pytest

from passfpca import (
    DimensionMismatchError,
    FunctionalSample,
    Grid,
    InvalidGridError,
    inner_product,
    l2_norm,
    make_grid,
)


def test_make_grid_basic():
    grid = make_grid(4)
    assert grid.n_points == 4
    assert grid.spacing == pytest.approx(0.25, abs=0.0)
    np.testing.assert_allclose(grid.points, [0.25, 0.5, 0.75, 1.0],
                               rtol=0, atol=1e-15)


def test_make_grid_matches_unit_interval_convention():
    # t_j = j/N with N weights of total mass one.
    for n_points in (2, 3, 49, 101, 256):
        grid = make_grid(n_points)
        assert grid.points[-1] == pytest.approx(1.0, abs=1e-15)
        assert grid.spacing * grid.n_points == pytest.approx(1.0, abs=1e-12)
        steps = np.diff(grid.points)
        assert np.max(np.abs(steps - grid.spacing)) < 1e-12


def test_make_grid_rejects_degenerate():
    with pytest.raises(InvalidGridError):
        make_grid(1)
    with pytest.raises(InvalidGridError):
        make_grid(0)


def test_grid_validates_fields():
    with pytest.raises(InvalidGridError):
        Grid(n_points=3, points=np.array([0.9, 0.6, 0.3]), spacing=1 / 3)
    with pytest.raises(InvalidGridError):
        Grid(n_points=3, points=np.array([0.1, 0.2, 1.0]), spacing=1 / 3)
    with pytest.raises(InvalidGridError):
        # spacing inconsistent with the unit interval
        Grid(n_points=4, points=np.array([0.5, 1.0, 1.5, 2.0]), spacing=0.5)


def test_grid_rejects_points_off_the_unit_interval():
    # Equal steps of 1/N that do not end at 1 used to be accepted, and
    # smooth_surface then failed inside scipy with "Out of bounds".
    with pytest.raises(InvalidGridError):
        Grid(n_points=5, points=np.array([0.5, 0.7, 0.9, 1.1, 1.3]),
             spacing=0.2)
    with pytest.raises(InvalidGridError):
        Grid(n_points=4, points=np.array([0.0, 0.25, 0.5, 0.75]),
             spacing=0.25)
    grid = Grid(n_points=4, points=np.array([0.25, 0.5, 0.75, 1.0]),
                spacing=0.25)
    np.testing.assert_array_equal(grid.points, make_grid(4).points)


def test_inner_product_constant_is_one():
    for n_points in (5, 49, 101):
        grid = make_grid(n_points)
        ones = np.ones(n_points)
        assert inner_product(ones, ones, grid) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_inner_product_fourier_orthonormality():
    # Analytic integrals: unit norm, zero cross product.
    grid = make_grid(101)
    t = grid.points
    f = np.sqrt(2) * np.sin(2 * np.pi * t)
    g = np.sqrt(2) * np.cos(2 * np.pi * t)
    assert inner_product(f, f, grid) == pytest.approx(1.0, abs=1e-3)
    assert inner_product(f, g, grid) == pytest.approx(0.0, abs=1e-3)
    assert l2_norm(f, grid) == pytest.approx(1.0, abs=1e-3)


def test_inner_product_symmetry_and_bilinearity():
    rng = np.random.default_rng(7)
    grid = make_grid(33)
    for _ in range(20):
        f = rng.standard_normal(33)
        g = rng.standard_normal(33)
        h = rng.standard_normal(33)
        a, b = rng.standard_normal(2)
        assert inner_product(f, g, grid) == inner_product(g, f, grid)
        combined = inner_product(a * f + b * g, h, grid)
        separate = a * inner_product(f, h, grid) + b * inner_product(
            g, h, grid)
        assert combined == pytest.approx(separate, abs=1e-12)


def test_cauchy_schwarz_and_scaling():
    rng = np.random.default_rng(11)
    grid = make_grid(50)
    for _ in range(25):
        f = rng.standard_normal(50)
        g = rng.standard_normal(50)
        c = rng.uniform(-5, 5)
        ip = inner_product(f, g, grid)
        assert ip ** 2 <= l2_norm(f, grid) ** 2 * l2_norm(g, grid) ** 2 + 1e-12
        assert l2_norm(c * f, grid) == pytest.approx(
            abs(c) * l2_norm(f, grid), rel=1e-12, abs=1e-300)


def test_norm_trivial_values():
    grid = make_grid(10)
    assert l2_norm(np.zeros(10), grid) == 0.0
    assert l2_norm(np.full(10, 2.0), grid) == pytest.approx(2.0, abs=1e-12)


def test_inner_product_length_mismatch():
    grid = make_grid(5)
    with pytest.raises(DimensionMismatchError):
        inner_product(np.ones(4), np.ones(5), grid)
    with pytest.raises(DimensionMismatchError):
        l2_norm(np.ones(6), grid)


def test_functional_sample_validation():
    grid = make_grid(5)
    sample = FunctionalSample(grid=grid, values=np.zeros((3, 5)))
    assert sample.n == 3
    with pytest.raises(DimensionMismatchError):
        FunctionalSample(grid=grid, values=np.zeros((3, 4)))
    with pytest.raises(DimensionMismatchError):
        FunctionalSample(grid=grid, values=np.zeros((0, 5)))
    bad = np.zeros((2, 5))
    bad[1, 2] = np.nan
    with pytest.raises(DimensionMismatchError):
        FunctionalSample(grid=grid, values=bad)
