"""Noise handling for observed curves and covariance surfaces.

Two schemes are supported, one call each.  ``pre_smooth``
(:func:`presmooth`) replaces each observed curve by a
second-difference-penalized ridge fit before any covariance estimation,
with the penalty chosen per curve by generalized cross-validation.
``smooth_cf`` (:func:`smooth_surface`) takes the covariance
surface estimated from the raw noisy curves and fits a penalized
tensor-product B-spline through its off-diagonal cells only, since
pointwise noise inflates exactly the diagonal (Yao, Müller & Wang 2005);
the fit evaluated back on the full grid restores the diagonal from its
smooth neighbors.

Both paths return the ordinary sample and surface types, so downstream
eigenanalysis is agnostic to how noise was handled.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BasisSizeError, InsufficientSampleError
from .estimators import CovarianceSurface, _unit_scale
from .grid import FunctionalSample, make_grid

__all__ = [
    "SCHEME_PRE_SMOOTH",
    "SCHEME_SMOOTH_CF",
    "presmooth",
    "smooth_surface",
]

SCHEME_PRE_SMOOTH = "pre_smooth"
SCHEME_SMOOTH_CF = "smooth_cf"

# Penalty grids searched by generalized cross-validation.
_CURVE_PENALTIES = np.logspace(-12, 6, 91)
_SURFACE_PENALTIES = np.logspace(-10, 8, 91)

# Smoothing operators depend only on the grid (and the basis size), so
# each is built once per grid; a few grids stay cached at a time.
_CACHED_GRIDS = 8


@lru_cache(maxsize=_CACHED_GRIDS)
def _curve_smoother(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the curve roughness penalty on a grid of
    ``n_points`` points with spacing ``1/n_points``."""
    d2 = np.diff(np.eye(n_points), 2, axis=0)
    # Scale so the quadratic form approximates the integrated squared
    # second derivative.
    penalty_matrix = (d2.T @ d2) / (1.0 / n_points) ** 3
    eigs, vecs = np.linalg.eigh(penalty_matrix)
    eigs = np.clip(eigs, 0.0, None)
    return eigs, vecs


def presmooth(sample: FunctionalSample) -> FunctionalSample:
    """Smooth every curve with a roughness-penalized ridge fit.

    Each curve is replaced by the minimizer of its residual sum of
    squares plus a penalty times the integrated squared second
    difference, with the penalty chosen per curve by generalized
    cross-validation over a fixed logarithmic grid.  The fit runs on the
    curves scaled by a power of two into [0.5, 1), where its squared
    residuals cannot overflow or underflow, and is scaled back exactly.

    Parameters
    ----------
    sample : FunctionalSample
        Observed (typically noisy) curves; the grid needs at least 4
        points.

    Returns
    -------
    FunctionalSample
        Smoothed curves on the same grid.
    """
    n_points = sample.grid.n_points
    if n_points < 4:
        raise InsufficientSampleError(
            f"curve smoothing needs at least 4 grid points, got {n_points}")
    eigs, vecs = _curve_smoother(n_points)
    values, exponent = _unit_scale(sample.values)
    rotated = values @ vecs
    # GCV: evaluate every candidate penalty for every curve at once.
    shrink = 1.0 / (1.0 + _CURVE_PENALTIES[:, None] * eigs[None, :])
    edf = shrink.sum(axis=1)
    residual_factor = (1.0 - shrink) ** 2
    rss = rotated ** 2 @ residual_factor.T
    gcv = n_points * rss / (n_points - edf) ** 2
    best = np.argmin(gcv, axis=1)
    smoothed = (rotated * shrink[best]) @ vecs.T
    return FunctionalSample(np.ldexp(smoothed, exponent))


def _bspline_basis(points: np.ndarray, basis_size: int) -> np.ndarray:
    """Design matrix of the ``basis_size`` cubic B-splines on clamped,
    equally spaced knots over [0, 1], at ``points`` in [0, 1].

    Each row holds the four splines that are nonzero at its point, from
    the Cox-de Boor recursion; the right end belongs to the last knot
    interval.
    """
    degree = 3
    inner = np.linspace(0.0, 1.0, basis_size - degree + 1)
    knots = np.concatenate([np.zeros(degree), inner, np.ones(degree)])
    # Knot interval knots[l] <= x < knots[l + 1] of each point.
    interval = np.clip(np.searchsorted(knots, points, side="right") - 1,
                       degree, basis_size - 1)
    values = np.zeros((points.size, degree + 1))
    values[:, 0] = 1.0
    for j in range(1, degree + 1):
        previous = values[:, :j].copy()
        values[:, 0] = 0.0
        for i in range(j):
            right = knots[interval + i + 1]
            left = knots[interval + i + 1 - j]
            ratio = previous[:, i] / (right - left)
            values[:, i] += ratio * (right - points)
            values[:, i + 1] = ratio * (points - left)
    basis = np.zeros((points.size, basis_size))
    columns = interval[:, None] - degree + np.arange(degree + 1)
    basis[np.arange(points.size)[:, None], columns] = values
    return basis


class _SurfaceSmoother:
    """Precomputed tensor-spline operators for one (grid, basis) pair."""

    def __init__(self, points: np.ndarray, basis_size: int):
        basis = _bspline_basis(points, basis_size)
        n_points, m = basis.shape
        btb = basis.T @ basis
        # Normal matrix over off-diagonal cells: the full tensor product
        # minus the diagonal cells' design rows b(t_j) (x) b(t_j).
        cells = (basis[:, :, None] * basis[:, None, :]).reshape(
            n_points, m * m)
        xtx = np.kron(btb, btb)
        xtx -= cells.T @ cells
        del cells
        d2 = np.diff(np.eye(m), 2, axis=0)
        marginal_penalty = d2.T @ d2
        penalty = (np.kron(marginal_penalty, np.eye(m))
                   + np.kron(np.eye(m), marginal_penalty))
        # xtx is a Gram matrix, so positive semidefinite; the small ridge
        # makes it definite, as the Cholesky factor L requires, even for
        # basis sizes close to the grid size.  The generalized problem
        # reduces as in LAPACK's dsygvd: with V the eigenvectors of
        # L^-1 penalty L^-T, T = L^-T V has T' (xtx + ridge) T = I and
        # T' penalty T = diag(eigs), which makes the penalized fit
        # diagonal in u = T' X'y.  The fit reads T only through
        # T diag(d) T' and sums of d-weighted u**2, which are the same for
        # any signs of the eigenvectors and any basis within a repeated
        # eigenvalue.
        xtx[np.diag_indices(m * m)] += 1e-10
        inv_factor = np.linalg.inv(np.linalg.cholesky(xtx))
        eigs, vecs = np.linalg.eigh(inv_factor @ penalty @ inv_factor.T)
        transform = inv_factor.T @ vecs
        self.basis = basis
        self.m = m
        self.n_cells = n_points * n_points - n_points
        self.penalty_eigs = np.clip(eigs, 0.0, None)
        self.transform = transform

    def fit(self, matrix: np.ndarray) -> np.ndarray:
        """Fit the off-diagonal cells; return the smoothed full surface."""
        # A zero diagonal drops out of the projection and the residuals,
        # matching the off-diagonal normal matrix.
        filled = matrix.copy()
        np.fill_diagonal(filled, 0.0)
        projected = (self.basis.T @ filled @ self.basis).reshape(-1)
        u = self.transform.T @ projected
        # GCV: evaluate every candidate penalty at once; argmin keeps the
        # first of tied minima.
        yss = float(np.sum(filled * filled))
        d = 1.0 / (1.0 + _SURFACE_PENALTIES[:, None] * self.penalty_eigs)
        rss = (yss - 2.0 * np.sum(u * u * d, axis=1)
               + np.sum((u * d) ** 2, axis=1))
        edf = d.sum(axis=1)
        gcv = self.n_cells * rss / (self.n_cells - edf) ** 2
        d = d[np.argmin(gcv)]
        coef = (self.transform @ (d * u)).reshape(self.m, self.m)
        smoothed = self.basis @ coef @ self.basis.T
        return 0.5 * (smoothed + smoothed.T)


@lru_cache(maxsize=_CACHED_GRIDS)
def _surface_smoother(n_points: int, basis_size: int) -> _SurfaceSmoother:
    return _SurfaceSmoother(make_grid(n_points).points, basis_size)


def smooth_surface(surface: CovarianceSurface,
                   basis_size: int = 15) -> CovarianceSurface:
    """Fit a penalized tensor-product spline through the off-diagonal
    cells of a covariance surface.

    The fit minimizes the sum of squared deviations over off-diagonal
    cells plus second-difference roughness penalties along both margins,
    so the (noise-inflated) diagonal never enters it, and is evaluated
    back on the full grid, which restores the diagonal from its smooth
    neighbors.  The penalty is chosen by generalized cross-validation
    over a fixed logarithmic grid.  The output is exactly symmetric.
    As in :func:`presmooth`, the fit runs on the surface scaled by a
    power of two into [0.5, 1) and is scaled back exactly.

    Parameters
    ----------
    surface : CovarianceSurface
        Full surface, typically estimated from raw noisy curves.
    basis_size : int
        Marginal B-spline basis dimension, between 4 and the grid size.

    Returns
    -------
    CovarianceSurface
        Smoothed surface on the same grid.
    """
    n_points = surface.grid.n_points
    if not 4 <= basis_size <= n_points:
        raise BasisSizeError(
            f"basis_size must be between 4 and the grid size "
            f"{n_points}, got {basis_size}")
    smoother = _surface_smoother(n_points, basis_size)
    matrix, exponent = _unit_scale(surface.matrix)
    return CovarianceSurface(np.ldexp(smoother.fit(matrix), exponent))
