"""Noise handling for observed curves and covariance surfaces.

Two schemes are supported, one call each.  ``pre_smooth``
(:func:`presmooth`) replaces each observed curve by a
second-difference-penalized ridge fit before any covariance estimation,
with the penalty chosen per curve by generalized cross-validation unless
fixed.  ``smooth_cf`` (:func:`smooth_surface`) takes the covariance
surface estimated from the raw noisy curves and fits a penalized
tensor-product B-spline through its off-diagonal cells only, since
pointwise noise inflates exactly the diagonal (Yao, Müller & Wang 2005);
the fit evaluated back on the full grid restores the diagonal from its
smooth neighbors.

Both paths return the ordinary sample and surface types, so downstream
eigenanalysis is agnostic to how noise was handled.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import cholesky, solve_triangular

from .errors import (BasisSizeError, DimensionMismatchError,
                     InsufficientSampleError)
from .estimators import CovarianceSurface
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


def _check_penalty(penalty: Optional[float]) -> None:
    if penalty is not None and not penalty >= 0.0:
        raise DimensionMismatchError(
            f"penalty must be nonnegative (or None for automatic "
            f"selection), got {penalty}")


def _shrink_factors(penalty: float, eigs: np.ndarray) -> np.ndarray:
    """Ridge shrinkage 1/(1 + penalty * eig), with the infinite-penalty
    limit mapped onto the penalty's numerical null space."""
    if math.isinf(penalty):
        null = eigs <= 1e-12 * max(eigs.max(), 1.0)
        return null.astype(float)
    return 1.0 / (1.0 + penalty * eigs)


def _second_difference(n: int) -> np.ndarray:
    rows = n - 2
    mat = np.zeros((rows, n))
    idx = np.arange(rows)
    mat[idx, idx] = 1.0
    mat[idx, idx + 1] = -2.0
    mat[idx, idx + 2] = 1.0
    return mat


@lru_cache(maxsize=_CACHED_GRIDS)
def _curve_smoother(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the curve roughness penalty on a grid of
    ``n_points`` points with spacing ``1/n_points``."""
    d2 = _second_difference(n_points)
    # Scale so the quadratic form approximates the integrated squared
    # second derivative.
    penalty_matrix = (d2.T @ d2) / (1.0 / n_points) ** 3
    eigs, vecs = np.linalg.eigh(penalty_matrix)
    eigs = np.clip(eigs, 0.0, None)
    return eigs, vecs


def presmooth(sample: FunctionalSample, penalty: Optional[float] = None,
              ) -> FunctionalSample:
    """Smooth every curve with a roughness-penalized ridge fit.

    Each curve is replaced by the minimizer of its residual sum of
    squares plus ``penalty`` times the integrated squared second
    difference.  With ``penalty=None`` the penalty is chosen per
    curve by generalized cross-validation over a fixed logarithmic grid;
    a zero penalty reproduces the input and an infinite penalty returns
    each curve's least-squares line.

    Parameters
    ----------
    sample : FunctionalSample
        Observed (typically noisy) curves; the grid needs at least 4
        points.
    penalty : float or None
        Fixed roughness penalty, nonnegative; ``math.inf`` is accepted.
        None (default) selects it per curve by generalized
        cross-validation.

    Returns
    -------
    FunctionalSample
        Smoothed curves on the same grid.
    """
    _check_penalty(penalty)
    n_points = sample.grid.n_points
    if n_points < 4:
        raise InsufficientSampleError(
            f"curve smoothing needs at least 4 grid points, got {n_points}")
    if penalty == 0.0:
        # Interpolation limit; short-circuit to keep it bit-exact.
        return FunctionalSample(sample.values.copy())
    eigs, vecs = _curve_smoother(n_points)
    rotated = sample.values @ vecs
    if penalty is not None:
        factors = _shrink_factors(penalty, eigs)
        smoothed = (rotated * factors) @ vecs.T
        return FunctionalSample(smoothed)
    # GCV: evaluate every candidate penalty for every curve at once.
    shrink = 1.0 / (1.0 + _CURVE_PENALTIES[:, None] * eigs[None, :])
    edf = shrink.sum(axis=1)
    residual_factor = (1.0 - shrink) ** 2
    rss = rotated ** 2 @ residual_factor.T
    gcv = n_points * rss / (n_points - edf) ** 2
    best = np.argmin(gcv, axis=1)
    smoothed = (rotated * shrink[best]) @ vecs.T
    return FunctionalSample(smoothed)


class _SurfaceSmoother:
    """Precomputed tensor-spline operators for one (grid, basis) pair."""

    def __init__(self, points: np.ndarray, basis_size: int):
        degree = 3
        inner = np.linspace(0.0, 1.0, basis_size - degree + 1)
        knots = np.concatenate([np.zeros(degree), inner, np.ones(degree)])
        basis = BSpline.design_matrix(points, knots, degree,
                                      extrapolate=False).toarray()
        n_points, m = basis.shape
        btb = basis.T @ basis
        # Normal matrix over off-diagonal cells: the full tensor product
        # minus each diagonal cell's contribution.
        quartic = np.einsum("ja,jb,jc,jd->abcd", basis, basis, basis, basis)
        xtx = (np.kron(btb, btb)
               - quartic.transpose(0, 2, 1, 3).reshape(m * m, m * m))
        d2 = _second_difference(m)
        marginal_penalty = d2.T @ d2
        penalty = (np.kron(marginal_penalty, np.eye(m))
                   + np.kron(np.eye(m), marginal_penalty))
        # Small ridge so the Cholesky factor exists even for basis sizes
        # close to the grid size.
        chol = cholesky(xtx + 1e-10 * np.eye(m * m), lower=False)
        chol_inv = solve_triangular(chol, np.eye(m * m), lower=False)
        balanced = chol_inv.T @ penalty @ chol_inv
        eigs, rotations = np.linalg.eigh(0.5 * (balanced + balanced.T))
        self.basis = basis
        self.m = m
        self.n_cells = n_points * n_points - n_points
        self.penalty_eigs = np.clip(eigs, 0.0, None)
        self.transform = chol_inv @ rotations

    def fit(self, matrix: np.ndarray, penalty: Optional[float],
            ) -> np.ndarray:
        """Fit the off-diagonal cells; return the smoothed full surface."""
        # A zero diagonal drops out of the projection and the residuals,
        # matching the off-diagonal normal matrix.
        filled = matrix.copy()
        np.fill_diagonal(filled, 0.0)
        projected = (self.basis.T @ filled @ self.basis).reshape(-1)
        u = self.transform.T @ projected
        if penalty is None:
            yss = float(np.sum(filled * filled))
            best_gcv = math.inf
            penalty = _SURFACE_PENALTIES[0]
            for candidate in _SURFACE_PENALTIES:
                d = 1.0 / (1.0 + candidate * self.penalty_eigs)
                rss = yss - 2.0 * np.sum(u * u * d) + np.sum((u * d) ** 2)
                edf = d.sum()
                gcv = self.n_cells * rss / (self.n_cells - edf) ** 2
                if gcv < best_gcv:
                    best_gcv, penalty = gcv, candidate
        d = _shrink_factors(penalty, self.penalty_eigs)
        coef = (self.transform @ (d * u)).reshape(self.m, self.m)
        smoothed = self.basis @ coef @ self.basis.T
        return 0.5 * (smoothed + smoothed.T)


@lru_cache(maxsize=_CACHED_GRIDS)
def _surface_smoother(n_points: int, basis_size: int) -> _SurfaceSmoother:
    return _SurfaceSmoother(make_grid(n_points).points, basis_size)


def smooth_surface(surface: CovarianceSurface, basis_size: int = 15,
                   penalty: Optional[float] = None) -> CovarianceSurface:
    """Fit a penalized tensor-product spline through the off-diagonal
    cells of a covariance surface.

    The fit minimizes the sum of squared deviations over off-diagonal
    cells plus second-difference roughness penalties along both margins,
    so the (noise-inflated) diagonal never enters it, and is evaluated
    back on the full grid, which restores the diagonal from its smooth
    neighbors.  The output is exactly symmetric.

    Parameters
    ----------
    surface : CovarianceSurface
        Full surface, typically estimated from raw noisy curves.
    basis_size : int
        Marginal B-spline basis dimension, between 4 and the grid size.
    penalty : float or None
        Fixed roughness penalty, nonnegative; ``math.inf`` yields the
        bilinear null-space fit.  None (default) selects it by
        generalized cross-validation.

    Returns
    -------
    CovarianceSurface
        Smoothed surface on the same grid.
    """
    _check_penalty(penalty)
    n_points = surface.grid.n_points
    if not 4 <= basis_size <= n_points:
        raise BasisSizeError(
            f"basis_size must be between 4 and the grid size "
            f"{n_points}, got {basis_size}")
    smoother = _surface_smoother(n_points, basis_size)
    return CovarianceSurface(smoother.fit(surface.matrix, penalty))
