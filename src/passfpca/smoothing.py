"""Noise handling for observed curves and covariance surfaces.

Two schemes are supported.  ``pre_smooth`` replaces each observed curve
by a second-difference-penalized ridge fit before any covariance
estimation, with the penalty chosen per curve by generalized
cross-validation unless fixed.  ``smooth_cf`` estimates the pairwise
covariance surface from the raw noisy curves, removes its diagonal
(which carries an additive noise inflation), and fits a penalized
tensor-product B-spline through the remaining cells, evaluating the fit
back on the full grid.

Both paths return the ordinary sample and surface types, so downstream
eigenanalysis is agnostic to how noise was handled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import cholesky, solve_triangular

from .errors import (
    BasisSizeError,
    DiagonalStateError,
    DimensionMismatchError,
    InsufficientSampleError,
    SchemeMismatchError,
)
from .estimators import CovarianceSurface
from .grid import FunctionalSample

__all__ = [
    "SCHEME_PRE_SMOOTH",
    "SCHEME_SMOOTH_CF",
    "SmoothingSpec",
    "presmooth",
    "remove_diagonal",
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


@dataclass(frozen=True)
class SmoothingSpec:
    """How to smooth, and how much.

    Attributes
    ----------
    scheme : str
        ``"pre_smooth"`` (smooth curves before estimation) or
        ``"smooth_cf"`` (smooth the surface after estimation).
    penalty : float or None
        Fixed roughness penalty; None (default) selects it by
        generalized cross-validation.  ``math.inf`` is accepted and
        yields the penalty's null-space fit (a line per curve, a
        bilinear surface).
    basis_size : int
        Marginal B-spline basis dimension for surface smoothing,
        between 4 and the grid size.
    """

    scheme: str = SCHEME_PRE_SMOOTH
    penalty: Optional[float] = None
    basis_size: int = 15

    def __post_init__(self):
        if self.scheme not in (SCHEME_PRE_SMOOTH, SCHEME_SMOOTH_CF):
            raise SchemeMismatchError(
                f"scheme must be 'pre_smooth' or 'smooth_cf', got "
                f"{self.scheme!r}")
        if self.penalty is not None and not self.penalty >= 0.0:
            raise DimensionMismatchError(
                f"penalty must be nonnegative (or None for automatic "
                f"selection), got {self.penalty}")
        if self.basis_size < 4:
            raise BasisSizeError(
                f"basis_size must be at least 4, got {self.basis_size}")


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
def _curve_smoother(n_points: int, points: bytes,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the curve roughness penalty on the grid of
    ``n_points`` points (spacing ``1/n_points``) given by ``points``."""
    d2 = _second_difference(n_points)
    # Scale so the quadratic form approximates the integrated squared
    # second derivative.
    penalty_matrix = (d2.T @ d2) / (1.0 / n_points) ** 3
    eigs, vecs = np.linalg.eigh(penalty_matrix)
    eigs = np.clip(eigs, 0.0, None)
    return eigs, vecs


def presmooth(sample: FunctionalSample, spec: SmoothingSpec,
              ) -> FunctionalSample:
    """Smooth every curve with a roughness-penalized ridge fit.

    Each curve is replaced by the minimizer of its residual sum of
    squares plus ``penalty`` times the integrated squared second
    difference.  With ``spec.penalty=None`` the penalty is chosen per
    curve by generalized cross-validation over a fixed logarithmic grid;
    a zero penalty reproduces the input and an infinite penalty returns
    each curve's least-squares line.

    Parameters
    ----------
    sample : FunctionalSample
        Observed (typically noisy) curves; the grid needs at least 4
        points.
    spec : SmoothingSpec
        Must carry ``scheme="pre_smooth"``.

    Returns
    -------
    FunctionalSample
        Smoothed curves on the same grid.
    """
    if spec.scheme != SCHEME_PRE_SMOOTH:
        raise SchemeMismatchError(
            f"presmooth needs scheme='pre_smooth', got {spec.scheme!r}")
    n_points = sample.grid.n_points
    if n_points < 4:
        raise InsufficientSampleError(
            f"curve smoothing needs at least 4 grid points, got {n_points}")
    if spec.penalty == 0.0:
        # Interpolation limit; short-circuit to keep it bit-exact.
        return FunctionalSample(grid=sample.grid,
                                values=sample.values.copy())
    eigs, vecs = _curve_smoother(n_points, sample.grid.points.tobytes())
    rotated = sample.values @ vecs
    if spec.penalty is not None:
        factors = _shrink_factors(spec.penalty, eigs)
        smoothed = (rotated * factors) @ vecs.T
        return FunctionalSample(grid=sample.grid, values=smoothed)
    # GCV: evaluate every candidate penalty for every curve at once.
    shrink = 1.0 / (1.0 + _CURVE_PENALTIES[:, None] * eigs[None, :])
    edf = shrink.sum(axis=1)
    residual_factor = (1.0 - shrink) ** 2
    rss = rotated ** 2 @ residual_factor.T
    gcv = n_points * rss / (n_points - edf) ** 2
    best = np.argmin(gcv, axis=1)
    smoothed = (rotated * shrink[best]) @ vecs.T
    return FunctionalSample(grid=sample.grid, values=smoothed)


def remove_diagonal(surface: CovarianceSurface) -> CovarianceSurface:
    """Mark the surface diagonal as missing.

    Under pointwise measurement noise the estimated surface is inflated
    by an additive constant exactly on its diagonal, so the diagonal
    cells must be excluded before surface smoothing.  Idempotent.
    """
    matrix = surface.matrix.copy()
    np.fill_diagonal(matrix, np.nan)
    return CovarianceSurface(grid=surface.grid, matrix=matrix,
                             kind=surface.kind, diagonal_removed=True)


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
def _surface_smoother(n_points: int, basis_size: int,
                      points: bytes) -> _SurfaceSmoother:
    return _SurfaceSmoother(np.frombuffer(points), basis_size)


def smooth_surface(surface: CovarianceSurface, spec: SmoothingSpec,
                   ) -> CovarianceSurface:
    """Fit a penalized tensor-product spline through the off-diagonal
    cells of a diagonal-removed surface.

    The fit minimizes the sum of squared deviations over off-diagonal
    cells plus second-difference roughness penalties along both margins,
    and is evaluated back on the full grid, which restores the diagonal
    from its smooth neighbors.  The output is exactly symmetric.

    Parameters
    ----------
    surface : CovarianceSurface
        Must have ``diagonal_removed=True`` (see :func:`remove_diagonal`).
    spec : SmoothingSpec
        Must carry ``scheme="smooth_cf"``; ``basis_size`` sets the
        marginal spline dimension and may not exceed the grid size.

    Returns
    -------
    CovarianceSurface
        Smoothed surface of the same kind with its diagonal restored.
    """
    if spec.scheme != SCHEME_SMOOTH_CF:
        raise SchemeMismatchError(
            f"smooth_surface needs scheme='smooth_cf', got {spec.scheme!r}")
    if not surface.diagonal_removed:
        raise DiagonalStateError(
            "smooth_surface expects the diagonal to be removed; call "
            "remove_diagonal first")
    if spec.basis_size > surface.grid.n_points:
        raise BasisSizeError(
            f"basis_size {spec.basis_size} exceeds the grid size "
            f"{surface.grid.n_points}")
    grid = surface.grid
    smoother = _surface_smoother(grid.n_points, spec.basis_size,
                                 grid.points.tobytes())
    matrix = smoother.fit(surface.matrix, spec.penalty)
    return CovarianceSurface(grid=surface.grid, matrix=matrix,
                             kind=surface.kind, diagonal_removed=False)
