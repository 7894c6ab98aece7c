"""Regular grids on the unit interval and the quadrature they induce.

All functional data in this package live on a shared regular grid of
``N`` points ``t_j = j/N`` for ``j = 1..N``.  Inner products and norms are
uniform-weight Riemann sums with weight ``1/N``, so the constant function
one has unit norm and the grid carries total mass one.  Every estimator in
the package uses these definitions, which keeps noisy and noise-free
covariance estimates on one common scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidGridError

__all__ = ["Grid", "FunctionalSample", "make_grid", "inner_product", "l2_norm"]

# Relative tolerance for grid regularity checks.
_GRID_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Equally spaced sample points on (0, 1].

    Attributes
    ----------
    n_points : int
        Number of grid points ``N``.
    points : numpy.ndarray
        The points ``t_j = j/N``, strictly increasing.
    spacing : float
        Quadrature weight per point, ``1/N``.
    """

    n_points: int
    points: np.ndarray = field(repr=False)
    spacing: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if self.n_points < 2:
            raise InvalidGridError(
                f"a grid needs at least 2 points, got n_points={self.n_points}")
        if pts.ndim != 1 or pts.shape[0] != self.n_points:
            raise InvalidGridError(
                f"points must be a vector of length {self.n_points}, "
                f"got shape {pts.shape}")
        steps = np.diff(pts)
        if np.any(steps <= 0):
            raise InvalidGridError("grid points must be strictly increasing")
        if np.max(np.abs(steps - self.spacing)) > _GRID_RTOL * max(self.spacing, 1.0):
            raise InvalidGridError("grid points must be equally spaced")
        if abs(self.spacing * self.n_points - 1.0) > _GRID_RTOL:
            raise InvalidGridError(
                "spacing times n_points must equal 1 (unit-interval convention)")
        # With equal steps of 1/N, ending at 1 pins every point to j/N.
        if abs(pts[-1] - 1.0) > _GRID_RTOL:
            raise InvalidGridError(
                f"the last grid point must be 1 (points t_j = j/N), got "
                f"{float(pts[-1])}")
        object.__setattr__(self, "points", pts)


@dataclass
class FunctionalSample:
    """A set of curves observed on one shared grid.

    Attributes
    ----------
    grid : Grid
        The common sampling grid.
    values : numpy.ndarray
        Matrix of shape ``(n, N)``; row ``i`` holds curve ``x_i`` evaluated
        at the grid points.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise DimensionMismatchError(
                f"values must be a 2-d array of shape (n, N), got ndim={vals.ndim}")
        if vals.shape[0] < 1:
            raise DimensionMismatchError("a sample needs at least one curve")
        if vals.shape[1] != self.grid.n_points:
            raise DimensionMismatchError(
                f"curves have {vals.shape[1]} values but the grid has "
                f"{self.grid.n_points} points")
        if not np.all(np.isfinite(vals)):
            raise DimensionMismatchError("curve values must all be finite")
        self.values = vals

    @property
    def n(self) -> int:
        """Number of curves in the sample."""
        return self.values.shape[0]


def make_grid(n_points: int) -> Grid:
    """Build the regular grid ``t_j = j/N`` for ``j = 1..n_points``.

    Parameters
    ----------
    n_points : int
        Number of grid points; must be at least 2.

    Returns
    -------
    Grid
        Grid with right-endpoint points and spacing ``1/n_points``.
    """
    if n_points < 2:
        raise InvalidGridError(
            f"a grid needs at least 2 points, got n_points={n_points}")
    n_points = int(n_points)
    points = np.arange(1, n_points + 1, dtype=float) / n_points
    return Grid(n_points=n_points, points=points, spacing=1.0 / n_points)


def _check_length(f: np.ndarray, grid: Grid, name: str) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.shape[0] != grid.n_points:
        raise DimensionMismatchError(
            f"{name} must have {grid.n_points} entries, got shape {f.shape}")
    return f


def inner_product(f: np.ndarray, g: np.ndarray, grid: Grid) -> float:
    """Riemann inner product ``Δ · Σ_j f_j g_j`` on the grid."""
    f = _check_length(f, grid, "f")
    g = _check_length(g, grid, "g")
    return float(grid.spacing * np.dot(f, g))


def l2_norm(f: np.ndarray, grid: Grid) -> float:
    """Norm induced by :func:`inner_product`."""
    return float(np.sqrt(inner_product(f, f, grid)))
