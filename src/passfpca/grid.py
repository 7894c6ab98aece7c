"""Regular grids on the unit interval and the quadrature they induce.

All functional data in this package live on a regular grid of ``N``
points ``t_j = j/N`` for ``j = 1..N``.  Inner products and norms are
uniform-weight Riemann sums with weight ``1/N``, so the constant function
one has unit norm and the grid carries total mass one.  Every estimator in
the package uses these definitions, which keeps noisy and noise-free
covariance estimates on one common scale.

A grid is fixed by ``N`` alone, and ``N`` by the arrays it describes, so
:class:`Grid` stores only ``N`` and the value types derive their grid
from the shape of their own arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidGridError

__all__ = ["Grid", "FunctionalSample", "make_grid", "inner_product", "l2_norm"]


@dataclass(frozen=True)
class Grid:
    """The regular grid ``t_j = j/N`` on (0, 1].

    Attributes
    ----------
    n_points : int
        Number of grid points ``N``, at least 2.
    """

    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise InvalidGridError(
                f"a grid needs at least 2 points, got n_points={self.n_points}")

    @property
    def points(self) -> np.ndarray:
        """The points ``t_j = j/N``."""
        return np.arange(1, self.n_points + 1, dtype=float) / self.n_points

    @property
    def spacing(self) -> float:
        """Quadrature weight per point, ``1/N``."""
        return 1.0 / self.n_points


@dataclass
class FunctionalSample:
    """A set of curves observed on one shared grid.

    Attributes
    ----------
    values : numpy.ndarray
        Finite matrix of shape ``(n, N)`` with ``n >= 1`` and ``N >= 2``;
        row ``i`` holds curve ``x_i`` evaluated at the grid points.
        Stored C-contiguous, copied so when the caller's array is not,
        so that every estimator sums in one order and a sample's
        estimates do not depend on the caller's memory layout.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise DimensionMismatchError(
                f"values must be a 2-d array of shape (n, N), got ndim={vals.ndim}")
        if vals.shape[0] < 1:
            raise DimensionMismatchError("a sample needs at least one curve")
        if vals.shape[1] < 2:
            raise DimensionMismatchError(
                f"a sample needs at least 2 grid points, got {vals.shape[1]}")
        if not np.all(np.isfinite(vals)):
            raise DimensionMismatchError("curve values must all be finite")
        self.values = np.ascontiguousarray(vals)

    @property
    def n(self) -> int:
        """Number of curves in the sample."""
        return self.values.shape[0]

    @property
    def grid(self) -> Grid:
        """The grid the curves are observed on, ``make_grid(N)``."""
        return Grid(self.values.shape[1])


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
    return Grid(int(n_points))


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
