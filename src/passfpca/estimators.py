"""Covariance-surface estimators and their eigendecomposition.

Two surface estimators are provided.  The classical sample covariance is
the usual moment estimator.  The pairwise self-normalized (PASS)
estimator averages outer products of curve differences scaled by
their own squared norm,

    K(s, t) = mean over pairs (j, k) of
              (x_j(s) - x_k(s)) (x_j(t) - x_k(t)) / ||x_j - x_k||^2,

which is bounded regardless of how heavy-tailed the curves are and keeps
the same eigenfunctions as the classical covariance while shrinking the
spread of the eigenvalues.  Its trace under the grid quadrature is exactly
one because every summand is self-normalized.

A spherical comparator (:func:`mspc`) based on sign-normalized deviations
about the spatial median is included for benchmarking.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import (
    AsymmetrySurfaceError,
    ConvergenceError,
    DegenerateSampleError,
    DimensionMismatchError,
    InsufficientSampleError,
    SampleTooLargeError,
)
from .grid import FunctionalSample, Grid

__all__ = [
    "CovarianceSurface",
    "EigenSystem",
    "mean_function",
    "sample_covariance",
    "pass_covariance",
    "eigendecompose",
    "spatial_median",
    "mspc",
]

# Pairs whose squared norm falls at or below this relative threshold are
# treated as coincident curves and excluded from the pairwise average.
_DEGENERATE_REL_TOL = 1e-12

# Pairs with ||x_i - x_j||^2 at or below this fraction of
# ||x_i||^2 + ||x_j||^2 (median-centred) enter the PASS sum term by term.
# The Laplacian form rounds a pair's term with a relative error of about
# eps * (||x_i||^2 + ||x_j||^2) / ||x_i - x_j||^2; the cut caps that
# factor at 1e3.
_CLOSE_REL_TOL = 1e-3

# Scratch bytes for one block of weight rows or one chunk of close pairs.
_BLOCK_BYTES = 1 << 22

# Absolute symmetry tolerance for covariance surfaces.
_SYMMETRY_ATOL = 1e-10


@dataclass
class CovarianceSurface:
    """A covariance (or sign-covariance) surface sampled on a grid.

    Attributes
    ----------
    matrix : numpy.ndarray
        Finite, symmetric ``(N, N)`` matrix of surface values.
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(
                f"surface matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise DimensionMismatchError("surface values must be finite")
        asym = np.max(np.abs(mat - mat.T))
        if asym > _SYMMETRY_ATOL:
            raise AsymmetrySurfaceError(
                f"surface is asymmetric beyond tolerance: "
                f"max |M - M^T| = {asym:.3e}")
        self.matrix = mat

    @property
    def grid(self) -> Grid:
        """The grid the surface is sampled on, ``make_grid(N)``."""
        return Grid(self.matrix.shape[0])


@dataclass
class EigenSystem:
    """Leading eigenpairs of a covariance surface.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Top ``q`` eigenvalues on the operator scale (matrix eigenvalue
        times the quadrature weight), nonincreasing.
    eigenfunctions : numpy.ndarray
        ``(N, q)`` matrix whose columns have unit quadrature norm; the
        entry of largest magnitude in each column is positive.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        funs = np.asarray(self.eigenfunctions, dtype=float)
        if vals.ndim != 1 or funs.ndim != 2 or funs.shape[1] != vals.size:
            raise DimensionMismatchError(
                f"eigenfunctions must have shape (N, q) for a vector of q "
                f"eigenvalues, got {funs.shape} and {vals.shape}")
        self.eigenvalues = vals
        self.eigenfunctions = funs

    @property
    def q(self) -> int:
        """Number of retained components."""
        return len(self.eigenvalues)

    @property
    def grid(self) -> Grid:
        """The grid of the eigenfunctions, ``make_grid(N)``."""
        return Grid(self.eigenfunctions.shape[0])


def mean_function(sample: FunctionalSample) -> np.ndarray:
    """Pointwise arithmetic mean across curves."""
    return sample.values.mean(axis=0)


def sample_covariance(sample: FunctionalSample) -> CovarianceSurface:
    """Classical sample covariance surface.

    Parameters
    ----------
    sample : FunctionalSample
        At least two curves on a shared grid.

    Returns
    -------
    CovarianceSurface
        Surface with ``matrix[j, k]`` equal to the usual unbiased sample
        covariance between grid points ``j`` and ``k``.

    Notes
    -----
    The accumulation visits curves in index order so the result matches a
    literal double-loop evaluation of the definition bit for bit.
    """
    n = sample.n
    if n < 2:
        raise InsufficientSampleError(
            f"sample covariance needs at least 2 curves, got {n}")
    # Accumulate on the copy scaled by 2^-e, where the products cannot
    # overflow; scaling back is exact, and a surface beyond the float
    # range reads inf, which the surface rejects.
    values, exponent = _unit_scale(sample.values)
    centered = values - values.mean(axis=0)
    acc = np.zeros((sample.grid.n_points, sample.grid.n_points))
    for row in centered:
        acc += row[:, None] * row[None, :]
    with np.errstate(over="ignore"):
        return CovarianceSurface(np.ldexp(acc / (n - 1), 2 * exponent))


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the system cannot say."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    if pages <= 0 or page_size <= 0:
        return None
    return pages * page_size


def _check_memory(n_bytes: int, what: str) -> None:
    """Raise :class:`SampleTooLargeError` before allocating ``n_bytes``
    that exceed the machine's physical memory."""
    available = _physical_memory()
    if available is not None and n_bytes > available:
        raise SampleTooLargeError(
            f"{what} would need about {n_bytes / 2 ** 30:.1f} GiB, more "
            f"than the {available / 2 ** 30:.1f} GiB of physical memory")


def _unit_scale(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Scale ``values`` by the power of two ``2^-e`` that takes
    ``max |x|`` into [0.5, 1), where squared pair norms cannot overflow.

    Power-of-two scaling is exact, barring subnormals.  Returns the
    scaled copy and ``e``.
    """
    exponent = int(np.frexp(np.abs(values).max())[1])
    return np.ldexp(values, -exponent), exponent


def pass_covariance(sample: FunctionalSample) -> CovarianceSurface:
    """Pairwise self-normalized covariance surface.

    Averages ``d d^T / ||d||^2`` over all curve pairs ``d = x_j - x_k``,
    with the quadrature norm of the grid module.  Pairs whose squared norm
    is at or below ``1e-12`` times the largest squared pair norm are
    treated as coincident and excluded, with the averaging denominator
    reduced accordingly, so the unit-trace property holds over the
    retained pairs.

    Parameters
    ----------
    sample : FunctionalSample
        At least two curves, not all identical.

    Returns
    -------
    CovarianceSurface
        Surface whose trace times the quadrature weight equals one.

    Raises
    ------
    SampleTooLargeError
        When the ``n x n`` pair weights would exceed physical memory;
        raised before anything large is allocated.

    Notes
    -----
    The pair sum is a graph-Laplacian quadratic form,

        sum_{j<k} w_jk (x_j - x_k)(x_j - x_k)^T = X^T (D - W) X,

    with weights ``w_jk = 1 / ||x_j - x_k||^2`` and ``D`` the diagonal of
    the row sums of ``W``.  It is evaluated as ``(D - W) X`` and then
    ``X^T [(D - W) X]``, two matrix products costing ``O(n^2 N + n N^2)``
    in all instead of ``n^2 / 2`` outer products at ``O(N^2)`` each.  The
    squared pair norms come from exact differences, never from the Gram
    matrix.  The Laplacian annihilates constants, so the rows of ``X``
    are first centred at the coordinatewise median, which keeps the bulk
    curves' norms small even when outliers shift the mean.  The form
    still cancels for a pair that is close next to its curves' norms, by
    a factor of about ``(||x_j||^2 + ||x_k||^2) / ||d||^2``: a pair with
    ``||d||^2 <= 1e-3 (||x_j||^2 + ||x_k||^2)`` (centred norms) is left
    out of ``W``, and its term ``d d^T / ||d||^2`` is added directly, a
    bounded chunk of pairs at a time.  The result agrees with the
    literal per-pair average to rounding.
    """
    n = sample.n
    if n < 2:
        raise InsufficientSampleError(
            f"pairwise covariance needs at least 2 curves, got {n}")
    # The n x n weights plus the condensed squared norms they come from.
    _check_memory(8 * n * n + 4 * n * (n - 1),
                  f"the pair weights of {n} curves")
    # PASS is scale-invariant, so the exact rescale changes nothing.
    values, _ = _unit_scale(sample.values)
    spacing = sample.grid.spacing
    n_points = sample.grid.n_points
    condensed = pdist(values, "sqeuclidean")
    condensed *= spacing
    sq_norms = squareform(condensed)
    del condensed
    max_norm = sq_norms.max()
    if max_norm <= 0.0:
        raise DegenerateSampleError(
            "all curve pairs are coincident; the pairwise covariance is "
            "undefined")
    threshold = _DEGENERATE_REL_TOL * max_norm
    centred = values - np.median(values, axis=0)
    radii = spacing * np.einsum("ij,ij->i", centred, centred)
    # Turn sq_norms, block of rows by block of rows, into the symmetric
    # weights of the pairs the Laplacian sums, and add the close pairs'
    # terms directly.
    weights = sq_norms
    close_acc = np.zeros((n_points, n_points))
    retained = 0
    rows_per_block = max(1, _BLOCK_BYTES // (8 * n))
    pairs_per_chunk = max(1, _BLOCK_BYTES // (8 * n_points))
    for start in range(0, n, rows_per_block):
        rows = slice(start, min(start + rows_per_block, n))
        block = sq_norms[rows]
        keep = block > threshold
        close = keep & (block <= _CLOSE_REL_TOL
                        * (radii[rows, None] + radii))
        retained += int(np.count_nonzero(keep))
        # Each close pair once, from its upper-triangle cell (j > i).
        first, second = np.nonzero(np.triu(close, start + 1))
        first += start
        for lo in range(0, first.size, pairs_per_chunk):
            i = first[lo:lo + pairs_per_chunk]
            j = second[lo:lo + pairs_per_chunk]
            diff = values[i] - values[j]
            close_acc += (diff / sq_norms[i, j][:, None]).T @ diff
        far = keep & ~close
        np.divide(1.0, block, out=block, where=far)
        block[~far] = 0.0
    # Each retained pair was counted from both of its rows.
    retained //= 2
    # (D - W) X first, so each row's cancellation happens in one vector.
    laplacian_x = weights.sum(axis=1)[:, None] * centred - weights @ centred
    acc = centred.T @ laplacian_x
    acc += close_acc
    acc /= retained
    acc = 0.5 * (acc + acc.T)
    return CovarianceSurface(acc)


def eigendecompose(surface: CovarianceSurface, q: int) -> EigenSystem:
    """Top-``q`` eigenpairs of a covariance surface.

    Parameters
    ----------
    surface : CovarianceSurface
        Symmetric surface, raw or smoothed.
    q : int
        Number of components to retain, between 1 and ``N``.

    Returns
    -------
    EigenSystem
        Eigenvalues on the operator scale (matrix eigenvalue times the
        quadrature weight) and eigenfunctions scaled to unit quadrature
        norm, signed so the entry of largest magnitude is positive.
    """
    grid = surface.grid
    if not 1 <= q <= grid.n_points:
        raise DimensionMismatchError(
            f"q must be between 1 and {grid.n_points}, got {q}")
    evals, evecs = np.linalg.eigh(surface.matrix)
    order = np.argsort(evals)[::-1][:q]
    evals = evals[order] * grid.spacing
    evecs = evecs[:, order] * np.sqrt(grid.n_points)
    for col in range(q):
        peak = np.argmax(np.abs(evecs[:, col]))
        if evecs[peak, col] < 0:
            evecs[:, col] = -evecs[:, col]
    return EigenSystem(evals, evecs)


def spatial_median(sample: FunctionalSample, tol: float = 1e-8,
                   max_iter: int = 500) -> np.ndarray:
    """Geometric median of the curves under the quadrature norm.

    Runs a Weiszfeld-style fixed-point iteration for the minimizer of
    ``sum_i ||x_i - m||`` starting from the pointwise mean.

    Parameters
    ----------
    sample : FunctionalSample
        Curves to summarize.
    tol : float
        Stop when the step satisfies
        ``||m_new - m|| <= tol * max(1, ||m_new||)``.
    max_iter : int
        Iteration budget; exceeding it raises :class:`ConvergenceError`
        carrying the last iterate.

    Returns
    -------
    numpy.ndarray
        The median curve on the grid.
    """
    if sample.n == 1:
        return sample.values[0].copy()
    # Iterate on the copy scaled by 2^-e, where squared distances cannot
    # overflow; every step, the floors at 2^-e included, scales exactly.
    values, exponent = _unit_scale(sample.values)
    unit = math.ldexp(1.0, -exponent)
    spacing = sample.grid.spacing
    median = values.mean(axis=0)
    for iteration in range(1, max_iter + 1):
        diff = values - median
        dist = np.sqrt(spacing * np.einsum("ij,ij->i", diff, diff))
        # Floor the distances so curves sitting on the current iterate do
        # not blow up the weights.
        floor = 1e-14 * max(dist.max(), unit)
        dist = np.maximum(dist, floor)
        weights = 1.0 / dist
        new_median = (weights[:, None] * values).sum(axis=0) / weights.sum()
        step = np.sqrt(spacing * np.dot(new_median - median,
                                        new_median - median))
        scale = max(unit, np.sqrt(spacing * np.dot(new_median, new_median)))
        median = new_median
        if step <= tol * scale:
            return np.ldexp(median, exponent)
    step = math.ldexp(float(step), exponent)
    raise ConvergenceError(
        f"spatial median did not converge in {max_iter} iterations "
        f"(last step {step:.3e})",
        last_iterate=np.ldexp(median, exponent), iterations=max_iter,
        final_delta=step)


def mspc(sample: FunctionalSample, q: int) -> EigenSystem:
    """Spherical principal components about the spatial median.

    Deviations from the spatial median are normalized to unit quadrature
    norm and their second-moment surface is eigendecomposed.  Curves lying
    at the median (within ``1e-12`` of the largest deviation) are dropped.

    Parameters
    ----------
    sample : FunctionalSample
        At least two curves.
    q : int
        Number of components to retain.

    Returns
    -------
    EigenSystem
        Leading eigenpairs of the sign-covariance surface.
    """
    if sample.n < 2:
        raise InsufficientSampleError(
            f"spherical principal components need at least 2 curves, got "
            f"{sample.n}")
    median = spatial_median(sample)
    # Signs are scale-free; on the scaled deviations squared norms
    # cannot overflow.
    deviations, _ = _unit_scale(sample.values - median)
    spacing = sample.grid.spacing
    sq = spacing * np.einsum("ij,ij->i", deviations, deviations)
    max_sq = sq.max()
    if max_sq <= 0.0:
        raise DegenerateSampleError(
            "every curve coincides with the spatial median")
    keep = sq > _DEGENERATE_REL_TOL * max_sq
    signs = deviations[keep] / np.sqrt(sq[keep])[:, None]
    surface_matrix = (signs.T @ signs) / signs.shape[0]
    surface_matrix = 0.5 * (surface_matrix + surface_matrix.T)
    return eigendecompose(CovarianceSurface(surface_matrix), q)
