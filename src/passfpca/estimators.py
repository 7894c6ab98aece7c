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

# Scratch bytes for one block of weight rows, or for one chunk of band
# pairs with its gathered rows and differences.
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
    The cross products are one contraction, ``np.einsum("ij,ik->jk")``
    over the centred curves, which visits curves in index order, so the
    result matches a literal double-loop evaluation of the definition bit
    for bit.  Two conditions make that hold:

    - The centred curves are C-contiguous, as every sample's values are.
      On a Fortran-ordered operand einsum makes the curve axis its inner
      loop and sums it in another order; the column means, too, are then
      sums in another order.
    - numpy's einsum kernel rounds each product before adding it.  The
      x86-64 builds, whose baseline has no fused multiply-add, do so; a
      numpy whose baseline fuses them (aarch64, for one, not tested)
      matches the loop only to rounding, and the exact tests fail there.

    The contraction never goes through BLAS, whose blocked order differs.
    A grid point where every curve has the same value is centred to
    exactly zero, not to the rounding error of its mean, so identical
    curves give the zero surface.
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
    centered[:, values.min(axis=0) == values.max(axis=0)] = 0.0
    acc = np.einsum("ij,ik->jk", centered, centered)
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


def _pair_weight_bytes(n: int, n_points: int) -> int:
    """Bytes :func:`pass_covariance` needs for ``n`` curves on
    ``n_points``: the ``n x n`` squared pair norms, turned into the
    weights in place; at most five ``n x N`` arrays at the Laplacian
    product; a block's scratch."""
    return 8 * n * n + 40 * n * n_points + 3 * _BLOCK_BYTES


def _unit_scale(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Scale ``values`` by the power of two ``2^-e`` that takes
    ``max |x|`` into [0.5, 1), where squared pair norms cannot overflow.

    Power-of-two scaling is exact, barring subnormals.  Returns the
    scaled copy and ``e``.
    """
    exponent = int(np.frexp(np.abs(values).max())[1])
    return np.ldexp(values, -exponent), exponent


def _column_medians(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)`` bit for bit, by one partition, for
    finite values below 2^1023 in magnitude; ``np.median`` imports
    ``numpy.ma``, which would add to every CLI call's run time."""
    n = values.shape[0]
    middle = [(n - 1) // 2, n // 2]
    low, high = np.partition(values, middle, axis=0)[middle]
    return 0.5 * (low + high)


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
    Laplacian annihilates constants, so the rows of ``X`` are first
    centred at the coordinatewise median, which keeps the bulk curves'
    norms small even when outliers shift the mean.  The squared pair
    norms come from the Gram matrix of the centred curves,
    ``r_j + r_k - 2 <x_j, x_k>`` with ``r_j = ||x_j||^2``, one matrix
    product; their rounding error is about ``eps (r_j + r_k)``.  Pairs in
    the band where that error could decide a cut, a Gram norm at or below
    ``4e-3 (r_j + r_k)`` or ``4e-12`` times the largest pair norm, get
    their norms from exact differences instead, so both cuts below read
    exact norms.  The Laplacian form also cancels for a pair that is
    close next to its curves' norms, by a factor of about
    ``(r_j + r_k) / ||d||^2``: a pair with ``||d||^2 <= 1e-3 (r_j + r_k)``
    is left out of ``W``, and its term ``d d^T / ||d||^2`` is added
    directly from the same exact differences, a bounded chunk of pairs at
    a time.  The result agrees with the literal per-pair average to
    rounding.
    """
    n = sample.n
    if n < 2:
        raise InsufficientSampleError(
            f"pairwise covariance needs at least 2 curves, got {n}")
    _check_memory(_pair_weight_bytes(n, sample.grid.n_points),
                  f"the pair weights of {n} curves")
    # PASS is scale-invariant, so the exact rescale changes nothing.
    values, _ = _unit_scale(sample.values)
    spacing = sample.grid.spacing
    n_points = sample.grid.n_points
    centred = values - _column_medians(values)
    radii = spacing * np.einsum("ij,ij->i", centred, centred)
    rows_per_block = max(1, _BLOCK_BYTES // (8 * n))
    blocks = [slice(start, min(start + rows_per_block, n))
              for start in range(0, n, rows_per_block)]
    # Squared pair norms from the Gram matrix, block of rows by block of
    # rows; the diagonal is zero by definition.
    sq_norms = centred @ centred.T
    max_norm = 0.0
    for rows in blocks:
        block = sq_norms[rows]
        block *= -2.0 * spacing
        block += radii[rows, None]
        block += radii
        np.fill_diagonal(block[:, rows], 0.0)
        max_norm = max(max_norm, float(block.max()))
    if max_norm <= 0.0:
        raise DegenerateSampleError(
            "all curve pairs are coincident; the pairwise covariance is "
            "undefined")
    threshold = _DEGENERATE_REL_TOL * max_norm
    # Turn sq_norms, block by block, into the symmetric weights of the far
    # pairs the Laplacian sums, after giving the band its exact norms and
    # adding the close pairs' terms directly.
    weights = sq_norms
    close_acc = np.zeros((n_points, n_points))
    n_far = n_close = 0
    pairs_per_chunk = max(1, _BLOCK_BYTES // (24 * n_points))
    for rows in blocks:
        block = sq_norms[rows]
        # A pair is far above both cuts, and in the band within 4x of one.
        cut = _CLOSE_REL_TOL * (radii[rows, None] + radii)
        np.maximum(cut, threshold, out=cut)
        first, second = np.nonzero(block <= 4.0 * cut)
        first += rows.start
        # Each band pair once, from its upper-triangle cell (j > i).
        upper = second > first
        first, second = first[upper], second[upper]
        for lo in range(0, first.size, pairs_per_chunk):
            i = first[lo:lo + pairs_per_chunk]
            j = second[lo:lo + pairs_per_chunk]
            diff = values[i] - values[j]
            exact = spacing * np.einsum("ij,ij->i", diff, diff)
            sq_norms[i, j] = sq_norms[j, i] = exact
            close = ((exact > threshold)
                     & (exact <= _CLOSE_REL_TOL * (radii[i] + radii[j])))
            n_close += int(np.count_nonzero(close))
            diff = diff[close]
            close_acc += (diff / exact[close][:, None]).T @ diff
        far = block > cut
        n_far += int(np.count_nonzero(far))
        np.reciprocal(block, out=block, where=far)
        block *= far
    # Each far pair was counted from both of its rows.
    retained = n_far // 2 + n_close
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

    Raises
    ------
    DimensionMismatchError
        When ``q`` is out of range, or an eigenvalue overflows, as it
        can on a finite surface near the top of the float range.
    """
    grid = surface.grid
    n_points = grid.n_points
    if not 1 <= q <= n_points:
        raise DimensionMismatchError(
            f"q must be between 1 and {n_points}, got {q}")
    # All N eigenpairs in ascending order; keep the last q, largest first.
    evals, evecs = np.linalg.eigh(surface.matrix)
    if not np.isfinite(evals).all():
        raise DimensionMismatchError("surface eigenvalues must be finite")
    evals = evals[::-1][:q] * grid.spacing
    evecs = evecs[:, ::-1][:, :q] * np.sqrt(n_points)
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
        The median curve on the grid.  When every curve coincides (one
        curve, say) it is that curve, exactly, not an iterate within
        rounding of it.
    """
    first = sample.values[0]
    if np.all(sample.values == first):
        return first.copy()
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
