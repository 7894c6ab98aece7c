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

# Pairs whose Gram norm is at or below this fraction of one curve's
# median-centred squared norm are checked against the PASS band.
_BAND_REL_TOL = 1e-2

# Scratch bytes for one block of weight rows; a scan for band pairs and a
# chunk of them, with its gathered rows and differences, take an eighth
# of it each.
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


def _pass_sizes(n: int, n_points: int) -> tuple[int, int, int]:
    """:func:`pass_covariance`'s rows of pair norms a block, rows a scan
    for band candidates, and band pairs a chunk, for ``n`` curves on
    ``n_points``: a block takes ``_BLOCK_BYTES``, and a scan's indices
    and a chunk's three rows of ``N`` floats a pair an eighth of it."""
    rows = min(n, max(1, _BLOCK_BYTES // (8 * n)))
    return (rows, max(1, rows // 8),
            max(1, _BLOCK_BYTES // (8 * 24 * n_points)))


def _pair_weight_bytes(n: int, n_points: int) -> int:
    """Bytes :func:`pass_covariance` needs for ``n`` curves on
    ``n_points``: three ``n x N`` arrays (the scaled curves, the centred
    curves and ``(D - W) X``) and three of ``n`` floats; a block of
    squared pair norms, turned into weights in place; a scan's band
    candidates, 8 bytes of index and 1 of mask an entry; a chunk of band
    pairs, their gathered rows and about 128 bytes of scalars a pair;
    and, during the pass, a block's ``W X`` and the ``N x N`` sum, or, at
    its end, the surface with two ``N x N`` temporaries."""
    rows, scan, pairs = _pass_sizes(n, n_points)
    return (24 * n * n_points + 24 * n + 8 * rows * n + 9 * scan * n
            + pairs * (24 * n_points + 128)
            + 8 * max(rows * n_points + n_points ** 2, 3 * n_points ** 2))


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


def _gram_norms(centred: np.ndarray, radii: np.ndarray, spacing: float,
                rows: slice, first: int, scratch: np.ndarray,
                diagonal: float) -> np.ndarray:
    """Squared norms of the pairs of curves ``rows`` and ``first:`` from
    their Gram entries, written into ``scratch``; the pairs of a curve
    with itself read ``diagonal``."""
    block = scratch[:(rows.stop - rows.start) * (len(radii) - first)]
    block = block.reshape(rows.stop - rows.start, len(radii) - first)
    np.matmul(centred[rows], centred[first:].T, out=block)
    block *= -2.0 * spacing
    block += radii[rows, None]
    block += radii[first:]
    np.fill_diagonal(block[:, rows.start - first:], diagonal)
    return block


def _chunks_at_or_below(block: np.ndarray, bounds: np.ndarray,
                        scan: int, size: int):
    """Yield the flat indices of the entries of ``block`` at or below
    their row's entry of ``bounds``, at most ``size`` at a time, scanning
    ``scan`` rows at a time so that only their indices are held."""
    n_cols = block.shape[1]
    for lo in range(0, len(block), scan):
        rows = slice(lo, lo + scan)
        found = np.flatnonzero(block[rows] <= bounds[rows, None])
        found += lo * n_cols
        for start in range(0, found.size, size):
            yield found[start:start + size]


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
        When the working set, :func:`_pair_weight_bytes`, would exceed
        physical memory; raised before anything large is allocated.

    Notes
    -----
    The pair sum is a graph-Laplacian quadratic form,

        sum_{j<k} w_jk (x_j - x_k)(x_j - x_k)^T = X^T (D - W) X,

    with weights ``w_jk = 1 / ||x_j - x_k||^2`` and ``D`` the diagonal of
    the row sums of ``W``.  It is evaluated as ``(D - W) X`` and then
    ``X^T [(D - W) X]``, matrix products costing ``O(n^2 N + n N^2)`` in
    all instead of ``n^2 / 2`` outer products at ``O(N^2)`` each.  The
    Laplacian annihilates constants, so the rows of ``X`` are first
    centred at the coordinatewise median, which keeps the bulk curves'
    norms small even when outliers shift the mean.

    ``W`` is never held whole.  Two passes over blocks of rows take each
    block's Gram rows into one reused scratch and turn them into squared
    pair norms ``r_j + r_k - 2 <x_j, x_k>`` with ``r_j = ||x_j||^2``.  The
    first pass takes each block's pairs with the curves from its first on,
    about half the Gram matrix in all, for the largest pair norm, which
    fixes the coincidence cut.  The second turns each block into its
    weights in place and adds the block's rows of ``(D - W) X``.  The
    Gram norms err by about ``eps (r_j + r_k)``.  Pairs in the band where
    that error could decide a cut, a Gram norm at or below
    ``4e-3 (r_j + r_k)`` or ``4e-12`` times the largest pair norm, get
    their norms from exact differences instead, so both cuts read exact
    norms.  The Laplacian form also cancels for a pair that is close next
    to its curves' norms, by a factor of about ``(r_j + r_k) / ||d||^2``:
    a pair with ``||d||^2 <= 1e-3 (r_j + r_k)`` is left out of ``W``, and
    its term ``d d^T / ||d||^2`` is added directly from the same exact
    differences, once, from the row of its first curve.  A band pair is
    met from both of its rows, which compute the same exact norm.  The
    band's candidates are scanned a few rows at a time, so near-duplicate
    curves, whose pairs all fall in the band, need no more memory.  The
    result agrees with the literal per-pair average to rounding.
    """
    n = sample.n
    if n < 2:
        raise InsufficientSampleError(
            f"pairwise covariance needs at least 2 curves, got {n}")
    n_points = sample.grid.n_points
    _check_memory(_pair_weight_bytes(n, n_points),
                  f"the PASS surface of {n} curves")
    # PASS is scale-invariant, so the exact rescale changes nothing.
    values, _ = _unit_scale(sample.values)
    spacing = sample.grid.spacing
    centred = values - _column_medians(values)
    radii = spacing * np.einsum("ij,ij->i", centred, centred)
    rows_per_block, rows_per_scan, pairs_per_chunk = _pass_sizes(
        n, n_points)
    blocks = [slice(start, min(start + rows_per_block, n))
              for start in range(0, n, rows_per_block)]
    scratch = np.empty(rows_per_block * n)
    # First pass: the largest pair norm, from each block's pairs with the
    # curves from its first on, which meet every pair.
    max_norm = 0.0
    for rows in blocks:
        block = _gram_norms(centred, radii, spacing, rows, rows.start,
                            scratch, 0.0)
        max_norm = max(max_norm, float(block.max()))
    if max_norm <= 0.0:
        raise DegenerateSampleError(
            "all curve pairs are coincident; the pairwise covariance is "
            "undefined")
    threshold = _DEGENERATE_REL_TOL * max_norm
    # A superset of each row's band: a pair in the band of the close cut
    # has r_k <= 1.2 r_j by Cauchy-Schwarz, so its norm is at most
    # 8.8e-3 r_j; the band of the coincidence cut ends at 4x that cut.
    band_bound = np.maximum(_BAND_REL_TOL * radii, 4.0 * threshold)
    laplacian_x = np.empty_like(centred)
    # The close pairs' terms, and then the surface.
    acc = np.zeros((n_points, n_points))
    n_far = n_close = 0
    # Second pass: each block's weights and rows of (D - W) X.  The
    # diagonal reads inf, which leaves it out of the band and of W.
    for rows in blocks:
        block = _gram_norms(centred, radii, spacing, rows, 0, scratch,
                            np.inf)
        flat = block.reshape(-1)
        # Every pair outside the band is far above both cuts.
        n_far += block.size - len(block)
        for part in _chunks_at_or_below(block, band_bound[rows],
                                        rows_per_scan, pairs_per_chunk):
            i, j = np.divmod(part, n)
            i += rows.start
            cut = np.maximum(_CLOSE_REL_TOL * (radii[i] + radii[j]),
                             threshold)
            band = flat[part] <= 4.0 * cut
            part, i, j, cut = part[band], i[band], j[band], cut[band]
            diff = values[i] - values[j]
            exact = spacing * np.einsum("ij,ij->i", diff, diff)
            far = exact > cut
            n_far -= part.size - int(np.count_nonzero(far))
            # A pair left out of W reads 1 / inf = 0 below.
            flat[part] = np.where(far, exact, np.inf)
            # Each close pair once, from the row of its first curve.
            close = ~far & (j > i) & (exact > threshold)
            n_close += int(np.count_nonzero(close))
            diff = diff[close]
            acc += (diff / exact[close][:, None]).T @ diff
        np.reciprocal(block, out=block)
        # (D - W) X, so each row's cancellation happens in one vector.
        lap = laplacian_x[rows]
        np.multiply(block.sum(axis=1)[:, None], centred[rows], out=lap)
        lap -= block @ centred
    # Each far pair was counted from both of its rows.
    retained = n_far // 2 + n_close
    acc += centred.T @ laplacian_x
    acc /= retained
    acc = acc + acc.T
    acc *= 0.5
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
