"""Recovery of eigenvalue ratios from the pairwise covariance spectrum.

The pairwise self-normalized surface has the same eigenfunctions as the
classical covariance but nonlinearly shrunken eigenvalues.  The ratios
``lambda_j / lambda_1`` of the classical spectrum satisfy a fixed-point
relation driven by expectations of the form

    f_k(Lambda) = E[ V_k^2 / (V_1^2 + sum_{l>=2} lambda_l V_l^2) ],

where ``V_l`` are standardized projections of curve differences onto the
pairwise-surface eigenfunctions.  Two interchangeable evaluations of
``f_k`` are provided: a Monte-Carlo average over observed curve pairs
(:func:`eigenratio_mc`), valid for general score distributions, and a
closed one-dimensional integral valid under elliptical scores
(:func:`eigenratio_elliptical`).  A sample-based diagnostic
(:func:`convergence_condition`) checks the contraction condition that
guarantees the iteration converges near the fixed point.

Each fixed-point step evaluates all ``q`` expectations in one array
expression: a matrix-vector product over the joint pairs, whose all-zero
rows are dropped once, or a trapezoid sum in ``s = log v`` (step 0.25,
exact to rounding; Trefethen & Weideman 2014, *SIAM Rev.* 56).  Both
solvers share one loop, which accelerates the plain fixed-point map ``G``
by depth-3 Anderson mixing (Walker & Ni 2011, *SIAM J. Numer. Anal.*
49).  An estimate's ``iterations`` counts evaluations of ``G``, one per
iteration of the accelerated loop, and its ``final_delta`` is the
plain-map residual ``||G(x) - x||_inf`` at the last point ``x``
evaluated; the returned ratios are ``G(x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateSampleError,
    DimensionMismatchError,
    InsufficientSampleError,
    ThresholdError,
)
from .estimators import (
    _BLOCK_BYTES,
    EigenSystem,
    _check_memory,
    _unit_scale,
)
from .grid import FunctionalSample

__all__ = [
    "PairScores",
    "EigenratioEstimate",
    "ConvergenceDiagnostic",
    "pair_scores",
    "eigenratio_mc",
    "elliptical_expectation",
    "eigenratio_elliptical",
    "convergence_condition",
    "cpve",
    "rank_select",
]

# Numerical cap for 1/x when a fixed-point coordinate approaches zero.
_BOUND_CAP = 1e12

# Trapezoid step in s = log v for the elliptical integral.
_LOG_STEP = 0.25

# Number of residual differences in the fixed-point loop's Anderson
# mixing.
_ANDERSON_DEPTH = 3


@dataclass
class PairScores:
    """Squared standardized projections of curve differences.

    For every unordered curve pair ``(i, j)`` with ``i < j`` and every
    component ``l``, the standardized score is
    ``s_l^{-1/2} <x_i - x_j, phi_l>`` under the grid quadrature.  The
    standardizer ``s_l`` is the mean squared projection over the pairs
    retained after trimming, so retained squared scores average to one in
    each column.  Only the pairs retained in every component are kept,
    and the constructor drops their all-zero rows, which weigh nothing in
    any expectation; it raises :class:`DegenerateSampleError` when no row
    is left.  The scores are stored component-major (Fortran order), one
    contiguous column per component for the solvers' products; the
    constructor copies a caller's array into that layout in the same
    single copy that drops zero rows, and never writes to it.

    Attributes
    ----------
    squared : numpy.ndarray
        ``(M, q)`` F-contiguous squared scores of the jointly retained
        pairs.
    standardizers : numpy.ndarray
        The positive constants ``s_l`` on the scale of the input curves
        (inf where that exceeds the float range).
    joint_mask : numpy.ndarray
        ``(P,)`` boolean over the ``P = n(n-1)/2`` pairs; True marks a
        pair retained in every component.
    """

    squared: np.ndarray = field(repr=False)
    standardizers: np.ndarray = field(repr=False)
    joint_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        squared = self.squared
        if squared.shape[0] == 0:
            raise DegenerateSampleError(
                "no pair is retained in every component; lower trim_fraction")
        nonzero = _nonzero_rows(squared)
        if not nonzero.any():
            raise DegenerateSampleError(
                "all retained pairs have zero projection norm")
        if not (nonzero.all() and squared.flags.f_contiguous):
            self.squared = _pack_rows(squared, nonzero,
                                      np.empty(squared.size, squared.dtype))

    @property
    def q(self) -> int:
        """Number of components."""
        return self.squared.shape[1]

    @property
    def n_pairs(self) -> int:
        """Total number of curve pairs."""
        return self.joint_mask.size


@dataclass
class EigenratioEstimate:
    """Result of a fixed-point eigenratio recovery.

    Attributes
    ----------
    ratios : numpy.ndarray
        Estimated ``lambda_j / lambda_1`` with the first entry pinned to
        one.
    iterations : int
        Number of evaluations of the plain fixed-point map ``G``, one per
        iteration of the accelerated loop.
    converged : bool
        True when ``final_delta`` is at most ``tol``.
    final_delta : float
        Max-norm of the plain-map residual ``G(x) - x`` at the last point
        ``x`` evaluated; ``ratios`` is ``G(x)``.
    """

    ratios: np.ndarray
    iterations: int
    converged: bool
    final_delta: float


@dataclass
class ConvergenceDiagnostic:
    """Per-component margins of the fixed-point contraction condition.

    For components ``k = 2..Q`` the condition requires the row sum
    ``lhs[k]`` of the fixed-point Jacobian surrogate to stay below
    ``1 / x_star[k]``.  Positive margins indicate the iteration contracts
    near the supplied point.
    """

    lhs: np.ndarray
    bound: np.ndarray
    margin: np.ndarray


def _nonzero_rows(squared: np.ndarray) -> np.ndarray:
    """True at the rows of ``squared`` with a nonzero entry, scanned a
    column at a time: contiguous in component-major storage, where a
    row-wise any() strides across the columns."""
    nonzero = squared[:, 0] != 0.0
    for col in range(1, squared.shape[1]):
        nonzero |= squared[:, col] != 0.0
    return nonzero


def _pack_rows(squared: np.ndarray, keep: np.ndarray,
               flat: np.ndarray) -> np.ndarray:
    """The rows of ``squared`` at ``keep``, F-contiguous at the front of
    the 1-d ``flat``, which may be ``squared``'s own F-ordered buffer:
    column ``l``'s ``kept`` rows go to ``[l * kept, (l + 1) * kept)``,
    which ends before column ``l + 1`` starts.  The column view reads
    the mask as is; ``squared[keep, col]`` would expand it to int64
    indices."""
    kept, q = np.count_nonzero(keep), squared.shape[1]
    for col in range(q):
        flat[col * kept:(col + 1) * kept] = squared[:, col][keep]
    return flat[:kept * q].reshape((kept, q), order="F")


def _trim_largest(magnitudes: np.ndarray, n_trim: int,
                  retained: np.ndarray) -> None:
    """Clear ``retained`` at the ``n_trim`` largest ``magnitudes``.

    Ties at the threshold go to the highest indices, the choice of a
    stable ascending sort, found by a partition instead of a sort.
    """
    cut = magnitudes.size - n_trim
    threshold = np.partition(magnitudes, cut)[cut]
    above = magnitudes > threshold
    retained[above] = False
    ties = np.flatnonzero(magnitudes == threshold)
    retained[ties[ties.size - (n_trim - np.count_nonzero(above)):]] = False


# Rows whose pairs are filled by one gather rather than a slice each.
_TAIL_ROWS = 256


@lru_cache(maxsize=8)
def _tail_columns(size: int) -> np.ndarray:
    """Second members ``j`` of the pairs ``i < j`` of ``size`` rows, in
    row-major order; cached, since a sample size recurs across calls."""
    columns = np.triu_indices(size, 1)[1]
    columns.flags.writeable = False
    return columns


def _pair_sq_diffs(column: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with ``(column[i] - column[j])**2`` over pairs
    ``i < j`` in row-major order, bitwise as
    ``pdist(column[:, None], "sqeuclidean")``.

    Each early row's pairs are one slice; the pairs among the last
    ``min(n, 256)`` rows are one gather, where a slice each would cost
    more in calls than in work.
    """
    n = column.size
    head = n - min(n, _TAIL_ROWS)
    pos = 0
    for i in range(head):
        np.subtract(column[i], column[i + 1:], out=out[pos:pos + n - 1 - i])
        pos += n - 1 - i
    tail = column[head:]
    np.subtract(np.repeat(tail, np.arange(tail.size - 1, -1, -1)),
                tail.take(_tail_columns(tail.size)), out=out[pos:])
    np.square(out, out=out)


def _pair_score_bytes(n: int, q: int) -> int:
    """Bytes :func:`pair_scores` needs for ``n`` curves and ``q``
    components.

    The P x q scores and joint mask, plus a column's partition copy or
    retained gather and one more mask: 8q + 10 bytes a pair.  A fill's
    gather takes 24 bytes a pair among the last min(n, 256) rows.
    """
    n_tail = min(n, _TAIL_ROWS)
    return n * (n - 1) // 2 * (8 * q + 10) + 12 * n_tail * (n_tail - 1)


def pair_scores(sample: FunctionalSample, eigensystem: EigenSystem,
                q: int, trim_fraction: float = 0.02) -> PairScores:
    """Project all pairwise curve differences onto the leading
    eigenfunctions, trim extremes, and standardize.

    Trimming removes exactly ``ceil(trim_fraction * P)`` projections of
    largest magnitude in each component before the standardizers are
    computed, which keeps single wild pairs from dominating the
    normalization under heavy-tailed scores.

    One pass fills each component's column of a component-major
    ``P x q`` array with its squared pair projections, then trims the
    column, takes its standardizer and divides by it in place; the
    jointly retained rows that are not all zero go to the array's front.

    Parameters
    ----------
    sample : FunctionalSample
        At least two curves.
    eigensystem : EigenSystem
        Eigenfunctions to project onto (typically from the pairwise
        surface).
    q : int
        Number of leading components to use; at most ``eigensystem.q``.
    trim_fraction : float
        Fraction of pairs to trim per component, in ``[0, 0.1]``.

    Returns
    -------
    PairScores
        Squared scores of the jointly retained pairs, with their mask.

    Raises
    ------
    SampleTooLargeError
        When the pair projections or the solver over them would exceed
        physical memory; raised before they are allocated.
    """
    if not 1 <= q <= eigensystem.q:
        raise DimensionMismatchError(
            f"q must be between 1 and {eigensystem.q}, got {q}")
    if not 0.0 <= trim_fraction <= 0.1:
        raise DimensionMismatchError(
            f"trim_fraction must be in [0, 0.1], got {trim_fraction}")
    n = sample.n
    n_pairs = n * (n - 1) // 2
    n_trim = math.ceil(trim_fraction * n_pairs)
    if n_trim >= n_pairs:
        raise InsufficientSampleError(
            f"no curve pair is left after trimming: {n} curves, "
            f"trim_fraction {trim_fraction}")
    _check_memory(_pair_score_bytes(n, q),
                  f"the pair projections of {n} curves")
    # Projections scale with the curves, so on the scaled copy their
    # squares cannot overflow; the scores are ratios and do not change.
    values, exponent = _unit_scale(sample.values)
    curve_proj = np.ascontiguousarray((sample.grid.spacing * (
        values @ eigensystem.eigenfunctions[:, :q])).T)
    del values
    # Column col holds component col's squared projections, pairs i < j
    # in row-major order.  Squaring is strictly increasing on normal
    # floats, so trimming the squares trims the largest magnitudes.
    squared = np.empty((n_pairs, q), order="F")
    joint_mask = np.ones(n_pairs, dtype=bool)
    standardizers = np.empty(q)
    for col in range(q):
        column = squared[:, col]
        _pair_sq_diffs(curve_proj[col], column)
        retained = np.ones(n_pairs, dtype=bool)
        if n_trim > 0:
            _trim_largest(column, n_trim, retained)
        joint_mask &= retained
        s = float(np.mean(column[retained]))
        if s <= 0.0:
            raise DegenerateSampleError(
                f"component {col}: all pair projections are zero")
        standardizers[col] = s
        column /= s
    del retained
    # Pairs of coincident curves score zero in every component and go
    # too; if no row is left, the joint rows (none, or all zero) go to
    # the constructor, which says which.
    keep = _nonzero_rows(squared)
    keep &= joint_mask
    squared = _pack_rows(squared, keep if keep.any() else joint_mask,
                         squared.reshape(-1, order="F"))
    # Beyond the float range a standardizer reads inf on the input scale.
    with np.errstate(over="ignore"):
        standardizers = np.ldexp(standardizers, 2 * exponent)
    return PairScores(squared, standardizers, joint_mask)


def _validate_fixed_point_inputs(pass_eigenvalues: np.ndarray,
                                 init: Optional[np.ndarray],
                                 tol: float, max_iter: int,
                                 ) -> tuple[np.ndarray, np.ndarray]:
    kappa = np.asarray(pass_eigenvalues, dtype=float)
    if kappa.ndim != 1 or kappa.size < 1:
        raise DimensionMismatchError(
            "pass_eigenvalues must be a nonempty vector")
    if np.any(kappa <= 0.0):
        raise DegenerateSampleError(
            "pass_eigenvalues must all be positive for ratio recovery")
    if np.any(np.diff(kappa) > 0.0):
        raise DimensionMismatchError("pass_eigenvalues must be nonincreasing")
    if tol <= 0.0:
        raise DimensionMismatchError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise DimensionMismatchError(
            f"max_iter must be at least 1, got {max_iter}")
    if init is None:
        start = np.ones_like(kappa)
    else:
        start = np.asarray(init, dtype=float)
        if start.shape != kappa.shape:
            raise DimensionMismatchError(
                f"init must have shape {kappa.shape}, got {start.shape}")
        if np.any(start <= 0.0):
            raise DimensionMismatchError("init ratios must all be positive")
        start = start / start[0]
    return kappa / kappa[0], start


def _run_fixed_point(f_eval: Callable[[np.ndarray], np.ndarray],
                     kappa_ratios: np.ndarray, start: np.ndarray,
                     tol: float, max_iter: int) -> EigenratioEstimate:
    """Iterate lambda_k <- (kappa_k / kappa_1) f_1(Lambda)/f_k(Lambda),
    accelerated by Anderson mixing.

    Each iteration evaluates the plain map ``G`` once at the current
    point ``x`` and stops when ``||G(x) - x||_inf <= tol``, returning
    ``G(x)``.  Otherwise the next point mixes the last
    ``_ANDERSON_DEPTH + 1`` images of ``G`` over coordinates ``2..q``
    (type-II Anderson mixing; Walker & Ni 2011, *SIAM J. Numer. Anal.*
    49): with ``r = G(x) - x``, the coefficients ``gamma`` minimize
    ``||r - dR gamma||_2`` over the residual differences ``dR``, and the
    next point is ``G(x) - dG gamma``.  A mixed point with a ratio that
    is not positive and finite is replaced by the plain step ``G(x)``.
    """
    current = start.copy()
    current[0] = 1.0
    # Residuals G(x) - x and images G(x) of the latest points, over the
    # mixed coordinates 2..q.
    residuals: list[np.ndarray] = []
    images: list[np.ndarray] = []
    for iterations in range(1, max_iter + 1):
        f = f_eval(current)
        if not np.all(f > 0.0):
            raise DegenerateSampleError(
                "fixed-point update produced a nonpositive expectation; "
                "the projections carry no usable signal")
        image = kappa_ratios * (f[0] / f)
        image[0] = 1.0
        residual = image - current
        delta = float(np.max(np.abs(residual)))
        if delta <= tol:
            return EigenratioEstimate(ratios=image, iterations=iterations,
                                      converged=True, final_delta=delta)
        current = image
        if not math.isfinite(delta):
            continue  # an overflowed image is not mixed
        residuals = residuals[-_ANDERSON_DEPTH:] + [residual[1:]]
        images = images[-_ANDERSON_DEPTH:] + [image[1:]]
        if len(residuals) > 1:
            gamma = np.linalg.lstsq(np.diff(residuals, axis=0).T,
                                    residual[1:], rcond=None)[0]
            with np.errstate(over="ignore", invalid="ignore"):
                mixed = image[1:] - np.diff(images, axis=0).T @ gamma
            if np.all((mixed > 0.0) & np.isfinite(mixed)):
                current = np.concatenate(([1.0], mixed))
    return EigenratioEstimate(ratios=image, iterations=max_iter,
                              converged=False, final_delta=delta)


def eigenratio_mc(pairscores: PairScores, pass_eigenvalues: np.ndarray,
                  init: Optional[np.ndarray] = None, tol: float = 1e-8,
                  max_iter: int = 500) -> EigenratioEstimate:
    """Eigenratio recovery with pair-averaged expectations.

    When every pair's squared norm equals the sum of its ``q`` squared
    projections (rank-``q`` curves, no outliers, ``trim_fraction=0``),
    the update reduces to ``kappa_k / kappa_1 = m_k / m_1`` with
    ``m_k`` the pair mean of ``raw_k^2 / sum_l raw_l^2``, and the fixed
    point is exactly ``standardizers / standardizers[0]``: a ratio of
    mean squared pair projections.  Its robustness then comes only from
    the trimming, which moves the fixed point away from that ratio.

    Parameters
    ----------
    pairscores : PairScores
        Squared standardized projections of the pairs retained in every
        component, over which the expectations average.
    pass_eigenvalues : numpy.ndarray
        Leading eigenvalues of the pairwise surface, positive and
        nonincreasing; only their ratios enter the update.
    init : numpy.ndarray, optional
        Starting ratios (eigenratios of the classical covariance are a
        good choice).  Defaults to all ones.
    tol : float
        Max-norm stopping tolerance on the plain-map residual.
    max_iter : int
        Iteration budget.  Exceeding it returns a result flagged
        ``converged=False`` rather than raising, so sweeps never abort.

    Returns
    -------
    EigenratioEstimate
        Ratios with the first entry pinned to one.
    """
    kappa_ratios, start = _validate_fixed_point_inputs(
        pass_eigenvalues, init, tol, max_iter)
    q = kappa_ratios.size
    if pairscores.q != q:
        raise DimensionMismatchError(
            f"pairscores have {pairscores.q} components but "
            f"{q} eigenvalues were supplied")
    squared = pairscores.squared

    def f_eval(lam: np.ndarray) -> np.ndarray:
        # Iterates stay positive with lam[0] == 1, so every row's
        # denominator V_1^2 + sum_{l>=2} lam_l V_l^2 does too.
        weights = squared @ lam
        np.reciprocal(weights, out=weights)
        return (weights @ squared) / squared.shape[0]

    return _run_fixed_point(f_eval, kappa_ratios, start, tol, max_iter)


def elliptical_expectation(ratios) -> np.ndarray:
    """Evaluate ``E[U_j^2 / sum_k ratios_k U_k^2]`` for Gaussian ``U``,
    for every component ``j`` at once.

    Uses the one-dimensional integral representation

        f_j = (1/2) * integral_0^inf (1 + r_j v)^{-1}
              prod_{k=1..Q} (1 + r_k v)^{-1/2} dv,

    where the square-root product runs over every coordinate.  In
    ``s = log v`` the integrand is analytic for ``|Im s| < pi``, so the
    trapezoid rule at step 0.25 errs by about ``exp(-2 pi^2 / 0.25)``
    (Trefethen & Weideman 2014, *SIAM Rev.* 56).  It is formed in log
    space, ``logaddexp(0, s + log r_k)`` standing for ``log(1 + r_k v)``.
    It grows like ``e^s`` below ``-log max(r)`` and decays at least like
    ``e^{-s/2}`` above ``-log min(r)``, so ``[-40 - log max(r),
    80 - log min(r)]`` leaves out tails of about ``e^{-40}``.  Against a
    30-digit reference the relative error was at most 4.2e-14 (49
    vectors, ``Q = 1..8``, ratios down to 1e-300).

    Parameters
    ----------
    ratios : sequence of float
        Positive weights ``r_k``; the callers in this module always pass
        a vector normalized so the first entry is one, but any positive
        vector is accepted.

    Returns
    -------
    numpy.ndarray
        The ``Q`` expectations ``f_1..f_Q``; weighted by ``ratios`` they
        sum to one.
    """
    r = np.asarray(ratios, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise DimensionMismatchError("ratios must be a nonempty vector")
    if np.any(r <= 0.0):
        raise DimensionMismatchError(
            "ratios must all be positive for the elliptical integral")
    log_r = np.log(r)
    s = np.arange(-40.0 - log_r.max(), 80.0 - log_r.min(), _LOG_STEP)
    # log(1 + r_k e^s), one row per component.
    log_terms = np.logaddexp(0.0, s + log_r[:, None])
    log_integrand = s - log_terms - 0.5 * log_terms.sum(axis=0)
    return 0.5 * _LOG_STEP * np.exp(log_integrand).sum(axis=1)


def eigenratio_elliptical(pass_eigenvalues: np.ndarray,
                          init: Optional[np.ndarray] = None,
                          tol: float = 1e-8, max_iter: int = 500,
                          ) -> EigenratioEstimate:
    """Eigenratio recovery assuming elliptically distributed scores.

    Runs the same fixed-point iteration as :func:`eigenratio_mc` but
    evaluates the expectations with :func:`elliptical_expectation`, so no
    pair projections are needed.  Valid when the scores are elliptical;
    under skewed score laws it systematically underestimates the leading
    ratios.

    Parameters
    ----------
    pass_eigenvalues : numpy.ndarray
        Leading eigenvalues of the pairwise surface.
    init, tol, max_iter :
        As in :func:`eigenratio_mc`.

    Returns
    -------
    EigenratioEstimate
        Ratios with the first entry pinned to one.
    """
    kappa_ratios, start = _validate_fixed_point_inputs(
        pass_eigenvalues, init, tol, max_iter)
    return _run_fixed_point(elliptical_expectation, kappa_ratios, start,
                            tol, max_iter)


def convergence_condition(pairscores: PairScores,
                          x_star) -> ConvergenceDiagnostic:
    """Sample check of the contraction condition at a candidate fixed
    point.

    For each component ``k`` the update map contracts near ``x_star``
    when the aggregated sensitivity of ``f`` to the other coordinates,
    estimated from the pair projections, stays below ``1 / x_star[k]``.

    Parameters
    ----------
    pairscores : PairScores
        Squared standardized projections with ``q`` components.
    x_star : sequence of float
        Candidate ratios for components ``2..q`` (length ``q - 1``),
        nonnegative; zero entries produce the capped bound.

    Returns
    -------
    ConvergenceDiagnostic
        Arrays ``lhs``, ``bound`` (capped at 1e12) and
        ``margin = bound - lhs``, one entry per component ``2..q``.
    """
    x = np.asarray(x_star, dtype=float)
    q = pairscores.q
    if x.shape != (q - 1,):
        raise DimensionMismatchError(
            f"x_star must have length {q - 1}, got shape {x.shape}")
    if np.any(x < 0.0):
        raise DimensionMismatchError("x_star entries must be nonnegative")
    squared = pairscores.squared
    coeffs = np.concatenate(([1.0], x))
    n_good = 0
    first_order = np.zeros(q)       # sum of V_m^2 / den
    cross = np.zeros((q, q))        # sum of V_m^2 V_l^2 / den^2
    # Sums over blocks of rows, whose scratch stays within _BLOCK_BYTES.
    rows_per_block = max(1, _BLOCK_BYTES // (8 * q + 17))
    for start in range(0, squared.shape[0], rows_per_block):
        block = squared[start:start + rows_per_block]
        denom = block @ coeffs
        # Zero entries of x_star can zero a nonzero row's denominator;
        # such rows get zero weight and leave the averages.
        good = denom > 0.0
        n_good += int(np.count_nonzero(good))
        weights = np.divide(1.0, denom, out=np.zeros_like(denom),
                            where=good)
        first_order += weights @ block
        ratio1 = block * weights[:, None]
        cross += ratio1.T @ ratio1
    if n_good == 0:
        raise DegenerateSampleError(
            "all retained pairs have zero projection norm")
    # Averages over the weighted rows, indexed from the leading component
    # at m = 0: E[V_m^2 / den] and E[V_m^2 V_l^2 / den^2].
    first_order /= n_good
    cross /= n_good
    lhs = np.abs(cross[1:, 1:] / first_order[1:, None]
                 - cross[0, 1:] / first_order[0]).sum(axis=1)
    bound = np.minimum(1.0 / np.maximum(x, 1.0 / _BOUND_CAP), _BOUND_CAP)
    return ConvergenceDiagnostic(lhs=lhs, bound=bound, margin=bound - lhs)


def cpve(eigenvalues, big_q: int) -> float:
    """Cumulative proportion of variance explained by the top ``big_q``
    eigenvalues."""
    vals = np.asarray(eigenvalues, dtype=float)
    if vals.ndim != 1 or vals.size < 1:
        raise DimensionMismatchError("eigenvalues must be a nonempty vector")
    if not 1 <= big_q <= vals.size:
        raise DimensionMismatchError(
            f"big_q must be in 1..{vals.size}, got {big_q}")
    total = float(vals.sum())
    if total <= 0.0:
        raise DegenerateSampleError(
            "eigenvalues sum to zero; proportions are undefined")
    return float(vals[:big_q].sum() / total)


def rank_select(pass_eigenvalues, threshold: float) -> int:
    """Smallest rank whose cumulative explained variance reaches the
    threshold.

    The pairwise surface has unit trace, so its eigenvalues are already
    proportions of total variance and the cumulative sums are used as
    is.  Passing only the retained head of the spectrum therefore makes
    high thresholds honestly unreachable instead of silently
    renormalizing.  Because the pairwise surface spreads its spectrum
    more evenly than the classical covariance, the rank selected here is
    a conservative (never smaller) choice for the classical spectrum as
    well.
    """
    if not 0.0 < threshold < 1.0:
        raise DimensionMismatchError(
            f"threshold must lie in (0, 1), got {threshold}")
    vals = np.asarray(pass_eigenvalues, dtype=float)
    if vals.ndim != 1 or vals.size < 1:
        raise DimensionMismatchError(
            "pass_eigenvalues must be a nonempty vector")
    if float(vals.sum()) <= 0.0:
        raise DegenerateSampleError(
            "eigenvalues sum to zero; proportions are undefined")
    cumulative = np.cumsum(vals)
    reached = np.nonzero(cumulative >= threshold)[0]
    if reached.size == 0:
        raise ThresholdError(
            f"threshold {threshold} is unreachable: the retained "
            f"eigenvalues only explain {cumulative[-1]:.6f}")
    return int(reached[0] + 1)
