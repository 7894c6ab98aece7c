"""Synthetic functional data for the benchmark experiments.

Curves follow a four-component Karhunen-Loeve expansion around the mean
``mu(t) = 2t(1-t)`` with Fourier eigenfunctions and eigenvalues
``(2, 1, 1/2, 1/4)``.  Scores can be drawn from five laws ranging from
Gaussian to very heavy tailed, two contamination schemes add outlying
curves, and i.i.d. Gaussian measurement noise can be layered on top.
Everything is driven by seeded generator streams so that a configuration
reproduces bit-identical data, and so that toggling the noise level does
not reshuffle which curves are contaminated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, is_integer, is_real
from .grid import FunctionalSample, Grid, make_grid

__all__ = [
    "SCORE_LAWS",
    "OUTLIER_SCHEMES",
    "SimulationConfig",
    "GroundTruth",
    "fourier_truth",
    "draw_scores",
    "inject_outliers",
    "generate",
]

SCORE_LAWS = ("gaussian", "frechet", "lognormal", "chisquare",
              "multivariate_t")
OUTLIER_SCHEMES = ("none", "ol1", "ol2")

_EIGENVALUES = np.array([2.0, 1.0, 0.5, 0.25])

# Frechet(shape=3, scale=2) moments used to standardize its draws.
_FRECHET_MEAN = 2.0 * math.gamma(2.0 / 3.0)
_FRECHET_VAR = 4.0 * (math.gamma(1.0 / 3.0) - math.gamma(2.0 / 3.0) ** 2)

# Log-normal with log-scale 2 moments.
_LOGNORMAL_MEAN = math.exp(2.0)
_LOGNORMAL_VAR = (math.exp(4.0) - 1.0) * math.exp(4.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for one synthetic-data configuration.

    Attributes
    ----------
    n : int
        Number of curves.
    n_points : int
        Grid size (default 101).
    score_law : str
        One of ``gaussian``, ``frechet``, ``lognormal``, ``chisquare``,
        ``multivariate_t``.
    outlier_scheme : str
        ``none``, ``ol1`` (mean shift of 5) or ``ol2`` (inflated first
        score attached to a linear first component).
    outlier_fraction : float
        Fraction of curves contaminated, in ``[0, 0.5)``.
    noise_sd : float
        Standard deviation of pointwise Gaussian measurement noise.
    seed : int
        Nonnegative 64-bit seed; the sole source of randomness.
    """

    n: int
    n_points: int = 101
    score_law: str = "gaussian"
    outlier_scheme: str = "none"
    outlier_fraction: float = 0.05
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "n_points", "seed"):
            if not is_integer(getattr(self, name)):
                raise DimensionMismatchError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("outlier_fraction", "noise_sd"):
            if not is_real(getattr(self, name)):
                raise DimensionMismatchError(
                    f"{name} must be a number, got {getattr(self, name)!r}")
        if self.n < 1:
            raise DimensionMismatchError(f"n must be >= 1, got {self.n}")
        if self.n_points < 2:
            raise DimensionMismatchError(
                f"n_points must be >= 2, got {self.n_points}")
        if self.score_law not in SCORE_LAWS:
            raise DimensionMismatchError(
                f"score_law must be one of {SCORE_LAWS}, got "
                f"{self.score_law!r}")
        if self.outlier_scheme not in OUTLIER_SCHEMES:
            raise DimensionMismatchError(
                f"outlier_scheme must be one of {OUTLIER_SCHEMES}, got "
                f"{self.outlier_scheme!r}")
        if not 0.0 <= self.outlier_fraction < 0.5:
            raise DimensionMismatchError(
                f"outlier_fraction must be in [0, 0.5), got "
                f"{self.outlier_fraction}")
        if not 0.0 <= self.noise_sd < math.inf:
            raise DimensionMismatchError(
                f"noise_sd must be finite and nonnegative, got "
                f"{self.noise_sd}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise DimensionMismatchError(
                f"seed must be a nonnegative 64-bit integer, got {self.seed}")


@dataclass
class GroundTruth:
    """The data-generating components behind a synthetic sample.

    Attributes
    ----------
    mean : numpy.ndarray
        The mean function ``2t(1-t)`` on the grid.
    eigenfunctions : numpy.ndarray
        ``(N, 4)`` matrix of the Fourier basis functions.
    eigenvalues : numpy.ndarray
        The component variances ``(2, 1, 0.5, 0.25)``.
    outlier_mask : numpy.ndarray or None
        Per-curve contamination flags; None until a sample is generated.
    """

    mean: np.ndarray = field(repr=False)
    eigenfunctions: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    outlier_mask: Optional[np.ndarray] = field(default=None, repr=False)


def fourier_truth(grid: Grid) -> GroundTruth:
    """Ground-truth mean, eigenfunctions and eigenvalues on a grid."""
    t = grid.points
    mean = 2.0 * t * (1.0 - t)
    eigenfunctions = np.column_stack([
        np.sqrt(2.0) * np.sin(2.0 * np.pi * t),
        np.sqrt(2.0) * np.cos(2.0 * np.pi * t),
        np.sqrt(2.0) * np.sin(4.0 * np.pi * t),
        np.sqrt(2.0) * np.cos(4.0 * np.pi * t),
    ])
    return GroundTruth(mean=mean, eigenfunctions=eigenfunctions,
                       eigenvalues=_EIGENVALUES.copy())


def draw_scores(law: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` rows of component scores under one of the five laws.

    For the univariate laws the scores are ``xi_j = sqrt(lambda_j) S_j``
    with ``S_j`` an independent standardized draw (mean 0, variance 1).
    The ``multivariate_t`` law draws the four scores jointly with 5
    degrees of freedom and covariance ``diag(lambda)``, which requires the
    scale matrix ``(3/5) diag(lambda)``.

    Parameters
    ----------
    law : str
        One of :data:`SCORE_LAWS`.
    n : int
        Number of rows.
    rng : numpy.random.Generator
        Source of randomness.

    Returns
    -------
    numpy.ndarray
        ``(n, 4)`` score matrix.
    """
    if law not in SCORE_LAWS:
        raise DimensionMismatchError(
            f"score law must be one of {SCORE_LAWS}, got {law!r}")
    if law == "multivariate_t":
        normal = rng.standard_normal((n, 4)) * np.sqrt(0.6 * _EIGENVALUES)
        chi = rng.chisquare(5, size=n)
        return np.sqrt(5.0 / chi)[:, None] * normal
    if law == "gaussian":
        standardized = rng.standard_normal((n, 4))
    elif law == "frechet":
        uniforms = rng.uniform(size=(n, 4))
        raw = 2.0 * (-np.log(uniforms)) ** (-1.0 / 3.0)
        standardized = (raw - _FRECHET_MEAN) / math.sqrt(_FRECHET_VAR)
    elif law == "lognormal":
        raw = np.exp(2.0 * rng.standard_normal((n, 4)))
        standardized = (raw - _LOGNORMAL_MEAN) / math.sqrt(_LOGNORMAL_VAR)
    else:  # chisquare with one degree of freedom
        raw = rng.standard_normal((n, 4)) ** 2
        standardized = (raw - 1.0) / math.sqrt(2.0)
    return standardized * np.sqrt(_EIGENVALUES)


def inject_outliers(sample: FunctionalSample, truth: GroundTruth,
                    scheme: str, fraction: float,
                    rng: np.random.Generator, scores: np.ndarray,
                    ) -> tuple[FunctionalSample, np.ndarray]:
    """Contaminate a fraction of curves under one of the two schemes.

    ``ol1`` adds a constant shift of 5 to each selected curve.  ``ol2``
    rebuilds each selected curve with its first score inflated by
    ``3 sqrt(lambda_1)`` and the first basis function replaced by the
    unnormalized linear function ``f(t) = t``.

    Parameters
    ----------
    sample : FunctionalSample
        Noise-free curves to contaminate.
    truth : GroundTruth
        Generating components, used to rebuild curves under ``ol2``.
    scheme : str
        ``"ol1"`` or ``"ol2"``.
    fraction : float
        Fraction of curves to contaminate; ``ceil(fraction * n)`` curves
        are selected without replacement (none when the fraction is 0).
    rng : numpy.random.Generator
        Stream used only for index selection.
    scores : numpy.ndarray
        The exact ``(n, 4)`` scores behind ``sample``; ``ol2`` rebuilds
        the selected curves from them.

    Returns
    -------
    (FunctionalSample, numpy.ndarray)
        The contaminated sample and a boolean per-curve mask.
    """
    if scheme not in ("ol1", "ol2"):
        raise DimensionMismatchError(
            f"outlier scheme must be 'ol1' or 'ol2', got {scheme!r}")
    n = sample.n
    mask = np.zeros(n, dtype=bool)
    count = math.ceil(fraction * n) if fraction > 0 else 0
    if count == 0:
        return FunctionalSample(sample.values.copy()), mask
    indices = rng.choice(n, size=count, replace=False)
    mask[indices] = True
    values = sample.values.copy()
    if scheme == "ol1":
        values[indices] += 5.0
    else:
        modified = scores[indices].copy()
        modified[:, 0] += 3.0 * math.sqrt(truth.eigenvalues[0])
        basis = truth.eigenfunctions.copy()
        basis[:, 0] = sample.grid.points
        values[indices] = truth.mean + modified @ basis.T
    return FunctionalSample(values), mask


def generate(config: SimulationConfig) -> tuple[FunctionalSample, GroundTruth]:
    """Generate one synthetic sample.

    Builds curves from the Karhunen-Loeve expansion, contaminates them
    per the outlier scheme, then adds pointwise Gaussian noise.  Three
    dedicated generator streams (scores, outlier selection, noise) are
    spawned from the seed, so changing the noise level leaves the clean
    curves and the contaminated indices untouched.

    Parameters
    ----------
    config : SimulationConfig
        Fully specified configuration.

    Returns
    -------
    (FunctionalSample, GroundTruth)
        The sample and the generating truth, whose ``outlier_mask`` marks
        the contaminated curves.
    """
    truth = fourier_truth(make_grid(config.n_points))
    seq = np.random.SeedSequence(int(config.seed))
    scores_seq, outlier_seq, noise_seq = seq.spawn(3)
    scores = draw_scores(config.score_law, config.n,
                         np.random.default_rng(scores_seq))
    values = truth.mean + scores @ truth.eigenfunctions.T
    sample = FunctionalSample(values)
    if config.outlier_scheme == "none" or config.outlier_fraction == 0.0:
        mask = np.zeros(config.n, dtype=bool)
    else:
        sample, mask = inject_outliers(
            sample, truth, config.outlier_scheme, config.outlier_fraction,
            np.random.default_rng(outlier_seq), scores=scores)
    if config.noise_sd > 0.0:
        noise = np.random.default_rng(noise_seq).standard_normal(
            sample.values.shape) * config.noise_sd
        sample = FunctionalSample(sample.values + noise)
    truth = replace(truth, outlier_mask=mask)
    return sample, truth
