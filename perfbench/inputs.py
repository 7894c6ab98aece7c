"""Workload inputs generated from a seed, independent of the program.

The benchmark draws its own curves so that a change to the program's
simulator cannot change what the ``fit`` and ``ratio`` workloads are fed.
The design follows the paper's simulation study: mean ``2t(1-t)``, four
Fourier eigenfunctions with variances ``(2, 1, 0.5, 0.25)``, a score law,
a contamination scheme and optional pointwise Gaussian noise, on the
right-endpoint grid ``t_j = j/N``.
"""

from __future__ import annotations

import csv
import math

import numpy as np

EIGENVALUES = np.array([2.0, 1.0, 0.5, 0.25])
# PVE_1 of the generating process: lambda_1 / sum(lambda).
TRUE_PVE1 = float(EIGENVALUES[0] / EIGENVALUES.sum())

_FRECHET_MEAN = 2.0 * math.gamma(2.0 / 3.0)
_FRECHET_SD = math.sqrt(4.0 * (math.gamma(1.0 / 3.0)
                               - math.gamma(2.0 / 3.0) ** 2))


def grid_points(n_points: int) -> np.ndarray:
    return np.arange(1, n_points + 1, dtype=float) / n_points


def true_phi1(n_points: int) -> np.ndarray:
    """First generating eigenfunction on the grid."""
    return math.sqrt(2.0) * np.sin(2.0 * np.pi * grid_points(n_points))


def _basis(t: np.ndarray) -> np.ndarray:
    return math.sqrt(2.0) * np.column_stack([
        np.sin(2.0 * np.pi * t), np.cos(2.0 * np.pi * t),
        np.sin(4.0 * np.pi * t), np.cos(4.0 * np.pi * t)])


def _scores(law: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if law == "multivariate_t":
        # Five degrees of freedom, covariance diag(lambda).
        normal = rng.standard_normal((n, 4)) * np.sqrt(0.6 * EIGENVALUES)
        return np.sqrt(5.0 / rng.chisquare(5, size=n))[:, None] * normal
    if law == "frechet":
        raw = 2.0 * (-np.log(rng.uniform(size=(n, 4)))) ** (-1.0 / 3.0)
        return (raw - _FRECHET_MEAN) / _FRECHET_SD * np.sqrt(EIGENVALUES)
    if law == "gaussian":
        return rng.standard_normal((n, 4)) * np.sqrt(EIGENVALUES)
    raise ValueError(f"unknown score law {law!r}")


def curves(seed: int, n: int, n_points: int, law: str, outliers: str,
           noise_sd: float, outlier_fraction: float = 0.05) -> np.ndarray:
    """An ``(n, n_points)`` matrix of curves drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    t = grid_points(n_points)
    basis = _basis(t)
    mean = 2.0 * t * (1.0 - t)
    scores = _scores(law, n, rng)
    values = mean + scores @ basis.T
    picked = rng.choice(n, size=math.ceil(outlier_fraction * n),
                        replace=False)
    if outliers == "ol1":
        values[picked] += 5.0
    elif outliers == "ol2":
        # Inflated first score on a linear first component.
        shifted = scores[picked].copy()
        shifted[:, 0] += 3.0 * math.sqrt(EIGENVALUES[0])
        linear = basis.copy()
        linear[:, 0] = t
        values[picked] = mean + shifted @ linear.T
    if noise_sd > 0.0:
        values += noise_sd * rng.standard_normal(values.shape)
    return values


def write_curves_csv(path: str, values: np.ndarray) -> None:
    """Write curves in the program's wide CSV format."""
    header = ["curve_id"] + [format(p, ".12g")
                             for p in grid_points(values.shape[1])]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for index, row in enumerate(values.tolist()):
            writer.writerow([index] + [repr(v) for v in row])


def read_wide_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and numeric body of a CSV whose cells are all numbers."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


def phi1_mse(phi1: np.ndarray) -> float:
    """Squared L2 error of a sign-aligned first eigenfunction estimate."""
    truth = true_phi1(phi1.size)
    spacing = 1.0 / phi1.size
    if spacing * float(phi1 @ truth) < 0.0:
        phi1 = -phi1
    return spacing * float(np.sum((phi1 - truth) ** 2))


def pve1_mse(ratios) -> float:
    """Squared error of ``PVE_1 = 1 / sum(ratios)`` against the truth."""
    return (1.0 / float(np.sum(ratios)) - TRUE_PVE1) ** 2
