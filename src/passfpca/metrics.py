"""Error metrics and the Monte-Carlo replication harness.

Eigenfunction estimates are compared to the truth after per-replicate
sign alignment (eigenfunctions are only identified up to sign).  Two
summary numbers follow the usual variance decomposition: ``mse`` is the
mean squared L2 distance over replicates and ``bias`` is the L2 distance
of the averaged aligned estimate from the truth.  Ratio estimates are
summarized by the squared error of the first component's proportion of
variance explained, ``PVE_1 = 1 / sum_j ratios_j``.

:func:`run_benchmark` sweeps configurations and method variants over
seeded replicates, sharing each generated sample across methods (one
:class:`~passfpca.pipeline.Pipeline` per sample), excluding failed
replicates with counts, and producing a deterministic table for a given
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientSampleError,
    PassFpcaError,
)
from .estimators import EigenSystem
from .grid import Grid, inner_product, l2_norm, make_grid
from .pipeline import (
    EIGENFUNCTION_METHODS,
    Pipeline,
    SolverOptions,
    parse_method,
)
from .simulate import GroundTruth, SimulationConfig, fourier_truth, generate

__all__ = [
    "ReplicationResult",
    "BenchmarkRow",
    "align_sign",
    "eigenfunction_mse",
    "pve_error",
    "truth_pve",
    "config_label",
    "derive_seed",
    "collect_replicates",
    "run_benchmark",
]


@dataclass
class ReplicationResult:
    """Per-replicate estimates of one method under one configuration.

    Attributes
    ----------
    method : str
        Method identifier.
    config : SimulationConfig
        Generating configuration (its seed field is ignored; per
        replicate seeds are derived by the harness).
    replications : int
        Number of replicates attempted.
    eigenfunctions : numpy.ndarray or None
        Successful first-eigenfunction estimates, one row per replicate,
        for eigenfunction methods.
    ratios : numpy.ndarray or None
        Successful ratio vectors, one row per replicate, for ratio
        methods.
    failures : int
        Replicates excluded because of estimation errors or
        non-convergence.
    """

    method: str
    config: SimulationConfig
    replications: int
    eigenfunctions: Optional[np.ndarray] = field(default=None, repr=False)
    ratios: Optional[np.ndarray] = field(default=None, repr=False)
    failures: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise DimensionMismatchError(
                f"replications must be >= 1, got {self.replications}")
        if self.eigenfunctions is not None and len(self.eigenfunctions):
            grid = make_grid(self.config.n_points)
            norms = np.sqrt(grid.spacing *
                            np.sum(self.eigenfunctions ** 2, axis=1))
            if np.max(np.abs(norms - 1.0)) > 1e-6:
                raise DimensionMismatchError(
                    "stored eigenfunction estimates must have unit "
                    "quadrature norm")


@dataclass
class BenchmarkRow:
    """One cell of the benchmark table."""

    config: SimulationConfig
    method: str
    mse: Optional[float]
    bias: Optional[float]
    pve_mse: Optional[float]
    failures: int
    replications: int

    @property
    def failed(self) -> bool:
        """True when no replicate of this cell produced an estimate."""
        return self.failures >= self.replications


def align_sign(estimate: np.ndarray, truth: np.ndarray,
               grid: Grid) -> np.ndarray:
    """Flip the estimate's sign to agree with the truth.

    Returns ``estimate * sign(<estimate, truth>)``; an exactly zero inner
    product keeps the estimate as is.
    """
    if inner_product(estimate, truth, grid) < 0.0:
        return -np.asarray(estimate, dtype=float)
    return np.asarray(estimate, dtype=float).copy()


def eigenfunction_mse(results: ReplicationResult, truth: GroundTruth,
                      ) -> tuple[float, float]:
    """Mean squared error and bias of first-eigenfunction estimates.

    Each stored estimate is sign-aligned to the true first eigenfunction
    before averaging, so methods that are correct up to a random sign
    report zero bias.

    Returns
    -------
    (float, float)
        ``mse``, the mean over replicates of the squared L2 distance,
        and ``bias``, the L2 norm of the averaged aligned estimate minus
        the truth.  Always ``mse >= bias**2`` up to rounding.
    """
    if results.eigenfunctions is None or len(results.eigenfunctions) == 0:
        raise InsufficientSampleError(
            "eigenfunction_mse needs at least one successful replicate")
    grid = make_grid(results.config.n_points)
    target = truth.eigenfunctions[:, 0]
    aligned = np.array([align_sign(row, target, grid)
                        for row in results.eigenfunctions])
    sq_errors = grid.spacing * np.sum((aligned - target) ** 2, axis=1)
    mse = float(np.mean(sq_errors))
    bias = l2_norm(aligned.mean(axis=0) - target, grid)
    return mse, bias


def truth_pve(truth_eigenvalues) -> float:
    """Proportion of variance explained by the first true component."""
    vals = np.asarray(truth_eigenvalues, dtype=float)
    return float(vals[0] / vals.sum())


def pve_error(ratio_estimates, truth_eigenvalues) -> float:
    """Mean squared error of the first component's estimated PVE.

    Each replicate's estimate is ``1 / sum_j ratios_j`` (the ratios are
    normalized to the first component); the truth is
    ``lambda_1 / sum_j lambda_j``.
    """
    ratios = np.asarray(ratio_estimates, dtype=float)
    if ratios.ndim == 1:
        ratios = ratios[None, :]
    if ratios.shape[0] == 0:
        raise InsufficientSampleError(
            "pve_error needs at least one replicate")
    pve = 1.0 / ratios.sum(axis=1)
    target = truth_pve(truth_eigenvalues)
    return float(np.mean((pve - target) ** 2))


def config_label(config: SimulationConfig) -> str:
    """Stable human-readable identifier for a configuration."""
    return (f"n={config.n},points={config.n_points},"
            f"law={config.score_law},outliers={config.outlier_scheme},"
            f"fraction={config.outlier_fraction!r},"
            f"noise={config.noise_sd!r}")


def derive_seed(master_seed: int, config_index: int, replicate: int) -> int:
    """Per-replicate seed keyed on (master seed, configuration index,
    replicate index), independent of the method list and of execution
    order."""
    seq = np.random.SeedSequence(
        (int(master_seed), int(config_index), int(replicate)))
    return int(seq.generate_state(1, np.uint64)[0])


def collect_replicates(config: SimulationConfig, methods: Sequence[str],
                       replications: int, seed: int,
                       config_index: int = 0,
                       opts: Optional[SolverOptions] = None,
                       ) -> dict[str, ReplicationResult]:
    """Run every method on shared replicated samples of one
    configuration.

    Each replicate generates one sample (seeded independently of the
    method list), evaluates every method on it, and records failures
    per method without aborting the sweep.

    Returns
    -------
    dict
        Method identifier to :class:`ReplicationResult`.
    """
    if replications < 1:
        raise DimensionMismatchError(
            f"replications must be >= 1, got {replications}")
    opts = opts or SolverOptions()
    for method in methods:
        parse_method(method)
    store: dict[str, list] = {m: [] for m in methods}
    failures = {m: 0 for m in methods}
    for rep in range(replications):
        rep_config = replace(config,
                             seed=derive_seed(seed, config_index, rep))
        sample, _ = generate(rep_config)
        pipeline = Pipeline(sample, opts)
        for method in methods:
            try:
                value = pipeline.evaluate(method)
            except PassFpcaError:
                failures[method] += 1
                continue
            if isinstance(value, EigenSystem):
                store[method].append(value.eigenfunctions[:, 0])
            elif value.converged:
                store[method].append(value.ratios)
            else:
                failures[method] += 1
    results = {}
    for method in methods:
        stack = np.array(store[method]) if store[method] else None
        eigen = parse_method(method)[0] in EIGENFUNCTION_METHODS
        results[method] = ReplicationResult(
            method=method, config=config, replications=replications,
            eigenfunctions=stack if eigen else None,
            ratios=None if eigen else stack, failures=failures[method])
    return results


def run_benchmark(configs: Sequence[SimulationConfig],
                  methods: Sequence[str], replications: int, seed: int,
                  opts: Optional[SolverOptions] = None,
                  ) -> list[BenchmarkRow]:
    """Sweep configurations and methods over seeded replicates.

    Parameters
    ----------
    configs : sequence of SimulationConfig
        Settings to replicate; each gets its own seed stream keyed by
        position.
    methods : sequence of str
        Method identifiers (base estimator plus optional smoothing
        suffix, for example ``"pass"`` or ``"pass@smooth_cf"``).
    replications : int
        Replicates per configuration.
    seed : int
        Master seed; the table is a pure function of all arguments.
    opts : SolverOptions, optional
        Shared estimator tuning.

    Returns
    -------
    list of BenchmarkRow
        One row per (configuration, method), in input order.  Rows whose
        every replicate failed carry None metrics and are flagged via
        ``failed``; the sweep itself never aborts.
    """
    opts = opts or SolverOptions()
    rows: list[BenchmarkRow] = []
    for config_index, config in enumerate(configs):
        grid = make_grid(config.n_points)
        truth = fourier_truth(grid)
        collected = collect_replicates(
            config, methods, replications, seed,
            config_index=config_index, opts=opts)
        for method in methods:
            result = collected[method]
            mse = bias = pve_mse = None
            if result.eigenfunctions is not None and len(result.eigenfunctions):
                mse, bias = eigenfunction_mse(result, truth)
            elif result.ratios is not None and len(result.ratios):
                pve_mse = pve_error(result.ratios, truth.eigenvalues)
            rows.append(BenchmarkRow(
                config=config, method=method, mse=mse, bias=bias,
                pve_mse=pve_mse, failures=result.failures,
                replications=replications))
    return rows
