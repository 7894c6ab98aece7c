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
seed.  On Linux it evaluates the replicates in forked worker processes,
one per usable CPU as far as physical memory allows, each with one
OpenBLAS thread; evaluating in process, it also uses one OpenBLAS
thread, so the table does not depend on where it was computed.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientSampleError,
    PassFpcaError,
)
from .eigenratio import _pair_score_bytes
from .estimators import EigenSystem, _pair_weight_bytes, _physical_memory
from .grid import FunctionalSample, Grid, inner_product, l2_norm, make_grid
from .pipeline import (
    EIGENFUNCTION_METHODS,
    Pipeline,
    SolverOptions,
    parse_method,
)
from .simulate import GroundTruth, SimulationConfig, fourier_truth, generate

if TYPE_CHECKING:
    from concurrent.futures import Executor

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
    failure_reasons : dict
        ``failures`` by cause: error class name, or ``not_converged``.
    """

    method: str
    config: SimulationConfig
    replications: int
    eigenfunctions: Optional[np.ndarray] = field(default=None, repr=False)
    ratios: Optional[np.ndarray] = field(default=None, repr=False)
    failures: int = 0
    failure_reasons: dict[str, int] = field(default_factory=dict)

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
    """One cell of the benchmark table, with ``failure_reasons`` as in
    :class:`ReplicationResult`."""

    config: SimulationConfig
    method: str
    mse: Optional[float]
    bias: Optional[float]
    pve_mse: Optional[float]
    failures: int
    replications: int
    failure_reasons: dict[str, int] = field(default_factory=dict)

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


def _check_methods(methods: Sequence[str]) -> None:
    """Parse every method identifier and reject repeats, which would be
    evaluated and stored twice per replicate."""
    for method in methods:
        parse_method(method)
    if len(set(methods)) < len(methods):
        raise DimensionMismatchError(f"a method is repeated in {methods}")


def _evaluate_replicate(sample: FunctionalSample, methods: Sequence[str],
                        opts: SolverOptions) -> list:
    """Every method's outcome on one replicate's sample, in method order:
    the first eigenfunction or the ratio vector, or the cause of the
    failure (error class name, or ``not_converged``)."""
    pipeline = Pipeline(sample, opts)
    outcomes = []
    for method in methods:
        try:
            value = pipeline.evaluate(method)
        except PassFpcaError as exc:
            outcomes.append(type(exc).__name__)
            continue
        if isinstance(value, EigenSystem):
            outcomes.append(value.eigenfunctions[:, 0])
        elif value.converged:
            outcomes.append(value.ratios)
        else:
            outcomes.append("not_converged")
    return outcomes


def collect_replicates(config: SimulationConfig, methods: Sequence[str],
                       replications: int, seed: int,
                       config_index: int = 0,
                       opts: Optional[SolverOptions] = None,
                       executor: Optional[Executor] = None,
                       ) -> dict[str, ReplicationResult]:
    """Run every method on shared replicated samples of one
    configuration.

    Each replicate generates one sample (seeded independently of the
    method list), evaluates every method on it, and records failures
    per method, by cause, without aborting the sweep.  The samples are
    generated here, in replicate order; with an ``executor`` they are
    evaluated through it, at most twice the usable CPUs' samples ahead
    of the outcomes, which come back in that same order, so the results
    do not depend on where they were computed.

    Returns
    -------
    dict
        Method identifier to :class:`ReplicationResult`.
    """
    if replications < 1:
        raise DimensionMismatchError(
            f"replications must be >= 1, got {replications}")
    opts = opts or SolverOptions()
    _check_methods(methods)
    store: dict[str, list] = {m: [] for m in methods}
    reasons = {m: Counter() for m in methods}
    samples = (generate(replace(config, seed=derive_seed(
        seed, config_index, rep)))[0] for rep in range(replications))
    if executor is None:
        evaluated = map(_evaluate_replicate, samples, repeat(methods),
                        repeat(opts))
    else:
        evaluated = _evaluate_in_order(executor, samples, methods, opts)
    for outcomes in evaluated:
        for method, outcome in zip(methods, outcomes):
            if isinstance(outcome, str):
                reasons[method][outcome] += 1
            else:
                store[method].append(outcome)
    results = {}
    for method in methods:
        stack = np.array(store[method]) if store[method] else None
        eigen = parse_method(method)[0] in EIGENFUNCTION_METHODS
        results[method] = ReplicationResult(
            method=method, config=config, replications=replications,
            eigenfunctions=stack if eigen else None,
            ratios=None if eigen else stack,
            failures=sum(reasons[method].values()),
            failure_reasons=dict(reasons[method]))
    return results


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _evaluate_in_order(executor: Executor,
                       samples: Iterator[FunctionalSample],
                       methods: Sequence[str], opts: SolverOptions,
                       ) -> Iterator[list]:
    """:func:`_evaluate_replicate` over ``samples`` through ``executor``,
    in sample order.

    ``Executor.map`` would draw every sample before returning the first
    result; here a sample is drawn only while fewer than twice the
    usable CPUs' are awaiting theirs, which keeps every worker busy and
    the calling process's memory bounded.
    """
    ahead = 2 * _usable_cpus()
    pending: deque = deque()
    try:
        for sample in samples:
            pending.append(executor.submit(_evaluate_replicate, sample,
                                           methods, opts))
            if len(pending) >= ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


# Thread-count getters and setters of the OpenBLAS builds in numpy's
# wheels.
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "openblas_set_num_threads64_",
                        "openblas_set_num_threads")


def _openblas_thread_controls() -> list:
    """The thread-count getter and setter of every OpenBLAS mapped into
    this process, found in ``/proc/self/maps``; none where that file is
    missing."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            lines = handle.readlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        # An unlinked library is mapped as "path (deleted)"; it cannot
        # be opened by name.
        if (len(fields) == 6 and fields[5].startswith("/")
                and "openblas" in os.path.basename(fields[5]).lower()
                and not fields[5].rstrip().endswith(" (deleted)")):
            paths.add(fields[5].rstrip())
    controls = []
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        getter = next((getattr(library, name)
                       for name in _BLAS_THREAD_GETTERS
                       if hasattr(library, name)), None)
        setter = next((getattr(library, name)
                       for name in _BLAS_THREAD_SETTERS
                       if hasattr(library, name)), None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            controls.append((getter, setter))
    return controls


def _one_blas_thread() -> None:
    """Limit this process's OpenBLAS to one thread.

    The workers already take every usable CPU; a BLAS thread more in
    each would compete with them, and a waiting OpenBLAS thread spins.
    A BLAS that is not OpenBLAS keeps its threads.
    """
    for _, setter in _openblas_thread_controls():
        setter(1)


@contextmanager
def _one_blas_thread_here() -> Iterator[None]:
    """Run the block with one OpenBLAS thread, as a worker runs, and give
    the caller's thread counts back after it."""
    controls = _openblas_thread_controls()
    saved = [getter() for getter, _ in controls]
    _one_blas_thread()
    try:
        yield
    finally:
        for (_, setter), threads in zip(controls, saved):
            setter(threads)


def _replicate_bytes(config: SimulationConfig, opts: SolverOptions) -> int:
    """The memory guards' estimate for one replicate of ``config``: its
    PASS pair weights and its pair projections, as if held at once."""
    return (_pair_weight_bytes(config.n, config.n_points)
            + _pair_score_bytes(config.n, opts.q))


def _pool_workers(configs: Sequence[SimulationConfig], replications: int,
                  opts: SolverOptions) -> int:
    """Workers for a sweep: one per usable CPU and at most one per
    replicate, and no more than fit in physical memory together at the
    largest setting's per-replicate estimate."""
    workers = min(_usable_cpus(), len(configs) * replications)
    memory = _physical_memory()
    if memory is not None and configs:
        per_replicate = max(_replicate_bytes(config, opts)
                            for config in configs)
        workers = min(workers, memory // per_replicate)
    return workers


@contextmanager
def _replicate_pool(configs: Sequence[SimulationConfig], replications: int,
                    opts: SolverOptions) -> Iterator[Optional[Executor]]:
    """A pool of :func:`_pool_workers` forked workers, each with one
    OpenBLAS thread, shut down and joined when the block exits; or None,
    to evaluate in process with one OpenBLAS thread, off Linux or where
    fewer than two workers would do."""
    workers = _pool_workers(configs, replications, opts)
    if not sys.platform.startswith("linux") or workers < 2:
        with _one_blas_thread_here():
            yield None
        return
    # Imported here, so that fit and ratio do not pay for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    executor = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_one_blas_thread)
    try:
        yield executor
    finally:
        executor.shutdown(cancel_futures=True)


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

    Notes
    -----
    The replicates are evaluated in one pool of
    ``min(usable CPUs, len(configs) * replications)`` forked worker
    processes, each with one OpenBLAS thread, created once per sweep and
    joined before the function returns or raises.  Each worker applies
    the memory guards on its own, so the pool is cut to as many workers
    as the largest setting's pair layers fit in physical memory
    together.  Where fewer than two workers remain, or off Linux, the
    replicates are evaluated in process, with one OpenBLAS thread for
    the sweep and the caller's thread count restored after it.
    """
    opts = opts or SolverOptions()
    rows: list[BenchmarkRow] = []
    with _replicate_pool(configs, replications, opts) as executor:
        for config_index, config in enumerate(configs):
            grid = make_grid(config.n_points)
            truth = fourier_truth(grid)
            collected = collect_replicates(
                config, methods, replications, seed,
                config_index=config_index, opts=opts, executor=executor)
            for method in methods:
                result = collected[method]
                mse = bias = pve_mse = None
                if (result.eigenfunctions is not None
                        and len(result.eigenfunctions)):
                    mse, bias = eigenfunction_mse(result, truth)
                elif result.ratios is not None and len(result.ratios):
                    pve_mse = pve_error(result.ratios, truth.eigenvalues)
                rows.append(BenchmarkRow(
                    config=config, method=method, mse=mse, bias=bias,
                    pve_mse=pve_mse, failures=result.failures,
                    replications=replications,
                    failure_reasons=result.failure_reasons))
    return rows
