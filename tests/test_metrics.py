"""Tests for error metrics and the replication harness."""

import faulthandler
import multiprocessing
import os
import sys
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from passfpca import (
    BenchmarkRow,
    DimensionMismatchError,
    FunctionalSample,
    InsufficientSampleError,
    ReplicationResult,
    SimulationConfig,
    SolverOptions,
    align_sign,
    collect_replicates,
    config_label,
    derive_seed,
    eigenfunction_mse,
    fourier_truth,
    make_grid,
    pve_error,
    run_benchmark,
    truth_pve,
)
from passfpca import estimators, metrics

_GRID = make_grid(101)
_TRUTH = fourier_truth(_GRID)
_PHI1 = _TRUTH.eigenfunctions[:, 0]
_PHI2 = _TRUTH.eigenfunctions[:, 1]


def _result(rows, n_points=101, method="pass", replications=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return ReplicationResult(
        method=method,
        config=SimulationConfig(n=20, n_points=n_points, seed=0),
        replications=replications or len(rows),
        eigenfunctions=rows)


# ---------------------------------------------------------------------------
# align_sign


def test_align_sign_cases():
    np.testing.assert_array_equal(align_sign(-_PHI1, _PHI1, _GRID), _PHI1)
    np.testing.assert_array_equal(align_sign(_PHI1, _PHI1, _GRID), _PHI1)


def test_align_sign_tie_keeps_estimate():
    # The inner product must be exactly zero to exercise the tie rule,
    # so use sign patterns whose products cancel term by term.
    grid = make_grid(10)
    truth = np.ones(10)
    estimate = np.tile([1.0, -1.0], 5)
    assert grid.spacing * estimate @ truth == 0.0
    np.testing.assert_array_equal(align_sign(estimate, truth, grid),
                                  estimate)


# ---------------------------------------------------------------------------
# eigenfunction_mse


def test_eigenfunction_mse_perfect_replicates():
    mse, bias = eigenfunction_mse(_result([_PHI1, _PHI1, _PHI1]), _TRUTH)
    assert mse == pytest.approx(0.0, abs=1e-12)
    assert bias == pytest.approx(0.0, abs=1e-12)


def test_eigenfunction_mse_absorbs_signs():
    mse, bias = eigenfunction_mse(
        _result([_PHI1, -_PHI1, _PHI1, -_PHI1]), _TRUTH)
    assert mse == pytest.approx(0.0, abs=1e-12)
    assert bias == pytest.approx(0.0, abs=1e-12)


def test_eigenfunction_mse_orthogonal_estimate():
    mse, bias = eigenfunction_mse(_result([_PHI2, _PHI2]), _TRUTH)
    assert mse == pytest.approx(2.0, abs=1e-9)
    assert bias == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_eigenfunction_mse_sign_flip_invariance():
    rng = np.random.default_rng(5)
    base = []
    for _ in range(6):
        noisy = _PHI1 + 0.1 * rng.standard_normal(101)
        noisy /= np.sqrt(_GRID.spacing * noisy @ noisy)
        base.append(noisy)
    base = np.array(base)
    flips = np.where(rng.random(6) < 0.5, -1.0, 1.0)
    plain = eigenfunction_mse(_result(base), _TRUTH)
    flipped = eigenfunction_mse(_result(base * flips[:, None]), _TRUTH)
    assert plain == flipped


def test_eigenfunction_mse_dominates_squared_bias():
    rng = np.random.default_rng(9)
    rows = []
    for _ in range(10):
        noisy = _PHI1 + 0.3 * rng.standard_normal(101)
        noisy /= np.sqrt(_GRID.spacing * noisy @ noisy)
        rows.append(noisy)
    mse, bias = eigenfunction_mse(_result(rows), _TRUTH)
    assert mse >= bias ** 2 - 1e-10


def test_eigenfunction_mse_needs_a_success():
    empty = ReplicationResult(
        method="pass", config=SimulationConfig(n=20, seed=0),
        replications=3, eigenfunctions=None, failures=3)
    with pytest.raises(InsufficientSampleError):
        eigenfunction_mse(empty, _TRUTH)


def test_replication_result_validation():
    with pytest.raises(DimensionMismatchError):
        ReplicationResult(method="pass",
                          config=SimulationConfig(n=20, seed=0),
                          replications=0)
    with pytest.raises(DimensionMismatchError):
        _result([2.0 * _PHI1])


# ---------------------------------------------------------------------------
# PVE error


def test_truth_pve_value():
    assert truth_pve([2.0, 1.0, 0.5, 0.25]) == pytest.approx(8.0 / 15.0)


def test_pve_error_examples():
    truth = [2.0, 1.0, 0.5, 0.25]
    assert pve_error([[1.0, 0.5, 0.25, 0.125]], truth) == pytest.approx(
        0.0, abs=1e-12)
    assert pve_error([[1.0, 1.0, 1.0, 1.0]], truth) == pytest.approx(
        (8.0 / 15.0 - 0.25) ** 2)
    assert pve_error([[1.0]], truth) == pytest.approx((7.0 / 15.0) ** 2)
    averaged = pve_error([[1.0, 0.5, 0.25, 0.125],
                          [1.0, 1.0, 1.0, 1.0]], truth)
    assert averaged == pytest.approx(0.5 * (8.0 / 15.0 - 0.25) ** 2)


# ---------------------------------------------------------------------------
# labels and seeds


def test_config_label_is_stable():
    config = SimulationConfig(n=200, score_law="frechet",
                              outlier_scheme="ol1", noise_sd=1.0, seed=4)
    assert config_label(config) == (
        "n=200,points=101,law=frechet,outliers=ol1,fraction=0.05,"
        "noise=1.0")


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(7, 0, 0) == derive_seed(7, 0, 0)
    seen = {derive_seed(7, c, r) for c in range(4) for r in range(50)}
    assert len(seen) == 200
    assert derive_seed(7, 0, 0) != derive_seed(8, 0, 0)


# ---------------------------------------------------------------------------
# collect_replicates


def test_collect_replicates_rejects_unknown_methods():
    config = SimulationConfig(n=20, seed=0)
    for bad in ("ridge", "pass@loess", "mspc@smooth_cf"):
        with pytest.raises(DimensionMismatchError):
            collect_replicates(config, [bad], 1, seed=1)


def test_collect_replicates_rejects_repeated_methods():
    # A repeated method would be evaluated and stored twice per
    # replicate, and its cell would count up to twice the replicates.
    config = SimulationConfig(n=20, seed=0)
    with pytest.raises(DimensionMismatchError, match="pass_mc"):
        collect_replicates(config, ["pass_mc", "pass", "pass_mc"], 3, seed=1)


def test_collect_replicates_reports_failures_by_error_class(monkeypatch):
    # Replicate 1 of 3 is replaced by identical curves, on which every
    # PASS method raises DegenerateSampleError.
    degenerate_seed = derive_seed(4, 0, 1)

    def generate(config):
        sample, truth = real_generate(config)
        if config.seed == degenerate_seed:
            sample = FunctionalSample(np.tile(sample.values[0],
                                              (sample.n, 1)))
        return sample, truth

    real_generate = metrics.generate
    monkeypatch.setattr(metrics, "generate", generate)
    config = SimulationConfig(n=30, seed=0)
    results = collect_replicates(config, ["pass", "pass_mc"], 3, seed=4)
    for method in ("pass", "pass_mc"):
        assert results[method].failures == 1
        assert results[method].failure_reasons == {
            "DegenerateSampleError": 1}
    [row, _] = run_benchmark([config], ["pass", "pass_mc"], 3, seed=4)
    assert row.failure_reasons == {"DegenerateSampleError": 1}


def test_collect_replicates_is_method_list_invariant():
    config = SimulationConfig(n=40, seed=0)
    alone = collect_replicates(config, ["pass"], 3, seed=11)
    paired = collect_replicates(config, ["classical", "pass"], 3, seed=11)
    np.testing.assert_array_equal(alone["pass"].eigenfunctions,
                                  paired["pass"].eigenfunctions)


def test_collect_replicates_ratio_methods_store_ratios():
    config = SimulationConfig(n=60, seed=0)
    results = collect_replicates(config, ["pass_mc", "classical_ratio"],
                                 2, seed=21)
    for method in ("pass_mc", "classical_ratio"):
        result = results[method]
        assert result.eigenfunctions is None
        assert result.ratios.shape == (2, 4)
        np.testing.assert_allclose(result.ratios[:, 0], 1.0)


def test_collect_replicates_counts_nonconvergence_as_failure():
    config = SimulationConfig(n=60, seed=0)
    strict = SolverOptions(tol=1e-15, max_iter=1)
    results = collect_replicates(config, ["pass_mc"], 3, seed=2,
                                 opts=strict)
    assert results["pass_mc"].failures == 3
    assert results["pass_mc"].failure_reasons == {"not_converged": 3}
    assert results["pass_mc"].ratios is None


# ---------------------------------------------------------------------------
# run_benchmark


def test_run_benchmark_single_replicate():
    rows = run_benchmark([SimulationConfig(n=30, seed=0)],
                         ["pass", "pass_mc"], 1, seed=5)
    assert len(rows) == 2
    eigen_row, ratio_row = rows
    assert eigen_row.method == "pass"
    assert eigen_row.mse is not None and eigen_row.bias is not None
    assert eigen_row.pve_mse is None
    assert ratio_row.pve_mse is not None
    assert not eigen_row.failed


def test_run_benchmark_is_deterministic():
    configs = [SimulationConfig(n=30, seed=0),
               SimulationConfig(n=30, score_law="chisquare", seed=0)]
    first = run_benchmark(configs, ["pass", "classical"], 3, seed=9)
    second = run_benchmark(configs, ["pass", "classical"], 3, seed=9)
    for a, b in zip(first, second):
        assert (a.method, a.mse, a.bias, a.pve_mse, a.failures) == \
            (b.method, b.mse, b.bias, b.pve_mse, b.failures)


def test_run_benchmark_row_order_follows_inputs():
    configs = [SimulationConfig(n=20, seed=0),
               SimulationConfig(n=25, seed=0)]
    rows = run_benchmark(configs, ["classical", "pass"], 1, seed=3)
    assert [(r.config.n, r.method) for r in rows] == [
        (20, "classical"), (20, "pass"), (25, "classical"), (25, "pass")]


def test_run_benchmark_marks_failed_cells_and_continues():
    # With two curves there is a single pair: any trimming removes it,
    # so the ratio solver can never standardize the projections.
    configs = [SimulationConfig(n=2, seed=0)]
    rows = run_benchmark(configs, ["pass_mc", "classical"], 2, seed=7)
    by_method = {row.method: row for row in rows}
    assert by_method["pass_mc"].failed
    assert by_method["pass_mc"].pve_mse is None
    assert by_method["pass_mc"].failures == 2
    assert by_method["pass_mc"].failure_reasons == {
        "InsufficientSampleError": 2}
    assert not by_method["classical"].failed
    assert by_method["classical"].failure_reasons == {}


def test_benchmark_row_failed_property():
    config = SimulationConfig(n=10, seed=0)
    row = BenchmarkRow(config=config, method="pass", mse=None, bias=None,
                       pve_mse=None, failures=4, replications=4)
    assert row.failed
    ok = BenchmarkRow(config=config, method="pass", mse=0.01, bias=0.001,
                      pve_mse=None, failures=1, replications=4)
    assert not ok.failed


# ---------------------------------------------------------------------------
# worker processes

_forks = pytest.mark.skipif(not sys.platform.startswith("linux"),
                            reason="replicates run in process off Linux")


@pytest.fixture
def hang_timeout():
    """Ends the test run, with every thread's stack, if a sweep hangs."""
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
    yield
    faulthandler.cancel_dump_traceback_later()


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def _blas_threads():
    """The thread count of numpy's OpenBLAS, as "1"; "none" where
    numpy's BLAS is not OpenBLAS."""
    counts = [getter() for getter, _ in metrics._openblas_thread_controls()]
    return ",".join(map(str, counts)) or "none"


def test_blas_lookup_finds_the_openblas_numpy_bundles():
    # The worker-count test accepts "none", so a lookup that found
    # nothing would pin no worker and still pass there.  Where numpy's
    # wheel maps its own OpenBLAS, the lookup must find and set it.
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs") + os.sep
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split(maxsplit=5)[-1].strip() for line in handle}
    except OSError:
        pytest.skip("no /proc/self/maps")
    if not any(path.startswith(libs)
               and "openblas" in os.path.basename(path).lower()
               for path in paths):
        pytest.skip("numpy maps no OpenBLAS of its own")
    [(getter, setter)] = metrics._openblas_thread_controls()
    saved = getter()
    assert saved >= 1
    try:
        setter(1)
        assert getter() == 1
    finally:
        setter(saved)


class _PidLoggingPipeline(metrics.Pipeline):
    """Appends the evaluating process's id and BLAS thread counts to
    ``path``, once per replicate."""

    path = None

    def __init__(self, sample, opts):
        super().__init__(sample, opts)
        with open(self.path, "a") as handle:
            handle.write(f"{os.getpid()} {_blas_threads()}\n")


@_forks
def test_run_benchmark_rows_do_not_depend_on_the_worker_count(
        monkeypatch, tmp_path, hang_timeout):
    # Replicate 2 of the second setting is identical curves, on which
    # every PASS method and mspc fail; the classical methods succeed.
    # Every worker must use one BLAS thread: more OpenBLAS threads can
    # round the PASS surface differently (docs/schema.md).
    degenerate_seed = derive_seed(6, 1, 2)

    def generate(config):
        sample, truth = real_generate(config)
        if config.seed == degenerate_seed:
            sample = FunctionalSample(np.tile(sample.values[0],
                                              (sample.n, 1)))
        return sample, truth

    pins = tmp_path / "pins"

    def one_blas_thread():
        with open(pins, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        real_one_blas_thread()

    real_generate = metrics.generate
    real_one_blas_thread = metrics._one_blas_thread
    monkeypatch.setattr(metrics, "generate", generate)
    monkeypatch.setattr(metrics, "_one_blas_thread", one_blas_thread)
    monkeypatch.setattr(metrics, "Pipeline", _PidLoggingPipeline)
    configs = [SimulationConfig(n=40, noise_sd=0.5, seed=0),
               SimulationConfig(n=40, score_law="lognormal",
                                outlier_scheme="ol2", seed=0)]
    methods = ["pass@pre_smooth", "pass@smooth_cf", "classical", "mspc",
               "pass_mc", "pass_elliptical@smooth_cf", "classical_ratio"]
    runs, logs = {}, {}
    controls = metrics._openblas_thread_controls()
    saved = [getter() for getter, _ in controls]
    try:
        # The caller's own BLAS threads, which no sweep may use or set.
        for _, setter in controls:
            setter(2)
        callers = _blas_threads()
        for workers in (1, 2):
            _usable_cpus(monkeypatch, workers)
            path = tmp_path / f"pids{workers}"
            monkeypatch.setattr(_PidLoggingPipeline, "path", path)
            runs[workers] = run_benchmark(configs, methods, 3, seed=6)
            assert _blas_threads() == callers
            logs[workers] = [line.split()
                             for line in path.read_text().splitlines()]
    finally:
        for (_, setter), threads in zip(controls, saved):
            setter(threads)
    assert len(logs[1]) == len(logs[2]) == 6
    # With one usable CPU, one forked worker evaluates every replicate.
    caller = str(os.getpid())
    pids = {workers: {pid for pid, _ in logs[workers]} for workers in logs}
    assert len(pids[1]) == 1 and len(pids[2]) <= 2
    assert caller not in pids[1] | pids[2]
    # Only the workers pin their BLAS threads, each to one thread; the
    # caller's are never set.
    pinned = set(pins.read_text().split())
    assert caller not in pinned and pids[1] | pids[2] <= pinned
    for _, threads in logs[1] + logs[2]:
        assert threads == "none" or set(threads.split(",")) == {"1"}
    fields = ("config", "method", "mse", "bias", "pve_mse", "failures",
              "replications", "failure_reasons")
    for serial, pooled in zip(runs[1], runs[2], strict=True):
        for name in fields:
            # Bitwise: the same floats, not merely close ones.
            assert repr(getattr(serial, name)) == repr(getattr(pooled, name))
    by_cell = {(row.config.score_law, row.method): row for row in runs[2]}
    assert by_cell[("lognormal", "pass@smooth_cf")].failure_reasons == {
        "DegenerateSampleError": 1}
    assert by_cell[("lognormal", "classical")].failure_reasons == {}


@_forks
def test_run_benchmark_runs_one_worker_where_no_replicate_fits(
        monkeypatch, tmp_path, hang_timeout):
    # Half of one replicate's guard estimates fits in the patched
    # memory: the pool still has one worker, whose memory guards fail
    # every replicate, and the sweep counts each failure.
    _usable_cpus(monkeypatch, 2)
    before = set(multiprocessing.active_children())
    config = SimulationConfig(n=30, seed=0)
    memory = metrics._replicate_bytes(config, SolverOptions()) // 2
    monkeypatch.setattr(metrics, "_physical_memory", lambda: memory)
    monkeypatch.setattr(estimators, "_physical_memory", lambda: memory)
    path = tmp_path / "pids"
    monkeypatch.setattr(_PidLoggingPipeline, "path", path)
    monkeypatch.setattr(metrics, "Pipeline", _PidLoggingPipeline)
    rows = run_benchmark([config] * 2, ["pass", "pass_mc"], 3, seed=2)
    assert len(rows) == 4
    for row in rows:
        assert row.failed
        assert row.failure_reasons == {"SampleTooLargeError": 3}
    pids = {line.split()[0] for line in path.read_text().splitlines()}
    assert len(pids) == 1 and str(os.getpid()) not in pids
    assert set(multiprocessing.active_children()) - before == set()


class _RaisingPipeline(metrics.Pipeline):
    def evaluate(self, method):
        raise ValueError("not an estimation error")


class _ExitingPipeline(metrics.Pipeline):
    parent = None

    def __init__(self, sample, opts):
        # Never end the test process itself.
        if os.getpid() != self.parent:
            os._exit(3)
        super().__init__(sample, opts)


@_forks
def test_run_benchmark_leaves_no_worker_behind(monkeypatch, hang_timeout):
    _usable_cpus(monkeypatch, 2)
    # Pools other tests keep for the session are not this sweep's.
    before = set(multiprocessing.active_children())

    def workers_left():
        return set(multiprocessing.active_children()) - before

    configs = [SimulationConfig(n=30, seed=0)] * 2
    rows = run_benchmark(configs, ["pass", "pass_mc"], 2, seed=1)
    assert len(rows) == 4
    assert workers_left() == set()
    # An error that is not an estimation error ends the sweep, and the
    # caller sees it.
    monkeypatch.setattr(metrics, "Pipeline", _RaisingPipeline)
    with pytest.raises(ValueError, match="not an estimation error"):
        run_benchmark(configs, ["pass"], 2, seed=1)
    assert workers_left() == set()
    # A worker that dies breaks the pool; the sweep raises, not hangs.
    monkeypatch.setattr(_ExitingPipeline, "parent", os.getpid())
    monkeypatch.setattr(metrics, "Pipeline", _ExitingPipeline)
    with pytest.raises(BrokenProcessPool):
        run_benchmark(configs, ["pass"], 2, seed=1)
    assert workers_left() == set()



class _LoggedFuture(Future):
    """A future that logs -1 to ``log`` when its result is read."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def result(self, timeout=None):
        self.log.append(-1)
        return super().result(timeout)


class _InlineExecutor(Executor):
    """Runs each task when it is submitted, in the calling process."""

    def __init__(self, log):
        self.log = log

    def submit(self, fn, /, *args, **kwargs):
        future = _LoggedFuture(self.log)
        future.set_result(fn(*args, **kwargs))
        return future


def test_collect_replicates_draws_few_samples_ahead_of_the_results(
        monkeypatch):
    # Executor.map would submit, and so draw, all 12 samples before the
    # first result is read.
    _usable_cpus(monkeypatch, 2)
    log = []

    def generate(config):
        log.append(1)
        return real_generate(config)

    real_generate = metrics.generate
    monkeypatch.setattr(metrics, "generate", generate)
    config = SimulationConfig(n=20, seed=0)
    results = collect_replicates(config, ["pass", "classical_ratio"], 12,
                                 seed=4, executor=_InlineExecutor(log))
    assert len(results["pass"].eigenfunctions) == 12
    assert log.count(1) == log.count(-1) == 12
    ahead = np.cumsum(log)
    assert ahead.max() == 2 * 2
    serial = collect_replicates(config, ["pass", "classical_ratio"], 12,
                                seed=4)
    assert np.array_equal(serial["pass"].eigenfunctions,
                          results["pass"].eigenfunctions)
    assert np.array_equal(serial["classical_ratio"].ratios,
                          results["classical_ratio"].ratios)


@_forks
def test_pool_workers_fit_in_physical_memory(monkeypatch):
    _usable_cpus(monkeypatch, 4)
    opts = SolverOptions()
    small, large = (SimulationConfig(n=50, seed=0),
                    SimulationConfig(n=400, n_points=51, seed=0))
    per_replicate = metrics._replicate_bytes(large, opts)
    assert per_replicate > metrics._replicate_bytes(small, opts)
    cases = [(None, 4), (10 * per_replicate, 4), (3 * per_replicate, 3),
             (2 * per_replicate - 1, 1), (per_replicate // 2, 0)]
    for memory, workers in cases:
        monkeypatch.setattr(metrics, "_physical_memory", lambda: memory)
        assert metrics._pool_workers([small, large], 5, opts) == workers
    # One replicate in all needs no second worker.
    monkeypatch.setattr(metrics, "_physical_memory", lambda: None)
    assert metrics._pool_workers([large], 1, opts) == 1
    # Where two do not fit, or not even one, the pool has one worker.
    for memory in (2 * per_replicate - 1, per_replicate // 2):
        monkeypatch.setattr(metrics, "_physical_memory", lambda: memory)
        with metrics._replicate_pool([small, large], 5, opts) as pool:
            assert pool._max_workers == 1
