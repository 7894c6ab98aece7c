"""Release acceptance suite.

Each test covers one numbered criterion at its stated tolerance and
contributes one ``CRITERION k: PASS/FAIL`` line to the summary printed
at the end of the session.  The replicated sweeps are shared through
session-scoped fixtures; a full run takes a few minutes.

Criterion 4 encodes every stated bound faithfully; five of its
sub-checks fail systematically (they persist across seeds and sample
sizes) and are reported rather than relaxed.  The run prints them as::

    clean/lognormal median -8.6pp outside ±5
    ol2/frechet |mc -2.4| >= |classical -1.4|
    ol2/lognormal |mc -7.6| >= |classical +0.7|
    ol2/chisquare |mc -1.1| >= |classical -0.9|
    elliptical/chisq -6.8pp, needs <= -10

The fixed-point solver's variance-explained estimate under lognormal
scores is biased low, it loses to the raw classical ratios on three
cells of the score-contamination scheme, and the integral solver under
chi-square scores underestimates by about 7 points rather than the
required 10.  The pair solver's cells share one cause: on rank-q curves
without outliers or trimming its fixed point is exactly the ratio of
its mean squared pair projections (``standardizers /
standardizers[0]``, pinned in ``test_eigenratio.py``), so its
robustness comes only from the trimming.
"""

import pathlib
import sys

import numpy as np
import pytest
import yaml

from passfpca import (
    FunctionalSample,
    PairScores,
    SimulationConfig,
    SolverOptions,
    collect_replicates,
    convergence_condition,
    cpve,
    eigendecompose,
    eigenfunction_mse,
    eigenratio_elliptical,
    eigenratio_mc,
    elliptical_expectation,
    fourier_truth,
    generate,
    make_grid,
    pair_scores,
    pass_covariance,
    run_benchmark,
    sample_covariance,
    truth_pve,
)
from passfpca import metrics
from passfpca.cli import main as cli_main

MASTER_SEED = 12345
_CONFIG_PATH = (pathlib.Path(__file__).resolve().parent.parent
                / "configs" / "robustness_benchmark.yaml")
_LAWS = ("gaussian", "multivariate_t", "frechet", "lognormal", "chisquare")
_LINES: list[str] = []


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    print("\n== acceptance summary ==", file=sys.__stdout__)
    for line in _LINES:
        print(line, file=sys.__stdout__)


@pytest.fixture(scope="session")
def benchmark_grid():
    """Bundled robustness sweep: 15 settings x 3 estimators, 200 reps."""
    with open(_CONFIG_PATH) as handle:
        document = yaml.safe_load(handle)
    configs = [SimulationConfig(seed=0, **setting)
               for setting in document["settings"]]
    rows = run_benchmark(configs, document["methods"],
                         document["replications"], document["seed"])
    return {(row.config.score_law, row.config.outlier_scheme, row.method):
            row for row in rows}


@pytest.fixture(scope="session")
def replicate_pool():
    """One worker pool, built as run_benchmark builds its own, for the
    sweeps below, which call collect_replicates directly; None, and
    evaluation in process, where run_benchmark would not fork."""
    with metrics._replicate_pool([SimulationConfig(n=200, seed=0)], 200,
                                 SolverOptions()) as pool:
        yield pool


@pytest.fixture(scope="session")
def noisy_smoothing(replicate_pool):
    """Noisy heavy-tail cells: frechet scores, unit noise, both schemes."""
    truth = fourier_truth(make_grid(101))
    config = SimulationConfig(n=200, score_law="frechet", noise_sd=1.0,
                              seed=0)
    methods = ["pass@smooth_cf", "classical@smooth_cf", "pass@pre_smooth"]
    results = collect_replicates(config, methods, 200, seed=MASTER_SEED,
                                 executor=replicate_pool)
    return {m: eigenfunction_mse(results[m], truth)[0] for m in methods}


@pytest.fixture(scope="session")
def variance_share(replicate_pool):
    """Median error of the estimated first-component variance share, in
    percentage points, for every law and contamination scheme."""
    target = truth_pve([2.0, 1.0, 0.5, 0.25]) * 100.0
    medians = {}
    for scheme in ("none", "ol1", "ol2"):
        for law in _LAWS:
            config = SimulationConfig(n=200, score_law=law,
                                      outlier_scheme=scheme, seed=0)
            methods = ["pass_mc", "classical_ratio"]
            if scheme == "none" and law == "chisquare":
                methods.append("pass_elliptical")
            results = collect_replicates(config, methods, 200,
                                         seed=MASTER_SEED,
                                         executor=replicate_pool)
            cell = {}
            for method in methods:
                pve = 100.0 / results[method].ratios.sum(axis=1)
                cell[method] = float(np.median(pve) - target)
            medians[(scheme, law)] = cell
    return medians


def test_criterion_1(benchmark_grid):
    checks = []
    pass_normal = benchmark_grid[("gaussian", "none", "pass")].mse
    checks.append((1.0e-2 <= pass_normal <= 2.2e-2,
                   f"pass/normal {pass_normal * 100:.2f}e-2 in [1.0,2.2]"))
    cov_normal = benchmark_grid[("gaussian", "none", "classical")].mse
    checks.append((0.9e-2 <= cov_normal <= 2.0e-2,
                   f"cov/normal {cov_normal * 100:.2f}e-2 in [0.9,2.0]"))
    pass_chisq = benchmark_grid[("chisquare", "none", "pass")].mse
    checks.append((2.8e-2 <= pass_chisq <= 6.5e-2,
                   f"pass/chisq {pass_chisq * 100:.2f}e-2 in [2.8,6.5]"))
    cov_fr = benchmark_grid[("frechet", "ol1", "classical")].mse
    pass_fr = benchmark_grid[("frechet", "ol1", "pass")].mse
    checks.append((cov_fr >= 5.0 * pass_fr,
                   f"cov/frechet/ol1 {cov_fr * 100:.1f}e-2 >= 5x "
                   f"{pass_fr * 100:.1f}e-2"))
    failed = [msg for ok, msg in checks if not ok]
    _report(1, not failed,
            "; ".join(msg for _, msg in checks) if not failed
            else "failed: " + "; ".join(failed))


def test_criterion_2(benchmark_grid):
    failures = []
    for scheme in ("none", "ol1", "ol2"):
        for law in ("multivariate_t", "frechet", "lognormal", "chisquare"):
            pass_mse = benchmark_grid[(law, scheme, "pass")].mse
            cov_mse = benchmark_grid[(law, scheme, "classical")].mse
            if pass_mse > cov_mse:
                failures.append(f"{law}/{scheme} mse "
                                f"{pass_mse:.3f}>{cov_mse:.3f}")
        pass_bias = benchmark_grid[("chisquare", scheme, "pass")].bias
        mspc_bias = benchmark_grid[("chisquare", scheme, "mspc")].bias
        if pass_bias > mspc_bias:
            failures.append(f"chisq/{scheme} bias "
                            f"{pass_bias:.3f}>{mspc_bias:.3f}")
    _report(2, not failures,
            "pairwise <= classical on all 12 heavy-tail cells and "
            "pairwise bias <= sign-based bias under chi-square"
            if not failures else "failed: " + "; ".join(failures))


def test_criterion_3(noisy_smoothing):
    cf = noisy_smoothing["pass@smooth_cf"]
    cov_cf = noisy_smoothing["classical@smooth_cf"]
    pre = noisy_smoothing["pass@pre_smooth"]
    in_band = 2.3e-2 <= cf <= 6.5e-2
    five_x = cov_cf >= 5.0 * cf
    schemes_close = abs(pre - cf) < 1.0e-2
    ok = in_band and five_x and schemes_close
    _report(3, ok,
            f"surface-smoothed frechet mse {cf * 100:.2f}e-2 "
            f"(band ok={in_band}), classical {cov_cf * 100:.2f}e-2 "
            f"(5x ok={five_x}), |pre-smooth diff| "
            f"{abs(pre - cf) * 100:.2f}e-2 (<1.0 ok={schemes_close})")


def test_criterion_4(variance_share):
    failures = []
    for law in _LAWS:
        err = variance_share[("none", law)]["pass_mc"]
        if abs(err) > 5.0:
            failures.append(f"clean/{law} median {err:+.1f}pp outside ±5")
    for scheme in ("ol1", "ol2"):
        for law in _LAWS:
            cell = variance_share[(scheme, law)]
            if abs(cell["pass_mc"]) >= abs(cell["classical_ratio"]):
                failures.append(
                    f"{scheme}/{law} |mc {cell['pass_mc']:+.1f}| >= "
                    f"|classical {cell['classical_ratio']:+.1f}|")
    ell = variance_share[("none", "chisquare")]["pass_elliptical"]
    if not ell <= -10.0:
        failures.append(f"elliptical/chisq {ell:+.1f}pp, needs <= -10")
    _report(4, not failures,
            "all variance-share medians within bounds" if not failures
            else "failed: " + "; ".join(failures))


def test_criterion_5():
    failures = []
    # Unit trace over 100 random samples.
    rng = np.random.default_rng(MASTER_SEED)
    worst_trace = 0.0
    for _ in range(100):
        config = SimulationConfig(
            n=int(rng.integers(5, 41)),
            score_law=_LAWS[rng.integers(0, 5)],
            seed=int(rng.integers(0, 2 ** 32)))
        surface = pass_covariance(generate(config)[0])
        trace = surface.grid.spacing * float(np.trace(surface.matrix))
        worst_trace = max(worst_trace, abs(trace - 1.0))
    if worst_trace > 1e-10:
        failures.append(f"trace deviation {worst_trace:.2e}")
    # Translation and global-scale invariance.
    sample, _ = generate(SimulationConfig(n=40, score_law="frechet",
                                          seed=MASTER_SEED))
    base = pass_covariance(sample).matrix
    shifted = FunctionalSample(sample.values + 11.5)
    scaled = FunctionalSample(sample.values * -3.25)
    if np.max(np.abs(pass_covariance(shifted).matrix - base)) > 1e-12:
        failures.append("translation invariance")
    if np.max(np.abs(pass_covariance(scaled).matrix - base)) > 1e-12:
        failures.append("scale invariance")
    # Spectrum shrinkage and cumulative-share conservativeness at n=800.
    for law in _LAWS:
        sample, _ = generate(SimulationConfig(n=800, score_law=law,
                                              seed=MASTER_SEED))
        n_points = sample.grid.n_points
        pass_vals = eigendecompose(pass_covariance(sample),
                                   n_points).eigenvalues
        classical_vals = eigendecompose(sample_covariance(sample),
                                        n_points).eigenvalues
        if pass_vals[0] / pass_vals[3] > \
                1.15 * classical_vals[0] / classical_vals[3]:
            failures.append(f"{law} eigenvalue-ratio shrinkage")
        pass_clip = np.clip(pass_vals, 0.0, None)
        classical_clip = np.clip(classical_vals, 0.0, None)
        for q in (1, 2, 3):
            if cpve(pass_clip, q) > cpve(classical_clip, q) + 0.05:
                failures.append(f"{law} cumulative share at rank {q}")
    _report(5, not failures,
            f"unit trace (worst {worst_trace:.1e}), invariances, and "
            "spectrum inequalities on all laws at n=800"
            if not failures else "failed: " + "; ".join(failures))


def test_criterion_6():
    failures = []
    # Integral solver against a 10^7-draw Monte Carlo oracle.
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(20):
        q = int(rng.integers(2, 7))
        ratios = rng.uniform(0.05, 2.0, size=q)
        sums = np.zeros(q)
        for _ in range(10):
            draws = rng.standard_normal((1_000_000, q))
            squared = draws ** 2
            sums += (squared / (squared @ ratios)[:, None]).sum(axis=0)
        mc = sums / 1e7
        for j in range(1, q + 1):
            worst = max(worst,
                        abs(elliptical_expectation(ratios)[j - 1] - mc[j - 1]))
    if worst > 1e-3:
        failures.append(f"integral vs Monte Carlo {worst:.2e}")
    # Pairwise solver against the integral solver on synthetic scores.
    truth = np.array([1.0, 0.5, 0.25, 0.125])
    evaluations = np.array([elliptical_expectation(truth)[j - 1]
                            for j in range(1, 5)])
    kappa = truth * evaluations / evaluations[0]
    raw = np.random.default_rng(MASTER_SEED).standard_normal((100_000, 4))
    raw /= np.sqrt(np.mean(raw ** 2, axis=0))
    scores = PairScores(np.square(raw), np.ones(4),
                        np.ones(100_000, dtype=bool))
    mc_est = eigenratio_mc(scores, kappa)
    ell_est = eigenratio_elliptical(kappa)
    gap = float(np.max(np.abs(mc_est.ratios - ell_est.ratios)))
    if not (mc_est.converged and ell_est.converged) or gap > 0.03:
        failures.append(f"solver agreement gap {gap:.4f}")
    # Sample covariance against the brute-force double loop, exactly.
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        values = rng.standard_normal((n, 6))
        mean = values.mean(axis=0)
        brute = np.zeros((6, 6))
        for i in range(n):
            for j in range(6):
                for k in range(6):
                    brute[j, k] += ((values[i, j] - mean[j])
                                    * (values[i, k] - mean[k]))
        brute /= n - 1
        ours = sample_covariance(FunctionalSample(values)).matrix
        if not np.array_equal(ours, brute):
            failures.append(f"covariance mismatch at n={n}")
    _report(6, not failures,
            f"integral oracle (worst {worst:.1e}), solver agreement "
            f"(gap {gap:.4f}), exact covariance"
            if not failures else "failed: " + "; ".join(failures))


def test_criterion_7():
    sample, _ = generate(SimulationConfig(n=200, seed=MASTER_SEED))
    system = eigendecompose(pass_covariance(sample), 4)
    scores = pair_scores(sample, system, 4, 0.02)
    diagnostic = convergence_condition(scores, [0.5, 0.25, 0.125])
    ok = bool(np.all(diagnostic.margin > 0.0))
    _report(7, ok,
            "fixed-point margins "
            + np.array2string(diagnostic.margin, precision=3)
            + " all positive")


def test_criterion_8(tmp_path):
    config = tmp_path / "bench.yaml"
    config.write_text("""\
seed: 3
replications: 3
methods: [pass, pass_mc]
settings:
  - {n: 30}
  - {n: 30, score_law: chisquare, outlier_scheme: ol1}
""")
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        code = cli_main(["bench", "--config", str(config),
                         "--out", str(out),
                         "--summary", str(tmp_path / f"{run}.json")])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(8, ok, f"repeated run identical ({len(outputs[0])} bytes)")
