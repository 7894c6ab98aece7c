"""Tests for the shared estimation pipeline: PASS surface invariants as
properties, and exact agreement between the command line and the
harness, which both run their stages through it."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passfpca import (
    FunctionalSample,
    Pipeline,
    SimulationConfig,
    SolverOptions,
    convergence_condition,
    generate,
)
from passfpca.cli import EXIT_OK, main, write_curves_csv

# ---------------------------------------------------------------------------
# PASS surface properties


def _pass_surface(values):
    sample = FunctionalSample(values)
    return Pipeline(sample).surface("pass", None).matrix


@settings(max_examples=40, deadline=None, derandomize=True)
@example(n=5, n_points=6, seed=0, shift=3.0, scale=1e160, negate=True,
         order=random.Random(0))
@given(n=st.integers(3, 12), n_points=st.integers(4, 24),
       seed=st.integers(0, 2 ** 32 - 1),
       shift=st.floats(-100.0, 100.0),
       scale=st.floats(0.01, 100.0), negate=st.booleans(),
       order=st.randoms(use_true_random=False))
def test_pass_surface_invariants(n, n_points, seed, shift, scale, negate,
                                 order):
    values = np.random.default_rng(seed).standard_normal((n, n_points))
    base = _pass_surface(values)
    spacing = 1.0 / n_points
    assert spacing * np.trace(base) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(base, base.T)
    tol = 1e-9 * np.max(np.abs(base))
    factor = -scale if negate else scale
    transformed = _pass_surface(factor * values + shift)
    assert np.max(np.abs(transformed - base)) <= tol
    permutation = list(range(n))
    order.shuffle(permutation)
    permuted = _pass_surface(values[permutation])
    assert np.max(np.abs(permuted - base)) <= tol


# ---------------------------------------------------------------------------
# command line and harness agree


@pytest.fixture(scope="module")
def noisy(tmp_path_factory):
    """A noisy contaminated sample and its curves CSV; values are written
    with repr, so reading the CSV back gives the same sample exactly."""
    sample, _ = generate(SimulationConfig(
        n=60, score_law="frechet", outlier_scheme="ol1", noise_sd=0.5,
        seed=17))
    path = tmp_path_factory.mktemp("pipeline") / "curves.csv"
    write_curves_csv(str(path), sample)
    return sample, path


def _suffix(smoothing):
    return "" if smoothing == "none" else f"@{smoothing}"


@pytest.mark.parametrize("smoothing", ["none", "pre_smooth", "smooth_cf"])
def test_fit_matches_pipeline(tmp_path, noisy, smoothing):
    sample, path = noisy
    result = tmp_path / "fit.json"
    assert main(["fit", "--input", str(path), "--method", "pass",
                 "--smoothing", smoothing, "--eigenfunctions",
                 str(tmp_path / "ef.csv"), "--result",
                 str(result)]) == EXIT_OK
    doc = json.loads(result.read_text())
    pipeline = Pipeline(sample, SolverOptions())
    system = pipeline.evaluate("pass" + _suffix(smoothing))
    estimate = pipeline.evaluate("pass_mc" + _suffix(smoothing))
    assert doc["eigenvalues"] == system.eigenvalues.tolist()
    assert doc["ratios"] == estimate.ratios.tolist()
    assert doc["ratio_solver"]["iterations"] == estimate.iterations


@pytest.mark.parametrize("smoothing", ["none", "pre_smooth"])
def test_ratio_elliptical_matches_pipeline(tmp_path, noisy, smoothing):
    sample, path = noisy
    result = tmp_path / "ratio.json"
    assert main(["ratio", "--input", str(path), "--solver", "elliptical",
                 "--smoothing", smoothing, "--result",
                 str(result)]) == EXIT_OK
    doc = json.loads(result.read_text())
    pipeline = Pipeline(sample, SolverOptions())
    system = pipeline.evaluate("pass" + _suffix(smoothing))
    estimate = pipeline.evaluate("pass_elliptical" + _suffix(smoothing))
    assert doc["pass_eigenvalues"] == system.eigenvalues.tolist()
    assert doc["ratios"] == estimate.ratios.tolist()
    assert doc["iterations"] == estimate.iterations


def test_smooth_cf_starts_from_raw_curve_ratios(noisy):
    # Surface smoothing leaves the curves alone, so the fixed point starts
    # from the classical ratios of the raw curves.
    sample, _ = noisy
    pipeline = Pipeline(sample)
    np.testing.assert_array_equal(pipeline.classical_init("smooth_cf"),
                                  pipeline.classical_init(None))
    raw = pipeline.eigensystem("classical", None).eigenvalues
    np.testing.assert_array_equal(pipeline.classical_init(None),
                                  raw / raw[0])


def test_pairscores_expose_what_the_benchmark_tracer_reads():
    # perfbench's tracer reads these names and turns an error in reading
    # them into a silent zero, so they are pinned here.
    n = 60
    sample, _ = generate(SimulationConfig(n=n, seed=4))
    pipeline = Pipeline(sample)
    scores = pipeline.pairscores(None)
    n_pairs = n * (n - 1) // 2
    assert scores.n_pairs == n_pairs
    assert scores.q == 4
    # Jointly retained: not among any component's ceil(0.02 P) largest
    # magnitudes, ties trimmed at the highest index.
    basis = pipeline.eigensystem("pass", None).eigenfunctions
    proj = sample.grid.spacing * (sample.values @ basis)
    i_idx, j_idx = np.triu_indices(n, k=1)
    magnitudes = np.abs(proj[i_idx] - proj[j_idx])
    n_trim = math.ceil(0.02 * n_pairs)
    trimmed = np.zeros(n_pairs, dtype=bool)
    for col in range(4):
        order = np.argsort(magnitudes[:, col], kind="stable")
        trimmed[order[n_pairs - n_trim:]] = True
    assert int(scores.joint_mask.sum()) == n_pairs - int(trimmed.sum())
    estimate = pipeline.evaluate("pass_mc")
    diagnostic = convergence_condition(scores, estimate.ratios[1:])
    assert diagnostic.margin.shape == (3,)


def test_pass_mc_is_scale_free_at_1e160():
    # The classical surface of curves this large exceeds the float range
    # and is rejected, so the solver starts from ones instead of the
    # classical ratios; it reaches the same fixed point.
    sample, _ = generate(SimulationConfig(n=50, score_law="lognormal",
                                          outlier_scheme="ol2", seed=5))
    base = Pipeline(sample).evaluate("pass_mc")
    big = Pipeline(FunctionalSample(sample.values * 1e160)).evaluate(
        "pass_mc")
    assert big.converged
    np.testing.assert_allclose(big.ratios, base.ratios, rtol=1e-6)
