"""Tests for the shared estimation pipeline: PASS surface invariants as
properties, and exact agreement between the command line and the
harness, which both run their stages through it."""

import json
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
