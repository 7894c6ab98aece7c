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
    OUTLIER_SCHEMES,
    SCORE_LAWS,
    DegenerateSampleError,
    FunctionalSample,
    InsufficientSampleError,
    PassFpcaError,
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
# ratio path properties


def _ratio_path(values, scheme):
    """``pass_mc`` and ``pass_elliptical`` ratios and the ``pass``
    eigenfunctions of one sample under one smoothing scheme."""
    pipeline = Pipeline(FunctionalSample(values))
    suffix = "" if scheme is None else f"@{scheme}"
    return (pipeline.evaluate("pass_mc" + suffix).ratios,
            pipeline.evaluate("pass_elliptical" + suffix).ratios,
            pipeline.evaluate("pass" + suffix).eigenfunctions)


def _assert_same_path(got, base):
    for ratios, expected in zip(got[:2], base[:2]):
        np.testing.assert_allclose(ratios, expected, rtol=1e-10, atol=0)
    # The largest-entry sign rule can flip on a tie, so align signs.
    signs = np.sign(np.sum(got[2] * base[2], axis=0))
    np.testing.assert_allclose(got[2] * signs, base[2], rtol=0,
                               atol=1e-10 * np.max(np.abs(base[2])))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(12, 40), law=st.sampled_from(SCORE_LAWS),
       outliers=st.sampled_from(OUTLIER_SCHEMES),
       scheme=st.sampled_from([None, "pre_smooth"]),
       seed=st.integers(0, 2 ** 32 - 1), shift=st.floats(-10.0, 10.0),
       scale=st.floats(0.01, 100.0), n_copies=st.integers(1, 6),
       order=st.randoms(use_true_random=False))
def test_ratio_path_invariances(n, law, outliers, scheme, seed, shift,
                                scale, n_copies, order):
    # The pair layer trims by magnitude, breaks ties at the highest pair
    # index and averages over all pairs, so the ratios and eigenfunctions
    # must not see the order of the curves, a common function added to
    # every curve, a positive scale, or where the copies of duplicated
    # curves stand.  Pre-smoothing picks each curve's penalty by GCV,
    # which a common line, in the penalty's null space, leaves alone but
    # a curved function does not.
    sample, _ = generate(SimulationConfig(
        n=n, n_points=21, score_law=law, outlier_scheme=outliers,
        noise_sd=0.3 if scheme else 0.0, seed=seed))
    values = sample.values
    base = _ratio_path(values, scheme)
    permutation = list(range(n))
    order.shuffle(permutation)
    _assert_same_path(_ratio_path(values[permutation], scheme), base)
    points = sample.grid.points
    common = shift * (1.0 - 2.0 * points)
    if scheme is None:
        common += shift * np.cos(3.0 * np.pi * points)
    _assert_same_path(_ratio_path(values + common, scheme), base)
    _assert_same_path(_ratio_path(scale * values, scheme), base)
    copies = np.concatenate([values, values[permutation[:n_copies]]])
    shuffled = list(range(n + n_copies))
    order.shuffle(shuffled)
    _assert_same_path(_ratio_path(copies[shuffled], scheme),
                      _ratio_path(copies, scheme))


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


def test_identical_curves_have_zero_classical_spectrum_and_no_signs():
    # Thirty copies of a curve whose column means are inexact: the
    # classical eigenvalues are exactly zero, so the classical ratios are
    # undefined, and every curve is the spatial median.
    sample, _ = generate(SimulationConfig(n=30, seed=0))
    pipeline = Pipeline(FunctionalSample(np.tile(sample.values[0], (30, 1))))
    for scheme in (None, "pre_smooth"):
        assert not np.any(
            pipeline.eigensystem("classical", scheme).eigenvalues)
    with pytest.raises(InsufficientSampleError):
        pipeline.evaluate("classical_ratio")
    assert pipeline.classical_init(None) is None
    with pytest.raises(DegenerateSampleError, match="spatial median"):
        pipeline.evaluate("mspc")


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


def _sample_and_its_copy_at_2_to_510():
    sample, _ = generate(SimulationConfig(n=40, noise_sd=0.5, seed=2))
    return sample, FunctionalSample(np.ldexp(sample.values, 510))


@pytest.mark.parametrize("method", [
    "pass_mc", "pass_elliptical", "pass_mc@pre_smooth",
    "pass_elliptical@pre_smooth", "pass_mc@smooth_cf",
    "pass_elliptical@smooth_cf"])
def test_pass_ratios_are_scale_free_at_2_to_510(method):
    # The classical surface of these curves is finite, but its
    # eigenvalues overflow, so the solver starts from ones instead of
    # the classical ratios and reaches the same fixed point.
    sample, big = _sample_and_its_copy_at_2_to_510()
    base = Pipeline(sample).evaluate(method)
    scaled = Pipeline(big).evaluate(method)
    assert scaled.converged
    np.testing.assert_allclose(scaled.ratios, base.ratios, rtol=1e-6)


@pytest.mark.parametrize("method", [
    "classical", "classical_ratio", "classical@pre_smooth",
    "classical_ratio@pre_smooth", "classical@smooth_cf"])
def test_classical_methods_reject_curves_at_2_to_510(method):
    _, big = _sample_and_its_copy_at_2_to_510()
    with pytest.raises(PassFpcaError, match="eigenvalues must be finite"):
        Pipeline(big).evaluate(method)
