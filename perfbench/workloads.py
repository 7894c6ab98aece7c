"""The three workloads: their inputs, CLI calls and output checks.

A workload seed selects one of ``BANK`` input sets (``seed % BANK``).
Every input set has reference outputs in ``references/<workload>.json``,
captured from the seed code by ``capture.py``, so every run checks its
outputs whatever seed it is given.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import inputs

BANK = 16

# Absolute and relative tolerance for every compared number.  Mean
# squared errors are compared as their square roots, so a change of 1e-7
# in a ratio cannot fail the check through a tiny squared error.
TOL = 1e-6

SWEEP_REPLICATIONS = 10
SWEEP_METHODS = ["pass", "classical", "mspc", "pass_mc", "pass_elliptical",
                 "classical_ratio", "pass@pre_smooth", "pass@smooth_cf",
                 "pass_mc@pre_smooth", "pass_elliptical@smooth_cf"]
SWEEP_SETTINGS = [
    {"n": 200, "score_law": "frechet", "outlier_scheme": "ol1"},
    {"n": 200, "score_law": "lognormal", "outlier_scheme": "ol2"},
    {"n": 200, "score_law": "gaussian", "noise_sd": 0.5},
]
SWEEP_EVALUATIONS = (SWEEP_REPLICATIONS * len(SWEEP_METHODS)
                     * len(SWEEP_SETTINGS))


@dataclass
class Op:
    """One CLI call: its command (``fit``, ``ratio`` or ``bench``), its
    arguments, and the files it writes."""

    kind: str
    argv: list[str]
    outputs: dict[str, str] = field(default_factory=dict)

    @property
    def evaluations(self) -> int:
        """Operations this call counts as: one, or one per replicate and
        method for a sweep."""
        return SWEEP_EVALUATIONS if self.kind == "bench" else 1


def _fit(work: str, curves: str, *extra: str) -> Op:
    out = {"eigenfunctions": os.path.join(work, "eigenfunctions.csv"),
           "result": os.path.join(work, "fit.json")}
    return Op("fit", ["fit", "--input", curves, *extra,
                      "--eigenfunctions", out["eigenfunctions"],
                      "--result", out["result"]], out)


def prepare(workload: str, index: int, work: str) -> list[Op]:
    """Write the inputs of input set ``index`` into ``work``; return the
    CLI calls of one workload iteration."""
    curves = os.path.join(work, "curves.csv")
    if workload == "fit_large":
        inputs.write_curves_csv(curves, inputs.curves(
            [index, 1], n=2000, n_points=101, law="frechet",
            outliers="ol1", noise_sd=0.0))
        return [_fit(work, curves, "--method", "pass", "--q", "4",
                     "--trim", "0.02")]
    if workload == "dense_noisy":
        inputs.write_curves_csv(curves, inputs.curves(
            [index, 3], n=600, n_points=401, law="multivariate_t",
            outliers="ol2", noise_sd=0.5))
        ratio = os.path.join(work, "ratio.json")
        return [_fit(work, curves, "--smoothing", "smooth_cf"),
                Op("ratio", ["ratio", "--input", curves, "--solver",
                             "elliptical", "--smoothing", "pre_smooth",
                             "--result", ratio], {"result": ratio})]
    if workload == "sweep_small":
        config = os.path.join(work, "sweep.yaml")
        out = {"table": os.path.join(work, "bench.csv"),
               "summary": os.path.join(work, "bench_summary.json")}
        document = {"seed": index, "replications": SWEEP_REPLICATIONS,
                    "methods": SWEEP_METHODS, "settings": SWEEP_SETTINGS}
        # JSON is a subset of YAML.
        with open(config, "w") as handle:
            json.dump(document, handle, indent=1)
        return [Op("bench", ["bench", "--config", config, "--out",
                             out["table"], "--summary", out["summary"]],
                   out)]
    raise ValueError(f"unknown workload {workload!r}")


def _number(cell: str):
    return None if cell == "" else float(cell)


def extract(op: Op) -> dict:
    """The checked content of an op's output files."""
    if op.kind == "bench":
        with open(op.outputs["table"], newline="") as handle:
            table = list(csv.reader(handle))
        rows = []
        for setting, method, mse, bias, pve, failures, reps in table[1:]:
            rows.append([setting, method, _number(mse), _number(bias),
                         _number(pve), int(failures), int(reps)])
        return {"rows": rows}
    with open(op.outputs["result"]) as handle:
        result = json.load(handle)
    if op.kind == "ratio":
        keys = ("solver", "q", "n_curves", "n_points", "pass_eigenvalues",
                "ratios", "pve_1", "converged")
        return {key: result[key] for key in keys}
    header, body = inputs.read_wide_csv(op.outputs["eigenfunctions"])
    solver = result["ratio_solver"] or {}
    return {"q": result["q"], "n_curves": result["n_curves"],
            "n_points": result["n_points"],
            "eigenvalues": result["eigenvalues"], "ratios": result["ratios"],
            "converged": solver.get("converged"),
            "eigenfunction_header": header,
            "eigenfunctions": body[:, 1:].tolist()}


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    return a == b


def _row_matches(row: list, ref: list) -> bool:
    setting, method, mse, bias, pve, failures, reps = row
    if [setting, method, failures, reps] != [ref[0], ref[1], ref[5], ref[6]]:
        return False
    roots = [None if v is None else math.sqrt(v) for v in (mse, pve)]
    ref_roots = [None if v is None else math.sqrt(v) for v in
                 (ref[2], ref[4])]
    return _close(roots, ref_roots) and _close(bias, ref[3])


def failed_evaluations(op: Op, got: dict, ref: dict) -> int:
    """Operations of ``op`` that failed: a mismatch with the reference
    fails the call, or, in a sweep, every replicate of the mismatched
    cell; a sweep cell's own failure count is added exactly."""
    if op.kind != "bench":
        same = got.keys() == ref.keys() and all(
            _close(got[key], ref[key]) for key in ref)
        return 0 if same else 1
    if len(got["rows"]) != len(ref["rows"]):
        return op.evaluations
    return sum(row[6] if not _row_matches(row, expected) else row[5]
               for row, expected in zip(got["rows"], ref["rows"]))


def accuracy(op: Op, got: dict) -> dict[str, float]:
    """``phi1_mse`` and/or ``pve1_mse`` of one op's outputs."""
    if op.kind == "bench":
        mse = [row[2] for row in got["rows"] if row[2] is not None]
        pve = [row[4] for row in got["rows"] if row[4] is not None]
        return {"phi1_mse": float(np.mean(mse)),
                "pve1_mse": float(np.mean(pve))}
    out = {}
    if op.kind == "fit":
        out["phi1_mse"] = inputs.phi1_mse(
            np.array(got["eigenfunctions"])[:, 0])
    if got["ratios"] is not None:
        out["pve1_mse"] = inputs.pve1_mse(got["ratios"])
    return out


# Span counts one workload iteration must produce; a traced iteration
# whose counts differ has missed or double-counted a call.  Only counts
# the workload itself fixes are listed, so that a change which removes
# repeated work inside the program does not fail the check.
EXPECTED_COUNTS = {
    "fit_large": {
        "estimators.pass_covariance_calls": 1,
        "estimators.sample_covariance_calls": 1,
        "eigenratio.pair_scores_calls": 1,
        "eigenratio.mc_calls": 1,
        "eigenratio.elliptical_calls": 0,
        "smoothing.presmooth_calls": 0,
        "smoothing.smooth_surface_calls": 0,
        "eigenratio.pairs_total": 2000 * 1999 // 2,
        "estimators.pass_covariance_pair_points": 2000 * 1999 // 2 * 101,
    },
    "sweep_small": {
        "simulate.generate_calls": 30,
        "metrics.evaluations": SWEEP_EVALUATIONS,
    },
    "dense_noisy": {
        "estimators.pass_covariance_calls": 2,
        "eigenratio.mc_calls": 1,
        "eigenratio.elliptical_calls": 1,
        "smoothing.presmooth_calls": 1,
        "smoothing.smooth_surface_calls": 1,
    },
}
