"""Command-line interface: simulate, fit, ratio, bench.

File formats are documented in ``docs/schema.md``.  Curves travel as
wide CSV (one row per curve, one column per grid point, grid stated in
the header).  Result documents are JSON; the benchmark driver reads a
YAML configuration and writes a CSV table plus a JSON summary.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 file-format or
configuration error, 5 estimation error, 6 benchmark cell failure under
``--strict``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from typing import Optional

import numpy as np
import yaml

from .errors import PassFpcaError
from .estimators import EigenSystem
from .grid import FunctionalSample, make_grid
from .metrics import config_label, run_benchmark
from .pipeline import (
    EIGENFUNCTION_METHODS,
    Pipeline,
    SolverOptions,
    parse_method,
)
from .simulate import (
    OUTLIER_SCHEMES,
    SCORE_LAWS,
    SimulationConfig,
    generate,
)
from .smoothing import SCHEME_PRE_SMOOTH, SCHEME_SMOOTH_CF

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_ESTIMATION = 5
EXIT_STRICT = 6


class _FormatError(Exception):
    """A file parsed as text but violates the expected schema."""


def _fmt(value: float) -> str:
    """Shortest exact decimal form of a float (deterministic)."""
    return repr(float(value))


def _grid_header(grid) -> list[str]:
    return [format(point, ".12g") for point in grid.points]


def write_curves_csv(path: str, sample: FunctionalSample) -> None:
    """Write curves in wide format: header ``curve_id,t_1,...,t_N``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["curve_id"] + _grid_header(sample.grid))
        for index, row in enumerate(sample.values):
            writer.writerow([str(index)] + [_fmt(v) for v in row])


def read_curves_csv(path: str) -> FunctionalSample:
    """Read a wide-format curves CSV back into a sample.

    Raises
    ------
    _FormatError
        On any schema violation, with the offending line number.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise _FormatError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "curve_id":
            raise _FormatError(
                f"{path}:1: header must be 'curve_id' followed by at "
                f"least 2 grid columns")
        n_points = len(header) - 1
        grid = make_grid(n_points)
        try:
            header_points = np.array([float(h) for h in header[1:]])
        except ValueError as exc:
            raise _FormatError(
                f"{path}:1: grid column names must be numeric: {exc}"
            ) from None
        if np.max(np.abs(header_points - grid.points)) > 1e-9:
            raise _FormatError(
                f"{path}:1: grid columns do not match the regular grid "
                f"t_j = j/{n_points}")
        rows = []
        line_nos = []
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != n_points + 1:
                raise _FormatError(
                    f"{path}:{line_no}: expected {n_points + 1} fields, "
                    f"got {len(record)}")
            try:
                rows.append([float(v) for v in record[1:]])
            except ValueError as exc:
                raise _FormatError(
                    f"{path}:{line_no}: non-numeric curve value: {exc}"
                ) from None
            line_nos.append(line_no)
        if not rows:
            raise _FormatError(f"{path}: no curve rows found")
    values = np.array(rows)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise _FormatError(
            f"{path}:{line_nos[int(np.argmin(finite))]}: curve values "
            f"must be finite")
    return FunctionalSample(values)


def write_truth_csv(path: str, truth, grid) -> None:
    """Write generating truth in long format
    ``component,order,position,value``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["component", "order", "position", "value"])
        points = _grid_header(grid)
        for pos, value in zip(points, truth.mean):
            writer.writerow(["mean", "", pos, _fmt(value)])
        for order in range(truth.eigenfunctions.shape[1]):
            for pos, value in zip(points, truth.eigenfunctions[:, order]):
                writer.writerow(
                    ["eigenfunction", str(order + 1), pos, _fmt(value)])
        for order, value in enumerate(truth.eigenvalues, start=1):
            writer.writerow(["eigenvalue", str(order), "", _fmt(value)])
        mask = truth.outlier_mask
        if mask is not None:
            for index, flagged in enumerate(mask):
                writer.writerow(["outlier_mask", str(index), "",
                                 "1" if flagged else "0"])


def write_eigenfunctions_csv(path: str, system: EigenSystem) -> None:
    """Write eigenfunctions with a leading grid column."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t"] + [f"phi_{j + 1}" for j in range(system.q)])
        points = _grid_header(system.grid)
        for row, pos in enumerate(points):
            writer.writerow(
                [pos] + [_fmt(system.eigenfunctions[row, col])
                         for col in range(system.q)])


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", newline="") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        n=args.n, n_points=args.n_points, score_law=args.law,
        outlier_scheme=args.outliers,
        outlier_fraction=args.outlier_fraction,
        noise_sd=args.noise_sd, seed=args.seed)
    sample, truth = generate(config)
    write_curves_csv(args.out, sample)
    truth_path = args.truth
    if truth_path is None:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        truth_path = stem + "_truth.csv"
    write_truth_csv(truth_path, truth, sample.grid)
    return EXIT_OK


def _method_id(base: str, smoothing: str) -> str:
    """Method identifier for a base estimator under a ``--smoothing``
    choice; a combination the pipeline has no variant for is a usage
    of the wrong flags, reported as a format error."""
    method = base if smoothing == "none" else f"{base}@{smoothing}"
    try:
        parse_method(method)
    except PassFpcaError as exc:
        raise _FormatError(str(exc)) from None
    return method


def cmd_fit(args: argparse.Namespace) -> int:
    method = _method_id(args.method, args.smoothing)
    opts = SolverOptions(q=args.q, trim_fraction=args.trim, tol=args.tol,
                         max_iter=args.max_iter, basis_size=args.basis_size)
    sample = read_curves_csv(args.input)
    pipeline = Pipeline(sample, opts)
    system = pipeline.evaluate(method)
    ratios = solver_doc = None
    if args.method == "classical":
        ratios = system.eigenvalues / system.eigenvalues[0]
    elif args.method == "pass":
        solver_doc = {"method": "mc", "trim_fraction": args.trim}
        # The ratio refinement is optional: a sample too small or too
        # degenerate for the pair solver still has a usable surface.
        try:
            estimate = pipeline.evaluate(_method_id("pass_mc",
                                                    args.smoothing))
        except PassFpcaError as exc:
            solver_doc.update(converged=False, error=str(exc))
        else:
            ratios = estimate.ratios
            solver_doc.update(iterations=estimate.iterations,
                              converged=estimate.converged,
                              final_delta=estimate.final_delta)
    write_eigenfunctions_csv(args.eigenfunctions, system)
    if args.result is not None:
        _write_json(args.result, {
            "command": "fit",
            "method": args.method,
            "smoothing": args.smoothing,
            "q": args.q,
            "n_curves": sample.n,
            "n_points": sample.grid.n_points,
            "eigenvalues": [float(v) for v in system.eigenvalues],
            "ratios": (None if ratios is None
                       else [float(v) for v in ratios]),
            "ratio_solver": solver_doc,
        })
    return EXIT_OK


def cmd_ratio(args: argparse.Namespace) -> int:
    method = _method_id(f"pass_{args.solver}", args.smoothing)
    opts = SolverOptions(q=args.q, trim_fraction=args.trim, tol=args.tol,
                         max_iter=args.max_iter)
    sample = read_curves_csv(args.input)
    pipeline = Pipeline(sample, opts)
    system = pipeline.evaluate(_method_id("pass", args.smoothing))
    estimate = pipeline.evaluate(method)
    _write_json(args.result, {
        "command": "ratio",
        "solver": args.solver,
        "q": args.q,
        "n_curves": sample.n,
        "n_points": sample.grid.n_points,
        "smoothing": args.smoothing,
        "trim_fraction": args.trim,
        "pass_eigenvalues": [float(v) for v in system.eigenvalues],
        "ratios": [float(v) for v in estimate.ratios],
        "pve_1": float(1.0 / np.sum(estimate.ratios)),
        "iterations": estimate.iterations,
        "converged": estimate.converged,
        "final_delta": estimate.final_delta,
    })
    return EXIT_OK


_SETTING_KEYS = {f.name for f in fields(SimulationConfig)} - {"seed"}
_SOLVER_KEYS = {f.name for f in fields(SolverOptions)}
_TOP_KEYS = {"seed", "replications", "methods", "settings", "solver",
             "output", "summary"}


def _load_bench_config(path: str) -> dict:
    with open(path) as handle:
        try:
            document = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise _FormatError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(document, dict):
        raise _FormatError(f"{path}: top level must be a mapping")
    unknown = set(document) - _TOP_KEYS
    if unknown:
        raise _FormatError(
            f"{path}: unknown top-level keys {sorted(unknown)}; allowed "
            f"keys are {sorted(_TOP_KEYS)}")
    for key in ("seed", "replications", "methods", "settings"):
        if key not in document:
            raise _FormatError(f"{path}: missing required key {key!r}")
    if not isinstance(document["seed"], int) or document["seed"] < 0:
        raise _FormatError(f"{path}: 'seed' must be a nonnegative integer")
    if not isinstance(document["replications"], int) \
            or document["replications"] < 1:
        raise _FormatError(
            f"{path}: 'replications' must be a positive integer")
    if not isinstance(document["settings"], list) or not document["settings"]:
        raise _FormatError(f"{path}: 'settings' must be a nonempty list")
    for index, setting in enumerate(document["settings"]):
        if not isinstance(setting, dict):
            raise _FormatError(
                f"{path}: settings[{index}] must be a mapping")
        unknown = set(setting) - _SETTING_KEYS
        if unknown:
            raise _FormatError(
                f"{path}: settings[{index}] has unknown keys "
                f"{sorted(unknown)}; allowed keys are "
                f"{sorted(_SETTING_KEYS)}")
        if "n" not in setting:
            raise _FormatError(
                f"{path}: settings[{index}] is missing required key 'n'")
    solver = document.get("solver") or {}
    if not isinstance(solver, dict):
        raise _FormatError(f"{path}: 'solver' must be a mapping")
    unknown = set(solver) - _SOLVER_KEYS
    if unknown:
        raise _FormatError(
            f"{path}: solver has unknown keys {sorted(unknown)}; allowed "
            f"keys are {sorted(_SOLVER_KEYS)}")
    if not isinstance(document["methods"], list):
        raise _FormatError(f"{path}: 'methods' must be a list")
    return document


def _write_bench_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["setting", "method", "mse", "bias", "pve_mse",
                         "failures", "replications"])
        for row in rows:
            writer.writerow([
                config_label(row.config),
                row.method,
                "" if row.mse is None else _fmt(row.mse),
                "" if row.bias is None else _fmt(row.bias),
                "" if row.pve_mse is None else _fmt(row.pve_mse),
                str(row.failures),
                str(row.replications),
            ])


def cmd_bench(args: argparse.Namespace) -> int:
    document = _load_bench_config(args.config)
    methods = [str(m) for m in document["methods"]]
    if not methods:
        print("bench: the config's method list is empty", file=sys.stderr)
        return EXIT_USAGE
    try:
        configs = [SimulationConfig(seed=0, **setting)
                   for setting in document["settings"]]
        opts = SolverOptions(**(document.get("solver") or {}))
        for method in methods:
            parse_method(method)
    except (PassFpcaError, TypeError) as exc:
        raise _FormatError(f"{args.config}: invalid setting: {exc}") from None
    rows = run_benchmark(configs, methods,
                         replications=int(document["replications"]),
                         seed=int(document["seed"]), opts=opts)
    out_path = args.out or document.get("output") or "bench_results.csv"
    summary_path = (args.summary or document.get("summary")
                    or "bench_summary.json")
    _write_bench_csv(out_path, rows)
    failed = [{"setting": config_label(row.config), "method": row.method}
              for row in rows if row.failed]
    _write_json(summary_path, {
        "command": "bench",
        "seed": int(document["seed"]),
        "replications": int(document["replications"]),
        "methods": methods,
        "settings": [config_label(c) for c in configs],
        "solver": asdict(opts),
        "rows": len(rows),
        "failed_cells": failed,
        "results_csv": out_path,
    })
    for cell in failed:
        print(f"bench: warning: no successful replicate for "
              f"{cell['method']} on {cell['setting']}", file=sys.stderr)
    if failed and args.strict:
        return EXIT_STRICT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passfpca",
        description="Robust functional PCA: pairwise self-normalized "
                    "covariance estimation, eigenratio recovery, and a "
                    "simulation benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="generate synthetic curves and their truth")
    sim.add_argument("--n", type=int, required=True,
                     help="number of curves")
    sim.add_argument("--n-points", type=int, default=101,
                     help="grid size (default 101)")
    sim.add_argument("--law", choices=SCORE_LAWS, default="gaussian",
                     help="score distribution (default gaussian)")
    sim.add_argument("--outliers", choices=OUTLIER_SCHEMES, default="none",
                     help="contamination scheme (default none)")
    sim.add_argument("--outlier-fraction", type=float, default=0.05,
                     help="fraction of contaminated curves (default 0.05)")
    sim.add_argument("--noise-sd", type=float, default=0.0,
                     help="measurement-noise standard deviation "
                          "(default 0)")
    sim.add_argument("--seed", type=int, required=True,
                     help="seed; the only source of randomness")
    sim.add_argument("--out", required=True, help="curves CSV path")
    sim.add_argument("--truth", default=None,
                     help="truth CSV path (default: curves path with "
                          "_truth.csv suffix)")
    sim.set_defaults(func=cmd_simulate)

    # Flags shared by fit and ratio.
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--input", required=True, help="curves CSV path")
    solver.add_argument("--q", type=int, default=4,
                        help="number of components (default 4)")
    solver.add_argument("--trim", type=float, default=0.02,
                        help="pair trimming fraction for the ratio solver "
                             "(default 0.02)")
    solver.add_argument("--tol", type=float, default=1e-8,
                        help="ratio solver tolerance (default 1e-8)")
    solver.add_argument("--max-iter", type=int, default=500,
                        help="ratio solver iteration budget (default 500)")

    fit = sub.add_parser(
        "fit", parents=[solver],
        help="estimate eigenfunctions (and ratios) from curves")
    fit.add_argument("--method", choices=EIGENFUNCTION_METHODS,
                     default="pass",
                     help="surface estimator (default pass)")
    fit.add_argument("--smoothing",
                     choices=("none", SCHEME_PRE_SMOOTH, SCHEME_SMOOTH_CF),
                     default="none",
                     help="noise handling scheme (default none)")
    fit.add_argument("--basis-size", type=int, default=15,
                     help="marginal spline basis for smooth_cf "
                          "(default 15)")
    fit.add_argument("--eigenfunctions", required=True,
                     help="output CSV for eigenfunctions")
    fit.add_argument("--result", default=None,
                     help="output JSON result document")
    fit.set_defaults(func=cmd_fit)

    ratio = sub.add_parser(
        "ratio", parents=[solver],
        help="estimate eigenvalue ratios from curves")
    ratio.add_argument("--solver", choices=("mc", "elliptical"),
                       default="mc",
                       help="expectation evaluation (default mc)")
    ratio.add_argument("--smoothing",
                       choices=("none", SCHEME_PRE_SMOOTH),
                       default="none",
                       help="optional curve pre-smoothing (default none)")
    ratio.add_argument("--result", required=True,
                       help="output JSON result document")
    ratio.set_defaults(func=cmd_ratio)

    bench = sub.add_parser(
        "bench", help="run a replicated benchmark from a YAML config")
    bench.add_argument("--config", required=True,
                       help="YAML benchmark configuration")
    bench.add_argument("--out", default=None,
                       help="results CSV path (overrides config)")
    bench.add_argument("--summary", default=None,
                       help="summary JSON path (overrides config)")
    bench.add_argument("--strict", action="store_true",
                       help="exit nonzero if any cell has no successful "
                            "replicate")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"passfpca: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _FormatError as exc:
        print(f"passfpca: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except PassFpcaError as exc:
        print(f"passfpca: estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
