"""Benchmark of the ``passfpca`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit_large --seed 0 --seconds 38 \\
        --trace 0

``--workload all`` runs the three workloads one after another.  Each CLI
call runs in a fresh interpreter through ``passfpca.cli.main``, one at a
time (a closed loop with one client), because a CLI user pays the import
on every call.  The run first writes the workload's inputs from the seed,
then spawns four import-only interpreters, then repeats the workload's
calls for as long as another iteration is likely to end within
``--seconds`` (at least once), and checks every call's outputs against
the references captured from the seed code.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run alternates untraced and
traced iterations and the object holds the per-layer metrics of the traced
ones (see ``tracer.py``).  The lines before it are a readable report and a
``report:`` JSON line with every figure, its sample count and the
environment.  The run exits with a nonzero code, and prints no result,
when the checkout has no ``src/passfpca`` or a call cannot be measured.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fit_large", "sweep_small", "dense_noisy")
SETUP_SPAWNS = 4
CALL_TIMEOUT_S = 150
# One BLAS thread per process: in a quick probe on a two-core box it
# narrowed the spread of the dense_noisy fit time from about 25% to 12%.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class MeasureError(Exception):
    """A call could not be measured at all."""


class Runner:
    """Spawns ``child.py`` interpreters and collects their reports."""

    def __init__(self, root: str, work: str):
        self.work = work
        src = os.path.join(root, "src")
        self.env = dict(os.environ, **BLAS_ENV, PERFBENCH_SRC=src)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        self.count = 0

    def spawn(self, argv: list[str] | None, traced: bool) -> dict:
        """Run one child; ``argv=None`` only imports ``passfpca.cli``."""
        self.count += 1
        report_path = os.path.join(self.work, f"report{self.count}.json")
        log_path = os.path.join(self.work, f"log{self.count}.txt")
        flags = (["--trace"] if traced else []) + (
            ["--setup-only"] if argv is None else [])
        command = [sys.executable, os.path.join(HERE, "child.py"),
                   report_path, *flags, "--", *(argv or [])]
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(command, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise MeasureError(f"{command} ran over {CALL_TIMEOUT_S} s")
        if code != 0 or not os.path.exists(report_path):
            with open(log_path) as log:
                raise MeasureError(
                    f"child exited with {code}: {log.read()[-2000:]}")
        with open(report_path) as handle:
            report = json.load(handle)
        report["setup_s"] = report["ready"] - spawned
        if argv is not None:
            report["call_s"] = report["end"] - report["start"]
        return report


def _median(values):
    return statistics.median(values) if values else None


def environment(seed: int, index: int, blas_threads) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_thread_pin": dict(BLAS_ENV, reason=(
            "one BLAS thread per process steadies the timings: in a probe "
            "on two cores it narrowed the dense_noisy fit time spread from "
            "about 25% to about 12%")),
        "seed": seed,
        "input_set": f"{index} of {workloads.BANK}",
    }


def run_iteration(runner: Runner, ops, reference, traced: bool) -> dict:
    """Run the workload's calls once; check and summarize them."""
    calls = []
    for op, expected in zip(ops, reference):
        report = runner.spawn(op.argv, traced)
        failed = op.evaluations
        got = None
        if report["exit_code"] == 0:
            got = workloads.extract(op)
            failed = workloads.failed_evaluations(op, got, expected)
        calls.append({"op": op, "report": report, "got": got,
                      "failed": failed})
    layers = None
    if traced:
        layers = tracer.layer_metrics(
            [c["report"]["spans"] for c in calls])
    accuracy = {}
    for call in calls:
        if call["got"] is not None:
            accuracy.update(workloads.accuracy(call["op"], call["got"]))
    return {
        "traced": traced,
        "calls": calls,
        "call_s": sum(c["report"]["call_s"] for c in calls),
        "peak_rss_mb": max(c["report"]["maxrss_kb"] for c in calls) / 1024,
        "setups": [c["report"]["setup_s"] for c in calls],
        "attempted": sum(c["op"].evaluations for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "accuracy": accuracy,
        "layers": layers,
    }


def load_reference(workload: str, index: int) -> list[dict]:
    path = os.path.join(HERE, "references", f"{workload}.json")
    with open(path) as handle:
        return json.load(handle)[str(index)]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            root: str) -> dict:
    """One benchmark run of one workload."""
    index = seed % workloads.BANK
    work = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ops = workloads.prepare(workload, index, work)
        reference = load_reference(workload, index)
        runner = Runner(root, work)
        # Untimed: compiles bytecode and warms the file cache, which a
        # user pays once per install, not per call.
        runner.spawn(None, traced=trace)
        started = time.monotonic()
        setups = {False: [], True: []}
        for _ in range(SETUP_SPAWNS):
            for traced in ((False, True) if trace else (False,)):
                setups[traced].append(
                    runner.spawn(None, traced)["setup_s"])
        iterations = []
        walls = []
        while True:
            traced = trace and len(iterations) % 2 == 1
            begun = time.monotonic()
            iteration = run_iteration(runner, ops, reference, traced)
            walls.append(time.monotonic() - begun)
            setups[traced].extend(iteration["setups"])
            iterations.append(iteration)
            # Start no iteration that would likely end past the deadline,
            # so a run lasts about --seconds however slow the machine.
            projected = time.monotonic() - started + statistics.median(walls)
            if (projected > seconds
                    and len(iterations) >= (2 if trace else 1)):
                break
        blas = iterations[0]["calls"][0]["report"]["blas_threads"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, trace, iterations, setups,
                     environment(seed, index, blas))


def summarize(workload: str, trace: bool, iterations, setups, env) -> dict:
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    figures = {
        "setup_s": (_median(setups[False]), "s", len(setups[False])),
        "call_s": (_median([it["call_s"] for it in plain]), "s",
                   len(plain)),
        "peak_rss_mb": (_median([it["peak_rss_mb"] for it in plain]), "MB",
                        len(plain)),
    }
    by_kind: dict[str, list] = {}
    for it in plain:
        for call in it["calls"]:
            by_kind.setdefault(call["op"].kind, []).append(
                call["report"]["call_s"])
    if "fit" in by_kind:
        figures["fit_s"] = (_median(by_kind["fit"]), "s",
                            len(by_kind["fit"]))
    if "ratio" in by_kind:
        figures["ratio_s"] = (_median(by_kind["ratio"]), "s",
                              len(by_kind["ratio"]))
    if "bench" in by_kind:
        replicates = workloads.SWEEP_REPLICATIONS * len(
            workloads.SWEEP_SETTINGS)
        figures["replicates_per_s"] = (
            _median([replicates / t for t in by_kind["bench"]]), "1/s",
            len(by_kind["bench"]))
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    figures["failed_share"] = (failed / attempted, "ratio", attempted)
    for key, unit in (("phi1_mse", "L2^2"), ("pve1_mse", "fraction^2")):
        values = [it["accuracy"][key] for it in iterations
                  if key in it["accuracy"]]
        figures[key] = (_median(values), unit, len(values))

    checks = []
    metrics = {}
    if trace:
        layer_runs = [it["layers"] for it in traced]
        for key in layer_runs[0]:
            values = [run[key] for run in layer_runs]
            # A count stays a count: take a measured value, not a mean.
            metrics[key] = (statistics.median_low(values)
                            if all(isinstance(v, int) for v in values)
                            else statistics.median(values))
        metrics["trace.overhead_call_s"] = (
            _median([it["call_s"] for it in traced]) - figures["call_s"][0])
        metrics["trace.overhead_setup_s"] = (
            _median(setups[True]) - figures["setup_s"][0])
        for key, want in workloads.EXPECTED_COUNTS[workload].items():
            got = [run[key] for run in layer_runs]
            if any(value != want for value in got):
                checks.append(f"span count {key}: expected {want}, got "
                              f"{got}")
        for it in traced:
            for call, untraced in zip(it["calls"], plain[0]["calls"]):
                if call["got"] != untraced["got"]:
                    checks.append(f"traced {call['op'].kind} output differs "
                                  f"from the untraced output")
    else:
        for key in ("setup_s", "call_s", "peak_rss_mb"):
            metrics[key] = figures[key][0]
    samples = {"setup_s": setups[False],
               "call_s": [it["call_s"] for it in plain]}
    if trace:
        samples["traced_setup_s"] = setups[True]
        samples["traced_call_s"] = [it["call_s"] for it in traced]
    return {"workload": workload, "trace": trace, "figures": figures,
            "metrics": metrics, "attempted": attempted, "failed": failed,
            "checks": checks, "environment": env, "samples": samples,
            "iterations": len(iterations)}


def print_report(result: dict, spec: dict[str, str]) -> None:
    print(f"workload {result['workload']}  trace {int(result['trace'])}  "
          f"iterations {result['iterations']}  "
          f"seed {result['environment']['seed']} (input set "
          f"{result['environment']['input_set']})")
    print(f"  {'metric':<44}{'value':>16}  {'unit':<13}samples")
    for name, (value, unit, count) in result["figures"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44}{shown:>16}  {unit:<13}{count}")
    if result["trace"]:
        for name, unit in spec.items():
            print(f"  {name:<44}{result['metrics'][name]:>16.6g}  {unit}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for problem in result["checks"]:
        print(f"  CHECK FAILED: {problem}")
    doc = {key: result[key] for key in ("workload", "trace", "attempted",
                                        "failed", "checks", "environment",
                                        "samples")}
    doc["figures"] = {name: {"value": value, "unit": unit,
                             "samples": count}
                      for name, (value, unit, count)
                      in result["figures"].items()}
    print("report: " + json.dumps(doc, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "passfpca", "cli.py")):
        print("perfbench: run from the root of a passfpca checkout; "
              "src/passfpca/cli.py is missing", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics a run prints, and their units.
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = {m["name"]: m["unit"] for m in json.load(handle)[
            "per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds,
                                   bool(args.trace), root))
            if results[-1]["metrics"].keys() != spec.keys():
                raise MeasureError(
                    "the metrics measured differ from those BENCHMARK.json "
                    f"names: {sorted(results[-1]['metrics'].keys() ^ spec.keys())}")
            print_report(results[-1], spec)
    except MeasureError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for name, unit in spec.items():
            key = f"{result['workload']}.{name}" if prefix else name
            metrics[key] = {"value": result["metrics"][name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["checks"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
