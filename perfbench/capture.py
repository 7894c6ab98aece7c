"""Capture the reference outputs every benchmark run is checked against.

Usage, from the root of a checkout of the code whose outputs become the
reference::

    python3 perfbench/capture.py [WORKLOAD ...]

For each input set ``0 .. BANK-1`` of each named workload (default: all
three) it runs the workload's calls once and writes their checked
content to ``perfbench/references/<workload>.json``.  Run it only when
the program's results are meant to change; the committed references come
from the seed code.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main(names: list[str]) -> int:
    root = os.getcwd()
    for name in names or run.WORKLOADS:
        captured = {}
        for index in range(workloads.BANK):
            work = os.path.join(run.HERE, ".work", f"capture-{name}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            try:
                ops = workloads.prepare(name, index, work)
                runner = run.Runner(root, work)
                outputs = []
                for op in ops:
                    report = runner.spawn(op.argv, traced=False)
                    if report["exit_code"] != 0:
                        raise run.MeasureError(
                            f"{name} input set {index}: {op.kind} exited "
                            f"with {report['exit_code']}")
                    outputs.append(workloads.extract(op))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            captured[str(index)] = outputs
            print(f"{name} input set {index} captured", flush=True)
        path = os.path.join(run.HERE, "references", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(captured, handle, indent=0, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
