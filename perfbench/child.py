"""One ``passfpca`` CLI call in a fresh interpreter, with its timings.

Usage::

    python3 perfbench/child.py REPORT.json [--trace] [--setup-only] -- ARGS...

The parent puts the checkout's ``src`` directory first on ``PYTHONPATH``
and names it in ``PERFBENCH_SRC``; the call is refused if ``passfpca``
was imported from anywhere else.  REPORT.json receives the monotonic
times at which ``passfpca.cli`` was ready and at which ``main`` started
and returned, the exit code, the peak resident memory, the live BLAS
thread count and, with ``--trace``, the spans.
"""

import ctypes
import json
import os
import resource
import sys
import time
import traceback


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be read."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return int(fn())
    except OSError:
        pass
    return None


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    report_path, flags, cli_args = args[0], args[1:split], args[split + 1:]
    import passfpca.cli

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(passfpca.cli.__file__).startswith(src + os.sep):
        print(f"passfpca was imported from {passfpca.cli.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 97
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    report = {"ready": time.monotonic()}
    if "--setup-only" not in flags:
        report["start"] = time.monotonic()
        try:
            report["exit_code"] = passfpca.cli.main(cli_args)
        except SystemExit as exc:
            report["exit_code"] = exc.code
        except Exception:
            # A crash is one failed operation of the run, not the end of
            # the run: report it the way the interpreter would exit.
            traceback.print_exc()
            report["exit_code"] = 1
        report["end"] = time.monotonic()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["blas_threads"] = blas_threads()
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
