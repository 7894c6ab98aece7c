"""Spans around the public functions of each ``passfpca`` module.

:class:`Tracer` runs inside the child interpreter.  It wraps every public
function of the layer modules and rebinds each wrapper wherever a
``passfpca`` module holds the original, so calls through ``from ...
import`` bindings (``cli`` and ``metrics`` import most of the estimators
that way) and through module globals (``eigenratio_elliptical`` looks up
``elliptical_expectation``) are both seen.  A span is ``[name, start,
end, parent, attrs]``; spans stay in memory and the child writes them out
when the CLI call returns.

:func:`layer_metrics` runs in the benchmark process and turns the spans
of one workload iteration into the per-layer metrics.  Work the tracer
itself does after a call (counting retained pairs, the contraction
diagnostic) is recorded as a ``trace.*`` child span, so it is charged to
the tracer and not to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "simulate", "estimators", "eigenratio", "smoothing",
          "metrics")

# Bytes per pair and component held by pair_scores: float64 raw and
# standardized projections plus the boolean retention mask.
PAIR_SCORE_BYTES = 17


class Tracer:
    """Records nested spans of wrapped calls in one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"passfpca.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    self._originals[name] = fn
                    replacements[id(fn)] = self._wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "passfpca" and not mod_name.startswith(
                    "passfpca."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        annotate = _ANNOTATORS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if annotate is not None:
                extra = self._open("trace.annotate")
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[index][4] = annotate(self, bound.arguments,
                                                    result)
                except Exception as exc:
                    # The program's own call succeeded; a diagnostic
                    # the tracer adds must not change its outcome.
                    self.spans[index][4] = {"error": repr(exc)}
                finally:
                    self._close(extra)
            return result

        return wrapper


def _pass_covariance(tracer, args, result):
    sample = args["sample"]
    n = sample.n
    return {"pair_points": n * (n - 1) // 2 * sample.grid.n_points}


def _pair_scores(tracer, args, result):
    return {"pairs_total": result.n_pairs,
            "pairs_joint_retained": int(result.joint_mask.sum()),
            "bytes": result.n_pairs * result.q * PAIR_SCORE_BYTES}


def _solver(tracer, args, result):
    return {"iterations": result.iterations,
            "converged": int(result.converged)}


def _mc(tracer, args, result):
    attrs = _solver(tracer, args, result)
    condition = tracer._originals["eigenratio.convergence_condition"]
    diagnostic = condition(args["pairscores"], result.ratios[1:])
    attrs["margin_min"] = float(diagnostic.margin.min())
    return attrs


def _collect_replicates(tracer, args, result):
    return {"evaluations": args["replications"] * len(args["methods"]),
            "failures": sum(r.failures for r in result.values())}


_ANNOTATORS = {
    "estimators.pass_covariance": _pass_covariance,
    "eigenratio.pair_scores": _pair_scores,
    "eigenratio.eigenratio_mc": _mc,
    "eigenratio.eigenratio_elliptical": _solver,
    "metrics.collect_replicates": _collect_replicates,
}


def layer_metrics(processes: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one workload iteration.

    ``processes`` holds the span lists of the iteration's CLI calls.
    Function times are inclusive (a span's whole duration); ``<layer>.
    self_s`` is the layer's span time minus the time its child spans
    cover, and ``<layer>.self_share`` divides it by ``trace.root_s``, the
    summed duration of the outermost spans.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list] = {}
    self_time = {layer: 0.0 for layer in LAYERS + ("trace",)}
    root_s = 0.0
    first_smooth = 0.0
    n_spans = 0
    for spans in processes:
        n_spans += len(spans)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        seen_smooth = False
        for (name, start, end, parent, span_attrs), covered in zip(
                spans, child_time):
            duration = end - start
            self_time[name.split(".")[0]] += duration - covered
            if parent < 0:
                root_s += duration
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            for key, value in span_attrs.items():
                attrs.setdefault(f"{name}.{key}", []).append(value)
            if name == "smoothing.smooth_surface" and not seen_smooth:
                seen_smooth = True
                first_smooth += duration

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    def s(key):
        return sum(attrs.get(key, []))

    pairs_total = s("eigenratio.pair_scores.pairs_total")
    mc_calls = c("eigenratio.eigenratio_mc")
    margins = attrs.get("eigenratio.eigenratio_mc.margin_min", [])
    out = {
        "estimators.pass_covariance_s": t("estimators.pass_covariance"),
        "estimators.pass_covariance_calls": c("estimators.pass_covariance"),
        "estimators.pass_covariance_pair_points":
            s("estimators.pass_covariance.pair_points"),
        "estimators.sample_covariance_s": t("estimators.sample_covariance"),
        "estimators.sample_covariance_calls":
            c("estimators.sample_covariance"),
        "estimators.eigendecompose_s": t("estimators.eigendecompose"),
        "estimators.eigendecompose_calls": c("estimators.eigendecompose"),
        "estimators.mspc_s": t("estimators.mspc"),
        "estimators.mspc_calls": c("estimators.mspc"),
        "eigenratio.pair_scores_s": t("eigenratio.pair_scores"),
        "eigenratio.pair_scores_calls": c("eigenratio.pair_scores"),
        "eigenratio.pairs_total": pairs_total,
        "eigenratio.pairs_joint_retained":
            s("eigenratio.pair_scores.pairs_joint_retained"),
        "eigenratio.joint_retained_share":
            (s("eigenratio.pair_scores.pairs_joint_retained") / pairs_total
             if pairs_total else 0.0),
        "eigenratio.pair_scores_bytes": s("eigenratio.pair_scores.bytes"),
        "eigenratio.mc_s": t("eigenratio.eigenratio_mc"),
        "eigenratio.mc_calls": mc_calls,
        "eigenratio.mc_iterations": s("eigenratio.eigenratio_mc.iterations"),
        "eigenratio.mc_converged_share":
            (s("eigenratio.eigenratio_mc.converged") / mc_calls
             if mc_calls else 0.0),
        "eigenratio.contraction_margin_min":
            min(margins) if margins else 0.0,
        "eigenratio.elliptical_s": t("eigenratio.eigenratio_elliptical"),
        "eigenratio.elliptical_calls": c("eigenratio.eigenratio_elliptical"),
        "eigenratio.elliptical_iterations":
            s("eigenratio.eigenratio_elliptical.iterations"),
        "eigenratio.elliptical_expectation_calls":
            c("eigenratio.elliptical_expectation"),
        "smoothing.presmooth_s": t("smoothing.presmooth"),
        "smoothing.presmooth_calls": c("smoothing.presmooth"),
        "smoothing.smooth_surface_s": t("smoothing.smooth_surface"),
        "smoothing.smooth_surface_calls": c("smoothing.smooth_surface"),
        "smoothing.smooth_surface_first_s": first_smooth,
        "cli.read_curves_s": t("cli.read_curves_csv"),
        "simulate.generate_s": t("simulate.generate"),
        "simulate.generate_calls": c("simulate.generate"),
        "metrics.collect_replicates_s": t("metrics.collect_replicates"),
        "metrics.evaluations": s("metrics.collect_replicates.evaluations"),
        "metrics.failures": s("metrics.collect_replicates.failures"),
        "trace.root_s": root_s,
        "trace.spans": n_spans,
        "trace.self_s": self_time["trace"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
        out[f"{layer}.self_share"] = (self_time[layer] / root_s
                                      if root_s else 0.0)
    return out
