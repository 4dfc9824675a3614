"""Per-layer tracing of cricpred from outside the package.

``install(tracer)`` replaces the public functions of each module with
wrappers that open a span around the call, then rebinds every name under
which another cricpred module imported the same function, so calls made
through ``from .features import encode`` are seen too. Nothing in the
package is edited; a process that never calls ``install`` runs the
original functions.

A span has a name, start, end, parent and the id of the CLI call
(operation) it belongs to. Spans and counters stay in memory until the run
ends. The split kernels are called about half a million times in one
cv_sweep pass, so they are counted and timed without keeping one span
each; their time is still subtracted from the enclosing span's self time.

A layer's self time is the time its spans cover minus the time their
child spans cover. The layers' self times, the time spent outside any
span and the tracer's own bookkeeping add up to the traced wall time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import time

KINDS = ("naive_bayes", "gradient_boosting", "linear_svm",
         "logistic_regression", "random_forest", "mlp")
LAYERS = ("cli", "dataset", "scoring", "strength", "features", "evaluation",
          "models", "tree", "kernels")

# Per-layer metric -> (unit, end-to-end metric it should move, workloads).
# Values are per pass of the job. A ``_s`` metric is the busy time of the
# named calls, children included; ``self_s.<layer>`` is the layer's self
# time.
PER_LAYER = {
    "features.rfe_s": ("s", "wall_s (~48%)", "select_fit_report only"),
    "features.rfe_logistic_fits": ("count", "wall_s", "select_fit_report only"),
    "features.rfe_logistic_s": ("s", "wall_s", "select_fit_report only"),
    "features.rfe_logistic_rows": ("rows", "wall_s", "select_fit_report only"),
    "tree.fit_calls": ("count", "wall_s", "cv_sweep (~74%), select_fit_report (~25%)"),
    "tree.fit_s": ("s", "wall_s", "cv_sweep, select_fit_report"),
    "tree.nodes": ("count", "wall_s", "cv_sweep, select_fit_report"),
    "kernels.split_calls": ("count", "wall_s", "cv_sweep, select_fit_report"),
    "kernels.split_s": ("s", "wall_s", "cv_sweep, select_fit_report"),
    "kernels.split_rows": ("rows", "wall_s", "cv_sweep, select_fit_report"),
    # computed, not measured: two float64 inputs read per row
    "kernels.bytes_computed": ("bytes", "wall_s", "cv_sweep, select_fit_report"),
    "tree.predict_calls": ("count", "call_p99_ms, calls_per_s", "toss_predict; cv_sweep wall_s"),
    "tree.predict_rows": ("rows", "call_p99_ms, calls_per_s", "toss_predict; cv_sweep wall_s"),
    "tree.predict_s": ("s", "call_p99_ms, calls_per_s", "toss_predict; cv_sweep wall_s"),
    "models.load_document_s": ("s", "call_p99_ms, calls_per_s, peak_rss_mb", "toss_predict"),
    "models.load_document_bytes": ("bytes", "call_p99_ms, calls_per_s", "toss_predict"),
    "models.save_document_s": ("s", "setup_s, wall_s", "select_fit_report"),
    "models.doc_bytes": ("bytes", "calls_per_s, peak_rss_mb on toss_predict", "select_fit_report"),
    **{f"models.train_s.{k}": ("s", "wall_s", "cv_sweep, select_fit_report")
       for k in KINDS},
    **{f"models.predict_s.{k}": ("s", "wall_s, calls_per_s", "all three")
       for k in KINDS},
    "evaluation.cv_s": ("s", "wall_s", "cv_sweep"),
    **{f"evaluation.cv_s.{k}": ("s", "wall_s, call_p99_ms", "cv_sweep")
       for k in KINDS},
    "evaluation.folds": ("count", "wall_s", "cv_sweep"),
    "evaluation.holdout_s": ("s", "wall_s", "select_fit_report"),
    "features.encode_s": ("s", "wall_s", "select_fit_report, cv_sweep"),
    "features.encode_rows": ("rows", "wall_s", "select_fit_report, cv_sweep"),
    "features.encode_values_calls": ("count", "wall_s, calls_per_s", "select_fit_report, toss_predict"),
    "strength.ledger_s": ("s", "wall_s (<5%)", "select_fit_report, cv_sweep"),
    "strength.ledger_calls": ("count", "wall_s", "select_fit_report, cv_sweep"),
    "strength.ledger_entries": ("count", "wall_s", "select_fit_report, cv_sweep"),
    "dataset.load_s": ("s", "wall_s", "select_fit_report, cv_sweep"),
    "dataset.rows": ("rows", "wall_s", "select_fit_report, cv_sweep"),
    "scoring.fit_s": ("s", "wall_s", "select_fit_report, cv_sweep"),
    "cli.self_s": ("s", "call_p99_ms, calls_per_s", "toss_predict, as overhead per call"),
    # Median CLI call latency. Not gated end to end: a pass of
    # select_fit_report or cv_sweep has only 6 or 7 calls, most of them
    # short, so their median samples the machine's momentary speed.
    "cli.call_p50_ms": ("ms", "calls_per_s", "toss_predict"),
    **{f"self_s.{layer}": ("s", "wall_s", "all three") for layer in LAYERS
       if layer != "cli"},
    "trace.wall_s": ("s", "wall_s (traced)", "all three"),
    "trace.outside_s": ("s", "none: benchmark loop outside any CLI call", "all three"),
    "trace.spans": ("count", "none: spans kept", "all three"),
    "trace.hooks_s": ("s", "none: tracer's counter hooks", "all three"),
    "trace.accounted_frac": ("fraction", "none: layer self times over traced wall", "all three"),
    "trace_overhead_s": ("s", "none: estimated tracing cost", "all three"),
    "ops_failed_frac": ("fraction", "none: 0 on a correct program", "all three"),
    # repeats exactly for a seed, but spreads too much across seeds to gate
    "accuracy": ("fraction", "none: same-seed repeats must agree exactly", "all three"),
}


def _nodes(tree):
    if "value" in tree:
        return 1
    return 1 + _nodes(tree["left"]) + _nodes(tree["right"])


# Counter hooks: each receives the counters, the call's arguments and its
# result, and runs after the span has ended.
def _count_encode(c, args, result):
    c["features.encode_rows"] += result.X.shape[0]


def _count_ledger(c, args, result):
    c["strength.ledger_entries"] += len(result.entries)


def _count_load_matches(c, args, result):
    c["dataset.rows"] += len(result.matches)


def _count_load_players(c, args, result):
    c["dataset.rows"] += len(result)


def _count_rfe_logistic(c, args, result):
    c["features.rfe_logistic_rows"] += args[0].shape[0]


def _count_tree_fit(c, args, result):
    c["tree.nodes"] += _nodes(result)


def _count_tree_predict(c, args, result):
    c["tree.predict_rows"] += args[1].shape[0]


def _count_split(c, args, result):
    n = args[0].shape[0]
    c["kernels.split_rows"] += n
    c["kernels.bytes_computed"] += 16 * n


def _count_cv(c, args, result):
    c["evaluation.folds"] += len(result.per_fold)


def _count_save(c, args, result):
    c["models.doc_bytes"] += os.path.getsize(args[1])


def _count_load_doc(c, args, result):
    c["models.load_document_bytes"] += os.path.getsize(args[0])


# (module, attribute, span name, counter hook)
TARGETS = [
    ("cricpred.cli", "main", "cli.main", None),
    ("cricpred.dataset", "load_matches", "dataset.load_matches", _count_load_matches),
    ("cricpred.dataset", "load_player_performances", "dataset.load_players",
     _count_load_players),
    ("cricpred.scoring", "fit_points_model", "scoring.fit_points_model", None),
    ("cricpred.strength", "build_ledger", "strength.build_ledger", _count_ledger),
    ("cricpred.features", "build_schema", "features.build_schema", None),
    ("cricpred.features", "encode", "features.encode", _count_encode),
    ("cricpred.features", "encode_values", "features.encode_values", None),
    ("cricpred.features", "rfe_select", "features.rfe_select", None),
    # the logistic fit that RFE calls, as bound in the features module
    ("cricpred.features", "fit_logistic", "features.rfe_logistic", _count_rfe_logistic),
    ("cricpred.evaluation", "cross_validate", "evaluation.cross_validate", _count_cv),
    ("cricpred.evaluation", "evaluate_holdout", "evaluation.evaluate_holdout", None),
    ("cricpred.models.base", "train", "models.train", None),
    ("cricpred.models.base", "serialize", "models.serialize", None),
    ("cricpred.models.base", "deserialize", "models.deserialize", None),
    ("cricpred.models.base", "save_document", "models.save_document", _count_save),
    ("cricpred.models.base", "load_document", "models.load_document", _count_load_doc),
    ("cricpred.models.tree", "fit_classification_tree", "tree.fit_classification",
     _count_tree_fit),
    ("cricpred.models.tree", "fit_regression_tree", "tree.fit_regression",
     _count_tree_fit),
    ("cricpred.models.tree", "tree_predict_matrix", "tree.predict_matrix",
     _count_tree_predict),
    # the split kernels as bound in the tree module, their only caller
    ("cricpred.models.tree", "best_split_gini", "kernels.best_split_gini", _count_split),
    ("cricpred.models.tree", "best_split_sse", "kernels.best_split_sse", _count_split),
]
# Spans named per classifier kind, from the ClassifierSpec first argument.
BY_KIND = {"models.train", "evaluation.cross_validate"}
# Spans too numerous to keep one by one: counted and timed only.
AGGREGATED = {"kernels.best_split_gini", "kernels.best_split_sse"}


class Tracer:
    """Stack of open spans, per-name totals and the list of kept spans."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []          # open frames: [span id, child seconds]
        self.spans = []          # (id, parent id, op id, name, start, end)
        self.totals = {}         # name -> [calls, seconds, self seconds]
        self.counters = collections.Counter()
        self.hook_s = 0.0        # time spent in counter hooks
        self.wrapped_calls = 0
        self._next_id = 1
        self._op = 0

    def wrap(self, fn, name, hook=None, kind=None):
        """``fn`` inside a span called ``name``, or ``name.<kind(args)>``."""
        keep = name not in AGGREGATED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer._next_id
            tracer._next_id += 1
            if not stack:
                tracer._op = span_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                span = name if kind is None else f"{name}.{kind(args)}"
                totals = tracer.totals.get(span)
                if totals is None:
                    totals = tracer.totals[span] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += end - start
                totals[2] += end - start - frame[1]
                if keep:
                    tracer.spans.append((span_id, parent, tracer._op, span,
                                         start, end))
                tracer.wrapped_calls += 1
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                hook(tracer.counters, args, result)
                done = tracer.clock()
                tracer.hook_s += done - end
                if stack:
                    stack[-1][1] += done - end
            return result

        return wrapper

    def self_seconds(self):
        """Layer -> self seconds; the layer is the span name's prefix."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span, (_, _, self_s) in self.totals.items():
            out[span.split(".", 1)[0]] += self_s
        return out

    def busy(self, span):
        return self.totals.get(span, [0, 0.0, 0.0])[1]

    def calls(self, span):
        return self.totals.get(span, [0, 0.0, 0.0])[0]


def install(tracer):
    """Wrap every target. A function wrapped in the module that defines it
    is also rebound wherever another cricpred module imported it; one
    wrapped under another module's name is wrapped for that caller only."""
    for module_name, attr, span, hook in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        kind = _spec_kind if span in BY_KIND else None
        wrapper = tracer.wrap(original, span, hook, kind)
        setattr(module, attr, wrapper)
        if original.__module__ != module_name:
            continue
        for other_name, other in list(sys.modules.items()):
            if other_name.split(".")[0] != "cricpred":
                continue
            for other_attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, other_attr, wrapper)
    trained = importlib.import_module("cricpred.models.base").TrainedClassifier
    trained.predict_proba_matrix = tracer.wrap(
        trained.predict_proba_matrix, "models.predict", kind=_model_kind)


def _spec_kind(args):
    return args[0].kind


def _model_kind(args):
    return args[0].spec.kind


def wrapper_cost(repeats=5, calls=10000):
    """Seconds one wrapped call adds over a bare call, best of ``repeats``."""
    def noop(x):
        return x

    wrapped = Tracer().wrap(noop, "calibration")
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def per_layer_metrics(tracer, wall_s, passes, cost_per_call):
    """The PER_LAYER metrics that come from the trace of one run. Counts and
    seconds are per pass of the job, so runs with different pass counts
    compare; ``wall_s`` is the traced time of all passes."""
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counters
    fits = ("tree.fit_classification", "tree.fit_regression")
    splits = ("kernels.best_split_gini", "kernels.best_split_sse")
    layer_self = tracer.self_seconds()
    m = {
        "features.rfe_s": busy("features.rfe_select"),
        "features.rfe_logistic_fits": calls("features.rfe_logistic"),
        "features.rfe_logistic_s": busy("features.rfe_logistic"),
        "features.rfe_logistic_rows": counts["features.rfe_logistic_rows"],
        "tree.fit_calls": sum(calls(n) for n in fits),
        "tree.fit_s": sum(busy(n) for n in fits),
        "tree.nodes": counts["tree.nodes"],
        "kernels.split_calls": sum(calls(n) for n in splits),
        "kernels.split_s": sum(busy(n) for n in splits),
        "kernels.split_rows": counts["kernels.split_rows"],
        "kernels.bytes_computed": counts["kernels.bytes_computed"],
        "tree.predict_calls": calls("tree.predict_matrix"),
        "tree.predict_rows": counts["tree.predict_rows"],
        "tree.predict_s": busy("tree.predict_matrix"),
        "models.load_document_s": busy("models.load_document"),
        "models.load_document_bytes": counts["models.load_document_bytes"],
        "models.save_document_s": busy("models.save_document"),
        "models.doc_bytes": counts["models.doc_bytes"],
        **{f"models.train_s.{k}": busy(f"models.train.{k}") for k in KINDS},
        **{f"models.predict_s.{k}": busy(f"models.predict.{k}") for k in KINDS},
        "evaluation.cv_s": sum(busy(f"evaluation.cross_validate.{k}") for k in KINDS),
        **{f"evaluation.cv_s.{k}": busy(f"evaluation.cross_validate.{k}")
           for k in KINDS},
        "evaluation.folds": counts["evaluation.folds"],
        "evaluation.holdout_s": busy("evaluation.evaluate_holdout"),
        "features.encode_s": busy("features.encode"),
        "features.encode_rows": counts["features.encode_rows"],
        "features.encode_values_calls": calls("features.encode_values"),
        "strength.ledger_s": busy("strength.build_ledger"),
        "strength.ledger_calls": calls("strength.build_ledger"),
        "strength.ledger_entries": counts["strength.ledger_entries"],
        "dataset.load_s": busy("dataset.load_matches") + busy("dataset.load_players"),
        "dataset.rows": counts["dataset.rows"],
        "scoring.fit_s": busy("scoring.fit_points_model"),
        "cli.self_s": layer_self["cli"],
        **{f"self_s.{layer}": layer_self[layer] for layer in LAYERS
           if layer != "cli"},
        "trace.wall_s": wall_s,
        # every timed operation is a cli.main call, the only top-level span
        "trace.outside_s": wall_s - busy("cli.main"),
        "trace.spans": len(tracer.spans),
        "trace.hooks_s": tracer.hook_s,
        "trace_overhead_s": tracer.wrapped_calls * cost_per_call + tracer.hook_s,
    }
    m = {name: value / passes for name, value in m.items()}
    m["trace.accounted_frac"] = sum(layer_self.values()) / wall_s
    return m
