"""Span tracer that wraps moscl's public functions from outside the program.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it started.  Spans stay in memory until the run
ends.  Counters are computed from the call's arguments and result at the
same boundary, after the span has closed, so a counter never adds to the
span it describes.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np
from moscl import conflict


def _file_bytes(key):
    return lambda args, result: {"bytes": os.path.getsize(args[key])}


def _sgd_counts(args, result):
    visits = len(args["order"])
    return {"visits": visits, "batches": math.ceil(visits / args["bsz"])}


def _perturbed_counts(args, result):
    T = args["T"]  # (N, G, H) perturbation tensor
    return {"forwards": T.shape[0] * T.shape[1], "computed_bytes": T.nbytes}


def _conflict_counts(args, result):
    n = len(args["X"])
    sampled = n * (n - 1) // 2
    if n > conflict.MAX_EXHAUSTIVE_N:
        sampled = min(sampled, conflict.PAIR_CAP)
    return {"pairs_kept": len(result.pairs), "pairs_sampled": sampled}


def _ohem_counts(args, result):
    visits = sum(len(batch) for batch in result.batches)
    return {"visits": visits, "ids": len(args["losses"])}


# (module, attribute, counter) for every layer boundary the benchmark times.
# "Class.method" attributes are patched on the class.
TARGETS = (
    ("kernels", "sgd_epoch", _sgd_counts),
    ("kernels", "mean_perturbed_predictions", _perturbed_counts),
    ("uncertainty", "batch_score_uncertainty",
     lambda args, result: {"streams": len(args["sample_ids"])}),
    ("uncertainty", "dump_scores", _file_bytes("path")),
    ("uncertainty", "load_scores", _file_bytes("path")),
    ("difficulty", "fuse_ranks", None),
    ("difficulty", "rank_descending", None),
    ("difficulty", "dump_difficulty_csv", _file_bytes("path")),
    ("scheduler", "mixed_order_plan", None),
    ("scheduler", "anti_mixed_plan", None),
    ("scheduler", "ohem_plan", _ohem_counts),
    ("scheduler", "random_plan", None),
    ("scheduler", "d_sum_spread", None),
    ("model", "MlpModel.forward_batch", None),
    ("model", "MlpModel.batch_losses", None),
    ("model", "MlpModel.save", None),
    ("model", "MlpModel.load", None),
    ("model", "MlpModel.per_sample_gradient", None),
    ("conflict", "conflict_loss_monotonicity", _conflict_counts),
    ("conflict", "ConflictReport.save", _file_bytes("path")),
    ("datagen", "generate", None),
    ("datagen", "save_dataset", None),
    ("datagen", "load_dataset", None),
    ("experiment", "run", None),
    ("experiment", "compare", None),
    ("experiment", "export_scatter", _file_bytes("out_csv")),
    ("cli", "main", None),
)


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._patches = []  # (owner, attribute, original value)

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        sig = inspect.signature(fn) if count is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                for key, value in count(bound, result).items():
                    counters[name][key] += value
            return result

        return traced

    def install(self):
        """Patch every TARGET in place.  Module functions are replaced in
        every moscl module that holds a reference, so names imported with
        `from .x import y` are traced too."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "moscl" or n.startswith("moscl."))]
        for module_name, attr, count in TARGETS:
            owner = sys.modules[f"moscl.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, count))
                else:
                    new = self._wrap(name, raw, count)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counters = list(self.spans), {k: dict(v) for k, v in self.counters.items()}
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def summarize(spans, counters):
    """Per span name: calls, inclusive ms, self ms, each call's ms and the
    counters recorded at that boundary.

    Self time is a span's duration minus the time its child spans cover.
    Wrapped calls nest synchronously on one thread, so children of one span
    never overlap and the time they cover is the sum of their durations.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {}
    for k, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "call_ms": []})
        dur = end - start
        entry["calls"] += 1
        entry["ms"] += 1e3 * dur
        entry["self_ms"] += 1e3 * (dur - child_s[k])
        entry["call_ms"].append(1e3 * dur)
    for name, values in counters.items():
        out[name].update(values)
    return out


def combine(setup, passes):
    """Setup counted once plus the mean over the traced passes."""
    total = {}
    for weight, summary in [(1.0, setup)] + [(1.0 / len(passes), s) for s in passes]:
        for name, entry in summary.items():
            acc = total.setdefault(name, {"call_ms": []})
            for key, value in entry.items():
                if key == "call_ms":
                    acc[key] += value
                else:
                    acc[key] = acc.get(key, 0) + weight * value
    return total


def root_seconds(spans):
    """Time covered by spans that have no traced parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


# Per-layer metrics, named <module>.<function>.<stat>.  A stat is a summary
# key (calls, ms, self_ms) or a counter, except the derived ones in
# _DERIVED.  Layers a workload does not run read 0.
PER_LAYER = (
    ("kernels.sgd_epoch.calls", "count", "lower"),
    ("kernels.sgd_epoch.self_ms", "ms", "lower"),
    ("kernels.sgd_epoch.ms_p50", "ms", "lower"),
    ("kernels.sgd_epoch.visits", "count", "lower"),
    ("kernels.sgd_epoch.batches", "count", "lower"),
    ("kernels.mean_perturbed_predictions.ms", "ms", "lower"),
    ("kernels.mean_perturbed_predictions.forwards", "count", "lower"),
    ("kernels.mean_perturbed_predictions.computed_bytes", "bytes", "lower"),
    ("uncertainty.batch_score_uncertainty.calls", "count", "lower"),
    ("uncertainty.batch_score_uncertainty.self_ms", "ms", "lower"),
    ("uncertainty.batch_score_uncertainty.streams", "count", "lower"),
    ("uncertainty.dump_scores.calls", "count", "lower"),
    ("uncertainty.dump_scores.ms", "ms", "lower"),
    ("uncertainty.dump_scores.bytes", "bytes", "lower"),
    ("uncertainty.load_scores.ms", "ms", "lower"),
    ("uncertainty.load_scores.bytes", "bytes", "lower"),
    ("difficulty.fuse_ranks.calls", "count", "lower"),
    ("difficulty.fuse_ranks.ms", "ms", "lower"),
    ("difficulty.rank_descending.ms", "ms", "lower"),
    ("difficulty.dump_difficulty_csv.ms", "ms", "lower"),
    ("difficulty.dump_difficulty_csv.bytes", "bytes", "lower"),
    ("scheduler.mixed_order_plan.ms", "ms", "lower"),
    ("scheduler.anti_mixed_plan.ms", "ms", "lower"),
    ("scheduler.ohem_plan.ms", "ms", "lower"),
    ("scheduler.ohem_plan.visit_ratio", "ratio", "lower"),
    ("scheduler.random_plan.ms", "ms", "lower"),
    ("scheduler.d_sum_spread.ms", "ms", "lower"),
    ("model.MlpModel.forward_batch.ms", "ms", "lower"),
    ("model.MlpModel.batch_losses.ms", "ms", "lower"),
    ("model.MlpModel.save.ms", "ms", "lower"),
    ("model.MlpModel.load.ms", "ms", "lower"),
    ("model.MlpModel.per_sample_gradient.calls", "count", "lower"),
    ("model.MlpModel.per_sample_gradient.ms", "ms", "lower"),
    ("conflict.conflict_loss_monotonicity.self_ms", "ms", "lower"),
    ("conflict.conflict_loss_monotonicity.pairs_kept_ratio", "ratio", "higher"),
    ("conflict.ConflictReport.save.ms", "ms", "lower"),
    ("conflict.ConflictReport.save.bytes", "bytes", "lower"),
    ("datagen.generate.ms", "ms", "lower"),
    ("datagen.save_dataset.ms", "ms", "lower"),
    ("datagen.load_dataset.ms", "ms", "lower"),
    ("experiment.run.self_ms", "ms", "lower"),
    ("experiment.compare.self_ms", "ms", "lower"),
    ("experiment.export_scatter.self_ms", "ms", "lower"),
    ("experiment.export_scatter.bytes", "bytes", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
)

_DERIVED = {
    "ms_p50": lambda e: float(np.median(e["call_ms"])),
    "visit_ratio": lambda e: e["visits"] / e["ids"],
    "pairs_kept_ratio": lambda e: e["pairs_kept"] / e["pairs_sampled"],
}


def layer_metrics(total):
    """PER_LAYER values from a combine() result."""
    out = {}
    for metric, unit, _ in PER_LAYER:
        span, stat = metric.rsplit(".", 1)
        entry = total.get(span)
        if entry is None:
            value = 0
        elif stat in _DERIVED:
            value = _DERIVED[stat](entry)
        else:
            value = entry[stat]
        out[metric] = {"value": value, "unit": unit}
    return out
