"""Span tracing around mcgraph's layer functions, and the per-layer metrics.

The tracer wraps each traced function at every name its callers look it up
by: the defining module's attribute plus every alias another mcgraph module
imported (`evaluate.train` is `contrastive.train`), and the class attribute
for `CriterionView.neighbor_arrays`. `Tensor.__mul__` resolves `mul` through
the autodiff module's globals, so patching that global catches operator
sugar as well. Nothing under `src/` is edited; `remove()` restores every name.

A span is (label, start, end, parent index). The spans of one operation are
kept in memory and reduced to metrics when the operation ends. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# Tape primitives: each call appends one node to the autodiff tape. Their
# self time is forward work only; every backward closure runs inside
# `autodiff.backward`.
PRIMITIVES = ("add", "neg", "mul", "div", "matmul", "take_rows",
              "permute_within_rows", "concat", "transpose", "reshape", "tsum",
              "texp", "tlog", "tsqrt", "relu", "leaky_relu", "elu", "softmax",
              "segment_softmax", "segment_sum")

VARIANTS = ("full", "no_global_attention", "no_global_attention_no_cl")

# metric -> label of the spans whose summed duration it reports
INCLUSIVE_SECONDS = {
    "dataset.load_s": "dataset.load_ratings",
    "dataset.save_s": "dataset.save_ratings",
    "dataset.stats_s": "dataset.compute_stats",
    "dataset.split_s": "dataset.split_train_test",
    "graph.build_views_s": "graph.build_views",
    "graph.neighbor_arrays_s": "graph.neighbor_arrays",
    "autodiff.backward_s": "autodiff.backward",
    "attention.encode_infer_s": "attention.encode_view",
    "contrastive.train_s": "contrastive.train",
    "contrastive.plan_s": "contrastive.build_plan",
    "contrastive.lcl_s": "contrastive.lcl_tensor",
    "contrastive.hgcl_s": "contrastive.hgcl_tensor",
    "contrastive.l2_s": "autodiff.sum_of_squares",
    "contrastive.clip_s": "contrastive.clip_gradients",
    "contrastive.adam_s": "contrastive.adam_update",
    "recommend.fuse_s": "recommend.fuse",
    "recommend.head_fit_s": "recommend.train_predictor",
    "recommend.user_knn_s": "recommend.baseline_user_knn",
    "recommend.multi_user_knn_s": "recommend.baseline_multi_user_knn",
    "recommend.mlr_s": "recommend.baseline_mlr",
    "evaluate.prepared_data_s": "evaluate.prepared_data",
    "evaluate.make_planted_s": "evaluate.make_planted_dataset",
    **{f"evaluate.run_single_s.{v}": f"evaluate.run_single.{v}" for v in VARIANTS},
}
# metric -> label whose self time it reports (the CLI beyond its dataset calls)
SELF_SECONDS = {"cli.ingest_s": "cli.cmd_ingest", "cli.stats_s": "cli.cmd_stats"}
# metric -> label whose call count it reports
CALLS = {"graph.neighbor_arrays_calls": "graph.neighbor_arrays",
         "contrastive.plan_refreshes": "contrastive.build_plan"}
# exact counts taken from returned values by the hooks below
RESULT_COUNTS = ("dataset.records", "graph.edges", "contrastive.positives",
                 "contrastive.negative_pool", "contrastive.fallback_pairs")
PREDICT_LABELS = ("recommend.predict_rating", "recommend.predict_many")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {name: "s" for name in INCLUSIVE_SECONDS}
    units.update({name: "s" for name in SELF_SECONDS})
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in RESULT_COUNTS})
    units["attention.encode_train_s"] = "s"
    units["recommend.predict_s"] = "s"
    units["recommend.predict_calls"] = "count"
    units["autodiff.ops_per_epoch"] = "count/epoch"
    for op in PRIMITIVES:
        units[f"autodiff.op.{op}.calls"] = "count"
        units[f"autodiff.op.{op}.self_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def _count_records(counts, args, result):
    counts["dataset.records"] += len(result)


def _count_edges(counts, args, result):
    counts["graph.edges"] += sum(view.adjacency.nnz for view in result)


def _count_epochs(counts, args, result):
    counts["epochs"] += len(result[1])


def _count_plan(counts, args, plan):
    sets = plan.anchor_sets
    counts["contrastive.positives"] += sum(s.positives.size for s in sets)
    counts["contrastive.negative_pool"] += sum(s.negative_pool.size for s in sets)
    # a pair falls back when the partner view's negative pool is empty
    counts["contrastive.fallback_pairs"] += sum(
        sets[sample.view_b].negative_pool.size == 0 for sample in plan.samples)


def _run_single_label(args):
    return f"evaluate.run_single.{args[0].variant}"


def _targets(mc):
    """(owner, attribute, span label or label function, result hook)."""
    ad = mc.autodiff
    return [
        (mc.dataset, "load_ratings", "dataset.load_ratings", _count_records),
        (mc.dataset, "save_ratings", "dataset.save_ratings", None),
        (mc.dataset, "compute_stats", "dataset.compute_stats", None),
        (mc.dataset, "split_train_test", "dataset.split_train_test", None),
        (mc.graph, "build_views", "graph.build_views", _count_edges),
        (mc.graph.CriterionView, "neighbor_arrays", "graph.neighbor_arrays", None),
        (ad, "backward", "autodiff.backward", None),
        (ad, "sum_of_squares", "autodiff.sum_of_squares", None),
        *[(ad, op, f"autodiff.{op}", None) for op in PRIMITIVES],
        (mc.attention, "encode_view_tensors", "attention.encode_view_tensors", None),
        (mc.attention, "encode_view", "attention.encode_view", None),
        (mc.contrastive, "train", "contrastive.train", _count_epochs),
        (mc.contrastive, "build_plan", "contrastive.build_plan", _count_plan),
        (mc.contrastive, "lcl_tensor", "contrastive.lcl_tensor", None),
        (mc.contrastive, "hgcl_tensor", "contrastive.hgcl_tensor", None),
        (mc.contrastive, "clip_gradients", "contrastive.clip_gradients", None),
        (mc.contrastive, "adam_update", "contrastive.adam_update", None),
        (mc.recommend, "fuse", "recommend.fuse", None),
        (mc.recommend, "train_predictor", "recommend.train_predictor", None),
        (mc.recommend, "predict_rating", "recommend.predict_rating", None),
        (mc.recommend, "predict_many", "recommend.predict_many", None),
        (mc.recommend, "baseline_user_knn", "recommend.baseline_user_knn", None),
        (mc.recommend, "baseline_multi_user_knn",
         "recommend.baseline_multi_user_knn", None),
        (mc.recommend, "baseline_mlr", "recommend.baseline_mlr", None),
        (mc.evaluate, "run_single", _run_single_label, None),
        (mc.evaluate, "prepared_data", "evaluate.prepared_data", None),
        (mc.evaluate, "make_planted_dataset", "evaluate.make_planted_dataset", None),
        (mc.cli, "cmd_ingest", "cli.cmd_ingest", None),
        (mc.cli, "cmd_stats", "cli.cmd_stats", None),
    ]


class Tracer:
    """Records spans and result counts while installed; see the module doc."""

    def __init__(self):
        self._stack: list[int] = []
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        # one span per index across four columns, compact enough for the
        # ~0.5M spans of a planted operation
        self.labels: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts: Counter = Counter()

    def install(self, mc) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "mcgraph" or name.startswith("mcgraph.")]
        for owner, attr, label, hook in _targets(mc):
            original = owner.__dict__.get(attr)
            if original is None:  # a later version removed it; its metrics read 0
                continue
            wrapper = self._wrap(original, label, hook)
            for holder in [owner, *modules]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def remove(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _wrap(self, fn, label, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            labels, ends = self.labels, self.ends
            index = len(labels)
            labels.append(label(args) if callable(label) else label)
            self.parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Reduce the recorded spans and counts to the per-layer metrics."""
        labels, parents = self.labels, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(labels)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                child[parent] += duration
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        in_train = [False] * len(labels)  # parents precede their children
        train_ops = 0
        encode_train = 0.0
        for i, (label, parent, duration) in enumerate(zip(labels, parents, durations)):
            inclusive[label] += duration
            own[label] += duration - child[i]
            calls[label] += 1
            if parent >= 0:
                in_train[i] = in_train[parent] or labels[parent] == "contrastive.train"
            if in_train[i]:
                if label == "attention.encode_view_tensors":
                    encode_train += duration
                elif label.startswith("autodiff.") and label[9:] in PRIMITIVES:
                    train_ops += 1

        out = {name: inclusive[label] for name, label in INCLUSIVE_SECONDS.items()}
        out.update({name: own[label] for name, label in SELF_SECONDS.items()})
        out.update({name: float(calls[label]) for name, label in CALLS.items()})
        out.update({name: float(self.counts[name]) for name in RESULT_COUNTS})
        out["attention.encode_train_s"] = encode_train
        out["recommend.predict_s"] = sum(inclusive[label] for label in PREDICT_LABELS)
        out["recommend.predict_calls"] = float(sum(calls[label] for label in PREDICT_LABELS))
        epochs = self.counts["epochs"]
        out["autodiff.ops_per_epoch"] = train_ops / epochs if epochs else 0.0
        for op in PRIMITIVES:
            out[f"autodiff.op.{op}.calls"] = float(calls[f"autodiff.{op}"])
            out[f"autodiff.op.{op}.self_s"] = own[f"autodiff.{op}"]
        out["trace.overhead"] = math.nan  # filled in from the untraced operations
        return out
