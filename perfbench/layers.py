"""Per-layer metrics from the spans the shim records in traced iterations.

A span's self time is its duration minus the durations of its direct
children (one thread, so children never overlap). Per-call figures are the
median over every call in every traced iteration; per-iteration totals and
counts are the median over traced iterations.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median


def median_or_zero(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


# name -> (unit, kind, span or counter). Kinds "calls", "total", "self",
# "rows" (sum of the batch sizes noted on each call) and "counter" are
# per-iteration values; "per_call" is the median over calls. Time units are
# scaled from seconds.
LAYER_METRICS = {
    "models.loss_and_gradient_flat.calls": ("count", "calls", "models.loss_and_gradient_flat"),
    "models.loss_and_gradient_flat.us": ("us", "per_call", "models.loss_and_gradient_flat"),
    "models.loss_and_gradient_flat.s": ("s", "total", "models.loss_and_gradient_flat"),
    "models.samples_stepped": ("count", "rows", "models.loss_and_gradient_flat"),
    "training.train.calls": ("count", "calls", "training.train"),
    "training.train.ms": ("ms", "per_call", "training.train"),
    "training.train.self_s": ("s", "self", "training.train"),
    "params.ParamVector.constructs": ("count", "counter", "params.ParamVector.constructs"),
    "aggregation.aggregate.calls": ("count", "calls", "aggregation.aggregate"),
    "aggregation.aggregate.us": ("us", "per_call", "aggregation.aggregate"),
    "aggregation.aggregate.self_s": ("s", "self", "aggregation.aggregate"),
    "params.coordinate_median.us": ("us", "per_call", "params.coordinate_median"),
    "params.weighted_sum.us": ("us", "per_call", "params.weighted_sum"),
    "models.evaluate_accuracy.calls": ("count", "calls", "models.evaluate_accuracy"),
    "models.evaluate_accuracy.us": ("us", "per_call", "models.evaluate_accuracy"),
    "models.evaluate_accuracy.s": ("s", "total", "models.evaluate_accuracy"),
    "orchestration.run_federated.s": ("s", "total", "orchestration.run_federated"),
    "orchestration.run_federated.self_s": ("s", "self", "orchestration.run_federated"),
    "orchestration.run_local_baseline.s": ("s", "total", "orchestration.run_local_baseline"),
    "orchestration.run_global_baseline.s": ("s", "total", "orchestration.run_global_baseline"),
    "params.save_checkpoint.us": ("us", "per_call", "params.save_checkpoint"),
    "data.generate_federation.ms": ("ms", "total", "data.generate_federation"),
    "data.load_federation.ms": ("ms", "total", "data.load_federation"),
    "detection.load_ground_truths.ms": ("ms", "total", "detection.load_ground_truths"),
    "detection.load_detections.ms": ("ms", "total", "detection.load_detections"),
    "detection.match_detections.ms": ("ms", "total", "detection.match_detections"),
    "detection.iou.calls": ("count", "counter", "detection.iou.calls"),
    "detection.average_precision.calls": ("count", "calls", "detection.average_precision"),
    "detection.average_precision.ms": ("ms", "total", "detection.average_precision"),
    "detection.evaluate_detections.self_ms": ("ms", "self", "detection.evaluate_detections"),
    "cli.main.s": ("s", "total", "cli.main"),
    "cli.self_s": ("s", "self", "cli.main"),
}

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Iteration:
    """Per-name call durations, self times and notes of one traced child."""

    def __init__(self, report: dict):
        names = report["names"]
        spans = report["spans"]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.durations = defaultdict(list)
        self.self_time = defaultdict(float)
        self.notes = defaultdict(list)
        # Spans of each run_federated call, keyed by its schedule note.
        self.by_schedule = defaultdict(lambda: defaultdict(list))
        schedule_of = [None] * len(spans)
        for i, (name_index, start, end, parent, note) in enumerate(spans):
            name = names[name_index]
            self.durations[name].append(end - start)
            self.self_time[name] += end - start - child_time[i]
            if note is not None:
                self.notes[name].append(note)
            if name == "orchestration.run_federated":
                schedule_of[i] = note
            elif parent >= 0:
                schedule_of[i] = schedule_of[parent]
            if schedule_of[i] is not None:
                self.by_schedule[schedule_of[i]][name].append((end - start, note))
        self.counts = report["counts"]
        self.import_s = report["import_end"] - report["import_start"]


def _value(iterations: list[Iteration], kind: str, source: str) -> float:
    if kind == "per_call":
        calls = [d for it in iterations for d in it.durations.get(source, ())]
        return median_or_zero(calls)
    per_iteration = {
        "calls": lambda it: len(it.durations.get(source, ())),
        "total": lambda it: sum(it.durations.get(source, ())),
        "self": lambda it: it.self_time.get(source, 0.0),
        "rows": lambda it: sum(it.notes.get(source, ())),
        "counter": lambda it: it.counts.get(source, 0),
    }[kind]
    return median_or_zero(per_iteration(it) for it in iterations)


def layer_metrics(iterations: list[Iteration], prep: Iteration | None) -> dict[str, tuple]:
    """Per-layer metrics of traced iterations as ``name -> (value, unit)``.

    ``prep`` is the traced input preparation (``gen-data``), if the workload
    has one; it alone supplies ``data.save_federation.ms``.
    """
    out = {name: (_value(iterations, kind, source) * SCALE.get(unit, 1), unit)
           for name, (unit, kind, source) in LAYER_METRICS.items()}
    out["data.save_federation.ms"] = (
        _value([prep], "total", "data.save_federation") * 1e3 if prep else 0.0, "ms")
    calls = sum(it.counts["detection.iou.calls"] for it in iterations)
    zeros = sum(it.counts["detection.iou.zero"] for it in iterations)
    out["detection.iou.zero_share"] = (zeros / calls if calls else 0.0, "ratio")
    out["cli.import_s"] = (median_or_zero(it.import_s for it in iterations), "s")
    out.update(roadmap_opt3(iterations))
    return out


def roadmap_opt3(iterations: list[Iteration]) -> dict[str, tuple]:
    """Per-call figures of the opt3 (10 rounds x 15 epochs) run inside a sweep,
    the run the ROADMAP baseline times; zero on workloads without one.

    Pooled evaluation is the evaluate_accuracy call on the most rows, which
    is the pooled validation or test split.
    """
    runs = [it.by_schedule["10x15"] for it in iterations if "10x15" in it.by_schedule]

    def calls(span):
        return [call for run in runs for call in run.get(span, ())]

    evals = calls("models.evaluate_accuracy")
    pooled_rows = max((rows for _, rows in evals), default=0)
    return {
        "roadmap.opt3.train.ms": (
            median_or_zero(d for d, _ in calls("training.train")) * 1e3, "ms"),
        "roadmap.opt3.aggregate.us": (
            median_or_zero(d for d, _ in calls("aggregation.aggregate")) * 1e6, "us"),
        "roadmap.opt3.pooled_eval.us": (
            median_or_zero(d for d, rows in evals if rows == pooled_rows) * 1e6, "us"),
    }
