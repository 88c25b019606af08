"""Child-process entry point: one ``fedsim`` CLI invocation, timed from outside.

Usage: python3 shim.py SRC_DIR REPORT_PATH TRACE -- <fedsim arguments>

Runs ``fedsim.cli.main`` with the given arguments, exactly as the console
script would, and at exit writes a JSON report to REPORT_PATH:

- ``import_start``/``import_end``: monotonic clock around ``import
  fedsim.cli`` (the parent knows when it spawned this process, so
  ``import_end`` minus that is interpreter start plus import);
- ``spans``: ``[name_index, start, end, parent_index, note]`` for each traced
  call, with ``names`` the span names;
- ``counts``: call counters kept where a span per call would cost more than
  the call itself;
- ``peak_rss_kb``: the program's high-water resident set.

With TRACE 0 only the calls that build the inputs are wrapped (a few coarse
calls per run), because they belong to the set-up time. With TRACE 1 every
patch point below is wrapped. ``from .x import y`` binds ``y`` in the
importing module, so each wrapper is installed where the caller looks the
name up, not where it is defined.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

# (module where the name is looked up, attribute, span name)
INPUT_PATCHES = (
    ("fedsim.cli", "generate_federation", "data.generate_federation"),
    ("fedsim.cli", "load_federation", "data.load_federation"),
    ("fedsim.cli", "load_ground_truths", "detection.load_ground_truths"),
    ("fedsim.cli", "load_detections", "detection.load_detections"),
)

TRACE_PATCHES = (
    ("fedsim.cli", "run_federated", "orchestration.run_federated"),
    ("fedsim.cli", "run_local_baseline", "orchestration.run_local_baseline"),
    ("fedsim.cli", "run_global_baseline", "orchestration.run_global_baseline"),
    ("fedsim.cli", "save_federation", "data.save_federation"),
    ("fedsim.cli", "save_checkpoint", "params.save_checkpoint"),
    ("fedsim.cli", "evaluate_detections", "detection.evaluate_detections"),
    ("fedsim.orchestration", "train", "training.train"),
    ("fedsim.orchestration", "aggregate", "aggregation.aggregate"),
    ("fedsim.orchestration", "save_checkpoint", "params.save_checkpoint"),
    ("fedsim.aggregation", "weighted_sum", "params.weighted_sum"),
    ("fedsim.aggregation", "coordinate_median", "params.coordinate_median"),
    ("fedsim.detection", "match_detections", "detection.match_detections"),
    ("fedsim.detection", "average_precision", "detection.average_precision"),
)

TASK_MODEL_METHODS = ("init_weights", "loss_and_gradient_flat", "loss_and_gradient",
                      "evaluate_accuracy", "predict_proba")


def _rows(args, kwargs):
    """Batch size of a TaskModel call: rows of its feature argument."""
    x = args[2] if len(args) > 2 else kwargs.get("x")
    return int(x.shape[0])


def _schedule(args, kwargs):
    """Schedule of a run_federated call, as 'ROUNDSxEPOCHS'."""
    schedule = args[3] if len(args) > 3 else kwargs["schedule"]
    return f"{schedule.rounds}x{schedule.epochs_per_round}"


NOTES = {
    "models.loss_and_gradient_flat": _rows,
    "models.evaluate_accuracy": _rows,
    "orchestration.run_federated": _schedule,
}


class Tracer:
    """Spans kept in memory as flat lists; written once, at process exit."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {"detection.iou.calls": 0, "detection.iou.zero": 0,
                       "params.ParamVector.constructs": 0}

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1,
                    note(args, kwargs) if note else None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def patch(self, patches):
        for module_name, attr, span_name in patches:
            module = sys.modules[module_name]
            setattr(module, attr, self.wrap(span_name, getattr(module, attr)))

    def patch_classes(self, fedsim):
        """Count IoU calls and ParamVector constructions; span TaskModel methods."""
        counts = self.counts
        iou = fedsim.detection.iou

        def counted_iou(a, b):
            value = iou(a, b)
            counts["detection.iou.calls"] += 1
            if value == 0.0:
                counts["detection.iou.zero"] += 1
            return value

        fedsim.detection.iou = counted_iou

        post_init = fedsim.params.ParamVector.__post_init__

        def counted_post_init(self):
            counts["params.ParamVector.constructs"] += 1
            post_init(self)

        fedsim.params.ParamVector.__post_init__ = counted_post_init

        for method in TASK_MODEL_METHODS:
            setattr(fedsim.models.TaskModel, method,
                    self.wrap(f"models.{method}",
                              getattr(fedsim.models.TaskModel, method)))


def peak_rss_kb() -> int:
    """High-water resident set of this program since exec, in KiB.

    ``ru_maxrss`` also counts the parent's pages: the child is spawned from
    the parent's address space, and Linux carries that high-water mark across
    exec. So it is only the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    src, report_path, trace = Path(argv[0]).resolve(), Path(argv[1]), argv[2] == "1"
    fedsim_args = argv[4:]

    sys.path.insert(0, str(src))
    import_start = time.monotonic()
    import fedsim.cli
    import_end = time.monotonic()
    if not Path(fedsim.__file__).resolve().is_relative_to(src):
        print(f"fedsim imported from {fedsim.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer()
    tracer.patch(INPUT_PATCHES)
    if trace:
        tracer.patch(TRACE_PATCHES)
        tracer.patch_classes(fedsim)
    main_fn = tracer.wrap("cli.main", fedsim.cli.main)

    exit_code = 1
    try:
        exit_code = main_fn(fedsim_args)
    finally:
        report_path.write_text(json.dumps({
            "import_start": import_start,
            "import_end": import_end,
            "exit_code": exit_code,
            "peak_rss_kb": peak_rss_kb(),
            "names": tracer.names,
            "spans": tracer.spans,
            "counts": tracer.counts,
        }, separators=(",", ":")))
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
