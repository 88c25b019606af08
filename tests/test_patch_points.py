"""The benchmark's tracer wraps names inside fedsim; each must still exist.

``perfbench/shim.py`` patches module attributes and ``TaskModel`` methods by
name. A refactor that renames or stops importing one of them breaks the
benchmark, so this suite fails first.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

SHIM = Path(__file__).resolve().parents[1] / "perfbench" / "shim.py"


def load_shim():
    spec = importlib.util.spec_from_file_location("perfbench_shim", SHIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    return module


shim = load_shim()


@pytest.mark.parametrize("module_name, attr, span",
                         shim.INPUT_PATCHES + shim.TRACE_PATCHES,
                         ids=lambda value: str(value))
def test_patch_point_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), \
        f"{span}: {module_name}.{attr} is gone"


@pytest.mark.parametrize("method", shim.TASK_MODEL_METHODS)
def test_task_model_method_resolves(method):
    from fedsim.models import TaskModel
    assert callable(getattr(TaskModel, method, None))


def test_counted_names_resolve():
    import fedsim.detection
    import fedsim.params
    assert callable(fedsim.detection.iou)
    assert callable(fedsim.params.ParamVector.__post_init__)


def entered_spans(*argvs):
    """Run each argument list through ``fedsim.cli.main`` with every input
    and trace patch point wrapped by the shim's tracer, restore the patched
    names, and return the names of the spans that were entered."""
    from fedsim import cli

    patches = shim.INPUT_PATCHES + shim.TRACE_PATCHES
    originals = []
    for module_name, attr, _ in patches:
        module = importlib.import_module(module_name)
        originals.append((module, attr, getattr(module, attr)))
    tracer = shim.Tracer()
    try:
        tracer.patch(patches)
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)
    return {tracer.names[span[0]] for span in tracer.spans}


DETECTION_SPANS = {"detection.load_ground_truths", "detection.load_detections",
                   "detection.evaluate_detections", "detection.match_detections",
                   "detection.average_precision"}


def test_detection_patch_points_are_entered(tmp_path, capsys):
    """An in-process ``eval-detections`` under the shim's tracer records a
    span for each detection patch point, so none of them is stale."""
    gt, det = tmp_path / "gt.txt", tmp_path / "det.txt"
    gt.write_text("img0 car 0 0 2 2\nimg0 bus 4 4 8 8\n", encoding="utf-8")
    det.write_text("img0 car 0.9 0 0 2 2\nimg0 bus 0.8 4 4 9 8\n",
                   encoding="utf-8")
    entered = entered_spans(["eval-detections", "--ground-truth", str(gt),
                             "--detections", str(det)])
    capsys.readouterr()
    assert DETECTION_SPANS <= entered, DETECTION_SPANS - entered


TRAINING_SPANS = {"orchestration.run_federated",
                  "orchestration.run_global_baseline", "aggregation.aggregate",
                  "params.weighted_sum", "params.coordinate_median",
                  "params.save_checkpoint", "training.train",
                  "data.generate_federation"}


def test_training_patch_points_are_entered(tmp_path, capsys):
    """Tiny fedopt and fedmedian runs and a global baseline, in process under
    the shim's tracer, enter every training-side span the benchmark reads."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "num_clients": 2, "split": [20, 8, 8], "rounds": 2,
        "epochs_per_round": 1, "total_epochs": 2, "batch_size": 8}),
        encoding="utf-8")
    entered = entered_spans(*(
        [*command, "--config", str(config), "--out", str(tmp_path / name)]
        for name, command in [("fedopt", ["run", "--strategy", "fedopt"]),
                              ("fedmedian", ["run", "--strategy", "fedmedian"]),
                              ("global", ["baseline", "global"])]))
    capsys.readouterr()
    assert TRAINING_SPANS <= entered, TRAINING_SPANS - entered
