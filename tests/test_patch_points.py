"""The benchmark's tracer wraps names inside fedsim; each must still exist.

``perfbench/shim.py`` patches module attributes and ``TaskModel`` methods by
name. A refactor that renames or stops importing one of them breaks the
benchmark, so this suite fails first.
"""

from __future__ import annotations

import importlib
import importlib.util
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
