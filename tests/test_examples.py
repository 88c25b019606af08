"""The shipped example configs load, the demo scripts run to completion,
and every public name of the package resolves."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim
from fedsim.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_config_loads(path):
    ExperimentConfig.from_json_file(path)


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # -W error, as tier-1's filterwarnings makes every warning a failure
    proc = subprocess.run([sys.executable, "-W", "error", str(path)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fedsim import *", namespace)  # a stale __all__ entry raises
    for name in fedsim.__all__:
        assert namespace[name] is getattr(fedsim, name), name
