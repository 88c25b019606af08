"""Results do not depend on the BLAS thread count or the hash seed.

``fedsim run`` trains 8 ``one_hidden_layer`` 64->256->10 clients with
fedavg for 3 rounds in four child processes: ``OPENBLAS_NUM_THREADS`` 1 and
2 crossed with two ``PYTHONHASHSEED`` values, set in the children's
environment only. Each client's 20-row split makes every stacked GEMM
20x64 @ 64x256, 327,680 multiply-adds, past OpenBLAS's threading threshold
of 262,144, which the golden file's quick config never reaches. The four
must write the same final weights and the same summary without its clock.
Where numpy's BLAS is not OpenBLAS the thread variable does nothing; the
rule that was applied is printed outside pytest's capture.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIG = {"num_clients": 8, "split": [20, 10, 10], "input_dim": 64,
          "num_classes": 10, "architecture": "one_hidden_layer",
          "hidden_units": 256, "rounds": 3, "epochs_per_round": 1,
          "total_epochs": 3, "seed": 0}
BLAS_THREADS = ("1", "2")
HASH_SEEDS = ("1", "12345")


def clock_free_hashes(out: Path) -> tuple[str, str]:
    """sha256 of ``model.ckpt`` and of ``summary.json`` without ``timing``."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    summary.pop("timing")
    return (hashlib.sha256((out / "model.ckpt").read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(summary, sort_keys=True)
                           .encode("utf-8")).hexdigest())


def test_results_ignore_blas_threads_and_hash_seed(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    children = {}
    for threads, hash_seed in itertools.product(BLAS_THREADS, HASH_SEEDS):
        out = tmp_path / f"threads{threads}-hash{hash_seed}"
        env = {**os.environ, "PYTHONPATH": path, "FEDSIM_LOG_LEVEL": "WARNING",
               "OPENBLAS_NUM_THREADS": threads, "PYTHONHASHSEED": hash_seed}
        children[out] = subprocess.Popen(
            [sys.executable, "-m", "fedsim", "run", "--config", str(config),
             "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        for out, child in children.items():
            _, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, f"{out.name}: {stderr}"
    finally:
        for child in children.values():
            if child.poll() is None:  # left running by a failure above
                child.kill()
                child.communicate()

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    if "openblas" in name.lower():
        rule = f"OPENBLAS_NUM_THREADS {' and '.join(BLAS_THREADS)} on {name}"
    else:
        rule = f"hash seed only: OPENBLAS_NUM_THREADS does nothing on {name}"
    capsys.readouterr()
    with capsys.disabled():
        print(f"[environment] {rule}", flush=True)
    hashes = {out.name: clock_free_hashes(out) for out in children}
    assert len(set(hashes.values())) == 1, f"{hashes} ({rule})"
