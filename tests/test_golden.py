"""Golden fingerprints: every strategy and command, end to end, at seed 0.

Each case runs ``fedsim.cli.main`` in process on ``configs/quick.json`` (or a
copy with a field or two changed) and hashes what it writes that does not
depend on the clock: ``summary.json`` without ``timing``, the bytes of
``model.ckpt``, ``sweep.csv`` and the ``eval-detections`` report.

The numeric rule is ``perfbench/run.py``'s ``judge()``: where numpy, BLAS and
the BLAS kernel set equal the ones ``golden.json`` was recorded under, every
hash must equal the recorded one; elsewhere the last bits of a matmul may
differ, so two runs of the case must agree with each other. The rule that
was applied is printed outside pytest's capture.

Re-record after a change that is meant to move a result:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fedsim import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
QUICK = json.loads((ROOT / "configs" / "quick.json").read_text(encoding="utf-8"))

GROUND_TRUTHS = """\
img0 car 0 0 10 10
img0 car 20 20 30 30
img0 bus 0 0 40 20
img1 car 5 5 15 15
img1 person 50 50 60 80
img1 person 62 50 70 80
"""
DETECTIONS = """\
img0 car 0.9 1 1 10 10
img0 car 0.8 0 0 9 11
img0 car 0.8 21 19 30 31
img0 bus 0.7 2 0 40 22
img0 bus 0.3 100 100 110 110
img1 car 0.6 5 5 12 12
img1 car 0.95 5 6 15 15
img1 person 0.5 51 50 61 80
img1 person 0.5 60 50 70 79
img1 truck 0.4 0 0 1 1
"""

# case name -> (config fields over quick.json, command after the config
# flags, files to hash)
RUN_FILES = ("summary.json", "model.ckpt")
CASES = {
    "run-fedavg": ({}, ["run"], RUN_FILES),
    "run-fedprox": ({"strategy": "fedprox", "prox_mu": 0.05}, ["run"], RUN_FILES),
    "run-fedmedian": ({"strategy": "fedmedian"}, ["run"], RUN_FILES),
    "run-fedopt-adam": ({"strategy": "fedopt"}, ["run"], RUN_FILES),
    # a tau other than the default, so that a step ignoring it shows
    "run-fedopt-adagrad": ({"strategy": "fedopt", "fedopt_variant": "adagrad",
                            "tau": 0.01}, ["run"], RUN_FILES),
    "run-fedopt-yogi": ({"strategy": "fedopt", "fedopt_variant": "yogi"},
                        ["run"], RUN_FILES),
    "run-uniform-weighting": ({"uniform_weighting": True}, ["run"], RUN_FILES),
    "run-patience": ({"patience": 1, "rounds": 5, "total_epochs": 25},
                     ["run"], RUN_FILES),
    "run-one-hidden-layer": ({"architecture": "one_hidden_layer"}, ["run"],
                             RUN_FILES),
    "run-data": ({}, ["run", "--data", "{fed}"], RUN_FILES),
    "baseline-local": ({}, ["baseline", "local"], ("summary.json",)),
    "baseline-global": ({}, ["baseline", "global"], ("summary.json",)),
    "sweep": ({}, ["sweep"], ("summary.json", "sweep.csv")),
    "eval-detections": (None, ["eval-detections"], ("report.json",)),
}


def _hashed_bytes(path: Path) -> bytes:
    """The bytes of an output file that do not depend on the clock."""
    if path.name == "summary.json":
        summary = json.loads(path.read_text(encoding="utf-8"))
        summary.pop("timing", None)
        return json.dumps(summary, indent=2, sort_keys=True).encode("utf-8")
    return path.read_bytes()


def fingerprint(case: str, work: Path) -> str:
    """Run ``case`` in the empty directory ``work``; sha256 of its outputs."""
    fields, command, files = CASES[case]
    out = work / "out"
    if fields is None:
        gt, det = work / "gt.txt", work / "det.txt"
        gt.write_text(GROUND_TRUTHS, encoding="utf-8")
        det.write_text(DETECTIONS, encoding="utf-8")
        out.mkdir()
        argv = [*command, "--ground-truth", str(gt), "--detections", str(det),
                "--out", str(out / "report.json")]
    else:
        config = work / "config.json"
        config.write_text(json.dumps({**QUICK, **fields}), encoding="utf-8")
        fed = work / "fed"
        if "{fed}" in command:
            assert cli.main(["gen-data", "--config", str(config),
                             "--out", str(fed)]) == 0
        argv = [*(arg.replace("{fed}", str(fed)) for arg in command),
                "--config", str(config), "--out", str(out)]
    assert cli.main(argv) == 0, argv
    digest = hashlib.sha256()
    for name in files:
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(_hashed_bytes(out / name))
    return digest.hexdigest()


def numeric_env() -> dict:
    """numpy, BLAS and BLAS kernel set, as ``perfbench/run.py`` records them."""
    perfbench = str(ROOT / "perfbench")
    sys.path.insert(0, perfbench)  # run.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", ROOT / "perfbench" / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(perfbench)
    facts = run.host_facts()
    return {key: facts.get(key) for key in run.NUMERIC_ENV}


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    env = numeric_env()
    if env == recorded["numeric_env"]:
        rule = "equal to golden.json"
    else:
        rule = (f"two runs agree (golden.json was recorded under "
                f"{recorded['numeric_env']}, this is {env})")
    return recorded, rule


@pytest.mark.parametrize("case", CASES)
def test_golden_fingerprint(case, golden, tmp_path, capsys):
    recorded, rule = golden
    (tmp_path / "a").mkdir()
    got = fingerprint(case, tmp_path / "a")
    if rule == "equal to golden.json":
        expected = recorded["cases"][case]
    else:
        (tmp_path / "b").mkdir()
        expected = fingerprint(case, tmp_path / "b")
    capsys.readouterr()
    with capsys.disabled():
        print(f"[golden {case}] {rule}", flush=True)
    assert got == expected, f"{case}: {got[:12]} != {expected[:12]} ({rule})"


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = {}
        for case in CASES:
            (Path(tmp) / case).mkdir()
            cases[case] = fingerprint(case, Path(tmp) / case)
    GOLDEN.write_text(json.dumps(
        {"seed": QUICK["seed"], "numeric_env": numeric_env(), "cases": cases},
        indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    record()
