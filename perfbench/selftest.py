"""Self-test of the benchmark itself (takes about a minute).

    python3 perfbench/selftest.py

Checks that:
1. a perturbed output counts as a failed iteration: one flipped payload byte
   in ``model.ckpt``, an edited ``true_positives`` in the detection report;
2. every metric name the benchmark prints in its result line, for every
   workload and both trace modes, is the full list of that mode in
   ``BENCHMARK.json`` and uses only letters, digits, ``_``, ``.`` and ``-``;
3. without the fedsim sources next to it, the benchmark exits nonzero and
   prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, what):
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def perturbed_outputs_fail(work: Path):
    facts = run.host_facts()
    for name, perturb in (("cross-device", flip_checkpoint_byte),
                          ("detections", edit_true_positives)):
        workload = run.prepare(name, run.DEFAULT_SEED, fresh(work / name))
        if workload.prep:
            prep = run.run_child(workload.prep, False, work / name)
            expect(prep.error is None, prep.error)
        samples = [run.iterate(workload, False, work / name) for _ in range(2)]
        out = work / name / "out"
        perturb(out)
        bad = run.Sample(False)
        try:
            outputs, _ = workload.check(out)
            bad.fingerprint = run.check.fingerprint(outputs)
        except run.check.OutputError as exc:
            bad.error = str(exc)
        samples.append(bad)
        run.judge(samples, name, run.DEFAULT_SEED, facts)
        expect([s.error is None for s in samples] == [True, True, False],
               [s.error for s in samples])
        print(f"ok: perturbed {name} output rejected ({bad.error})")


def flip_checkpoint_byte(out: Path):
    raw = bytearray((out / "model.ckpt").read_bytes())
    raw[-3] ^= 0x01  # a low mantissa bit of the last weight
    (out / "model.ckpt").write_bytes(bytes(raw))


def edit_true_positives(out: Path):
    report = json.loads((out / "report.json").read_text())
    report["true_positives"] += 1
    report["false_positives"] -= 1
    (out / "report.json").write_text(json.dumps(report))


def result_line(cmd: list[str], cwd: Path) -> tuple[int, str]:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def metric_names_declared():
    for section in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[section]:
            expect(NAME.fullmatch(metric["name"]), metric)
            expect(UNIT.fullmatch(metric["unit"]), metric)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for workload in run.WORKLOADS:
            code, line = result_line(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)], run.ROOT)
            result = json.loads(line)
            expect(code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                   line)
            expect(result["correct"] and result["attempted"] >= 1, result)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared, set(printed.items()) ^ set(declared.items()))
            print(f"ok: {workload} trace={trace} prints the {len(printed)} "
                  f"{section} metrics of BENCHMARK.json")


def fails_without_sources(work: Path):
    bare = fresh(work / "bare")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    code, line = result_line([sys.executable, "perfbench/run.py", "--workload", "detections",
                              "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    expect(code != 0 and not line.startswith("{"), (code, line))
    print(f"ok: without sources the benchmark exits {code} and prints no result")


def main():
    work = fresh(run.WORK / "selftest")
    try:
        perturbed_outputs_fail(work)
        metric_names_declared()
        fails_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    run.signal.signal(run.signal.SIGALRM, run._alarm)
    main()
