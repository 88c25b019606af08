"""The fedsim benchmark: whole CLI invocations, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` records why each was chosen):

- ``sweep``: ``fedsim sweep`` at the default config, the paper's headline
  comparison; local SGD is nearly all of it.
- ``cross-device``: ``fedsim run --data`` on 64 small clients, 40 rounds of
  one local epoch, fedmedian; server-side aggregation and evaluation matter.
- ``detections``: ``fedsim eval-detections`` on 20,000 detections against
  5,000 ground truths in crowded groups; no training code runs.

Each iteration is one CLI invocation in a fresh child process (``shim.py``),
one child at a time; numpy keeps its default BLAS thread count. Iterations
start until ``--seconds`` have passed, so the last one may run past it.
Inputs are written from ``--seed`` before timing starts.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s``, ``setup_s``, ``items_per_s`` (training samples stepped, or
detections scored, per second after set-up) and ``peak_rss_mb``, each the
median over iterations. With ``--trace 1`` untraced and traced iterations
alternate; the line carries the per-layer metrics of ``layers.py`` plus
``trace.overhead_s`` (median traced minus median untraced ``wall_s``).

Every iteration's outputs are checked (``check.py``) and fingerprinted. An
iteration fails on a nonzero exit, a malformed output, or a fingerprint that
differs from ``reference.json`` (seed 0, in the numeric environment it was
recorded in) or from most other iterations (otherwise).
``--record-reference`` rewrites ``reference.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import check
import inputs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIM = HERE / "shim.py"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 120


@dataclass
class Workload:
    items: int  # training samples stepped, or detections scored, per iteration
    items_label: str
    command: Callable[[Path], list[str]]  # fedsim arguments, given the output dir
    check: Callable[[Path], tuple[dict, dict]]
    prep: list[str] | None = None  # fedsim arguments run once before timing


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under ``work`` and describe its command."""
    if name == "sweep":
        presets = ["opt1", "opt2", "opt3", "opt4"]
        expect = {"columns": presets,
                  "rows": ["client_average", "pooled_test", "local_average", "global",
                           *[f"client_{k}" for k in range(1, 9)]]}
        # 4 presets + local + global baselines, each 150 epochs over 8 x 200 samples.
        return Workload(6 * 150 * 8 * 200, "train_samples_per_s",
                        lambda out: ["sweep", "--out", str(out), "--seed", str(seed)],
                        lambda out: check.check_sweep(out, expect))
    if name == "cross-device":
        cfg = inputs.write_cross_device_config(work / "cross_device.json", seed)
        data = work / "federation"
        c = inputs.CROSS_DEVICE_CONFIG
        expect = {"rounds": c["rounds"], "epochs_per_round": c["epochs_per_round"],
                  "clients": c["num_clients"],
                  "params": c["hidden_units"] * (c["input_dim"] + 1)
                  + c["num_classes"] * (c["hidden_units"] + 1)}
        return Workload(c["num_clients"] * c["split"]["train"] * c["total_epochs"],
                        "train_samples_per_s",
                        lambda out: ["run", "--config", str(cfg), "--data", str(data),
                                     "--out", str(out)],
                        lambda out: check.check_run(out, expect),
                        prep=["gen-data", "--config", str(cfg), "--out", str(data),
                              "--seed", str(seed)])
    if name == "detections":
        gt, det, n_gt, n_det = inputs.write_detection_files(work, seed)
        expect = {"detections": n_det, "ground_truths": n_gt, "classes": inputs.DET_CLASSES}
        return Workload(n_det, "detections_per_s",
                        lambda out: ["eval-detections", "--ground-truth", str(gt),
                                     "--detections", str(det),
                                     "--out", str(out / "report.json")],
                        lambda out: check.check_detections(out, expect))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "cross-device", "detections")
INPUT_SPANS = ("data.generate_federation", "data.load_federation",
               "detection.load_ground_truths", "detection.load_detections")


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


@dataclass
class Sample:
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    report: dict | None = None
    error: str | None = None
    fingerprint: str | None = None
    facts: dict = field(default_factory=dict)


def run_child(fedsim_args: list[str], traced: bool, work: Path) -> Sample:
    """One ``fedsim`` invocation through the shim, timed from spawn to exit."""
    report_path = work / "shim.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(SHIM), str(SRC), str(report_path), str(int(traced)),
           "--", *fedsim_args]
    sample = Sample(traced)
    with open(work / "child.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, stdout=log, stderr=subprocess.STDOUT)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status = os.waitpid(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            proc.wait()
            sample.wall_s = time.monotonic() - spawned
            sample.error = f"timed out after {CHILD_TIMEOUT_S} s"
            return sample
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample.wall_s = exited - spawned
    if proc.returncode != 0:
        tail = (work / "child.log").read_text(errors="replace").strip().splitlines()[-1:]
        sample.error = f"exit code {proc.returncode}: {' '.join(tail)}"
        return sample
    try:
        sample.report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sample.error = f"no shim report: {exc}"
        return sample
    sample.rss_mb = sample.report["peak_rss_kb"] / 1024.0
    names = sample.report["names"]
    building = sum(end - start for name_index, start, end, _, _ in sample.report["spans"]
                   if names[name_index] in INPUT_SPANS)
    sample.setup_s = sample.report["import_end"] - spawned + building
    return sample


def iterate(workload: Workload, traced: bool, work: Path) -> Sample:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    sample = run_child(workload.command(out), traced, work)
    if sample.error is None:
        try:
            outputs, sample.facts = workload.check(out)
            sample.fingerprint = check.fingerprint(outputs)
        except check.OutputError as exc:
            sample.error = f"bad output: {exc}"
    return sample


def warm_up(work: Path):
    """Compile fedsim's bytecode and page in numpy before anything is timed."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import fedsim.cli"],
                   cwd=work, check=True, timeout=CHILD_TIMEOUT_S)


def judge(samples: list[Sample], name: str, seed: int, facts: dict) -> tuple[str | None, str]:
    """Mark samples whose fingerprint is wrong; return the expected one and its source.

    The reference holds for the numeric environment it was recorded in (numpy,
    BLAS and the BLAS kernel set chosen for the CPU); elsewhere the last bits
    of a matmul may differ, so there the iterations must agree with each other.
    """
    prints = [s.fingerprint for s in samples if s.fingerprint]
    reference = json.loads(REFERENCE.read_text())
    env = {k: facts.get(k) for k in NUMERIC_ENV}
    if seed == reference["seed"] and env == reference["numeric_env"]:
        expected, source = reference["workloads"][name]["fingerprint"], "reference.json"
    else:
        expected = Counter(prints).most_common(1)[0][0] if prints else None
        source = "agreement across iterations"
        if seed == reference["seed"]:
            source += f" (reference.json was recorded under {reference['numeric_env']})"
    for s in samples:
        if s.error is None and s.fingerprint != expected:
            s.error = f"fingerprint {s.fingerprint[:12]} != expected {expected[:12]}"
    return expected, source


NUMERIC_ENV = ("numpy", "blas", "blas_core")


def host_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "git_head": git_head(),
             "loadavg_before": list(os.getloadavg())}
    try:
        import numpy
    except ImportError:
        return facts
    facts["numpy"] = numpy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"], facts["blas_core"] = openblas_info(numpy)
    return facts


def openblas_info(numpy) -> tuple:
    """Thread count and kernel set of the OpenBLAS bundled with numpy."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            core = getattr(handle, f"{prefix}_get_corename{suffix}", None)
            if threads is not None and core is not None:
                threads.restype = ctypes.c_int
                core.restype = ctypes.c_char_p
                return int(threads()), core().decode()
    return "unknown", "unknown"


def cpu_steal_s() -> float | None:
    """Seconds the hypervisor gave this machine's CPUs to others (Linux guests)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_head() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return ref


def end_to_end(workload: Workload, samples: list[Sample]) -> dict[str, tuple]:
    """Per-iteration values of each end-to-end metric, with its unit."""
    return {
        "wall_s": ([s.wall_s for s in samples], "s"),
        "setup_s": ([s.setup_s for s in samples], "s"),
        "items_per_s": ([workload.items / (s.wall_s - s.setup_s) for s in samples], "items/s"),
        "peak_rss_mb": ([s.rss_mb for s in samples], "MB"),
    }


def print_spread(label: str, values: list[float], unit: str):
    print(f"  {label:24s} {median(values):12.6g} {unit:8s} "
          f"[min {min(values):.6g}, max {max(values):.6g}, n={len(values)}]")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _measure(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    facts = host_facts()
    steal_before = cpu_steal_s()
    print(f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    workload = prepare(name, seed, work)
    warm_up(work)
    prep = None
    if workload.prep:
        prep = run_child(workload.prep, trace, work)
        if prep.error:
            raise SystemExit(f"perfbench: input preparation failed: {prep.error}")

    samples: list[Sample] = []
    modes = (False, True) if trace else (False,)
    started = time.monotonic()
    while True:
        for traced in modes:
            sample = iterate(workload, traced, work)
            samples.append(sample)
            print(f"iteration {len(samples)}{' traced' if traced else ''}: "
                  f"wall_s={sample.wall_s:.4f} setup_s={sample.setup_s:.4f} "
                  f"peak_rss_mb={sample.rss_mb:.1f} "
                  f"{sample.error or 'ok ' + sample.fingerprint[:12]}", flush=True)
        if time.monotonic() - started >= seconds or any(
                s.error and s.error.startswith("timed out") for s in samples):
            break

    expected, source = judge(samples, name, seed, facts)
    good = [s for s in samples if s.error is None]
    failed = len(samples) - len(good)
    timed = good or samples  # a run with no good iteration still reports, as incorrect
    untraced = [s for s in timed if not s.traced] or timed

    series = end_to_end(workload, untraced)
    print(f"outputs: expected fingerprint {expected} from {source}")
    if good:
        print("outputs: " + " ".join(f"{k}={v}" for k, v in good[0].facts.items()))
    print(f"end-to-end, untraced iterations (median, n={len(untraced)}):")
    for metric, (values, unit) in series.items():
        label = f"{metric} ({workload.items_label})" if metric == "items_per_s" else metric
        print_spread(label, values, unit)
    print(f"  {'error_rate':24s} {failed / len(samples):12.6g} ratio    "
          f"[{failed} failed of {len(samples)} attempted]")

    if trace:
        traced = [s for s in timed if s.traced and s.report]
        metrics = per_layer(traced, untraced, prep, name)
    else:
        metrics = {metric: (median(values), unit) for metric, (values, unit) in series.items()}
    facts["loadavg_after"] = list(os.getloadavg())
    steal_after = cpu_steal_s()
    facts["cpu_steal_s"] = (round(steal_after - steal_before, 2)
                            if steal_before is not None and steal_after is not None else None)
    print(f"host loadavg_after={facts['loadavg_after']} cpu_steal_s={facts['cpu_steal_s']}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / f"{name}-trace{int(trace)}.json").write_text(json.dumps({
        "seed": seed, "host": facts, "expected_fingerprint": expected,
        "samples": [{k: v for k, v in vars(s).items() if k != "report"} for s in samples],
        "result": result}, indent=1))
    return result


ROADMAP_FIGURES = {  # ROADMAP "Baseline" section: default run (opt3), min of N
    "roadmap.opt3.train.ms": 12.9,
    "roadmap.opt3.aggregate.us": 74.0,
    "roadmap.opt3.pooled_eval.us": 72.0,
}


def per_layer(traced: list[Sample], untraced: list[Sample], prep: Sample | None,
              name: str) -> dict[str, tuple]:
    iterations = [layers.Iteration(s.report) for s in traced]
    prep_iteration = layers.Iteration(prep.report) if prep and prep.report else None
    metrics = layers.layer_metrics(iterations, prep_iteration)
    overhead = (layers.median_or_zero(s.wall_s for s in traced)
                - median(s.wall_s for s in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")

    print(f"per-layer, traced iterations (n={len(traced)}):")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:42s} {value:14.6g} {unit}")
    if name == "sweep":
        print("ROADMAP cross-check (opt3 column of the traced sweep; medians here, "
              "ROADMAP reports min of N):")
        for metric, figure in ROADMAP_FIGURES.items():
            value, unit = metrics[metric]
            print(f"  {metric:32s} {value:10.4g} {unit}  ROADMAP {figure:g} {unit}  "
                  f"ratio {value / figure:.2f}")
        print("  checkpoint save: not exercised by sweep (it writes no checkpoint); "
              "ROADMAP 176 us is a 132-parameter save, cross-device's "
              "params.save_checkpoint.us is a 19,210-parameter save")
    print_workload_checks(name, metrics, traced, iterations)
    return metrics


def print_workload_checks(name: str, metrics: dict, traced: list[Sample],
                          iterations: list[layers.Iteration]):
    """Does the workload stress what it was chosen for? Printed, not gated."""
    if not iterations:
        return

    def share(span: str, of: Callable[[Sample, layers.Iteration], float]) -> float:
        return median(sum(it.durations.get(span, ())) / of(s, it)
                      for s, it in zip(traced, iterations))

    if name == "sweep":
        train = share("training.train", lambda s, it: s.wall_s - s.setup_s)
        print(f"check sweep: training.train covers {train:.1%} of the work after set-up "
              f"(want >= 90%)")
    elif name == "cross-device":
        agg = share("aggregation.aggregate",
                    lambda s, it: sum(it.durations["orchestration.run_federated"]))
        print(f"check cross-device: aggregation.aggregate covers {agg:.1%} of "
              f"orchestration.run_federated.s (want >= 30%)")
    elif name == "detections":
        training = sum(len(calls) for it in iterations for span, calls in it.durations.items()
                       if span.split(".")[0] in ("models", "training", "aggregation"))
        after_parsing = {
            "detection.match_detections": metrics["detection.match_detections.ms"][0],
            "detection.average_precision": metrics["detection.average_precision.ms"][0],
            "detection.evaluate_detections (self)":
                metrics["detection.evaluate_detections.self_ms"][0],
            "cli (self)": metrics["cli.self_s"][0] * 1e3,
        }
        largest = max(after_parsing, key=after_parsing.get)
        print(f"check detections: {training} models/training/aggregation spans (want 0); "
              f"largest layer after parsing: {largest} (want detection.match_detections)")


def record_reference():
    """Fingerprint one iteration of every workload at the default seed."""
    WORK.mkdir(exist_ok=True)
    entries = {}
    for name in WORKLOADS:
        work = WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        workload = prepare(name, DEFAULT_SEED, work)
        warm_up(work)
        if workload.prep and run_child(workload.prep, False, work).error:
            raise SystemExit(f"perfbench: {name}: input preparation failed")
        sample = iterate(workload, False, work)
        if sample.error:
            raise SystemExit(f"perfbench: {name}: {sample.error}")
        entries[name] = {"fingerprint": sample.fingerprint, **sample.facts}
        shutil.rmtree(work)
    facts = host_facts()
    REFERENCE.write_text(json.dumps({
        "seed": DEFAULT_SEED, "git_head": facts["git_head"],
        "numeric_env": {k: facts.get(k) for k in NUMERIC_ENV},
        "workloads": entries}, indent=2) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "fedsim" / "cli.py").is_file():
        print(f"perfbench: no fedsim source at {SRC / 'fedsim'}; run from a full checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
