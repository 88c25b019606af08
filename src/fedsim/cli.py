"""Command line front end.

Subcommands: ``run`` (one federated experiment), ``sweep`` (every schedule
preset plus both baselines, run at once in forked worker processes),
``baseline local|global``, ``gen-data`` (write a synthetic federation to
disk), ``eval-detections`` (score detection files).

Exit codes: 0 success, 2 configuration or input validation problems, 3
numerical divergence during training, 4 filesystem trouble, 5 a sweep worker
process died (killed, or exited without a result), 6 out of memory (an
allocation failed, also inside a sweep worker), 130 interrupted (Ctrl-C,
also inside a sweep worker). Result files are written atomically (temp file
then rename), once training has finished. ``run``, ``sweep`` and
``baseline`` first remove an old ``summary.json`` and write it last, so a
results directory without one holds an incomplete run. The FEDSIM_LOG_LEVEL
environment variable sets the log level (default INFO; an unknown name logs
a warning).
"""

from __future__ import annotations

import argparse
import atexit
import csv
import dataclasses
import gc
import io
import json
import logging
import os
from pathlib import Path

from .aggregation import STRATEGIES
from .config import ExperimentConfig
from .data import generate_federation, load_federation, save_federation
from .detection import evaluate_detections, load_detections, load_ground_truths
from .errors import DivergenceError, FedsimError, NumericError
from .orchestration import (run_federated, run_global_baseline, run_local_baseline,
                            schedule_presets)
from .params import save_checkpoint, write_atomic

log = logging.getLogger("fedsim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_WORKER = 5
EXIT_MEMORY = 6
EXIT_INTERRUPTED = 130  # the shell's code for a process ended by SIGINT


def _write_json(path: Path, payload: dict):
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_json_file(args.config)
    else:
        cfg = ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "strategy", None):
        cfg = dataclasses.replace(cfg, strategy=args.strategy)
    if getattr(args, "preset", None):
        cfg = cfg.with_schedule(schedule_presets()[args.preset])
    return cfg


def _build_data(cfg: ExperimentConfig, data_dir=None):
    if data_dir:
        log.info("loading federation from %s", data_dir)
        # seed is not compared: --seed may retrain the same data
        return load_federation(data_dir, cfg.num_clients, cfg.split,
                               dataclasses.asdict(cfg.heterogeneity()))
    log.info("generating %d-client federation (seed %d)",
             cfg.num_clients, cfg.seed)
    return generate_federation(
        cfg.num_clients, cfg.split, cfg.heterogeneity(), cfg.seed,
        input_dim=cfg.input_dim, num_classes=cfg.num_classes)


def _experiment(args):
    """The config, model and clients of ``run``, ``sweep`` and ``baseline``;
    only ``run`` has ``--data``."""
    cfg = _load_config(args)
    return cfg, cfg.model(), _build_data(cfg, getattr(args, "data", None))


def _train(job: str, schedule, cfg: ExperimentConfig, model, clients):
    """The ``local`` or ``global`` baseline for the schedule's total epochs,
    or for any other ``job`` federated training on the schedule. This is the
    one place the run functions are called and the one map from a config's
    fields to their keywords. They are looked up as this module's globals:
    the benchmark patches them, and forked sweep workers inherit the patches.
    ``schedule`` and ``strategy`` go by keyword: the benchmark's wrapper
    reads the schedule as ``run_federated``'s fourth positional argument or
    by name, and the fourth positional argument is now the strategy."""
    training = {"seed": cfg.seed, "batch_size": cfg.batch_size,
                "learning_rate": cfg.learning_rate}
    if job in ("local", "global"):
        run = run_local_baseline if job == "local" else run_global_baseline
        return run(model, clients, schedule.total_epochs, **training)
    return run_federated(model, clients, schedule=schedule, strategy=cfg.strategy,
                         prox_mu=cfg.prox_mu, fedopt=cfg.fedopt(), **training)


def _per_client(ids, values) -> dict:
    return {str(cid): value for cid, value in zip(ids, values)}


def _write_results(out, command: str, cfg: ExperimentConfig, *, fields: dict,
                   timing: dict, report: str, tables=(), weights=None) -> None:
    """Write a finished command's results into the directory ``out``: each
    CSV of ``tables`` (pairs of a file name and its rows), ``weights`` as
    ``model.ckpt``, and last ``summary.json``, which holds ``{"command",
    "config", **fields, "timing"}``. Then print ``report`` and where the
    files are. Wall-clock noise goes under ``timing``, so the rest of the
    summary is reproducible for a given config. An old ``summary.json`` is
    removed first, so a directory that holds one holds one run's files."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").unlink(missing_ok=True)
    for name, rows in tables:
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        write_atomic(out / name, buf.getvalue().encode("utf-8"))
    if weights is not None:
        save_checkpoint(weights, out / "model.ckpt")
    _write_json(out / "summary.json", {"command": command, "config": cfg.to_dict(),
                                       **fields, "timing": timing})
    print(report)
    print(f"results in {out}")


def _cmd_run(args) -> int:
    cfg, model, clients = _experiment(args)
    result = _train("run", cfg.schedule(), cfg, model, clients)
    ids, rounds = result.client_ids, result.rounds
    _write_results(
        args.out, "run", cfg,
        fields={
            "strategy": result.strategy,
            "seed": result.seed,
            "rounds": [{"round": r.round_number,
                        "val_accuracy": r.val_accuracy,
                        "client_val_accuracies": list(r.client_val_accuracies),
                        "cumulative_epochs": r.cumulative_epochs} for r in rounds],
            "test_accuracy": result.test_accuracy,
            "client_test_accuracies": _per_client(ids, result.client_test_accuracies),
            "client_epoch_counts": _per_client(ids, result.client_epoch_counts),
        },
        timing={"total_duration_s": result.total_duration_s,
                "round_durations_s": [r.duration_s for r in rounds]},
        report=f"strategy={result.strategy} seed={result.seed} "
               f"test_accuracy={result.test_accuracy:.4f}",
        tables=[("rounds.csv", [
            ["round", "strategy", "seed", "val_metric",
             *[f"val_client_{cid}" for cid in ids], "cumulative_epochs", "duration_s"],
            *([r.round_number, result.strategy, result.seed, f"{r.val_accuracy:.6f}",
               *[f"{a:.6f}" for a in r.client_val_accuracies],
               r.cumulative_epochs, f"{r.duration_s:.3f}"] for r in rounds)])],
        weights=result.final_weights)
    return EXIT_OK


# The sweep's inputs in a worker process: the initializer sets them from its
# arguments, which a forked worker inherits instead of unpickling.
_sweep_inputs = None


def _init_sweep_worker(*inputs) -> None:
    import signal  # here, as _cmd_sweep's imports: only a sweep needs it

    global _sweep_inputs
    _sweep_inputs = inputs
    # Ctrl-C reaches the whole process group. The parent stops the workers;
    # an idle worker interrupted on its own would print a traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _sweep_job(name: str, schedule):
    """The sweep's training ``name`` (see :func:`_train`), in a worker."""
    return _train(name, schedule, *_sweep_inputs)


def _cmd_sweep(args) -> int:
    # Imported here: every other command would pay for them at start-up.
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    cfg, model, clients = _experiment(args)
    presets = {name: dataclasses.replace(sched, patience=cfg.patience)
               for name, sched in schedule_presets().items()}
    columns = list(presets)
    schedules = {"local": presets[columns[0]], "global": presets[columns[0]],
                 **presets}

    log.info("baselines (%d local epochs)", schedules["local"].total_epochs)
    for name, sched in presets.items():
        log.info("preset %s: %d rounds x %d epochs (%s)",
                 name, sched.rounds, sched.epochs_per_round, cfg.strategy)
    # The six trainings share no state, so they run in worker processes.
    # Forked workers skip a fresh import and inherit the inputs unpickled.
    # The global baseline is the longest and is submitted first; results, and
    # so the first error, are read in the order a sequential sweep runs them.
    pool = ProcessPoolExecutor(
        min(len(schedules), len(os.sched_getaffinity(0))),
        multiprocessing.get_context("fork"),
        initializer=_init_sweep_worker,
        initargs=(cfg, model, clients))
    try:
        # The first submit forks the workers and starts the pool's manager
        # thread. A Ctrl-C in between would leave a thread that shutdown
        # cannot join, so SIGINT waits until the submits are done.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            futures = {name: pool.submit(_sweep_job, name, schedules[name])
                       for name in ["global", "local", *columns]}
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        local, pooled, *results = (futures[name].result() for name in schedules)
    except BrokenProcessPool:
        # a broken pool fails every pending job, so the job read first need
        # not be the one whose worker died: name none
        log.error("a sweep worker process died; no results were written")
        return EXIT_WORKER
    except KeyboardInterrupt:
        # the workers ignore SIGINT: end their jobs rather than wait for them
        for worker in multiprocessing.active_children():
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    fed = dict(zip(columns, results))

    client_ids = fed[columns[0]].client_ids
    rows: dict[str, list[float]] = {}
    for idx, cid in enumerate(client_ids):
        rows[f"client_{cid}"] = [fed[c].client_test_accuracies[idx] for c in columns]
    rows["client_average"] = [
        sum(fed[c].client_test_accuracies) / len(client_ids) for c in columns]
    rows["pooled_test"] = [fed[c].test_accuracy for c in columns]
    rows["local_average"] = [local.mean_test_accuracy] * len(columns)
    rows["global"] = [pooled.test_accuracy] * len(columns)

    _write_results(
        args.out, "sweep", cfg,
        fields={"columns": columns, "rows": rows},
        timing={"federated_duration_s": {c: fed[c].total_duration_s for c in columns},
                "local_duration_s": local.total_duration_s,
                "global_duration_s": pooled.total_duration_s},
        report="\n".join(f"{label:16s} " + " ".join(f"{v:.4f}" for v in rows[label])
                         for label in ("client_average", "pooled_test",
                                       "local_average", "global")),
        tables=[("sweep.csv", [
            ["metric", *columns],
            *([label, *[f"{v:.6f}" for v in values]] for label, values in rows.items()),
            ["duration_s", *[f"{fed[c].total_duration_s:.3f}" for c in columns]]])])
    return EXIT_OK


def _cmd_baseline(args) -> int:
    cfg, model, clients = _experiment(args)
    res = _train(args.mode, cfg.schedule(), cfg, model, clients)
    key = "mean_test_accuracy" if args.mode == "local" else "test_accuracy"
    accuracy = getattr(res, key)
    _write_results(
        args.out, f"baseline-{args.mode}", cfg,
        fields={key: accuracy, "client_test_accuracies": _per_client(
            res.client_ids, res.client_test_accuracies)},
        timing={"total_duration_s": res.total_duration_s},
        report=f"{args.mode} baseline {key.replace('mean_', 'mean ')}={accuracy:.4f}")
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    path = save_federation(_build_data(cfg), args.out, metadata=cfg.to_dict())
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_eval_detections(args) -> int:
    ground_truths = load_ground_truths(args.ground_truth)
    detections = load_detections(args.detections)
    report = evaluate_detections(detections, ground_truths, args.iou_threshold,
                                 eleven_point=args.eleven_point)
    payload = dataclasses.asdict(report)
    if args.out:
        _write_json(Path(args.out), payload)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


_PARALLEL_HELP = ("ignored; clients always train in lockstep, and sweep "
                  "runs its trainings in worker processes either way")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Simulate federated training on a synthetic non-IID "
                    "federation and score detection outputs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment_flags(p, preset=True):
        p.add_argument("--config", help="JSON experiment config "
                                        "(defaults used when omitted)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--strategy", choices=STRATEGIES,
                       help="override the aggregation strategy")
        if preset:
            p.add_argument("--preset", choices=sorted(schedule_presets()),
                           help="use a named rounds/epochs schedule")

    p_run = sub.add_parser("run", help="run one federated experiment")
    experiment_flags(p_run)
    p_run.add_argument("--data", help="read a saved federation instead of "
                                      "generating one")
    p_run.add_argument("--parallel", action="store_true", help=_PARALLEL_HELP)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run every schedule preset plus both baselines")
    experiment_flags(p_sweep, preset=False)
    p_sweep.add_argument("--parallel", action="store_true", help=_PARALLEL_HELP)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_base = sub.add_parser("baseline", help="non-federated reference runs")
    p_base.add_argument("mode", choices=("local", "global"))
    experiment_flags(p_base)
    p_base.set_defaults(func=_cmd_baseline)

    p_gen = sub.add_parser("gen-data", help="write a synthetic federation")
    p_gen.add_argument("--config")
    p_gen.add_argument("--out", required=True, help="target directory")
    p_gen.add_argument("--seed", type=int)
    p_gen.set_defaults(func=_cmd_gen_data)

    p_eval = sub.add_parser("eval-detections",
                            help="score a detection file against ground truth")
    p_eval.add_argument("--ground-truth", required=True)
    p_eval.add_argument("--detections", required=True)
    p_eval.add_argument("--iou-threshold", type=float, default=0.5)
    p_eval.add_argument("--eleven-point", action="store_true",
                        help="use the 11-point interpolated AP")
    p_eval.add_argument("--out", help="also write the report to this file")
    p_eval.set_defaults(func=_cmd_eval_detections)
    return parser


# Whether main has registered gc.freeze with atexit, which is per process.
_freezes_at_exit = False


def main(argv=None) -> int:
    global _freezes_at_exit
    # At exit, freeze every live object: CPython's final collections then
    # skip numpy's and fedsim's long-lived cycles, which the OS frees anyway.
    # Registered here rather than at import, so an in-process caller's heap
    # stays unfrozen until its own exit.
    if not _freezes_at_exit:
        atexit.register(gc.freeze)
        _freezes_at_exit = True
    name = os.environ.get("FEDSIM_LOG_LEVEL") or "INFO"
    level = getattr(logging, name.upper(), None)
    known = isinstance(level, int)
    logging.basicConfig(level=level if known else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if not known:
        log.warning("unknown FEDSIM_LOG_LEVEL %r; logging at INFO", name)

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        log.error("training diverged: %s", exc)
        return EXIT_DIVERGENCE
    except NumericError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_DIVERGENCE
    except FedsimError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except MemoryError as exc:  # numpy's names the array it could not allocate
        log.error("out of memory: %s", str(exc) or "an allocation failed")
        return EXIT_MEMORY
    except KeyboardInterrupt:
        log.error("interrupted")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
