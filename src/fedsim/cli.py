"""Command line front end.

Subcommands: ``run`` (one federated experiment), ``sweep`` (every schedule
preset plus both baselines, run at once in forked worker processes),
``baseline local|global``, ``gen-data`` (write a synthetic federation to
disk), ``eval-detections`` (score detection files).

Exit codes: 0 success, 2 configuration or input validation problems, 3
numerical divergence during training, 4 filesystem trouble, 5 a sweep worker
process died (killed, or exited without a result), 130 interrupted (Ctrl-C,
also inside a sweep worker). Result files are
written atomically (temp file then rename). The FEDSIM_LOG_LEVEL environment
variable sets the log level (default INFO).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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
from .orchestration import (FederatedResult, run_federated, run_global_baseline,
                            run_local_baseline, schedule_presets)
from .params import save_checkpoint, write_atomic

log = logging.getLogger("fedsim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_WORKER = 5
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
        return load_federation(data_dir, cfg.num_clients, cfg.split, {
            field: getattr(cfg, field) for field in
            ("label_skew_alpha", "feature_shift_scale", "class_separation")})
    log.info("generating %d-client federation (seed %d)",
             cfg.num_clients, cfg.seed)
    return generate_federation(
        cfg.num_clients, cfg.split, cfg.heterogeneity(), cfg.seed,
        input_dim=cfg.input_dim, num_classes=cfg.num_classes,
        class_separation=cfg.class_separation)


def _experiment(args):
    """The config, model, clients and pooled data of ``run``, ``sweep`` and
    ``baseline``; only ``run`` has ``--data``."""
    cfg = _load_config(args)
    clients, group_all = _build_data(cfg, getattr(args, "data", None))
    return cfg, cfg.model(), clients, group_all


def _train(job: str, schedule, cfg: ExperimentConfig, model, clients, group_all):
    """The ``local`` or ``global`` baseline for the schedule's total epochs,
    or for any other ``job`` federated training on the schedule. The one
    place the run functions are called, as this module's globals: the
    benchmark patches them, and forked sweep workers inherit the patches."""
    if job == "local":
        return run_local_baseline(model, clients, group_all, schedule.total_epochs,
                                  **cfg.training_kwargs())
    if job == "global":
        return run_global_baseline(model, clients, group_all, schedule.total_epochs,
                                   **cfg.training_kwargs())
    return run_federated(model, clients, group_all, schedule, cfg.strategy,
                         **cfg.federated_kwargs())


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def _per_client(ids, values) -> dict:
    return {str(cid): value for cid, value in zip(ids, values)}


def _run_summary(cfg: ExperimentConfig, result: FederatedResult) -> dict:
    # Wall-clock noise is quarantined under "timing" so the rest of the
    # document is reproducible for a given config.
    return {
        "command": "run",
        "config": cfg.to_dict(),
        "strategy": result.strategy,
        "seed": result.seed,
        "rounds": [
            {"round": r.round_number,
             "val_accuracy": r.val_accuracy,
             "client_val_accuracies": list(r.client_val_accuracies),
             "cumulative_epochs": r.cumulative_epochs}
            for r in result.rounds
        ],
        "test_accuracy": result.test_accuracy,
        "client_test_accuracies": _per_client(
            result.client_ids, result.client_test_accuracies),
        "client_epoch_counts": _per_client(
            result.client_ids, result.client_epoch_counts),
        "timing": {
            "total_duration_s": result.total_duration_s,
            "round_durations_s": [r.duration_s for r in result.rounds],
        },
    }


def _cmd_run(args) -> int:
    cfg, model, clients, group_all = _experiment(args)
    result = _train("run", cfg.schedule(), cfg, model, clients, group_all)
    out = _out_dir(args)
    _write_csv(out / "rounds.csv", [
        ["round", "strategy", "seed", "val_metric",
         *[f"val_client_{cid}" for cid in result.client_ids],
         "cumulative_epochs", "duration_s"],
        *([rec.round_number, result.strategy, result.seed,
           f"{rec.val_accuracy:.6f}",
           *[f"{a:.6f}" for a in rec.client_val_accuracies],
           rec.cumulative_epochs, f"{rec.duration_s:.3f}"]
          for rec in result.rounds)])
    _write_json(out / "summary.json", _run_summary(cfg, result))
    save_checkpoint(result.final_weights, out / "model.ckpt")
    print(f"strategy={result.strategy} seed={result.seed} "
          f"test_accuracy={result.test_accuracy:.4f}")
    print(f"results in {out}")
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
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    cfg, model, clients, group_all = _experiment(args)
    presets = schedule_presets()
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
        initargs=(cfg, model, clients, group_all))
    try:
        futures = {name: pool.submit(_sweep_job, name, schedules[name])
                   for name in ["global", "local", *columns]}
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

    out = _out_dir(args)
    _write_csv(out / "sweep.csv", [
        ["metric", *columns],
        *([label, *[f"{v:.6f}" for v in values]] for label, values in rows.items()),
        ["duration_s", *[f"{fed[c].total_duration_s:.3f}" for c in columns]]])
    _write_json(out / "summary.json", {
        "command": "sweep",
        "config": cfg.to_dict(),
        "columns": columns,
        "rows": rows,
        "timing": {
            "federated_duration_s": {c: fed[c].total_duration_s for c in columns},
            "local_duration_s": local.total_duration_s,
            "global_duration_s": pooled.total_duration_s,
        },
    })
    for label in ("client_average", "pooled_test", "local_average", "global"):
        cells = " ".join(f"{v:.4f}" for v in rows[label])
        print(f"{label:16s} {cells}")
    print(f"results in {out}")
    return EXIT_OK


def _cmd_baseline(args) -> int:
    cfg, model, clients, group_all = _experiment(args)
    res = _train(args.mode, cfg.schedule(), cfg, model, clients, group_all)
    key = "mean_test_accuracy" if args.mode == "local" else "test_accuracy"
    accuracy = getattr(res, key)
    out = _out_dir(args)
    _write_json(out / "summary.json", {
        "command": f"baseline-{args.mode}",
        "config": cfg.to_dict(),
        key: accuracy,
        "client_test_accuracies": _per_client(
            res.client_ids, res.client_test_accuracies),
        "timing": {"total_duration_s": res.total_duration_s},
    })
    print(f"{args.mode} baseline {key.replace('mean_', 'mean ')}={accuracy:.4f}")
    print(f"results in {out}")
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    clients, _ = _build_data(cfg)
    manifest = save_federation(clients, args.out, metadata=cfg.to_dict())
    print(f"wrote {manifest}")
    return EXIT_OK


def _cmd_eval_detections(args) -> int:
    ground_truths = load_ground_truths(args.ground_truth)
    detections = load_detections(args.detections)
    report = evaluate_detections(detections, ground_truths, args.iou_threshold,
                                 eleven_point=args.eleven_point)
    fields = dataclasses.asdict(report)
    payload = {"iou_threshold": fields.pop("iou_threshold"),
               "eleven_point": args.eleven_point, **fields}
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


def main(argv=None) -> int:
    level = getattr(logging,
                    os.environ.get("FEDSIM_LOG_LEVEL", "INFO").upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

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
    except KeyboardInterrupt:
        log.error("interrupted")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
