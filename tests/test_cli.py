from __future__ import annotations

import csv
import dataclasses
import json
import logging
import multiprocessing
import os
import pathlib
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from fedsim import cli
from fedsim.aggregation import FedOptConfig
from fedsim.config import ExperimentConfig
from fedsim.data import load_federation, pool_clients
from fedsim.errors import ConfigError
from fedsim.orchestration import _checked_clients
from fedsim.orchestration import (run_federated, run_global_baseline,
                                  run_local_baseline, schedule_presets)
from fedsim.params import load_checkpoint

TINY = {
    "num_clients": 2,
    "split": [20, 8, 8],
    "rounds": 2,
    "epochs_per_round": 2,
    "total_epochs": 4,
    "batch_size": 8,
    "seed": 5,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def summary_without_timing(path):
    payload = json.loads(path.read_text())
    payload.pop("timing")
    return payload


def container(header: bytes, payload: bytes = b"") -> bytes:
    """A length-prefixed container holding the raw ``header`` bytes."""
    return struct.pack("<Q", len(header)) + header + payload


def read_client(path):
    """(header, {split: [features, labels]}) of a client file, as copies."""
    raw = path.read_bytes()
    (size,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + size])
    width, offset, arrays = header["width"], 8 + size, {}
    for split in ("train", "val", "test"):
        n = header["rows"][split]
        features = np.frombuffer(raw, "<f8", n * width, offset).reshape(n, width)
        labels = np.frombuffer(raw, "<i8", n, offset + 8 * n * width)
        offset += 8 * n * (width + 1)
        arrays[split] = [features.copy(), labels.copy()]
    return header, arrays


def write_client(path, header, arrays):
    path.write_bytes(container(json.dumps(header).encode("utf-8"), b"".join(
        features.astype("<f8").tobytes() + labels.astype("<i8").tobytes()
        for features, labels in arrays.values())))


class TestRun:
    def test_writes_csv_summary_and_checkpoint(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", tiny_config,
                         "--out", str(out)]) == 0

        with open(out / "rounds.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "strategy", "seed", "val_metric",
                           "val_client_1", "val_client_2",
                           "cumulative_epochs", "duration_s"]
        assert len(rows) == 3
        assert rows[1][:3] == ["1", "fedavg", "5"]
        assert rows[2][6] == "4"

        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "fedavg"
        assert summary["client_epoch_counts"] == {"1": 4, "2": 4}
        assert "timing" in summary

        ckpt = load_checkpoint(out / "model.ckpt")
        assert len(ckpt) == 4 * 32 + 4

    def test_repeat_runs_identical_after_dropping_timing(self, tiny_config,
                                                         tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", tiny_config, "--out", str(a)]) == 0
        assert cli.main(["run", "--config", tiny_config, "--out", str(b)]) == 0
        assert summary_without_timing(a / "summary.json") == \
            summary_without_timing(b / "summary.json")

    def test_strategy_and_seed_overrides(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", tiny_config, "--out", str(out),
                         "--strategy", "fedmedian", "--seed", "11"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "fedmedian"
        assert summary["seed"] == 11

    def test_preset_override_reshapes_schedule(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", tiny_config, "--out", str(out),
                         "--preset", "opt1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["rounds"] == 3
        assert summary["config"]["epochs_per_round"] == 50
        assert summary["client_epoch_counts"] == {"1": 150, "2": 150}

    def test_saved_federation_reproduces_generated_run(self, tiny_config,
                                                       tmp_path):
        data_dir = tmp_path / "fed"
        assert cli.main(["gen-data", "--config", tiny_config,
                         "--out", str(data_dir)]) == 0
        fresh, reloaded = tmp_path / "fresh", tmp_path / "reloaded"
        assert cli.main(["run", "--config", tiny_config,
                         "--out", str(fresh)]) == 0
        assert cli.main(["run", "--config", tiny_config, "--out",
                         str(reloaded), "--data", str(data_dir)]) == 0
        assert summary_without_timing(fresh / "summary.json") == \
            summary_without_timing(reloaded / "summary.json")


class TestSweepAndBaselines:
    def test_sweep_emits_table_shape(self, tiny_config, tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", tiny_config,
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["columns"] == ["opt1", "opt2", "opt3", "opt4"]
        expected_rows = {"client_1", "client_2", "client_average",
                         "pooled_test", "local_average", "global"}
        assert set(summary["rows"]) == expected_rows
        assert all(len(v) == 4 for v in summary["rows"].values())

        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "opt1", "opt2", "opt3", "opt4"]
        assert rows[-1][0] == "duration_s"

    def test_baselines_write_summaries(self, tiny_config, tmp_path):
        local_out, global_out = tmp_path / "local", tmp_path / "global"
        assert cli.main(["baseline", "local", "--config", tiny_config,
                         "--out", str(local_out)]) == 0
        assert cli.main(["baseline", "global", "--config", tiny_config,
                         "--out", str(global_out)]) == 0
        local = json.loads((local_out / "summary.json").read_text())
        pooled = json.loads((global_out / "summary.json").read_text())
        assert set(local["client_test_accuracies"]) == {"1", "2"}
        assert list(pooled["client_test_accuracies"]) == ["1", "2"]
        assert 0.0 <= local["mean_test_accuracy"] <= 1.0
        assert 0.0 <= pooled["test_accuracy"] <= 1.0

    def test_commands_pass_the_same_config_keywords(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(
            TINY, patience=1, prox_mu=0.05, uniform_weighting=True,
            learning_rate=0.05)))
        # sweep calls the run functions in forked workers, so each call is
        # appended to a file as one JSON line rather than to a parent list
        record_file = tmp_path / "calls.jsonl"

        def recording(name, real):
            def record(*args, **kwargs):
                fields = {key: dataclasses.asdict(value)
                          if key == "fedopt" else value
                          for key, value in kwargs.items()}
                with open(record_file, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps([name, fields]) + "\n")
                return real(*args, **kwargs)
            return record

        for name in ("run_federated", "run_local_baseline",
                     "run_global_baseline"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        for argv in (["run"], ["sweep"], ["baseline", "local"],
                     ["baseline", "global"]):
            assert cli.main([*argv, "--config", str(path),
                             "--out", str(tmp_path / argv[-1])]) == 0
        calls = {}
        for line in record_file.read_text(encoding="utf-8").splitlines():
            name, kwargs = json.loads(line)
            if "fedopt" in kwargs:
                kwargs["fedopt"] = FedOptConfig(**kwargs["fedopt"])
            calls.setdefault(name, []).append(kwargs)

        federated = calls["run_federated"]  # run, then one per sweep preset
        assert len(federated) == 5
        training = {"seed": 5, "batch_size": 8, "learning_rate": 0.05}
        assert federated == [{**training, "prox_mu": 0.05,
                              "fedopt": FedOptConfig(),
                              "uniform_weighting": True, "patience": 1}] * 5
        assert calls["run_local_baseline"] == [training, training]
        assert calls["run_global_baseline"] == [training, training]

    def test_sweep_rows_equal_in_process_runs_bitwise(self, tiny_config,
                                                      tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", tiny_config,
                         "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        rows = json.loads((out / "summary.json").read_text())["rows"]

        cfg = ExperimentConfig.from_json_file(tiny_config)
        model = cfg.model()
        clients, group_all = cli._build_data(cfg)
        presets = schedule_presets()
        budget = presets["opt1"].total_epochs
        local = run_local_baseline(model, clients, group_all, budget,
                                   **cfg.training_kwargs())
        pooled = run_global_baseline(model, clients, group_all, budget,
                                     **cfg.training_kwargs())
        fed = [run_federated(model, clients, group_all, sched, cfg.strategy,
                             **cfg.federated_kwargs())
               for sched in presets.values()]
        expected = {
            **{f"client_{cid}": [r.client_test_accuracies[i] for r in fed]
               for i, cid in enumerate(fed[0].client_ids)},
            "client_average": [sum(r.client_test_accuracies) / len(clients)
                               for r in fed],
            "pooled_test": [r.test_accuracy for r in fed],
            "local_average": [local.mean_test_accuracy] * len(fed),
            "global": [pooled.test_accuracy] * len(fed),
        }
        assert rows == expected

    @pytest.mark.parametrize("local_fails", [False, True],
                             ids=["preset", "local-and-preset"])
    def test_sweep_reports_the_first_error_in_sequential_order(
            self, tiny_config, tmp_path, monkeypatch, caplog, local_fails):
        run_federated_real = cli.run_federated
        local_real = cli.run_local_baseline
        opt3_failed = tmp_path / "opt3-failed"

        def failing_preset(model, clients, group_all, schedule, *args,
                           **kwargs):
            if schedule == schedule_presets()["opt3"]:
                opt3_failed.touch()
                raise ConfigError("opt3 failed")
            return run_federated_real(model, clients, group_all, schedule,
                                      *args, **kwargs)

        def failing_local(*args, **kwargs):
            if not local_fails:
                return local_real(*args, **kwargs)
            # fail after opt3 has, when a second worker can run it, so the
            # error reported is the first in sequential order, not in time
            deadline = time.monotonic() + 10
            while not opt3_failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ConfigError("local baseline failed")

        monkeypatch.setattr(cli, "run_federated", failing_preset)
        monkeypatch.setattr(cli, "run_local_baseline", failing_local)
        caplog.clear()
        assert cli.main(["sweep", "--config", tiny_config,
                         "--out", str(tmp_path / "out")]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == ["local baseline failed" if local_fails
                          else "opt3 failed"]
        assert multiprocessing.active_children() == []

    def test_diverging_sweep_exits_3_with_one_error_line(self, tmp_path,
                                                         caplog, capsys):
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(dict(TINY, learning_rate=1e308)))
        caplog.clear()
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 3
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == ["training diverged: loss became non-finite "
                          "at epoch 0"]
        assert "Traceback" not in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_dead_sweep_worker_exits_5_with_one_error_line(
            self, tiny_config, tmp_path, monkeypatch, caplog, capsys):
        run_federated_real = cli.run_federated

        def dying_preset(model, clients, group_all, schedule, *args, **kwargs):
            if schedule == schedule_presets()["opt3"]:
                os._exit(9)  # the worker dies as if killed: no exception
            return run_federated_real(model, clients, group_all, schedule,
                                      *args, **kwargs)

        monkeypatch.setattr(cli, "run_federated", dying_preset)
        caplog.clear()
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", tiny_config,
                         "--out", str(out)]) == 5
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == ["a sweep worker process died; no results were written"]
        assert "Traceback" not in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_one_worker_pool_writes_the_two_worker_tables(
            self, tiny_config, tmp_path, monkeypatch):
        # a 1-CPU host gets a one-worker pool; each run function records the
        # pid of the worker that ran it, in a file, since it runs in a fork
        pids = tmp_path / "pids"
        for name in ("run_federated", "run_local_baseline",
                     "run_global_baseline"):
            def record(*args, _real=getattr(cli, name), **kwargs):
                with open(pids, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, record)

        tables = {}
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"cpus{len(cpus)}"
            assert cli.main(["sweep", "--config", tiny_config,
                             "--out", str(out)]) == 0
            if len(cpus) == 1:
                assert len(set(pids.read_text().split())) == 1
            csv_lines = (out / "sweep.csv").read_bytes().splitlines()
            # json.dumps tells -0.0 from 0.0, which == does not
            tables[len(cpus)] = (
                [line for line in csv_lines if not line.startswith(b"duration_s,")],
                json.dumps(summary_without_timing(out / "summary.json")))
        assert multiprocessing.active_children() == []
        assert tables[1] == tables[2]


class TestGenData:
    def test_metadata_is_the_config(self, tiny_config, tmp_path):
        data_dir = tmp_path / "fed"
        assert cli.main(["gen-data", "--config", tiny_config,
                         "--out", str(data_dir), "--seed", "9"]) == 0
        metadata = json.loads((data_dir / "federation.json").read_text())[
            "metadata"]
        written = dataclasses.replace(
            ExperimentConfig.from_json_file(tiny_config), seed=9)
        assert ExperimentConfig.from_dict(metadata) == written


class TestEvalDetections:
    def write_files(self, tmp_path):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text("img0 car 0 0 2 2\nimg0 bus 4 4 8 8\n")
        det.write_text("img0 car 0.9 0 0 2 2\nimg0 bus 0.8 4 4 8 8\n"
                       "img0 car 0.3 10 10 11 11\n")
        return gt, det

    def test_report_on_stdout_and_file(self, tmp_path, capsys):
        gt, det = self.write_files(tmp_path)
        out = tmp_path / "report.json"
        assert cli.main(["eval-detections", "--ground-truth", str(gt),
                         "--detections", str(det), "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["mean_ap"] == 1.0
        assert printed["true_positives"] == 2
        assert json.loads(out.read_text()) == printed

    def test_custom_threshold_flag(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text("img0 car 0 0 2 2\n")
        det.write_text("img0 car 0.9 0 0 2 1\n")  # IoU exactly 0.5
        assert cli.main(["eval-detections", "--ground-truth", str(gt),
                         "--detections", str(det),
                         "--iou-threshold", "0.45"]) == 0
        assert json.loads(capsys.readouterr().out)["mean_ap"] == 1.0

    def test_failed_report_write_leaves_no_temp_file(self, tmp_path,
                                                     monkeypatch):
        gt, det = self.write_files(tmp_path)
        out = tmp_path / "report.json"

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("fedsim.params.os.replace", crash)
        assert cli.main(["eval-detections", "--ground-truth", str(gt),
                         "--detections", str(det), "--out", str(out)]) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["det.txt", "gt.txt"]

    def test_empty_ground_truth_is_a_config_error(self, tmp_path):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text("\n")
        det.write_text("img0 car 0.9 0 0 2 2\n")
        assert cli.main(["eval-detections", "--ground-truth", str(gt),
                         "--detections", str(det)]) == 2


class TestExitCodes:
    def test_missing_input_file_is_io_error(self, tmp_path):
        assert cli.main(["eval-detections", "--ground-truth",
                         str(tmp_path / "absent.txt"), "--detections",
                         str(tmp_path / "absent.txt")]) == 4

    def test_malformed_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert cli.main(["run", "--config", str(bad),
                         "--out", str(tmp_path / "out")]) == 2

    def test_inconsistent_schedule_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rounds": 3, "epochs_per_round": 3,
                                   "total_epochs": 150}))
        assert cli.main(["run", "--config", str(bad),
                         "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", "0.1"), ("prox_mu", "0.1"), ("tau", "1"),
        ("label_skew_alpha", "x"), ("class_separation", None),
        ("uniform_weighting", "no"), ("split", 5), ("split", None),
        ("split", True),
    ])
    def test_ill_typed_field_is_config_error(self, tmp_path, caplog, field,
                                             value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, field: value}))
        caplog.clear()
        assert cli.main(["run", "--config", str(bad),
                         "--out", str(tmp_path / "out")]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert errors[0].startswith(f"{field} must be")

    @pytest.mark.parametrize("field, text", [
        ("seed", "-1"),
        ("label_skew_alpha", "Infinity"),
        ("class_separation", "Infinity"),
        ("feature_shift_scale", "Infinity"),
        ("feature_shift_scale", "NaN"),
    ])
    def test_negative_seed_or_non_finite_field_is_config_error(
            self, tmp_path, caplog, field, text):
        # Python's json reads NaN and Infinity, so only the config check
        # stands between them and the data generator
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(TINY)[:-1] + f', "{field}": {text}}}')
        caplog.clear()
        assert cli.main(["run", "--config", str(bad),
                         "--out", str(tmp_path / "out")]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert errors[0].startswith(f"{field} must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep"], ["baseline", "local"],
                                         ["baseline", "global"], ["gen-data"]],
                             ids=" ".join)
    @pytest.mark.parametrize("fields", [
        {"fedopt_variant": "bogus"}, {"tau": -1}, {"beta1": 7}, {"prox_mu": -5},
        {"server_learning_rate": 0}, {"learning_rate": -1}, {"batch_size": 0},
        {"architecture": "cnn"}, {"rounds": 0, "total_epochs": None},
        {"num_clients": 0}, {"split": [-5, 8, 8]}, {"split": [10, 0, 10]},
    ], ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()))
    def test_every_command_checks_every_field(self, tmp_path, caplog, command,
                                              fields):
        # each value was once rejected only by the commands whose run
        # objects owned the rule, and written into the others' output
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, **fields}))
        caplog.clear()
        assert cli.main([*command, "--config", str(bad),
                         "--out", str(tmp_path / "out")]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_is_config_error(self, tiny_config, tmp_path, caplog):
        caplog.clear()
        assert cli.main(["run", "--config", tiny_config, "--seed", "-1",
                         "--out", str(tmp_path / "out")]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == ["seed must be >= 0, got -1"]

    @pytest.mark.parametrize("kind", ["config", "federation"])
    def test_integer_past_the_digit_cap_is_config_error(self, tiny_config, tmp_path,
                                                        caplog, kind):
        # json refuses integer literals of more than 4,300 digits with a
        # plain ValueError, not a JSONDecodeError; a client file's header
        # is JSON too
        huge = "1" + "0" * 5000
        argv = ["run", "--config", tiny_config, "--out", str(tmp_path / "out")]
        if kind == "config":
            bad = tmp_path / "bad.json"
            bad.write_text(f'{{"rounds": {huge}}}')
            argv[2] = str(bad)
        else:
            data_dir = tmp_path / "fed"
            assert cli.main(["gen-data", "--config", tiny_config,
                             "--out", str(data_dir)]) == 0
            bad = data_dir / "client_02.bin"
            bad.write_bytes(container(f'{{"client_id": {huge}}}'.encode()))
            argv += ["--data", str(data_dir)]
        caplog.clear()
        assert cli.main(argv) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert str(bad) in errors[0]

    def test_divergence_exit_code(self, tmp_path):
        cfg = dict(TINY, learning_rate=1e308)
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("label", [-1, 99])
    def test_federation_label_out_of_range_is_config_error(
            self, tiny_config, tmp_path, caplog, label):
        data_dir = tmp_path / "fed"
        assert cli.main(["gen-data", "--config", tiny_config,
                         "--out", str(data_dir)]) == 0
        client_file = data_dir / "client_02.bin"
        header, arrays = read_client(client_file)
        arrays["train"][1][0] = label
        write_client(client_file, header, arrays)
        assert cli.main(["run", "--config", tiny_config, "--out",
                         str(tmp_path / "out"), "--data", str(data_dir)]) == 2
        assert "client 2 train labels" in caplog.text

    def test_federation_wider_than_the_model_is_config_error(
            self, tiny_config, tmp_path, caplog):
        data_dir = tmp_path / "fed"
        assert cli.main(["gen-data", "--config", tiny_config,
                         "--out", str(data_dir)]) == 0
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps(dict(TINY, input_dim=16)))
        assert cli.main(["run", "--config", str(narrow), "--out",
                         str(tmp_path / "out"), "--data", str(data_dir)]) == 2
        assert "expects input_dim 16" in caplog.text

    @pytest.mark.parametrize("kind", ["config", "ground-truth", "detections",
                                      "federation"])
    def test_non_utf8_input_is_config_error(self, tiny_config, tmp_path,
                                            caplog, kind):
        gt, det = tmp_path / "gt.txt", tmp_path / "det.txt"
        gt.write_text("img0 car 0 0 2 2\n")
        det.write_text("img0 car 0.9 0 0 2 2\n")
        data_dir = tmp_path / "fed"
        assert cli.main(["gen-data", "--config", tiny_config,
                         "--out", str(data_dir)]) == 0
        argv = ["run", "--config", tiny_config, "--out", str(tmp_path / "out")]
        if kind == "config":
            bad = tmp_path / "bad.json"
            bad.write_bytes(b'{"rounds": \xff}')
            argv[2] = str(bad)
        elif kind == "federation":
            bad = data_dir / "client_02.bin"
            bad.write_bytes(container(b'{"client_id": \xff}'))
            argv += ["--data", str(data_dir)]
        else:
            bad = gt if kind == "ground-truth" else det
            bad.write_bytes(b"img0 car \xff\xfe 0 0 1 1\n")
            argv = ["eval-detections", "--ground-truth", str(gt),
                    "--detections", str(det)]
        caplog.clear()
        assert cli.main(argv) == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0].getMessage()
        assert str(bad) in errors[0].getMessage()

    def test_unknown_preset_rejected_by_parser(self, tiny_config, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--config", tiny_config,
                      "--out", str(tmp_path / "out"), "--preset", "opt9"])
        assert info.value.code == 2



def _narrow_every_split(header, arrays):
    header["width"] -= 1
    for pair in arrays.values():
        pair[0] = pair[0][:, :-1]


def _set_feature(split, value):
    """An edit that sets one feature of ``split`` to ``value``."""
    def edit(header, arrays):
        arrays[split][0][1, 2] = value
    return edit


def _edit_header(edit):
    """An edit of a client file's header alone."""
    return lambda header, arrays: edit(header)


# case: (file to edit, in-place edit of it, words of the one error line).
# federation.json edits take the parsed manifest; client file edits take
# read_client's (header, arrays), which write_client encodes back.
MALFORMED_FEDERATIONS = {
    "clients-not-a-list": ("federation.json",
                           lambda doc: doc.update(clients={"a": 1}),
                           "federation.json needs a non-empty 'clients' list"),
    # once "cannot pool an empty client list", naming no file
    "no-clients": ("federation.json", lambda doc: doc.update(clients=[]),
                   "federation.json needs a non-empty 'clients' list"),
    # both once "duplicate client ids: [1, 1]", naming no file
    "file-listed-twice": ("federation.json",
                          lambda doc: doc["clients"].__setitem__(1, doc["clients"][0]),
                          "client_01.bin: client_id 1 already read from client_01.bin"),
    "repeated-client-id": ("client_02.bin",
                           _edit_header(lambda h: h.update(client_id=1)),
                           "client_02.bin: client_id 1 already read from client_01.bin"),
    "entry-without-file": ("federation.json",
                           lambda doc: doc["clients"][0].pop("file"),
                           "federation.json: every client entry needs a 'file'"),
    "no-client-id": ("client_02.bin", _edit_header(lambda h: h.pop("client_id")),
                     "client_02.bin: client_id must be an integer, got None"),
    "client-id-string": ("client_02.bin",
                         _edit_header(lambda h: h.update(client_id="2")),
                         "client_02.bin: client_id must be an integer, got '2'"),
    "client-id-float": ("client_02.bin",
                        _edit_header(lambda h: h.update(client_id=2.0)),
                        "client_02.bin: client_id must be an integer, got 2.0"),
    "no-width": ("client_02.bin", _edit_header(lambda h: h.pop("width")),
                 "positive integers, got width None and rows"),
    "width-string": ("client_02.bin", _edit_header(lambda h: h.update(width="32")),
                     "positive integers, got width '32' and rows"),
    "no-rows": ("client_02.bin", _edit_header(lambda h: h.pop("rows")),
                "positive integers, got width 32 and rows None"),
    "rows-missing-val": ("client_02.bin",
                         _edit_header(lambda h: h["rows"].pop("val")),
                         "and rows {'train': 20, 'test': 8}"),
    "rows-float": ("client_02.bin",
                   _edit_header(lambda h: h["rows"].update(train=20.0)),
                   "and rows {'train': 20.0, 'val': 8, 'test': 8}"),
    "row-count-too-high": ("client_02.bin",
                           _edit_header(lambda h: h["rows"].update(train=21)),
                           "client_02.bin: rows [21, 8, 8] of width 32 need 9768 "
                           "payload bytes, got 9504"),
    "payload-too-short": ("client_02.bin",
                          lambda h, a: a["test"].__setitem__(1, a["test"][1][:-1]),
                          "client_02.bin: rows [20, 8, 8] of width 32 need 9504 "
                          "payload bytes, got 9496"),
    "payload-too-long": ("client_02.bin",
                         lambda h, a: a["test"].__setitem__(1, np.append(a["test"][1], 0)),
                         "client_02.bin: rows [20, 8, 8] of width 32 need 9504 "
                         "payload bytes, got 9512"),
    # the payload size still matches, so only the config catches it
    "row-counts-shifted": ("client_02.bin",
                           _edit_header(lambda h: h["rows"].update(train=21, val=7)),
                           "client_02.bin: split.train is 20 but client 2 has "
                           "21 train rows"),
    "narrower-client": ("client_02.bin", _narrow_every_split,
                        "client_02.bin: features of width 31, but "
                        "client_01.bin has width 32"),
    # these two used to end in "training diverged" (exit 3) and in a written
    # summary scored on an infinite feature (exit 0)
    "nan-train-feature": ("client_02.bin", _set_feature("train", float("nan")),
                          "client_02.bin split 'train' features hold non-finite"),
    "infinite-val-feature": ("client_02.bin", _set_feature("val", float("inf")),
                             "client_02.bin split 'val' features hold non-finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FEDERATIONS))
def test_malformed_federation_is_config_error(tiny_config, tmp_path, caplog,
                                              case):
    name, edit, words = MALFORMED_FEDERATIONS[case]
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", tiny_config,
                     "--out", str(data_dir)]) == 0
    path = data_dir / name
    if name == "federation.json":
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    else:
        header, arrays = read_client(path)
        edit(header, arrays)
        write_client(path, header, arrays)
    caplog.clear()
    assert cli.main(["run", "--config", tiny_config, "--out",
                     str(tmp_path / "out"), "--data", str(data_dir)]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and words in errors[0]


def test_old_json_client_file_is_config_error(tiny_config, tmp_path, caplog):
    # the format client files had before the container: one JSON document
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", tiny_config,
                     "--out", str(data_dir)]) == 0
    header, arrays = read_client(data_dir / "client_02.bin")
    old = data_dir / "client_02.json"
    old.write_text(json.dumps({"client_id": header["client_id"], "splits": {
        split: {"features": features.tolist(), "labels": labels.tolist()}
        for split, (features, labels) in arrays.items()}}))
    manifest_path = data_dir / "federation.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["clients"][1]["file"] = old.name
    manifest_path.write_text(json.dumps(manifest))
    caplog.clear()
    assert cli.main(["run", "--config", tiny_config, "--out",
                     str(tmp_path / "out"), "--data", str(data_dir)]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith(f"{old}: ")
    assert errors[0].endswith("re-run gen-data to rewrite the federation")


@pytest.mark.parametrize("fields, words", [
    ({"num_clients": 3}, "num_clients is 3 but the federation holds 2 clients"),
    ({"split": [19, 8, 8]},
     "client_01.bin: split.train is 19 but client 1 has 20 train rows"),
    ({"split": [20, 8, 9]},
     "client_01.bin: split.test is 9 but client 1 has 8 test rows"),
    ({"num_clients": 0}, "num_clients must be >= 1, got 0"),
    ({"split": [-5, 8, 8]}, "split must be three positive integer counts"),
], ids=["num_clients=3", "train=19", "test=9", "num_clients=0", "train=-5"])
def test_run_data_checks_the_config_counts(tiny_config, tmp_path, caplog,
                                           fields, words):
    # the counts were once written into summary.json whatever the data held
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", tiny_config,
                     "--out", str(data_dir)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, **fields}))
    caplog.clear()
    assert cli.main(["run", "--config", str(bad), "--out",
                     str(tmp_path / "out"), "--data", str(data_dir)]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and words in errors[0]
    assert not (tmp_path / "out").exists()


def _run_on_saved_data(tmp_path, caplog, config=TINY, manifest_edit=None,
                       extra=()):
    """gen-data at TINY, optionally edit federation.json, then ``run --data``
    with ``config``; returns the exit code and the error lines."""
    data_dir = tmp_path / "fed"
    (tmp_path / "gen.json").write_text(json.dumps(TINY))
    assert cli.main(["gen-data", "--config", str(tmp_path / "gen.json"),
                     "--out", str(data_dir)]) == 0
    if manifest_edit:
        manifest = json.loads((data_dir / "federation.json").read_text())
        manifest_edit(manifest)
        (data_dir / "federation.json").write_text(json.dumps(manifest))
    (tmp_path / "run.json").write_text(json.dumps(config))
    caplog.clear()
    code = cli.main(["run", "--config", str(tmp_path / "run.json"), "--out",
                     str(tmp_path / "out"), "--data", str(data_dir), *extra])
    return code, [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]


@pytest.mark.parametrize("field, value, default", [
    ("label_skew_alpha", 0.5, 0.3),
    ("feature_shift_scale", 2.0, 1.5),
    ("class_separation", 0.4, 0.3),
])
def test_run_data_checks_the_generator_fields(tmp_path, caplog, field, value,
                                              default):
    # the data were once trained and summarized under a config that did not
    # generate them
    code, errors = _run_on_saved_data(tmp_path, caplog, {**TINY, field: value})
    manifest = tmp_path / "fed" / "federation.json"
    assert code == 2 and len(errors) == 1
    assert errors[0] == (f"{field} is {value} but {manifest} "
                         f"was generated with {default}")
    assert not (tmp_path / "out").exists()


def test_run_data_takes_another_seed(tmp_path, caplog):
    # --seed retrains the same data: the seed in the metadata is not compared
    code, errors = _run_on_saved_data(tmp_path, caplog, extra=["--seed", "9"])
    assert code == 0 and not errors
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 9
    assert json.loads((tmp_path / "fed" / "federation.json").read_text())[
        "metadata"]["seed"] == TINY["seed"]


def test_run_data_without_metadata_is_not_checked(tmp_path, caplog):
    code, errors = _run_on_saved_data(
        tmp_path, caplog, {**TINY, "class_separation": 0.4},
        manifest_edit=lambda doc: doc.pop("metadata"))
    assert code == 0 and not errors


def test_run_data_metadata_must_be_an_object(tmp_path, caplog):
    code, errors = _run_on_saved_data(
        tmp_path, caplog, manifest_edit=lambda doc: doc.update(metadata=[0.3]))
    assert code == 2 and len(errors) == 1
    assert errors[0].endswith("federation.json: metadata must be an object, "
                              "got [0.3]")


ROOT = pathlib.Path(__file__).resolve().parents[1]
QUICK = ROOT / "configs" / "quick.json"


def src_env(**overrides):
    """The environment, with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_run_data_reads_the_manifest_once(tmp_path, monkeypatch):
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", str(QUICK),
                     "--out", str(data_dir)]) == 0
    reads = []
    read_text = pathlib.Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", counted)
    assert cli.main(["run", "--config", str(QUICK), "--out",
                     str(tmp_path / "out"), "--data", str(data_dir)]) == 0
    assert reads == ["quick.json", "federation.json"]


def test_manifest_order_does_not_change_the_run(tmp_path):
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", str(QUICK),
                     "--out", str(data_dir)]) == 0
    in_order = tmp_path / "in-order"
    assert cli.main(["run", "--config", str(QUICK), "--out", str(in_order),
                     "--data", str(data_dir)]) == 0
    manifest_path = data_dir / "federation.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["clients"].reverse()
    assert manifest["clients"][0]["file"] == "client_04.bin"
    manifest_path.write_text(json.dumps(manifest))

    clients, group_all = load_federation(data_dir)
    assert [c.client_id for c in clients] == [1, 2, 3, 4]
    expected = pool_clients(clients)
    for split in ("train", "val", "test"):
        for field in ("features", "labels"):
            assert np.array_equal(getattr(getattr(group_all, split), field),
                                  getattr(getattr(expected, split), field))
    cfg = ExperimentConfig.from_json_file(QUICK)
    assert _checked_clients(cfg.model(), clients, group_all) == clients
    reversed_out = tmp_path / "reversed"
    assert cli.main(["run", "--config", str(QUICK), "--out", str(reversed_out),
                     "--data", str(data_dir)]) == 0
    assert summary_without_timing(reversed_out / "summary.json") == \
        summary_without_timing(in_order / "summary.json")


def _interrupted(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_ctrl_c_exits_130_with_one_line(tiny_config, tmp_path, monkeypatch,
                                        caplog, capsys, command):
    # a sweep's jobs run in forked workers, which inherit the patch and send
    # the KeyboardInterrupt back through the pool
    monkeypatch.setattr(cli, "run_federated", _interrupted)
    caplog.clear()
    out = tmp_path / "out"
    assert cli.main([command, "--config", tiny_config, "--out", str(out)]) == 130
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.WARNING] == ["interrupted"]
    assert "Traceback" not in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert not out.exists()


INTERRUPTED_SWEEP = """
import os, signal, sys, time
from fedsim import cli

def interrupting(*args, **kwargs):
    os.killpg(0, signal.SIGINT)  # Ctrl-C: the whole process group
    time.sleep(60)  # only the parent's interrupt ends this job

cli.run_federated = interrupting
sys.exit(cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_sigint_to_the_sweep_group_ends_in_one_line(tiny_config, tmp_path):
    # every worker gets the signal too; an idle one must not print a
    # traceback, and a running one must not hold the exit for its job
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", INTERRUPTED_SWEEP, tiny_config,
         str(tmp_path / "out")], env=src_env(FEDSIM_LOG_LEVEL="WARNING"),
        capture_output=True, text=True, timeout=50, start_new_session=True)
    assert time.monotonic() - started < 30
    assert proc.returncode == 130
    assert proc.stderr.splitlines() == ["ERROR fedsim: interrupted"]
    assert not (tmp_path / "out").exists()


def test_python_m_fedsim_runs_the_cli(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "fedsim", "--help"],
                          cwd=tmp_path, env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fedsim ")
