from __future__ import annotations

import atexit
import csv
import dataclasses
import gc
import json
import logging
import multiprocessing
import os
import pathlib
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from concurrent.futures import process

from fedsim import cli
from fedsim.aggregation import FedOptConfig
from fedsim.config import ExperimentConfig
from fedsim.data import check_clients, load_federation, save_federation
from fedsim.errors import ConfigError
from fedsim.orchestration import schedule_presets
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


def read_federation(data_dir):
    """(header, [{split: [features, labels]} for each listed client]) of
    ``data_dir``'s federation.bin, as copies."""
    raw = (data_dir / "federation.bin").read_bytes()
    (size,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + size])
    width, offset, clients = header["width"], 8 + size, []
    for entry in header["clients"]:
        arrays = {}
        for split in ("train", "val", "test"):
            n = entry["rows"][split]
            features = np.frombuffer(raw, "<f8", n * width, offset).reshape(n, width)
            labels = np.frombuffer(raw, "<i8", n, offset + 8 * n * width)
            offset += 8 * n * (width + 1)
            arrays[split] = [features.copy(), labels.copy()]
        clients.append(arrays)
    return header, clients


def write_federation(data_dir, header, clients):
    (data_dir / "federation.bin").write_bytes(container(
        json.dumps(header).encode("utf-8"), b"".join(
            features.astype("<f8").tobytes() + labels.astype("<i8").tobytes()
            for arrays in clients for features, labels in arrays.values())))


class TestRun:
    def test_writes_csv_summary_and_checkpoint(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", tiny_config,
                         "--out", str(out)]) == 0

        with open(out / "rounds.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "strategy", "seed", "val_metric",
                           "val_client_1", "val_client_2",
                           "cumulative_epochs"]
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
        assert (fresh / "model.ckpt").read_bytes() == \
            (reloaded / "model.ckpt").read_bytes()


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
        assert [row[0] for row in rows[1:]] == [
            "client_1", "client_2", "client_average", "pooled_test",
            "local_average", "global"]

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
                # schedule and strategy are run_federated's own parameters,
                # passed by keyword; the rest are the config's keywords, and
                # the config's patience rides on the schedule
                fields = {key: dataclasses.asdict(value)
                          if key == "fedopt" else value
                          for key, value in kwargs.items()
                          if key not in ("schedule", "strategy")}
                if "schedule" in kwargs:
                    fields["patience"] = kwargs["schedule"].patience
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
                              "fedopt": FedOptConfig(), "patience": 1}] * 5
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
        clients = cli._build_data(cfg)
        presets = schedule_presets()
        local, pooled = (cli._train(job, presets["opt1"], cfg, model, clients)
                         for job in ("local", "global"))
        fed = [cli._train("run", sched, cfg, model, clients)
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

        def failing_preset(model, clients, schedule, *args, **kwargs):
            if schedule == schedule_presets()["opt3"]:
                opt3_failed.touch()
                raise ConfigError("opt3 failed")
            return run_federated_real(model, clients, schedule, *args,
                                      **kwargs)

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

        def dying_preset(model, clients, schedule, *args, **kwargs):
            if schedule == schedule_presets()["opt3"]:
                os._exit(9)  # the worker dies as if killed: no exception
            return run_federated_real(model, clients, schedule, *args,
                                      **kwargs)

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
            # json.dumps tells -0.0 from 0.0, which == does not
            tables[len(cpus)] = ((out / "sweep.csv").read_bytes(),
                                 json.dumps(summary_without_timing(out / "summary.json")))
        assert multiprocessing.active_children() == []
        assert tables[1] == tables[2]


class TestGenData:
    def test_metadata_is_the_config(self, tiny_config, tmp_path):
        data_dir = tmp_path / "fed"
        assert cli.main(["gen-data", "--config", tiny_config,
                         "--out", str(data_dir), "--seed", "9"]) == 0
        assert [p.name for p in data_dir.iterdir()] == ["federation.bin"]
        metadata = read_federation(data_dir)[0]["metadata"]
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

    def test_far_apart_boxes_print_no_warning(self, tmp_path):
        # the intersection width of this pair overflows to -inf; numpy once
        # warned "overflow encountered in subtract" on stderr
        gt, det = tmp_path / "gt.txt", tmp_path / "det.txt"
        gt.write_text("img c 1e308 0 1.1e308 1\n")
        det.write_text("img c 0.9 -1.1e308 0 -1e308 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fedsim", "eval-detections", "--ground-truth",
             str(gt), "--detections", str(det)], env=src_env(),
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        assert (report["true_positives"], report["mean_ap"]) == (0, 0.0)

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
        # plain ValueError, not a JSONDecodeError; a federation file's
        # header is JSON too
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
            bad = data_dir / "federation.bin"
            bad.write_bytes(container(f'{{"width": {huge}}}'.encode()))
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
        header, clients = read_federation(data_dir)
        clients[1]["train"][1][0] = label
        write_federation(data_dir, header, clients)
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
            bad = data_dir / "federation.bin"
            bad.write_bytes(container(b'{"width": \xff}'))
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



def _narrow_client_2(header, clients):
    for pair in clients[1].values():
        pair[0] = pair[0][:, :-1]


def _set_feature(split, value):
    """An edit that sets one feature of client 2's ``split`` to ``value``."""
    def edit(header, clients):
        clients[1][split][0][1, 2] = value
    return edit


def _edit_header(edit):
    """An edit of the header alone."""
    return lambda header, clients: edit(header)


def _edit_client_2(edit):
    """An edit of client 2's header entry alone."""
    return lambda header, clients: edit(header["clients"][1])


# case: (in-place edit of read_federation's (header, clients), which
# write_federation encodes back; words of the one error line). The TINY
# federation holds 2 clients of 20 + 8 + 8 rows of width 32: 19,008 bytes.
MALFORMED_FEDERATIONS = {
    "clients-not-a-list": (_edit_header(lambda h: h.update(clients={"a": 1})),
                           "federation.bin needs a non-empty 'clients' list"),
    # once "cannot pool an empty client list", naming no file
    "no-clients": (_edit_header(lambda h: h.update(clients=[])),
                   "federation.bin needs a non-empty 'clients' list"),
    "client-not-an-object": (_edit_header(lambda h: h["clients"].__setitem__(1, 2)),
                             "'clients' list of objects"),
    # once "duplicate client ids: [1, 1]", naming no file
    "repeated-client-id": (_edit_client_2(lambda e: e.update(client_id=1)),
                           "federation.bin: client_id 1 is listed twice"),
    "no-client-id": (_edit_client_2(lambda e: e.pop("client_id")),
                     "federation.bin: client_id must be an integer, got None"),
    "client-id-string": (_edit_client_2(lambda e: e.update(client_id="2")),
                         "federation.bin: client_id must be an integer, got '2'"),
    "client-id-float": (_edit_client_2(lambda e: e.update(client_id=2.0)),
                        "federation.bin: client_id must be an integer, got 2.0"),
    "no-width": (_edit_header(lambda h: h.pop("width")),
                 "federation.bin: width must be a positive integer, got None"),
    "width-string": (_edit_header(lambda h: h.update(width="32")),
                     "federation.bin: width must be a positive integer, got '32'"),
    "width-zero": (_edit_header(lambda h: h.update(width=0)),
                   "federation.bin: width must be a positive integer, got 0"),
    "no-rows": (_edit_client_2(lambda e: e.pop("rows")),
                "client 2 needs positive integer ['train', 'val', 'test'] rows, "
                "got None"),
    "rows-missing-val": (_edit_client_2(lambda e: e["rows"].pop("val")),
                         "rows, got {'train': 20, 'test': 8}"),
    "rows-float": (_edit_client_2(lambda e: e["rows"].update(train=20.0)),
                   "rows, got {'train': 20.0, 'val': 8, 'test': 8}"),
    "rows-zero": (_edit_client_2(lambda e: e["rows"].update(val=0)),
                  "rows, got {'train': 20, 'val': 0, 'test': 8}"),
    "row-count-too-high": (_edit_client_2(lambda e: e["rows"].update(train=21)),
                           "federation.bin: 73 rows of width 32 need 19272 "
                           "payload bytes, got 19008"),
    "payload-too-short": (lambda h, c: c[1]["test"].__setitem__(1, c[1]["test"][1][:-1]),
                          "federation.bin: 72 rows of width 32 need 19008 "
                          "payload bytes, got 19000"),
    "payload-too-long": (lambda h, c: c[1]["test"].__setitem__(
                             1, np.append(c[1]["test"][1], 0)),
                         "federation.bin: 72 rows of width 32 need 19008 "
                         "payload bytes, got 19016"),
    # the payload size still matches, so only the config catches it
    "row-counts-shifted": (_edit_client_2(lambda e: e["rows"].update(train=21, val=7)),
                           "federation.bin: split is [20, 8, 8] but client 2 has "
                           "[21, 7, 8] rows"),
    # once a client file of its own width, caught against the first file's
    "narrower-client": (_narrow_client_2,
                        "federation.bin: 72 rows of width 32 need 19008 "
                        "payload bytes, got 18720"),
    # these two used to end in "training diverged" (exit 3) and in a written
    # summary scored on an infinite feature (exit 0)
    "nan-train-feature": (_set_feature("train", float("nan")),
                          "federation.bin: client 2 split 'train' features hold "
                          "non-finite"),
    "infinite-val-feature": (_set_feature("val", float("inf")),
                             "federation.bin: client 2 split 'val' features hold "
                             "non-finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FEDERATIONS))
def test_malformed_federation_is_config_error(tiny_config, tmp_path, caplog,
                                              case):
    edit, words = MALFORMED_FEDERATIONS[case]
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", tiny_config,
                     "--out", str(data_dir)]) == 0
    header, clients = read_federation(data_dir)
    edit(header, clients)
    write_federation(data_dir, header, clients)
    caplog.clear()
    assert cli.main(["run", "--config", tiny_config, "--out",
                     str(tmp_path / "out"), "--data", str(data_dir)]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and words in errors[0]


@pytest.mark.parametrize("where", ["config", "federation"])
def test_deeply_nested_json_is_config_error(tiny_config, tmp_path, caplog,
                                            capsys, where):
    # the C decoder gives up at a depth of 1,000 with a RecursionError
    deep = "[" * 10_000 + "]" * 10_000
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", tiny_config,
                     "--out", str(data_dir)]) == 0
    config = tiny_config
    if where == "config":
        path = tmp_path / "deep.json"
        path.write_text(deep)
        config = str(path)
    else:
        path = data_dir / "federation.bin"
        path.write_bytes(container(deep.encode("utf-8")))
    caplog.clear()
    assert cli.main(["run", "--config", config, "--out",
                     str(tmp_path / "out"), "--data", str(data_dir)]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].startswith(str(path))
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("case", ["device", "directory", "missing", "old-layout"])
def test_federation_file_must_be_a_regular_file(tiny_config, tmp_path, caplog,
                                                case):
    # a device was read until memory ran out; /dev/null stands in for it,
    # as it reads nothing
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", tiny_config,
                     "--out", str(data_dir)]) == 0
    path = data_dir / "federation.bin"
    path.unlink()
    if case == "device":
        path.symlink_to(os.devnull)
    elif case == "directory":
        path.mkdir()
    elif case == "old-layout":  # a manifest and one file per client
        (data_dir / "federation.json").write_text(json.dumps(
            {"clients": [{"file": "client_01.bin"}, {"file": "client_02.bin"}]}))
        for name in ("client_01.bin", "client_02.bin"):
            (data_dir / name).write_bytes(container(b"{}"))
    caplog.clear()
    assert cli.main(["run", "--config", tiny_config, "--out",
                     str(tmp_path / "out"), "--data", str(data_dir)]) == 2
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.ERROR] == [
        f"{path} is missing or not a regular file; re-run gen-data to write "
        f"the federation"]


@pytest.mark.parametrize("fields, words", [
    ({"num_clients": 3}, "num_clients is 3 but {path} holds 2 clients"),
    ({"split": [19, 8, 8]},
     "{path}: split is [19, 8, 8] but client 1 has [20, 8, 8] rows"),
    ({"split": [20, 8, 9]},
     "{path}: split is [20, 8, 9] but client 1 has [20, 8, 8] rows"),
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
    assert len(errors) == 1
    assert words.format(path=data_dir / "federation.bin") in errors[0]
    assert not (tmp_path / "out").exists()


def _run_on_saved_data(tmp_path, caplog, config=TINY, header_edit=None,
                       extra=()):
    """gen-data at TINY, optionally edit the header of federation.bin, then
    ``run --data`` with ``config``; returns the exit code and the error lines."""
    data_dir = tmp_path / "fed"
    (tmp_path / "gen.json").write_text(json.dumps(TINY))
    assert cli.main(["gen-data", "--config", str(tmp_path / "gen.json"),
                     "--out", str(data_dir)]) == 0
    if header_edit:
        header, clients = read_federation(data_dir)
        header_edit(header)
        write_federation(data_dir, header, clients)
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
    path = tmp_path / "fed" / "federation.bin"
    assert code == 2 and len(errors) == 1
    assert errors[0] == (f"{field} is {value} but {path} "
                         f"was generated with {default}")
    assert not (tmp_path / "out").exists()


def test_run_data_takes_another_seed(tmp_path, caplog):
    # --seed retrains the same data: the seed in the metadata is not compared
    code, errors = _run_on_saved_data(tmp_path, caplog, extra=["--seed", "9"])
    assert code == 0 and not errors
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 9
    assert read_federation(tmp_path / "fed")[0]["metadata"]["seed"] == TINY["seed"]


def test_run_data_without_metadata_is_not_checked(tmp_path, caplog):
    code, errors = _run_on_saved_data(
        tmp_path, caplog, {**TINY, "class_separation": 0.4},
        header_edit=lambda h: h.pop("metadata"))
    assert code == 0 and not errors


def test_run_data_metadata_must_be_an_object(tmp_path, caplog):
    code, errors = _run_on_saved_data(
        tmp_path, caplog, header_edit=lambda h: h.update(metadata=[0.3]))
    assert code == 2 and len(errors) == 1
    assert errors[0].endswith("federation.bin: metadata must be an object, "
                              "got [0.3]")


ROOT = pathlib.Path(__file__).resolve().parents[1]
QUICK = ROOT / "configs" / "quick.json"


def src_env(**overrides):
    """The environment, with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_run_data_reads_the_federation_once(tmp_path, monkeypatch):
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", str(QUICK),
                     "--out", str(data_dir)]) == 0
    reads = []

    def counted(read):
        def wrapper(self, *args, **kwargs):
            reads.append(self.name)
            return read(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(pathlib.Path, "read_text", counted(pathlib.Path.read_text))
    monkeypatch.setattr(pathlib.Path, "read_bytes", counted(pathlib.Path.read_bytes))
    assert cli.main(["run", "--config", str(QUICK), "--out",
                     str(tmp_path / "out"), "--data", str(data_dir)]) == 0
    assert reads == ["quick.json", "federation.bin"]


def test_client_order_in_the_file_does_not_change_the_run(tmp_path):
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", str(QUICK),
                     "--out", str(data_dir)]) == 0
    in_order = tmp_path / "in-order"
    assert cli.main(["run", "--config", str(QUICK), "--out", str(in_order),
                     "--data", str(data_dir)]) == 0
    header = read_federation(data_dir)[0]
    save_federation(load_federation(data_dir)[::-1], data_dir, header["metadata"])
    assert [e["client_id"] for e in read_federation(data_dir)[0]["clients"]] == \
        [4, 3, 2, 1]

    clients = load_federation(data_dir)
    assert [c.client_id for c in clients] == [1, 2, 3, 4]
    cfg = ExperimentConfig.from_json_file(QUICK)
    assert check_clients(clients, cfg.model()) == clients
    reversed_out = tmp_path / "reversed"
    assert cli.main(["run", "--config", str(QUICK), "--out", str(reversed_out),
                     "--data", str(data_dir)]) == 0
    assert summary_without_timing(reversed_out / "summary.json") == \
        summary_without_timing(in_order / "summary.json")


def test_failed_gen_data_leaves_the_old_federation_whole(tiny_config, tmp_path):
    # with one file per client, a write that failed at client 2 left client
    # 1 of the new seed beside client 2 of the old, under the old manifest,
    # and the run on that mix exited 0
    data_dir = tmp_path / "fed"
    assert cli.main(["gen-data", "--config", tiny_config, "--out",
                     str(data_dir), "--seed", "0"]) == 0
    (data_dir / "federation.bin.tmp").mkdir()
    assert cli.main(["gen-data", "--config", tiny_config, "--out",
                     str(data_dir), "--seed", "1"]) == 4
    clean_dir = tmp_path / "clean"
    assert cli.main(["gen-data", "--config", tiny_config, "--out",
                     str(clean_dir), "--seed", "0"]) == 0
    outs = []
    for name, data in (("after", data_dir), ("clean", clean_dir)):
        outs.append(tmp_path / name)
        assert cli.main(["run", "--config", tiny_config, "--out", str(outs[-1]),
                         "--data", str(data)]) == 0
    after, clean = outs
    assert (after / "model.ckpt").read_bytes() == (clean / "model.ckpt").read_bytes()
    assert summary_without_timing(after / "summary.json") == \
        summary_without_timing(clean / "summary.json")


SWEEP_PRINTED_ROWS = ("client_average", "pooled_test", "local_average", "global")

# command -> (summary keys in file order, timing keys in file order, the
# files of the results directory, the lines printed above "results in" as
# read from the summary). The golden test and the benchmark hash summaries
# with sorted keys, so only this table pins their order.
OUTPUTS = {
    "run": (["command", "config", "strategy", "seed", "rounds", "test_accuracy",
             "client_test_accuracies", "client_epoch_counts", "timing"],
            ["total_duration_s", "round_durations_s"],
            ["model.ckpt", "rounds.csv", "summary.json"],
            lambda s: [f"strategy={s['strategy']} seed={s['seed']} "
                       f"test_accuracy={s['test_accuracy']:.4f}"]),
    "sweep": (["command", "config", "columns", "rows", "timing"],
              ["federated_duration_s", "local_duration_s", "global_duration_s"],
              ["summary.json", "sweep.csv"],
              lambda s: [f"{label:16s} " + " ".join(f"{v:.4f}" for v in s["rows"][label])
                         for label in SWEEP_PRINTED_ROWS]),
    "baseline-local": (["command", "config", "mean_test_accuracy",
                        "client_test_accuracies", "timing"],
                       ["total_duration_s"], ["summary.json"],
                       lambda s: ["local baseline mean test_accuracy="
                                  f"{s['mean_test_accuracy']:.4f}"]),
    "baseline-global": (["command", "config", "test_accuracy",
                         "client_test_accuracies", "timing"],
                        ["total_duration_s"], ["summary.json"],
                        lambda s: [f"global baseline test_accuracy={s['test_accuracy']:.4f}"]),
}


@pytest.mark.parametrize("argv", [["run"], ["sweep"], ["baseline", "local"],
                                  ["baseline", "global"]], ids=" ".join)
def test_each_command_writes_its_keys_in_order_and_prints_its_lines(argv, tmp_path,
                                                                    capsys):
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main([*argv, "--config", str(QUICK), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    text = (out / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(text)
    assert summary["command"] == "-".join(argv)
    keys, timing_keys, files, printed = OUTPUTS[summary["command"]]
    assert list(summary) == keys
    assert list(summary["timing"]) == timing_keys
    assert list(summary["config"]) == \
        list(ExperimentConfig.from_json_file(QUICK).to_dict())
    assert text == json.dumps(summary, indent=2) + "\n"
    assert sorted(path.name for path in out.iterdir()) == files
    if summary["command"] == "sweep":
        assert list(summary["rows"]) == [
            "client_1", "client_2", "client_3", "client_4", *SWEEP_PRINTED_ROWS]
    assert stdout.splitlines() == [*printed(summary), f"results in {out}"]


@pytest.mark.parametrize("command, name", [
    ("run", "rounds.csv"), ("run", "model.ckpt"), ("run", "summary.json"),
    ("sweep", "sweep.csv"), ("sweep", "summary.json")])
def test_a_failed_result_write_leaves_no_summary(tiny_config, tmp_path, caplog,
                                                 capsys, command, name):
    # each file was atomic but the set was not: a model.ckpt write that
    # failed left seed 1's summary.json beside seed 0's model.ckpt. A
    # directory that holds a summary.json now holds one run's files.
    out, fresh = tmp_path / "out", tmp_path / "fresh"

    def run(directory, seed):
        return cli.main([command, "--config", tiny_config, "--out",
                         str(directory), "--seed", str(seed)])

    assert run(out, 0) == 0
    (out / f"{name}.tmp").mkdir()  # the temp file cannot be written
    caplog.clear()
    capsys.readouterr()
    assert run(out, 1) == 4
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "summary.json").exists()

    (out / f"{name}.tmp").rmdir()
    assert run(out, 1) == 0
    assert run(fresh, 1) == 0
    assert _outputs(out) == _outputs(fresh)


def test_overflowing_logits_are_a_numeric_error(tmp_path, caplog, capsys):
    # the finite weights of a huge server step overflow the logits; the run
    # printed numpy's warning, scored the non-finite logits and exited 0
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(dict(
        json.loads(QUICK.read_text(encoding="utf-8")), strategy="fedopt",
        server_learning_rate=1.7e308, rounds=1, epochs_per_round=15,
        total_epochs=15)))
    out = tmp_path / "out"
    caplog.clear()
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.WARNING] == [
        "numerical failure: non-finite logits"]
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert not out.exists()


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


NUMPY_MEMORY_ERROR = ("Unable to allocate 27.6 GiB for an array with shape "
                      "(3700000004,) and data type float64")


@pytest.mark.parametrize("message, logged", [
    (NUMPY_MEMORY_ERROR, f"out of memory: {NUMPY_MEMORY_ERROR}"),
    ("", "out of memory: an allocation failed")], ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_of_memory_exits_6_with_one_line(tiny_config, tmp_path,
                                             monkeypatch, caplog, capsys,
                                             command, message, logged):
    # nothing is allocated: the patched run raises what numpy raises when an
    # allocation fails, and a sweep's forked workers inherit the patch
    def out_of_memory(*args, **kwargs):
        raise MemoryError(*[message] if message else [])

    monkeypatch.setattr(cli, "run_federated", out_of_memory)
    caplog.clear()
    out = tmp_path / "out"
    assert cli.main([command, "--config", tiny_config, "--out", str(out)]) == 6
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.WARNING] == [logged]
    assert "Traceback" not in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert not out.exists()


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt during the test, even in a run started
    with SIGINT ignored, as a non-interactive shell starts ``cmd &``."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


INTERRUPTED_SWEEP = """
import faulthandler, os, signal, sys, time
faulthandler.dump_traceback_later(40, exit=True)  # a hang prints every thread's stack
signal.signal(signal.SIGINT, signal.default_int_handler)  # even if started ignored
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
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_SWEEP, tiny_config,
         str(tmp_path / "out")], env=src_env(FEDSIM_LOG_LEVEL="WARNING"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=50)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the sweep and its forked workers
        # a worker may hold the pipe open after the sweep's faulthandler exit
        _, stderr = proc.communicate()
        raise AssertionError(f"the sweep did not end; its stderr:\n{stderr}") from None
    assert proc.returncode == 130, stderr
    assert time.monotonic() - started < 30
    assert stderr.splitlines() == ["ERROR fedsim: interrupted"]
    assert not (tmp_path / "out").exists()


def test_python_m_fedsim_runs_the_cli(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "fedsim", "--help"],
                          cwd=tmp_path, env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fedsim ")


def test_ctrl_c_while_the_sweep_pool_starts(tiny_config, tmp_path, monkeypatch,
                                           caplog, capsys, sigint_raises):
    # a SIGINT before the pool's manager thread started left a thread that
    # pool.shutdown could not join: "cannot join thread before it is started"
    start = process._ExecutorManagerThread.start

    def interrupted_start(self):
        os.kill(os.getpid(), signal.SIGINT)
        start(self)

    monkeypatch.setattr(process._ExecutorManagerThread, "start", interrupted_start)
    caplog.clear()
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", tiny_config, "--out", str(out)]) == 130
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.WARNING] == ["interrupted"]
    assert "Traceback" not in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_unknown_log_level_warns_and_logs_at_info(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fedsim", "gen-data", "--config", str(QUICK),
         "--out", "fed"], cwd=tmp_path, env=src_env(FEDSIM_LOG_LEVEL="DEBG"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "WARNING fedsim: unknown FEDSIM_LOG_LEVEL 'DEBG'; logging at INFO",
        "INFO fedsim: generating 4-client federation (seed 0)"]


def test_main_registers_one_exit_freeze_and_freezes_nothing(tiny_config,
                                                             tmp_path,
                                                             monkeypatch):
    registered = []
    monkeypatch.setattr(cli, "_freezes_at_exit", False)
    monkeypatch.setattr(atexit, "register", registered.append)
    for out in ("first", "second"):
        assert cli.main(["run", "--config", tiny_config,
                         "--out", str(tmp_path / out)]) == 0
    assert registered == [gc.freeze]
    assert gc.get_freeze_count() == 0


def test_importing_the_cli_registers_no_exit_callback():
    probe = ("import atexit, logging, numpy\n"
             "before = atexit._ncallbacks()\n"
             "import fedsim.cli\n"
             "print(atexit._ncallbacks() - before, __import__('gc').get_freeze_count())")
    proc = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


# ``python -m fedsim`` as runpy runs it, with an exit probe registered before
# main: atexit runs last-in first-out, so the probe runs after main's hook.
PROBED_CLI = """
import atexit, gc, runpy

def probe():
    with open("freeze_count", "w") as f:
        f.write(str(gc.get_freeze_count()))

atexit.register(probe)
runpy.run_module("fedsim", run_name="__main__", alter_sys=True)
"""


def _outputs(directory):
    """The files under ``directory``, bytes but for ``summary.json``'s
    wall-clock ``timing``."""
    files = {}
    for path in sorted(directory.rglob("*")):
        if path.name == "summary.json":
            files[path.name] = summary_without_timing(path)
        elif path.is_file():
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("command", ["eval-detections", "run", "bad-config"])
def test_the_process_exit_changes_no_output(tmp_path, monkeypatch, caplog,
                                            capsys, command):
    (tmp_path / "bad.json").write_text(json.dumps({"num_clients": 0}))
    gt, det = TestEvalDetections().write_files(tmp_path)
    argv = {"eval-detections": ["eval-detections", "--ground-truth", str(gt),
                                "--detections", str(det), "--out", "out/report.json"],
            "run": ["run", "--config", str(QUICK), "--out", "out"],
            "bad-config": ["run", "--config", str(tmp_path / "bad.json"),
                           "--out", "out"]}[command]
    runs = {}
    for where in ("in-process", "subprocess"):
        (tmp_path / where / "out").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / where)
        if where == "in-process":
            caplog.clear()
            code = cli.main(argv)
            stdout = capsys.readouterr().out
            logged = [f"{r.levelname} {r.name}: {r.getMessage()}"
                      for r in caplog.records if r.levelno >= logging.WARNING]
        else:
            proc = subprocess.run(
                [sys.executable, "-c", PROBED_CLI, *argv], cwd=tmp_path / where,
                env=src_env(FEDSIM_LOG_LEVEL="WARNING"), capture_output=True,
                text=True, timeout=120)
            code, stdout, logged = proc.returncode, proc.stdout, proc.stderr.splitlines()
            assert int((tmp_path / where / "freeze_count").read_text()) > 0
        runs[where] = code, stdout, logged, _outputs(tmp_path / where / "out")
    assert runs["subprocess"] == runs["in-process"]
    code, stdout, logged, outputs = runs["subprocess"]
    assert code == (2 if command == "bad-config" else 0)
    assert len(logged) == (1 if command == "bad-config" else 0)
    assert bool(outputs) == (command != "bad-config")
