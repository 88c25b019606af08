"""Output checks: structural sanity plus a fingerprint of the deterministic part.

Wall-clock fields are dropped before fingerprinting (the ``timing`` key of
``summary.json``, the ``duration_s`` column of ``rounds.csv`` and row of
``sweep.csv``); everything else the program writes must repeat bit for bit
for a given seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path


class OutputError(Exception):
    """An output file is missing, malformed or inconsistent."""


def _require(condition: bool, message: str):
    if not condition:
        raise OutputError(message)


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise OutputError(f"{path.name}: {exc}") from None


def _csv_without_durations(path: Path) -> list[list[str]]:
    try:
        rows = list(csv.reader(path.read_text().splitlines()))
    except OSError as exc:
        raise OutputError(f"{path.name}: {exc}") from None
    _require(len(rows) > 1, f"{path.name}: no data rows")
    keep = [i for i, cell in enumerate(rows[0]) if cell != "duration_s"]
    return [[row[i] for i in keep] for row in rows if row and row[0] != "duration_s"]


def _is_accuracy(value) -> bool:
    return isinstance(value, float) and 0.0 <= value <= 1.0


def read_checkpoint(path: Path) -> tuple[int, bytes]:
    """Parameter count and raw float64 payload of a fedsim checkpoint."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise OutputError(f"{path.name}: {exc}") from None
    _require(len(raw) >= 8, f"{path.name}: truncated")
    (header_len,) = struct.unpack_from("<Q", raw)
    try:
        header = json.loads(raw[8:8 + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise OutputError(f"{path.name}: bad header") from None
    count = header.get("count")
    payload = raw[8 + header_len:]
    _require(isinstance(count, int) and len(payload) == 8 * count,
             f"{path.name}: payload does not hold {count} float64 values")
    _require(all(math.isfinite(v) for (v,) in struct.iter_unpack("<d", payload)),
             f"{path.name}: non-finite weight")
    return count, payload


def check_sweep(out: Path, expect: dict) -> tuple[dict, dict]:
    summary = _load_json(out / "summary.json")
    _require(summary.get("command") == "sweep", "summary.json: not a sweep")
    summary.pop("timing", None)
    rows = summary.get("rows", {})
    columns = summary.get("columns")
    _require(columns == expect["columns"], f"summary.json: columns {columns}")
    _require(set(expect["rows"]) <= set(rows), "summary.json: rows missing")
    _require(all(len(v) == len(columns) and all(_is_accuracy(a) for a in v)
                 for v in rows.values()), "summary.json: accuracy out of [0, 1]")
    table = _csv_without_durations(out / "sweep.csv")
    _require(table[0] == ["metric", *columns] and len(table) == len(rows) + 1,
             "sweep.csv: wrong shape")
    facts = {f"pooled_test_{c}": rows["pooled_test"][i] for i, c in enumerate(columns)}
    facts["global"] = rows["global"][0]
    return {"summary.json": summary, "sweep.csv": table}, facts


def check_run(out: Path, expect: dict) -> tuple[dict, dict]:
    summary = _load_json(out / "summary.json")
    _require(summary.get("command") == "run", "summary.json: not a run")
    summary.pop("timing", None)
    _require(len(summary.get("rounds", ())) == expect["rounds"], "summary.json: round count")
    counts = summary.get("client_epoch_counts", {})
    _require(len(counts) == expect["clients"]
             and set(counts.values()) == {expect["rounds"] * expect["epochs_per_round"]},
             "summary.json: epoch accounting")
    _require(_is_accuracy(summary.get("test_accuracy")), "summary.json: test_accuracy")
    table = _csv_without_durations(out / "rounds.csv")
    _require(len(table) == expect["rounds"] + 1, "rounds.csv: round count")
    count, payload = read_checkpoint(out / "model.ckpt")
    _require(count == expect["params"], f"model.ckpt: {count} parameters")
    weights_sha = hashlib.sha256(payload).hexdigest()
    return ({"summary.json": summary, "rounds.csv": table, "model.ckpt": weights_sha},
            {"test_accuracy": summary["test_accuracy"], "weights_sha256": weights_sha})


def check_detections(out: Path, expect: dict) -> tuple[dict, dict]:
    report = _load_json(out / "report.json")
    tp, fp = report.get("true_positives"), report.get("false_positives")
    n_gt = report.get("num_ground_truths")
    aps = report.get("per_class_ap", {})
    _require(isinstance(tp, int) and isinstance(fp, int)
             and tp + fp == expect["detections"], "report: tp + fp != detections")
    _require(n_gt == expect["ground_truths"] and 0 <= tp <= n_gt, "report: ground truths")
    _require(len(aps) == expect["classes"] and all(_is_accuracy(v) for v in aps.values()),
             "report: per-class AP")
    _require(math.isclose(report.get("mean_ap", -1.0), sum(aps.values()) / len(aps),
                          rel_tol=1e-12), "report: mean_ap is not the mean AP")
    _require(math.isclose(report.get("precision", -1.0), tp / (tp + fp), rel_tol=1e-12)
             and math.isclose(report.get("recall", -1.0), tp / n_gt, rel_tol=1e-12),
             "report: precision/recall disagree with the counts")
    return {"report.json": report}, {"mean_ap": report["mean_ap"], "true_positives": tp}


def fingerprint(outputs: dict) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
