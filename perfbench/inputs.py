"""Seeded inputs for the benchmark workloads.

Everything the program reads is written here from the workload seed, outside
the repository's ``configs/`` and ``tests/``; the program only ever sees the
generated files and CLI flags. The same seed always gives byte-identical
files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Cross-device shape (LEAF-like): many clients, few samples each, one local
# epoch per round, so server-side aggregation and evaluation carry real weight.
CROSS_DEVICE_CONFIG = {
    "num_clients": 64,
    "split": {"train": 20, "val": 10, "test": 10},
    "architecture": "one_hidden_layer",
    "input_dim": 64,
    "num_classes": 10,
    "hidden_units": 256,
    "strategy": "fedmedian",
    "rounds": 40,
    "epochs_per_round": 1,
    "total_epochs": 40,
}

# Crowded detection scene: 50 images x 4 classes, 25 ground truths and 100
# detections per (image, class) group.
DET_IMAGES = 50
DET_CLASSES = 4
DET_GT_PER_GROUP = 25
DET_PER_GROUP = 100
DET_JITTERED_PER_GROUP = 60  # the rest are boxes placed anywhere in the image
DET_IMAGE_SIZE = 640.0


def write_cross_device_config(path: Path, seed: int) -> Path:
    path.write_text(json.dumps({**CROSS_DEVICE_CONFIG, "seed": seed}, indent=2) + "\n")
    return path


def _box(rng: random.Random) -> tuple[float, float, float, float]:
    w = rng.uniform(24.0, 96.0)
    h = rng.uniform(24.0, 96.0)
    x = rng.uniform(0.0, DET_IMAGE_SIZE - w)
    y = rng.uniform(0.0, DET_IMAGE_SIZE - h)
    return x, y, x + w, y + h


def _jitter(rng: random.Random, box) -> tuple[float, float, float, float]:
    x0, y0, x1, y1 = box
    w, h = x1 - x0, y1 - y0
    dx, dy = rng.gauss(0.0, 0.15) * w, rng.gauss(0.0, 0.15) * h
    sw, sh = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
    cx, cy = (x0 + x1) / 2 + dx, (y0 + y1) / 2 + dy
    return cx - w * sw / 2, cy - h * sh / 2, cx + w * sw / 2, cy + h * sh / 2


def _fmt(values) -> str:
    # Two decimals keep every box at least 19 units wide after rounding.
    return " ".join(f"{v:.2f}" for v in values)


def write_detection_files(directory: Path, seed: int) -> tuple[Path, Path, int, int]:
    """Write ground-truth and detection files; return their paths and sizes."""
    rng = random.Random(f"perfbench-detections-{seed}")
    gt_lines, det_lines = [], []
    for image in range(DET_IMAGES):
        image_id = f"img{image:03d}"
        for cls in range(DET_CLASSES):
            class_id = f"cls{cls}"
            truths = [_box(rng) for _ in range(DET_GT_PER_GROUP)]
            gt_lines += [f"{image_id} {class_id} {_fmt(b)}" for b in truths]
            for k in range(DET_PER_GROUP):
                if k < DET_JITTERED_PER_GROUP:
                    box = _jitter(rng, rng.choice(truths))
                else:
                    box = _box(rng)
                det_lines.append(f"{image_id} {class_id} {rng.random():.4f} {_fmt(box)}")
    rng.shuffle(det_lines)
    gt_path = directory / "ground_truth.txt"
    det_path = directory / "detections.txt"
    gt_path.write_text("\n".join(gt_lines) + "\n")
    det_path.write_text("\n".join(det_lines) + "\n")
    return gt_path, det_path, len(gt_lines), len(det_lines)
