"""Object-detection quality metrics: IoU, greedy matching, AP and mAP.

Boxes are continuous axis-aligned rectangles (no pixel convention: the box
(0, 0, 2, 2) has area 4). A set of detections or ground truths is held as
one columnar :class:`BoxTable`: image and class ids as lists of str, the
corners as one (N, 4) float64 array, and for detections a float64 array of
confidences. The table is a read-only sequence whose items are built on
demand as :class:`Detection` or :class:`GroundTruth` records; a list of
such records goes into the same table through :meth:`BoxTable.from_records`,
so there is one matching path. The file loaders parse each file in one
pass straight into a table and check every box and confidence in one
vectorized pass; an error names the first bad line.

Matching is the usual greedy pass in descending confidence within each
(image, class) pair. Each pair is scored at once: a numpy IoU matrix, built
with the same IEEE operations as :func:`iou`, keeps for every detection
only its candidates at or above the threshold, ranked by IoU, and one plain
pass hands each detection its first untaken candidate. Average precision
integrates the monotone precision envelope over recall, on arrays whose
sums run left to right, so the result is reproducible term by term.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from sys import intern

import numpy as np

from .errors import ConfigError, UndefinedMetricError, ValidationError


@dataclass(frozen=True)
class Box:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        # A NaN or infinite corner makes a side NaN, infinite or negative, so
        # this one test passes exactly the boxes that every check below would.
        width, height = self.x_max - self.x_min, self.y_max - self.y_min
        if width > 0.0 and height > 0.0 and 0.0 < width * height < math.inf:
            return
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise ValidationError(f"box coordinates must be finite, got {coords}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValidationError(
                f"box must have positive extent, got {coords}")
        # an area that over- or underflows would make IoU inf/inf or 0/0
        raise ValidationError(
            f"box area must be positive and finite, got {coords}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass(frozen=True)
class GroundTruth:
    image_id: str
    class_id: str
    box: Box


@dataclass(frozen=True)
class Detection:
    image_id: str
    class_id: str
    confidence: float
    box: Box

    def __post_init__(self):
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValidationError(
                f"confidence must lie in [0, 1], got {self.confidence}")


class BoxTable(Sequence):
    """Detections or ground truths as columns.

    ``image_ids`` and ``class_ids`` are lists of str, ``boxes`` a C-contiguous
    (N, 4) float64 array of ``x_min, y_min, x_max, y_max`` rows, and
    ``confidences`` a float64 array for detections (None for ground truths).
    Indexing and iteration build a :class:`Detection` or :class:`GroundTruth`
    per item, so the table reads like a list of records.
    """

    def __init__(self, image_ids: list[str], class_ids: list[str],
                 boxes: np.ndarray, confidences: np.ndarray | None = None):
        self.image_ids = image_ids
        self.class_ids = class_ids
        self.boxes = boxes
        self.confidences = confidences

    @classmethod
    def from_records(cls, records) -> BoxTable:
        """A table of Detection or GroundTruth records; a table is returned as is."""
        if isinstance(records, cls):
            return records
        records = list(records)
        boxes = np.array([(r.box.x_min, r.box.y_min, r.box.x_max, r.box.y_max)
                          for r in records], dtype=np.float64).reshape(-1, 4)
        confidences = None
        if all(isinstance(r, Detection) for r in records):
            confidences = np.array([r.confidence for r in records], dtype=np.float64)
        return cls([r.image_id for r in records], [r.class_id for r in records],
                   boxes, confidences)

    def __len__(self) -> int:
        return len(self.image_ids)

    def __getitem__(self, i: int) -> Detection | GroundTruth:
        image_id, class_id = self.image_ids[i], self.class_ids[i]
        box = Box(*self.boxes[i].tolist())
        if self.confidences is None:
            return GroundTruth(image_id, class_id, box)
        return Detection(image_id, class_id, float(self.confidences[i]), box)


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area; 0 when the boxes do not overlap."""
    inter_w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    inter_h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if inter_w <= 0.0 or inter_h <= 0.0:
        return 0.0
    inter = inter_w * inter_h
    return inter / (a.area + b.area - inter)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """``out[i, j] == iou(Box(*boxes_a[i]), Box(*boxes_b[j]))``, bit for bit.

    Takes two (n, 4) arrays of corners. Each element goes through the
    operations of :func:`iou` in the same order. The division is masked to
    the overlapping pairs; the others stay 0.
    """
    ax0, ay0, ax1, ay1 = boxes_a.T[:, :, None]
    bx0, by0, bx1, by1 = boxes_b.T
    inter_w = np.minimum(ax1, bx1)
    inter_w -= np.maximum(ax0, bx0)
    inter_h = np.minimum(ay1, by1)
    inter_h -= np.maximum(ay0, by0)
    overlap = (inter_w > 0.0) & (inter_h > 0.0)
    # Far-apart pairs may overflow below; they are masked out of the division.
    # An overlapping pair overflows only in a union of two huge areas, which
    # gives inf and an IoU of 0, as in iou().
    with np.errstate(over="ignore", invalid="ignore"):
        inter = inter_w * inter_h
        union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0)
        union -= inter
        return np.divide(inter, union, out=np.zeros(inter.shape), where=overlap)


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching outcome.

    ``labels`` aligns with the detections as given (True marks a true
    positive); the confidence-sorted traversal order is internal.
    """

    labels: tuple[bool, ...]
    num_ground_truths: int

    @property
    def num_true_positives(self) -> int:
        return sum(self.labels)

    @property
    def num_unmatched_ground_truths(self) -> int:
        return self.num_ground_truths - self.num_true_positives


def _check_threshold(iou_threshold: float):
    if not (0.0 < iou_threshold <= 1.0):
        raise ConfigError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")


def _rank_into(groups: dict, keys, confidences: np.ndarray) -> dict:
    """File each detection's index under its key, if ``groups`` has that key.

    ``keys`` yields one key per detection. Each group then lists its
    detections most confident first, ties in input order: the order a stable
    sort of all detections by descending confidence gives the group.
    """
    for di, key in enumerate(keys):
        members = groups.get(key)
        if members is not None:
            members.append(di)
    negated = (-confidences).tolist()
    for members in groups.values():
        members.sort(key=negated.__getitem__)
    return groups


def _candidates(det_boxes: np.ndarray, gt_boxes: np.ndarray,
                iou_threshold: float) -> tuple[list[int], list[int]]:
    """(detection, ground truth) position pairs with IoU >= the threshold.

    Sorted by detection, then by descending IoU, then by ground-truth
    position, so each detection's first untaken candidate is its best one.
    """
    overlaps = iou_matrix(det_boxes, gt_boxes)
    rows, cols = np.nonzero(overlaps >= iou_threshold)
    ranked = np.lexsort((cols, -overlaps[rows, cols], rows))
    return rows[ranked].tolist(), cols[ranked].tolist()


def match_detections(detections: Sequence[Detection],
                     ground_truths: Sequence[GroundTruth],
                     iou_threshold: float = 0.5) -> MatchResult:
    """Match detections to ground truths greedily, most confident first.

    Ties in confidence fall back to input order; a ground truth can absorb
    only one detection; candidates are restricted to the same image and class.
    A detection is a true positive when its best-IoU unmatched candidate
    reaches the threshold (equal IoUs resolve to the earliest ground truth).

    Groups never share a ground truth, so each (image, class) group is
    matched on its own. The best unmatched candidate reaches the threshold
    exactly when some unmatched candidate does, so only candidates at or above
    it are kept, each detection's ranked by (-IoU, ground-truth index). In
    confidence order, a detection then takes its first untaken candidate.
    """
    _check_threshold(iou_threshold)
    detections = BoxTable.from_records(detections)
    ground_truths = BoxTable.from_records(ground_truths)
    gt_groups: dict[tuple[str, str], list[int]] = {}
    for gi, key in enumerate(zip(ground_truths.image_ids, ground_truths.class_ids)):
        gt_groups.setdefault(key, []).append(gi)
    det_groups = _rank_into({key: [] for key in gt_groups},
                            zip(detections.image_ids, detections.class_ids),
                            detections.confidences)

    labels = [False] * len(detections)
    for key, det_ids in det_groups.items():
        if not det_ids:
            continue
        gt_ids = gt_groups[key]
        rows, cols = _candidates(detections.boxes[det_ids],
                                 ground_truths.boxes[gt_ids], iou_threshold)
        taken = [False] * len(gt_ids)
        matched = -1
        for row, col in zip(rows, cols):
            if row != matched and not taken[col]:
                taken[col] = True
                labels[det_ids[row]] = True
                matched = row
    return MatchResult(labels=tuple(labels), num_ground_truths=len(ground_truths))


def average_precision(labels_by_confidence: list[bool], num_ground_truths: int,
                      *, eleven_point: bool = False) -> float:
    """AP for one class from match labels already sorted by descending
    confidence.

    The default integrates precision-over-recall with the precision envelope
    (every recall step contributes); ``eleven_point=True`` instead averages
    the envelope at the eleven recall levels 0.0, 0.1, ..., 1.0, reading 0
    at a level that no rank reaches.

    Every sum is a ``cumsum``, which adds strictly left to right, so the
    result is that of a plain loop over the ranks, bit for bit (``np.sum``
    adds pairwise and would not be).
    """
    if num_ground_truths < 1:
        raise UndefinedMetricError("AP needs at least one ground truth")
    if not labels_by_confidence:
        return 0.0

    tp = np.cumsum(labels_by_confidence)
    precisions = tp / np.arange(1, len(tp) + 1)
    recalls = tp / num_ground_truths
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]

    if eleven_point:
        # recalls never decrease: the first rank reaching each level
        first = np.searchsorted(recalls, np.arange(11) / 10.0)
        return float(np.cumsum(np.append(envelope, 0.0)[first])[-1] / 11.0)
    return float(np.cumsum(np.diff(recalls, prepend=0.0) * envelope)[-1])


@dataclass(frozen=True)
class DetectionReport:
    iou_threshold: float
    per_class_ap: dict
    mean_ap: float
    precision: float
    recall: float
    true_positives: int
    false_positives: int
    num_ground_truths: int


def evaluate_detections(detections: Sequence[Detection],
                        ground_truths: Sequence[GroundTruth],
                        iou_threshold: float = 0.5,
                        *, eleven_point: bool = False) -> DetectionReport:
    """Score a detection set: per-class AP, their mean, and micro P/R.

    Only classes that appear in the ground truth get an AP (and enter the
    mean); detections for absent classes still count as false positives in
    the micro precision. No ground truths at all leaves every recall-based
    quantity undefined, which raises UndefinedMetricError.
    """
    _check_threshold(iou_threshold)
    detections = BoxTable.from_records(detections)
    ground_truths = BoxTable.from_records(ground_truths)
    if not ground_truths:
        raise UndefinedMetricError("cannot score detections without ground truths")

    match = match_detections(detections, ground_truths, iou_threshold)
    tp = match.num_true_positives
    fp = len(detections) - tp

    num_gt = Counter(ground_truths.class_ids)
    by_class = _rank_into({cls: [] for cls in sorted(num_gt, key=str)},
                          detections.class_ids, detections.confidences)
    per_class_ap = {
        cls: average_precision([match.labels[di] for di in det_ids],
                               num_gt[cls], eleven_point=eleven_point)
        for cls, det_ids in by_class.items()}

    return DetectionReport(
        iou_threshold=iou_threshold,
        per_class_ap=per_class_ap,
        mean_ap=sum(per_class_ap.values()) / len(per_class_ap),
        precision=tp / len(detections) if detections else 0.0,
        recall=tp / match.num_ground_truths,
        true_positives=tp,
        false_positives=fp,
        num_ground_truths=match.num_ground_truths,
    )


# ---------------------------------------------------------------------------
# Plain-text interchange files, one record per line, whitespace separated.

def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def _load_table(path: str | Path, expected_tokens: int) -> BoxTable:
    """Parse a record file in one pass, then check its rows as one table.

    The parse stops at the first line with the wrong field count or a token
    that ``float`` rejects. A row read before it that fails the checks of
    ``Box`` (or ``Detection``) lies on an earlier line, so its error, worded
    by building its record, is raised first.
    """
    width = expected_tokens - 2
    image_ids: list[str] = []
    class_ids: list[str] = []
    numbers = array("d")
    stop = None
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != expected_tokens:
            stop = f"{path}:{lineno}: expected {expected_tokens} fields, got {len(tokens)}"
            break
        try:
            numbers.extend(map(float, tokens[2:]))
        except ValueError as exc:
            del numbers[len(image_ids) * width:]
            stop = f"{path}:{lineno}: {exc}"
            break
        # ids repeat from line to line: keep one str object per distinct id
        image_ids.append(intern(tokens[0]))
        class_ids.append(intern(tokens[1]))

    values = np.frombuffer(numbers, dtype=np.float64).reshape(len(image_ids), width)
    x_min, y_min, x_max, y_max = values[:, -4:].T
    with np.errstate(over="ignore", invalid="ignore"):
        w, h = x_max - x_min, y_max - y_min
        area = w * h
    valid = (w > 0.0) & (h > 0.0) & (0.0 < area) & (area < math.inf)
    if expected_tokens == 7:
        # NaN fails both comparisons, so this is Detection's finite-in-[0, 1]
        valid &= (values[:, 0] >= 0.0) & (values[:, 0] <= 1.0)
    bad = np.flatnonzero(~valid)
    if bad.size:
        row = int(bad[0])
        # only an error needs a row's line number: count the non-blank lines
        lines = enumerate(_read_text(path).splitlines(), start=1)
        lineno = next(islice((n for n, line in lines if line.split()), row, None))
        *confidence, x0, y0, x1, y1 = values[row].tolist()
        try:
            box = Box(x0, y0, x1, y1)
            if confidence:
                Detection(image_ids[row], class_ids[row], *confidence, box)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        raise AssertionError(f"{path}:{lineno}: rejected by the vectorized checks only")
    if stop is not None:
        raise ValidationError(stop)
    if expected_tokens == 7:
        return BoxTable(image_ids, class_ids, np.ascontiguousarray(values[:, 1:]),
                        values[:, 0].copy())
    return BoxTable(image_ids, class_ids, values)


def load_ground_truths(path: str | Path) -> BoxTable:
    """Read ``image_id class_id x_min y_min x_max y_max`` lines."""
    return _load_table(path, 6)


def load_detections(path: str | Path) -> BoxTable:
    """Read ``image_id class_id confidence x_min y_min x_max y_max`` lines."""
    return _load_table(path, 7)
