"""Object-detection quality metrics: IoU, greedy matching, AP and mAP.

Boxes are continuous axis-aligned rectangles (no pixel convention: the box
(0, 0, 2, 2) has area 4). A set of detections or ground truths is held as
one columnar :class:`BoxTable`: image and class ids as tuples of str, the
corners as one (N, 4) float64 array, and for detections a float64 array of
confidences. The table is a read-only sequence whose items are built on
demand as :class:`Detection` or :class:`GroundTruth` records; a list of
such records goes into the same table through :meth:`BoxTable.from_records`,
so there is one matching path. A table checks its column lengths and, in one
vectorized pass, every box and confidence when it is built. The file loaders
read each file in 64 KiB blocks of whole lines and parse it in one pass
straight into a table, so they hold its columns but never its whole text.
numpy's C reader parses a block, unless it holds a token, id or character on
which that reader could disagree with ``str.split`` and ``float``; such a
block is parsed line by line, the one path that words a bad line, and a bad
row's error names its line.

Matching is the usual greedy pass in descending confidence within each
(image, class) pair, whose members come from index arrays: a stable argsort
by confidence, then one by pair. That confidence ranking is taken once per
evaluation; :class:`MatchResult` carries it, and the per-class AP groups
reuse it. Each pair is scored at once: a numpy IoU matrix, built with the
same IEEE operations as :func:`iou` from box areas computed once per table,
clamps each intersection side at 0 and divides every pair, so a pair that
does not overlap reads 0 without a mask. It keeps for every detection only
its candidates at or above the threshold, ranked by IoU, and one plain pass
hands each detection its first untaken candidate. Average precision
integrates the monotone precision envelope over recall, on arrays whose sums
run left to right, so the result is reproducible term by term.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque
from collections.abc import Iterable, Sequence
from dataclasses import field
from itertools import repeat
from pathlib import Path
from sys import intern

import numpy as np

from .errors import (ConfigError, ShapeError, UndefinedMetricError,
                     ValidationError, checked, held, owned, record)


def _box_ok(x_min, y_min, x_max, y_max):
    """The box rule, on floats or numpy columns: positive sides and a finite
    positive area, so IoU is never inf/inf or 0/0. NaN or infinite corners fail."""
    width, height = x_max - x_min, y_max - y_min
    area = width * height
    return (width > 0.0) & (height > 0.0) & (0.0 < area) & (area < math.inf)


def _confidence_ok(confidence):
    """The confidence rule, on a float or numpy column: in [0, 1], so not NaN."""
    return (confidence >= 0.0) & (confidence <= 1.0)


# A corner or a confidence takes a float, or an int that fits one, never a
# bool; NaN and the infinities pass the type rule, and the box and confidence
# rules word them.
_OWN_FINITE_RULE = {"finite": False}


@record
class Box:
    x_min: float = field(metadata=_OWN_FINITE_RULE)
    y_min: float = field(metadata=_OWN_FINITE_RULE)
    x_max: float = field(metadata=_OWN_FINITE_RULE)
    y_max: float = field(metadata=_OWN_FINITE_RULE)

    def __post_init__(self):
        if _box_ok(self.x_min, self.y_min, self.x_max, self.y_max):
            return
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise ValidationError(f"box coordinates must be finite, got {coords}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValidationError(
                f"box must have positive extent, got {coords}")
        raise ValidationError(
            f"box area must be positive and finite, got {coords}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


# The ids are str by the type rule: an id 1 would silently match no id "1".
@record
class GroundTruth:
    image_id: str
    class_id: str
    box: Box


@record
class Detection:
    image_id: str
    class_id: str
    confidence: float = field(metadata=_OWN_FINITE_RULE)
    box: Box

    def __post_init__(self):
        if not _confidence_ok(self.confidence):
            raise ValidationError(
                f"confidence must lie in [0, 1], got {self.confidence}")


def _check_id_column(name: str, column) -> None:
    """A list or tuple of str by the id rule; each element type is tested once."""
    if not isinstance(column, (list, tuple)):
        raise ValidationError(
            f"{name} must be a list or tuple of str, got {type(column).__name__}")
    if not all(issubclass(kind, str) for kind in set(map(type, column))):
        bad = next(value for value in column if not isinstance(value, str))
        raise ValidationError(f"{name} must be a list or tuple of str, holds {bad!r}")


@record
class BoxTable(Sequence):
    """Detections or ground truths as columns.

    ``image_ids`` and ``class_ids`` are lists or tuples of str, held as
    tuples, ``boxes`` a C-contiguous (N, 4) float64 array of ``x_min, y_min,
    x_max, y_max`` rows, and ``confidences`` an (N,) float64 array for
    detections (None for ground truths). Indexing and iteration build a :class:`Detection` or
    :class:`GroundTruth` per item, so the table reads like a list of records.

    The constructor checks the columns: unequal lengths or a box or
    confidence column of another shape or dtype is a :class:`ShapeError`,
    and the first row that breaks the rule of ``Box`` or ``Detection`` is a
    :class:`ValidationError` whose ``row`` is its index and whose cause is
    the record's own error. The arrays follow :func:`~fedsim.errors.held`.
    """

    image_ids: tuple[str, ...] = field(repr=False)
    class_ids: tuple[str, ...] = field(repr=False)
    boxes: np.ndarray
    confidences: np.ndarray | None = None

    def __post_init__(self):
        for name in ("image_ids", "class_ids"):
            _check_id_column(name, getattr(self, name))
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.image_ids)
        if len(self.class_ids) != n:
            raise ShapeError(f"{n} image ids but {len(self.class_ids)} class ids")
        object.__setattr__(self, "boxes", boxes := held("boxes", self.boxes, np.float64, (n, 4)))
        if (confidences := self.confidences) is not None:
            confidences = held("confidences", confidences, np.float64, (n,))
            object.__setattr__(self, "confidences", confidences)
        with np.errstate(over="ignore", invalid="ignore"):
            valid = _box_ok(*boxes.T)
            if confidences is not None:
                valid &= _confidence_ok(confidences)
        bad = np.flatnonzero(~valid)
        if bad.size:
            row = int(bad[0])
            try:
                self[row]  # the record's own check words the error
            except ValidationError as exc:
                error = ValidationError(f"row {row}: {exc}")
                error.row = row
                raise error from exc

    @classmethod
    def from_records(cls, records) -> BoxTable:
        """A table of an iterable of Detection or GroundTruth records (a
        ValidationError for anything else); a table is returned as is."""
        if isinstance(records, cls):
            return records
        if not isinstance(records, Iterable):
            raise ValidationError(f"need a BoxTable or an iterable of records, got {records!r}")
        records = list(records)
        if bad := [r for r in records if not isinstance(r, (Detection, GroundTruth))]:
            raise ValidationError(f"need Detection or GroundTruth records, got {bad[0]!r}")
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


@checked
def iou(a: Box, b: Box) -> float:
    """Intersection area over union area; 0 when the boxes do not overlap."""
    inter_w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    inter_h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if inter_w <= 0.0 or inter_h <= 0.0:
        return 0.0
    inter = inter_w * inter_h
    return inter / (a.area + b.area - inter)


def _areas(boxes: np.ndarray) -> np.ndarray:
    """The area of each row of an (n, 4) corner array, as :attr:`Box.area`."""
    areas = boxes[:, 2] - boxes[:, 0]
    areas *= boxes[:, 3] - boxes[:, 1]
    return areas


def _iou(boxes_a, areas_a, boxes_b, areas_b) -> np.ndarray:
    """The IoU matrix of two corner arrays, given their areas.

    Each intersection side is clamped at 0, so a pair that does not overlap
    has intersection +0.0 and IoU 0.0 / union == 0.0, as in :func:`iou`.
    The clamp puts 0.0 second: ``np.maximum`` returns its second operand
    when the two compare equal, so a side of -0.0 becomes +0.0. A far-apart
    pair may overflow a side to -inf, which the clamp also makes 0; a union
    of two huge areas overflows to inf, which gives 0, as in iou().
    """
    ax0, ay0, ax1, ay1 = boxes_a.T[:, :, None]
    bx0, by0, bx1, by1 = boxes_b.T
    with np.errstate(over="ignore", invalid="ignore"):
        inter = np.minimum(ax1, bx1)
        inter -= np.maximum(ax0, bx0)
        np.maximum(inter, 0.0, out=inter)
        inter_h = np.minimum(ay1, by1)
        inter_h -= np.maximum(ay0, by0)
        np.maximum(inter_h, 0.0, out=inter_h)
        inter *= inter_h
        union = areas_a[:, None] + areas_b
        union -= inter
        inter /= union
    return inter


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """``out[i, j] == iou(Box(*boxes_a[i]), Box(*boxes_b[j]))``, bit for bit.

    Takes two (n, 4) arrays of corners. Each element goes through the
    operations of :func:`iou` in the same order.
    """
    return _iou(boxes_a, _areas(boxes_a), boxes_b, _areas(boxes_b))


def _labels(labels) -> np.ndarray:
    """The labels rule: 1-D bool, never cast; empty is the empty bool array."""
    labels = np.asarray(labels)
    if labels.size and (labels.dtype != bool or labels.ndim != 1):
        raise ValidationError(f"labels must be a sequence of bools, got "
                              f"{labels.dtype} of shape {labels.shape}")
    return labels if labels.size else np.zeros(0, dtype=bool)


@record
class MatchResult:
    """Greedy matching outcome.

    ``labels`` is an owned 1-D bool array, one label per detection as given
    (True marks a true positive). ``order`` is the order that
    :func:`match_detections` took: an intp array of detection positions by
    descending confidence, ties in input order, one per label, held by
    :func:`~fedsim.errors.held` (None in a result built by hand). It takes
    no part in ``==`` or ``repr``.
    """

    labels: np.ndarray
    num_ground_truths: int
    order: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", owned(_labels(self.labels)))
        if self.order is not None:
            object.__setattr__(self, "order", held("order", self.order, np.intp,
                                                   self.labels.shape))

    @property
    def num_true_positives(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def num_unmatched_ground_truths(self) -> int:
        return self.num_ground_truths - self.num_true_positives


def _check_threshold(iou_threshold: float):
    if not 0.0 < iou_threshold <= 1.0:
        raise ConfigError(f"iou_threshold must lie in (0, 1], got {iou_threshold!r}")


def _groups(codes, count: int, order=None) -> list[np.ndarray]:
    """Item positions split by their codes, 0 to ``count - 1`` (-1 is none);
    a group keeps the items in ``order`` (all positions; input order if
    None). Codes that fit int16 are sorted as int16, which numpy's stable
    sort orders by radix sort, in time linear in the items."""
    dtype = np.int16 if count < 1 << 15 else np.intp
    codes = np.fromiter(codes, dtype)
    if order is None:
        order = np.arange(len(codes))
    ranked = order[np.argsort(codes[order], kind="stable")]
    return np.split(ranked, np.searchsorted(codes[ranked], np.arange(count, dtype=dtype)))[1:]


def _candidates(overlaps: np.ndarray,
                iou_threshold: float) -> tuple[list[int], list[int]]:
    """(detection, ground truth) position pairs of an IoU matrix with IoU >=
    the threshold.

    Sorted by detection, then by descending IoU, then by ground-truth
    position, so each detection's first untaken candidate is its best one.
    """
    rows, cols = np.nonzero(overlaps >= iou_threshold)
    ranked = np.lexsort((cols, -overlaps[rows, cols], rows))
    return rows[ranked].tolist(), cols[ranked].tolist()


@checked
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
    if detections.confidences is None:
        raise ValidationError("detections need confidences; got ground truths")
    order = np.argsort(-detections.confidences, kind="stable")
    order.flags.writeable = False
    code_of: dict[tuple[str, str], int] = {}
    gt_groups = _groups([code_of.setdefault(key, len(code_of)) for key in
                         zip(ground_truths.image_ids, ground_truths.class_ids)], len(code_of))
    det_groups = _groups(map(code_of.get, zip(detections.image_ids, detections.class_ids),
                             repeat(-1)), len(code_of), order)
    det_areas, gt_areas = _areas(detections.boxes), _areas(ground_truths.boxes)
    labels = np.zeros(len(detections), dtype=bool)
    for det_ids, gt_ids in zip(det_groups, gt_groups):
        if not det_ids.size:
            continue
        overlaps = _iou(detections.boxes[det_ids], det_areas[det_ids],
                        ground_truths.boxes[gt_ids], gt_areas[gt_ids])
        rows, cols = _candidates(overlaps, iou_threshold)
        taken = [False] * len(gt_ids)
        matched = -1
        for row, col in zip(rows, cols):
            if row != matched and not taken[col]:
                taken[col] = True
                labels[det_ids[row]] = True
                matched = row
    labels.flags.writeable = False
    return MatchResult(labels, len(ground_truths), order)


@checked
def average_precision(labels_by_confidence: list[bool], num_ground_truths: int,
                      *, eleven_point: bool = False) -> float:
    """AP for one class from match labels, a sequence of bools already
    sorted by descending confidence; an empty sequence scores 0.0. Labels
    that are not 1-D bool are a :class:`ValidationError`, never cast.

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
    labels = _labels(labels_by_confidence)
    if not labels.size:
        return 0.0
    tp = np.cumsum(labels)
    if tp[-1] > num_ground_truths:
        raise ValidationError(f"{tp[-1]} true positives exceed "
                              f"{num_ground_truths} ground truths")
    precisions = tp / np.arange(1, len(tp) + 1)
    recalls = tp / num_ground_truths
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]

    if eleven_point:
        # recalls never decrease: the first rank reaching each level
        first = np.searchsorted(recalls, np.arange(11) / 10.0)
        return float(np.cumsum(np.append(envelope, 0.0)[first])[-1] / 11.0)
    return float(np.cumsum(np.diff(recalls, prepend=0.0) * envelope)[-1])


@record
class DetectionReport:
    iou_threshold: float
    eleven_point: bool
    per_class_ap: dict
    mean_ap: float
    precision: float
    recall: float
    true_positives: int
    false_positives: int
    num_ground_truths: int


@checked
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

    num_gt = Counter(ground_truths.class_ids)
    code_of = {cls: code for code, cls in enumerate(sorted(num_gt, key=str))}
    by_class = _groups(map(code_of.get, detections.class_ids, repeat(-1)), len(code_of),
                       match.order)
    per_class_ap = {
        cls: average_precision(match.labels[det_ids], num_gt[cls], eleven_point=eleven_point)
        for cls, det_ids in zip(code_of, by_class)}

    return DetectionReport(
        iou_threshold=iou_threshold,
        eleven_point=eleven_point,
        per_class_ap=per_class_ap,
        mean_ap=sum(per_class_ap.values()) / len(per_class_ap),
        precision=tp / len(detections) if detections else 0.0,
        recall=tp / match.num_ground_truths,
        true_positives=tp,
        false_positives=len(detections) - tp,
        num_ground_truths=match.num_ground_truths,
    )


# ---------------------------------------------------------------------------
# Plain-text interchange files, one record per line, whitespace separated.
_BLOCK = 1 << 16  # bytes per read of a record file


def _text_blocks(path, file):
    """The file's text as runs of whole lines, read ``_BLOCK`` bytes at a time:
    a run ends after a newline byte, so no UTF-8 character or CR LF pair
    spans two runs, and the runs split into the whole text's lines."""
    offset, pending, data = 0, bytearray(), True
    while data:
        data = file.read(_BLOCK)
        pending += data
        cut = pending.rfind(b"\n", -len(data)) + 1 if data else len(pending)
        try:
            yield pending[:cut].decode("utf-8")
        except UnicodeDecodeError as exc:
            start, last = offset + exc.start, offset + exc.end - 1
            where = (f"byte 0x{pending[exc.start]:02x} in position {start}"
                     if start == last else f"bytes in position {start}-{last}")
            raise ValidationError(f"{path}: not UTF-8 text: 'utf-8' codec can't decode "
                                  f"{where}: {exc.reason}") from None
        del pending[:cut]
        offset += cut


_DECLINE = ("\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_ID_WIDTH = 32  # characters of an id field; an id that fills one is declined


def _read_block(block: str, lines: list[str], dtype: np.dtype, columns) -> bool:
    """Append a block's lines to the columns as numpy's C reader parses them,
    or decline where it could disagree with :func:`_read_lines`: on a token
    it rejects (``float`` also takes underscores and non-ASCII digits), a
    blank line, an id that fills its field, a NUL (the field drops a trailing
    one), a line break other than LF and CR LF (``_DECLINE`` holds both
    kinds), or a block with no data, on which numpy warns."""
    if (block.isspace() or any(c in block for c in _DECLINE)
            or "\r" in block and block.count("\r") != block.count("\r\n")):
        return False
    try:
        rows = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return False
    # an id fills its field where the field's last UCS4 character is not 0
    ends = rows.view(np.uint32).reshape(len(rows), -1)[:, [_ID_WIDTH - 1, 2 * _ID_WIDTH - 1]]
    if len(rows) != len(lines) or ends.any():
        return False
    for column, ids in zip(columns, (rows["image"], rows["class"])):
        column += map(intern, ids.tolist())  # one str object per distinct id
    columns[2].frombytes(rows["numbers"].tobytes())
    return True


def _read_lines(path, lines, lineno, expected_tokens, image_ids, class_ids, numbers,
                blank_rows) -> str | None:
    """Append a block's lines, the first numbered ``lineno``, to the columns:
    each line is split and its numbers converted with ``float``. Returns the
    error of the first line with the wrong field count or a token that
    ``float`` rejects, whose values are not kept, or None."""
    for lineno, line in enumerate(lines, lineno):
        tokens = line.split()
        if not tokens:
            blank_rows.append(len(image_ids))
            continue
        if len(tokens) != expected_tokens:
            return f"{path}:{lineno}: expected {expected_tokens} fields, got {len(tokens)}"
        try:
            numbers.extend(map(float, tokens[2:]))
        except ValueError as exc:
            del numbers[len(image_ids) * (expected_tokens - 2):]
            return f"{path}:{lineno}: {exc}"
        image_ids.append(intern(tokens[0]))
        class_ids.append(intern(tokens[1]))
    return None


def _load_table(path: str | Path, expected_tokens: int) -> BoxTable:
    """Parse a record file in one pass into a table, which checks its rows.

    numpy's C reader parses each block of whole lines that
    :func:`_read_block` does not decline; :func:`_read_lines` parses the
    rest and alone words a bad line. It stops at the first line with the
    wrong field count or a token that ``float`` rejects; later blocks are
    only decoded, so text that is not UTF-8 is reported first. The rows read
    then make the table; a row that fails its check lies before the stop,
    so wins, and its error names its line.
    """
    width = expected_tokens - 2
    dtype = np.dtype([("image", f"U{_ID_WIDTH}"), ("class", f"U{_ID_WIDTH}"),
                      ("numbers", np.float64, (width,))])
    # image ids, class ids, numbers, and per blank line the rows read before it
    columns = image_ids, class_ids, numbers, blank_rows = [], [], array("d"), []
    stop, lineno = None, 1
    with open(path, "rb") as file:
        blocks = _text_blocks(path, file)
        for block in blocks:
            lines = block.splitlines()
            if lines and not _read_block(block, lines, dtype, columns):
                stop = _read_lines(path, lines, lineno, expected_tokens, *columns)
                if stop is not None:
                    break
            lineno += len(lines)
        deque(blocks, maxlen=0)  # decode the rest: its errors come first

    # copy the columns out, frozen so that the table keeps them; drop the parse buffer
    parsed = np.frombuffer(numbers, dtype=np.float64).reshape(len(image_ids), width)
    boxes, confidences = parsed[:, -4:].copy(), parsed[:, 0].copy()
    del parsed, numbers, columns
    boxes.flags.writeable = confidences.flags.writeable = False
    try:
        table = BoxTable(image_ids, class_ids, boxes, confidences if width == 5 else None)
    except ValidationError as exc:
        lineno = exc.row + 1 + sum(before <= exc.row for before in blank_rows)
        raise ValidationError(f"{path}:{lineno}: {exc.__cause__}") from None
    if stop is not None:
        raise ValidationError(stop)
    return table


def load_ground_truths(path: str | Path) -> BoxTable:
    """Read ``image_id class_id x_min y_min x_max y_max`` lines."""
    return _load_table(path, 6)


def load_detections(path: str | Path) -> BoxTable:
    """Read ``image_id class_id confidence x_min y_min x_max y_max`` lines."""
    return _load_table(path, 7)
