from __future__ import annotations

import dataclasses
import math
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import detection
from fedsim.detection import (Box, BoxTable, Detection, GroundTruth,
                              MatchResult, average_precision, evaluate_detections, iou,
                              iou_matrix, load_detections, load_ground_truths,
                              match_detections)
from fedsim.errors import (ConfigError, ShapeError, UndefinedMetricError,
                           ValidationError)


def det(image, cls, conf, x0, y0, x1, y1):
    return Detection(image, cls, conf, Box(x0, y0, x1, y1))


def gt(image, cls, x0, y0, x1, y1):
    return GroundTruth(image, cls, Box(x0, y0, x1, y1))


def corners(boxes):
    """(n, 4) array of the boxes' corners, the input of iou_matrix."""
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


class TestBoxAndIoU:
    def test_overlap_fixture(self):
        # intersection 1x2 = 2, union 4 + 4 - 2 = 6
        assert iou(Box(0, 0, 2, 2), Box(1, 0, 3, 2)) == pytest.approx(
            1.0 / 3.0, abs=1e-12)

    def test_identical_boxes(self):
        b = Box(0.5, -1.0, 3.25, 2.0)
        assert iou(b, b) == 1.0

    def test_disjoint_and_touching_are_zero(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0
        assert iou(Box(0, 0, 1, 1), Box(1, 0, 2, 1)) == 0.0

    def test_contained_box(self):
        # 1x1 inside 4x4: intersection 1, union 16
        assert iou(Box(0, 0, 4, 4), Box(1, 1, 2, 2)) == pytest.approx(1 / 16)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x0, y0 = rng.uniform(0, 5, 2)
            a = Box(x0, y0, x0 + rng.uniform(0.5, 3), y0 + rng.uniform(0.5, 3))
            x0, y0 = rng.uniform(0, 5, 2)
            b = Box(x0, y0, x0 + rng.uniform(0.5, 3), y0 + rng.uniform(0.5, 3))
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0

    def test_degenerate_boxes_rejected(self):
        with pytest.raises(ValidationError):
            Box(0, 0, 0, 1)
        with pytest.raises(ValidationError):
            Box(0, 2, 1, 1)
        with pytest.raises(ValidationError):
            Box(0, 0, float("nan"), 1)

    def test_area_must_be_positive_and_finite(self):
        with pytest.raises(ValidationError, match="area"):
            Box(0, 0, 1e-200, 1e-200)  # the area underflows to 0
        with pytest.raises(ValidationError, match="area"):
            Box(-1e308, 0, 1e308, 1)  # the width overflows to inf

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(
        [0.0, 1.0, 1e-200, 1e154, 1e308, -1e308])), min_size=4, max_size=4))
    def test_box_accepts_exactly_the_valid_corners(self, corners):
        x0, y0, x1, y1 = corners
        valid = (all(np.isfinite(corners)) and x0 < x1 and y0 < y1
                 and 0.0 < (x1 - x0) * (y1 - y0) < float("inf"))
        try:
            Box(x0, y0, x1, y1)
        except ValidationError:
            assert not valid
        else:
            assert valid

    def test_matrix_equals_scalar_iou_bitwise(self):
        rng = np.random.default_rng(11)
        boxes = []
        for _ in range(60):  # integer grid: touching and identical boxes
            x0, y0 = rng.integers(0, 12, 2)
            w, h = rng.integers(1, 5, 2)
            boxes.append(Box(float(x0), float(y0), float(x0 + w), float(y0 + h)))
        for _ in range(60):
            x0, y0 = rng.uniform(-50, 50, 2)
            w, h = np.exp(rng.uniform(-8, 4, 2))
            boxes.append(Box(x0, y0, x0 + w, y0 + h))
        rng.shuffle(boxes)
        # two areas near the float maximum, whose sum overflows to inf; a box
        # so far away that the intersection overflows; a pair of Python-float
        # boxes about 1e308 apart, whose intersection width overflows to
        # -inf (numpy once warned about it); and a box whose -0.0 corner
        # touches the next one, so its intersection width is -0.0, which
        # iou() and the matrix both turn into an IoU of +0.0
        huge, far = Box(0, 0, 1e154, 1e154), Box(1e308, 0, 1.1e308, 1)
        signed = Box(-1, 0, -0.0, 1)
        first = boxes[:70] + [huge, far, signed]
        second = boxes[70:] + [Box(1, 1, 1.2e154, 1.2e154),
                               Box(-1e160, -1e160, -0.99999999e160, -0.99999999e160),
                               Box(-1.1e308, 0, -1e308, 1), Box(0, 0, 5, 1),
                               first[0]]
        got = iou_matrix(corners(first), corners(second))
        expected = np.array([[iou(a, b) for b in second] for a in first])
        assert got.shape == (len(first), len(second))
        assert got.tobytes() == expected.tobytes()
        assert (got == 0).any() and (got == 1).any()
        assert iou(huge, second[-5]) == 0.0  # inter / inf
        assert iou(far, second[-3]) == 0.0
        assert math.copysign(1.0, iou(signed, second[-2])) == 1.0

    def test_matrix_of_no_boxes_is_empty(self):
        box = corners([Box(0, 0, 1, 1)])
        assert iou_matrix(corners([]), box).shape == (0, 1)
        assert iou_matrix(box, corners([])).shape == (1, 0)

    def test_confidence_bounds(self):
        with pytest.raises(ValidationError):
            det("i", "c", 1.5, 0, 0, 1, 1)
        with pytest.raises(ValidationError):
            det("i", "c", -0.1, 0, 0, 1, 1)

    @pytest.mark.parametrize("name, value", [
        ("x_min", False), ("y_max", True), ("x_min", "0"), ("y_min", None),
        ("x_max", 10 ** 400), ("x_max", np.int64(1)), ("y_max", np.float32(1.0)),
    ], ids=["false", "true", "string", "none", "huge-int", "numpy-int", "float32"])
    def test_corner_that_is_not_a_number_names_its_field(self, name, value):
        # Box(False, False, True, True) was once a unit box, and Box("0", 0,
        # 1, 1) a bare TypeError
        corners = {"x_min": 0, "y_min": 0.0, "x_max": 1, "y_max": 1.0, name: value}
        with pytest.raises(ValidationError, match=f"^{name} must be a float or an int "
                           "within the float range, got "):
            Box(**corners)

    @pytest.mark.parametrize("confidence", [True, False, "0.5", None, 10 ** 400],
                             ids=["true", "false", "string", "none", "huge-int"])
    def test_confidence_that_is_not_a_number_is_validation_error(self, confidence):
        # Detection(..., True, box) once had confidence 1.0
        with pytest.raises(ValidationError, match="^confidence must be a float or an int"):
            Detection("i", "c", confidence, Box(0, 0, 1, 1))

    def test_the_value_rule_runs_before_the_box_and_confidence_rules(self):
        assert Box(0, 0, 1, 1) == Box(0.0, 0.0, 1.0, 1.0)
        assert det("i", "c", 1, 0, 0, 1, 1).confidence == 1
        with pytest.raises(ValidationError, match=r"^box coordinates must be finite, "
                           r"got \(0, 0, inf, 1\)$"):
            Box(0, 0, math.inf, 1)
        with pytest.raises(ValidationError, match=r"^confidence must lie in \[0, 1\], got 2$"):
            det("i", "c", 2, 0, 0, 1, 1)


class TestBoxTable:
    BOXES = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0], [1.0, 1.0, 3.0, 3.0]])

    def table(self, boxes=None, confidences=(0.9, 0.5, 0.1)):
        return BoxTable(["a", "a", "b"], ["car"] * 3,
                        self.BOXES if boxes is None else boxes,
                        None if confidences is None else np.array(confidences))

    @pytest.mark.parametrize("row, confidence, message", [
        (0, float("nan"), "confidence must lie in [0, 1], got nan"),
        (1, 2.0, "confidence must lie in [0, 1], got 2.0"),
        (2, -0.5, "confidence must lie in [0, 1], got -0.5"),
    ])
    def test_bad_confidence_names_its_row(self, row, confidence, message):
        confidences = [0.9, 0.5, 0.1]
        confidences[row] = confidence
        with pytest.raises(ValidationError) as info:
            self.table(confidences=confidences)
        assert str(info.value) == f"row {row}: {message}"
        assert info.value.row == row and str(info.value.__cause__) == message

    @pytest.mark.parametrize("corners, message", [
        ([0.0, 0.0, 0.0, 1.0], "box must have positive extent"),
        ([np.nan, 0.0, 1.0, 1.0], "box coordinates must be finite"),
        ([-1e308, -1e308, 1e308, 1e308], "box area must be positive and finite"),
    ], ids=["zero-area", "nan-corner", "infinite-area"])
    @pytest.mark.parametrize("confidences", [None, (0.9, 0.5, 0.1)],
                             ids=["ground-truths", "detections"])
    def test_bad_box_names_its_row(self, corners, message, confidences):
        # each of these tables was once scored as built
        boxes = self.BOXES.copy()
        boxes[1] = corners
        with pytest.raises(ValidationError, match=f"^row 1: {message}"):
            self.table(boxes, confidences)

    def test_box_error_wins_over_confidence_error_in_a_row(self):
        boxes = self.BOXES.copy()
        boxes[0] = [1.0, 0.0, 0.0, 1.0]
        with pytest.raises(ValidationError, match="^row 0: box must"):
            self.table(boxes, (2.0, 0.5, 0.1))

    @pytest.mark.parametrize("columns, message", [
        ((["a", "b"], ["car"] * 2, np.array([[0.0, 0.0, 1.0, 1.0]]), None),
         r"boxes must be a float64 array of shape \(2, 4\), got float64 of shape \(1, 4\)"),
        ((["a"], ["car"] * 2, np.array([[0.0, 0.0, 1.0, 1.0]]), None),
         "1 image ids but 2 class ids"),
        ((["a"], ["car"], np.array([[0, 0, 1, 1]]), None),
         r"boxes must be a float64 array of shape \(1, 4\), got int64"),
        ((["a"], ["car"], [[0.0, 0.0, 1.0, 1.0]], None),
         r"boxes must be a float64 array of shape \(1, 4\), got list"),
        ((["a"], ["car"], np.array([[0.0, 0.0, 1.0, 1.0]]), np.array([0.5, 0.5])),
         r"confidences must be a float64 array of shape \(1,\)"),
    ], ids=["two-ids-one-box", "short-image-ids", "int-boxes", "list-boxes",
            "long-confidences"])
    def test_columns_of_another_length_or_dtype_are_shape_error(self, columns, message):
        # two image ids and one box row once raised IndexError when scored
        with pytest.raises(ShapeError, match=message):
            BoxTable(*columns)

    def test_valid_table_keeps_its_columns(self):
        confidences = np.array([0.9, 0.5, 0.1])
        table = BoxTable(["a", "a", "b"], ["car"] * 3, self.BOXES, confidences)
        assert table.boxes is self.BOXES and table.confidences is confidences
        assert table[2] == det("b", "car", 0.1, 1, 1, 3, 3)
        assert len(BoxTable([], [], np.zeros((0, 4)), np.zeros(0))) == 0


class TestMatching:
    def test_single_perfect_match(self):
        result = match_detections([det("a", "car", 0.9, 0, 0, 2, 2)],
                                  [gt("a", "car", 0, 0, 2, 2)])
        assert result.labels == (True,)
        assert result.num_unmatched_ground_truths == 0

    def test_duplicate_detection_is_a_false_positive(self):
        result = match_detections(
            [det("a", "car", 0.6, 0, 0, 2, 2), det("a", "car", 0.9, 0, 0, 2, 2)],
            [gt("a", "car", 0, 0, 2, 2)])
        # the 0.9 detection wins the only ground truth; labels stay in
        # input order
        assert result.labels == (False, True)

    def test_confidence_tie_falls_back_to_input_order(self):
        result = match_detections(
            [det("a", "car", 0.7, 0, 0, 2, 2), det("a", "car", 0.7, 0, 0, 2, 2)],
            [gt("a", "car", 0, 0, 2, 2)])
        assert result.labels == (True, False)

    def test_wrong_class_or_image_never_matches(self):
        gts = [gt("a", "car", 0, 0, 2, 2)]
        assert match_detections([det("a", "bus", 1.0, 0, 0, 2, 2)],
                                gts).labels == (False,)
        assert match_detections([det("b", "car", 1.0, 0, 0, 2, 2)],
                                gts).labels == (False,)

    def test_best_iou_candidate_wins(self):
        gts = [gt("a", "car", 0, 0, 2, 2), gt("a", "car", 0.5, 0, 2.5, 2)]
        result = match_detections([det("a", "car", 0.9, 0.4, 0, 2.4, 2)], gts)
        assert result.labels == (True,)
        assert result.num_unmatched_ground_truths == 1

    def test_threshold_is_inclusive(self):
        # boxes with IoU exactly 0.5: (0,0,2,2) and (0,0,2,1)
        dets = [det("a", "car", 0.9, 0, 0, 2, 1)]
        gts = [gt("a", "car", 0, 0, 2, 2)]
        assert match_detections(dets, gts, 0.5).labels == (True,)
        assert match_detections(dets, gts, 0.6).labels == (False,)

    def test_equal_ious_go_to_the_earliest_ground_truth(self):
        # the 0.9 detection overlaps both ground truths by 1/3; taking the
        # first leaves the 0.8 detection, a copy of it, with nothing
        left, right = gt("a", "car", 0, 0, 2, 2), gt("a", "car", 2, 0, 4, 2)
        dets = [det("a", "car", 0.9, 1, 0, 3, 2), det("a", "car", 0.8, 0, 0, 2, 2)]
        assert match_detections(dets, [left, right], 0.3).labels == (True, False)
        assert match_detections(dets, [right, left], 0.3).labels == (True, True)

    @pytest.mark.parametrize("threshold", [0.0, 1.5, float("nan"), True, "0.5"])
    def test_bad_threshold_rejected(self, threshold):
        # True once scored at 1.0, and "0.5" was a bare TypeError
        with pytest.raises(ConfigError, match="iou_threshold must lie in"):
            match_detections([], [], iou_threshold=threshold)

    @pytest.mark.parametrize("score", [match_detections, evaluate_detections])
    def test_ground_truths_as_detections_rejected(self, score):
        # they carry no confidence to rank by; this was a TypeError
        gts = [gt("a", "car", 0, 0, 2, 2), gt("a", "car", 2, 0, 4, 2)]
        with pytest.raises(ValidationError, match="need confidences"):
            score(gts, gts)


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        assert average_precision([True], 1) == 1.0

    def test_trailing_false_positive_does_not_hurt(self):
        assert average_precision([True, False], 1) == 1.0

    def test_leading_false_positive_halves_ap(self):
        assert average_precision([False, True], 1) == 0.5

    def test_three_rank_hand_computation(self):
        # ranks: (r=0.5, p=1), (r=0.5, p=0.5), (r=1, p=2/3)
        # envelope: 1, 2/3, 2/3 -> AP = 0.5*1 + 0.5*(2/3) = 5/6
        assert average_precision([True, False, True], 2) == pytest.approx(
            5.0 / 6.0, rel=1e-12)

    def test_eleven_point_variant(self):
        # same curve sampled at the 11 recall levels:
        # levels 0.0-0.5 read precision 1, levels 0.6-1.0 read 2/3
        got = average_precision([True, False, True], 2, eleven_point=True)
        assert got == pytest.approx((6 * 1.0 + 5 * (2.0 / 3.0)) / 11, rel=1e-12)
        assert average_precision([False, True], 1,
                                 eleven_point=True) == pytest.approx(0.5)

    def test_no_detections_scores_zero(self):
        assert average_precision([], 5) == 0.0

    def test_no_ground_truth_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([True], 0)

    @pytest.mark.parametrize("labels", [[0.5, 1.0], [2, 3], [True, 1], ["1"], [[True]]])
    def test_labels_that_are_not_bools_are_validation_error(self, labels):
        # [0.5, 1.0] once scored 1.125 and [2, 3] scored 12.5
        with pytest.raises(ValidationError, match="labels must be a sequence of bools"):
            average_precision(labels, 1)

    @pytest.mark.parametrize("eleven_point", [False, True])
    @pytest.mark.parametrize("labels, count, message", [
        ([True, True], 1, "^2 true positives exceed 1 ground truths$"),
        ([False, True, True, True], 2, "^3 true positives exceed 2 ground truths$"),
    ])
    def test_more_true_positives_than_ground_truths_is_validation_error(
            self, labels, count, message, eleven_point):
        # [True, True] over 1 ground truth once scored 2.0, and 1.0 at 11 points
        with pytest.raises(ValidationError, match=message):
            average_precision(labels, count, eleven_point=eleven_point)

    @pytest.mark.parametrize("count", [2.0, np.int64(2), True, "2"])
    def test_count_that_is_not_an_int_is_config_error(self, count):
        with pytest.raises(ConfigError, match="num_ground_truths must be an integer"):
            average_precision([True], count)

    @pytest.mark.parametrize("eleven_point", [False, True])
    @pytest.mark.parametrize("labels", [[True, False, True], [False, True], [False], []])
    def test_list_tuple_and_array_give_equal_ap(self, labels, eleven_point):
        # an array has no truth value, so emptiness is read from its length
        scores = {struct.pack("<d", average_precision(given, 3, eleven_point=eleven_point))
                  for given in (labels, tuple(labels), np.array(labels, dtype=bool))}
        assert len(scores) == 1


# Reference: the per-rank loop that the numpy cumulative sums replaced,
# frozen. It adds term by term, left to right.

def loop_average_precision(labels, num_ground_truths, eleven_point=False):
    if not labels:
        return 0.0
    tp = 0
    precisions, recalls = [], []
    for rank, is_tp in enumerate(labels, start=1):
        if is_tp:
            tp += 1
        precisions.append(tp / rank)
        recalls.append(tp / num_ground_truths)
    env = list(precisions)
    for i in range(len(env) - 2, -1, -1):
        if env[i + 1] > env[i]:
            env[i] = env[i + 1]
    if eleven_point:
        total = 0.0
        for level in range(11):
            target = level / 10.0
            best = 0.0
            for r, p in zip(recalls, env):
                if r >= target:
                    best = p
                    break
            total += best
        return total / 11.0
    ap = 0.0
    prev_recall = 0.0
    for r, p in zip(recalls, env):
        ap += (r - prev_recall) * p
        prev_recall = r
    return ap


class TestAveragePrecisionAgainstLoop:
    @pytest.mark.parametrize("eleven_point", [False, True])
    def test_bitwise_equal_to_the_loop(self, eleven_point):
        rng = np.random.default_rng(41)
        cases = [([], 3), ([False] * 6, 2), ([True] * 7, 7), ([True] * 4, 9),
                 ([True, False] * 1000, 1000), ([False, True] * 1000, 3000)]
        for _ in range(300):
            labels = (rng.random(int(rng.integers(1, 400))) < rng.random()).tolist()
            cases.append((labels, max(1, sum(labels) + int(rng.integers(0, 30)))))
        for labels, num_gt in cases:
            got = average_precision(labels, num_gt, eleven_point=eleven_point)
            expected = loop_average_precision(labels, num_gt, eleven_point)
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", expected)


class TestEvaluateDetections:
    def test_two_class_hand_computation(self):
        gts = [gt("a", "car", 0, 0, 2, 2), gt("b", "car", 0, 0, 2, 2),
               gt("a", "bus", 5, 5, 9, 9)]
        dets = [
            det("a", "car", 0.9, 0, 0, 2, 2),      # TP
            det("b", "car", 0.8, 10, 10, 12, 12),  # FP (no overlap)
            det("a", "bus", 0.7, 5, 5, 9, 9),      # TP
        ]
        report = evaluate_detections(dets, gts)
        # car: labels [T, F] with 2 gts -> AP 0.5; bus: [T] -> AP 1.0
        assert report.per_class_ap == {"bus": 1.0, "car": 0.5}
        assert report.mean_ap == pytest.approx(0.75)
        assert report.true_positives == 2
        assert report.false_positives == 1
        assert report.precision == pytest.approx(2.0 / 3.0)
        assert report.recall == pytest.approx(2.0 / 3.0)

    def test_detection_only_class_counts_toward_precision_not_map(self):
        gts = [gt("a", "car", 0, 0, 2, 2)]
        dets = [det("a", "car", 0.9, 0, 0, 2, 2),
                det("a", "plane", 0.8, 0, 0, 2, 2)]
        report = evaluate_detections(dets, gts)
        assert set(report.per_class_ap) == {"car"}
        assert report.mean_ap == 1.0
        assert report.precision == pytest.approx(0.5)
        assert report.recall == 1.0

    def test_no_detections_at_all(self):
        report = evaluate_detections([], [gt("a", "car", 0, 0, 2, 2)])
        assert report.mean_ap == 0.0
        assert report.precision == 0.0
        assert report.recall == 0.0

    def test_no_ground_truth_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            evaluate_detections([det("a", "car", 0.5, 0, 0, 1, 1)], [])


# ---------------------------------------------------------------------------
# Independent oracle: brute-force greedy matching plus AP by enumerating
# confidence thresholds. Written from the definitions, not from the library.

def oracle_match(detections, ground_truths, threshold):
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))
    used = set()
    labels = [False] * len(detections)
    for di in order:
        d = detections[di]
        best, best_gi = 0.0, None
        for gi, g in enumerate(ground_truths):
            if gi in used or g.image_id != d.image_id or g.class_id != d.class_id:
                continue
            ix0, iy0 = max(d.box.x_min, g.box.x_min), max(d.box.y_min, g.box.y_min)
            ix1, iy1 = min(d.box.x_max, g.box.x_max), min(d.box.y_max, g.box.y_max)
            if ix1 <= ix0 or iy1 <= iy0:
                continue
            inter = (ix1 - ix0) * (iy1 - iy0)
            union = d.box.area + g.box.area - inter
            overlap = inter / union
            if overlap > best:
                best, best_gi = overlap, gi
        if best_gi is not None and best >= threshold:
            used.add(best_gi)
            labels[di] = True
    return labels


def oracle_class_ap(detections, ground_truths, cls, threshold):
    labels = oracle_match(detections, ground_truths, threshold)
    scored = sorted(
        ((d.confidence, i) for i, d in enumerate(detections)
         if d.class_id == cls),
        key=lambda pair: (-pair[0], pair[1]))
    num_gt = sum(1 for g in ground_truths if g.class_id == cls)
    precisions, recalls = [], []
    tp = fp = 0
    for conf, i in scored:  # one curve point per threshold level
        if labels[i]:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / num_gt)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap, prev = 0.0, 0.0
    for r, p in zip(recalls, precisions):
        ap += (r - prev) * p
        prev = r
    return ap


def random_instance(rng):
    images = ["img0", "img1"]
    classes = ["c0", "c1"]
    gts, dets = [], []
    for image in images:
        for _ in range(rng.integers(1, 4)):
            x0, y0 = rng.uniform(0, 8, 2)
            gts.append(GroundTruth(image, str(rng.choice(classes)),
                                   Box(x0, y0, x0 + rng.uniform(1, 4),
                                       y0 + rng.uniform(1, 4))))
        for _ in range(rng.integers(0, 7)):
            anchor = gts[rng.integers(0, len(gts))].box
            x0 = anchor.x_min + rng.normal(scale=1.0)
            y0 = anchor.y_min + rng.normal(scale=1.0)
            dets.append(Detection(image, str(rng.choice(classes)),
                                  float(rng.uniform(0, 1)),
                                  Box(x0, y0, x0 + rng.uniform(1, 4),
                                      y0 + rng.uniform(1, 4))))
    return dets, gts


class TestOracleAgreement:
    def test_matching_and_ap_agree_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            dets, gts = random_instance(rng)
            confidences = [d.confidence for d in dets]
            assert len(set(confidences)) == len(confidences)

            result = match_detections(dets, gts, 0.5)
            assert list(result.labels) == oracle_match(dets, gts, 0.5)

            report = evaluate_detections(dets, gts, 0.5)
            for cls, ap in report.per_class_ap.items():
                assert ap == oracle_class_ap(dets, gts, cls, 0.5)


# ---------------------------------------------------------------------------
# Reference: the per-detection matching loop that match_detections replaced.
# It calls iou() for every candidate and keeps the first strict maximum.

def reference_match(detections, ground_truths, iou_threshold=0.5):
    by_group = {}
    for gi, g in enumerate(ground_truths):
        by_group.setdefault((g.image_id, g.class_id), []).append(gi)
    taken = [False] * len(ground_truths)
    labels = [False] * len(detections)
    order = sorted(range(len(detections)),
                   key=lambda i: -detections[i].confidence)
    for di in order:
        d = detections[di]
        best_iou = 0.0
        best_gi = -1
        for gi in by_group.get((d.image_id, d.class_id), ()):
            if taken[gi]:
                continue
            overlap = iou(d.box, ground_truths[gi].box)
            if overlap > best_iou:
                best_iou = overlap
                best_gi = gi
        if best_gi >= 0 and best_iou >= iou_threshold:
            taken[best_gi] = True
            labels[di] = True
    return MatchResult(labels=tuple(labels),
                       num_ground_truths=len(ground_truths))


def reference_report(detections, ground_truths, iou_threshold):
    match = reference_match(detections, ground_truths, iou_threshold)
    per_class_ap = {}
    for cls in sorted({g.class_id for g in ground_truths}, key=str):
        pairs = [(d, lab) for d, lab in zip(detections, match.labels)
                 if d.class_id == cls]
        pairs.sort(key=lambda pair: -pair[0].confidence)
        num_gt = sum(1 for g in ground_truths if g.class_id == cls)
        per_class_ap[cls] = average_precision([lab for _, lab in pairs], num_gt)
    return per_class_ap, match.num_true_positives


def grid_box(rng):
    # integer corners on a small canvas: many touching, nested and
    # identical boxes, and IoUs such as 1/10, 1/2 and 3/4 exactly
    x0, y0 = rng.integers(0, 16, 2)
    w, h = rng.integers(1, 7, 2)
    return Box(float(x0), float(y0), float(x0 + w), float(y0 + h))


def float_box(rng, anchor=None):
    if anchor is None:
        x0, y0 = rng.uniform(0, 100, 2)
        w, h = rng.uniform(5, 30, 2)
    else:
        w = (anchor.x_max - anchor.x_min) * rng.uniform(0.7, 1.3)
        h = (anchor.y_max - anchor.y_min) * rng.uniform(0.7, 1.3)
        x0 = anchor.x_min + rng.normal(scale=0.15 * w)
        y0 = anchor.y_min + rng.normal(scale=0.15 * h)
    return Box(x0, y0, x0 + w, y0 + h)


def crowded_instance(seed, grid):
    """2 images x 2 classes of 10-40 ground truths and 50-150 detections,
    with duplicated ground truths, tied confidences and detections for an
    image and a class that have no ground truth."""
    rng = np.random.default_rng(seed)
    gts, dets = [], []
    for image in ("img0", "img1"):
        for cls in ("car", "ship"):
            truths = [grid_box(rng) if grid else float_box(rng)
                      for _ in range(rng.integers(10, 41))]
            truths += [truths[i] for i in rng.integers(0, len(truths), 4)]
            gts += [GroundTruth(image, cls, b) for b in truths]
            for _ in range(rng.integers(50, 151)):
                anchor = truths[rng.integers(len(truths))]
                if grid:
                    box = anchor if rng.random() < 0.2 else grid_box(rng)
                else:
                    box = float_box(rng, anchor if rng.random() < 0.7 else None)
                dets.append(Detection(image, cls, int(rng.integers(0, 21)) / 20,
                                      box))
    for image, cls in (("img9", "car"), ("img0", "plane")):
        dets += [Detection(image, cls, 0.5, grid_box(rng)) for _ in range(5)]
    order = rng.permutation(len(gts))
    return dets, [gts[i] for i in order]


THRESHOLDS = (0.1, 0.5, 0.75, 1.0)


class TestMatchingAgainstReferenceLoop:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "float"])
    @pytest.mark.parametrize("seed", range(4))
    def test_crowded_groups_match_bitwise(self, seed, grid, threshold):
        dets, gts = crowded_instance(seed, grid)
        assert match_detections(dets, gts, threshold) == \
            reference_match(dets, gts, threshold)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_instances_hit_each_threshold_exactly(self, threshold):
        # the grid instances really exercise IoU == threshold
        hits = 0
        for seed in range(4):
            dets, gts = crowded_instance(seed, grid=True)
            hits += sum(iou(d.box, g.box) == threshold for d in dets
                        for g in gts if (d.image_id, d.class_id) ==
                        (g.image_id, g.class_id))
        assert hits > 0

    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "float"])
    def test_reports_match_the_per_class_reference(self, grid):
        dets, gts = crowded_instance(7, grid)
        for threshold in THRESHOLDS:
            report = evaluate_detections(dets, gts, threshold)
            per_class_ap, tp = reference_report(dets, gts, threshold)
            assert report.per_class_ap == per_class_ap
            assert report.true_positives == tp
            assert report.false_positives == len(dets) - tp

    def test_touching_boxes_never_match(self):
        truths = [gt("a", "car", 0, 0, 1, 1)]
        touching = [det("a", "car", 0.9, 1, 0, 2, 1),
                    det("a", "car", 0.8, 0, 1, 1, 2),
                    det("a", "car", 0.7, 1, 1, 2, 2)]
        for threshold in THRESHOLDS:
            result = match_detections(touching, truths, threshold)
            assert result == reference_match(touching, truths, threshold)
            assert result.labels == (False, False, False)

    def test_detections_without_ground_truth_and_empty_input(self):
        dets, gts = crowded_instance(3, grid=True)
        absent = [d for d in dets if d.image_id == "img9"
                  or d.class_id == "plane"]
        assert match_detections(absent, gts).labels == (False,) * len(absent)
        assert match_detections([], gts) == reference_match([], gts) == \
            MatchResult(labels=(), num_ground_truths=len(gts))


GRID_BOXES = st.builds(lambda x, y, w, h: Box(float(x), float(y), float(x + w), float(y + h)),
                      st.integers(0, 6), st.integers(0, 6), st.integers(1, 4),
                      st.integers(1, 4))
TIED_CONFIDENCES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def crowded_scenes(draw):
    """Ground truths of classes car and ship in img0 and img1, and detections
    on the same 10x10 grid: confidences tie within and across groups, img2
    has detections but no ground truth although its classes have some
    elsewhere, and class plane has no ground truth at all."""
    gts = draw(st.lists(st.builds(GroundTruth, st.sampled_from(["img0", "img1"]),
                                  st.sampled_from(["car", "ship"]), GRID_BOXES),
                        max_size=30))
    dets = draw(st.lists(st.builds(Detection, st.sampled_from(["img0", "img1", "img2"]),
                                   st.sampled_from(["car", "ship", "plane"]),
                                   TIED_CONFIDENCES, GRID_BOXES),
                         max_size=80))
    box = Box(0.0, 0.0, 2.0, 2.0)
    gts.append(GroundTruth("img0", "car", box))
    dets += [Detection("img2", "car", 0.5, box), Detection("img0", "plane", 0.5, box),
             Detection("img0", "car", 0.5, box)]
    return draw(st.permutations(dets)), draw(st.permutations(gts))


@settings(max_examples=150, deadline=None)
@given(scene=crowded_scenes(), threshold=st.sampled_from(THRESHOLDS))
def test_matching_and_ap_share_one_ranking(scene, threshold):
    """evaluate_detections groups its classes from the matcher's ranking and
    still equals the per-class reference; the ranking is the stable argsort
    by descending confidence, read-only, and no part of equality."""
    dets, gts = scene
    report = evaluate_detections(dets, gts, threshold)
    assert (report.per_class_ap, report.true_positives) == \
        reference_report(dets, gts, threshold)
    match = match_detections(dets, gts, threshold)
    confidences = np.array([d.confidence for d in dets])
    assert match.order.tobytes() == np.argsort(-confidences, kind="stable").tobytes()
    assert not match.order.flags.writeable
    with pytest.raises(ValueError):
        match.order[0] = 0
    assert match == dataclasses.replace(match, order=match.order[::-1]) == \
        MatchResult(labels=match.labels, num_ground_truths=len(gts))
    assert repr(match) == repr(dataclasses.replace(match, order=None))


class TestFileFormats:
    def test_ground_truth_round_trip(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("img0 car 0 0 2 2\n"
                        "\n"
                        "img1 bus 1.5 1.5 4.25 3\n")
        records = load_ground_truths(path)
        assert len(records) == 2
        assert records[0].image_id == "img0"
        assert records[1].box.x_max == 4.25

    def test_detection_file_fields(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("img0 car 0.75 0 0 2 2\n")
        records = load_detections(path)
        assert records[0].confidence == 0.75
        assert records[0].class_id == "car"

    def test_malformed_lines_name_the_line(self, tmp_path):
        cases = [
            "img0 car 0 0 2\n",            # too few fields
            "img0 car zero 0 2 2\n",       # unparsable number
            "img0 car 5 5 1 1\n",          # degenerate box
        ]
        for text in cases:
            path = tmp_path / "bad.txt"
            path.write_text("img0 car 0 0 2 2\n" + text)
            with pytest.raises(ValidationError, match=":2"):
                load_ground_truths(path)

    def test_out_of_range_confidence_rejected(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("img0 car 1.25 0 0 2 2\n")
        with pytest.raises(ValidationError, match=":1"):
            load_detections(path)

    def test_non_utf8_bytes_are_a_validation_error(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_bytes(b"img cls \xff\xfe 0 0 1 1\n")
        with pytest.raises(ValidationError, match="UTF-8"):
            load_ground_truths(path)


# Loader fuzzing: any file content yields records or a ValidationError.

# Tokens on which numpy's C reader and float() disagree or could: float()
# alone takes underscores and non-ASCII digits.
_NUMBERS = st.one_of(
    st.floats().map(repr), st.integers(-5, 20).map(str),
    st.sampled_from(["nan", "-nan", "-inf", "1e999", "1e-320", "0x10", "1_0", "-0",
                     "\u0661", "\uff11\uff10", "#", "1#"]))
# Ids the C reader's fixed-width str field could change: a NUL, which it
# drops at the end, and lengths around the field's width.
_WIDTH = detection._ID_WIDTH
_IDS = ["img0\x00", "im\x00g", "a#b", "i" * (_WIDTH - 1), "i" * _WIDTH, "i" * (_WIDTH + 1)]
# Line breaks: the C reader is handed only LF and CR LF.
_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_LINES = st.lists(st.one_of(_NUMBERS, st.text(max_size=5)),
                  max_size=9).map(" ".join)
_CONTENTS = st.one_of(
    st.binary(max_size=120),
    st.text(max_size=120).map(str.encode),
    st.lists(_LINES, max_size=5).map(lambda lines: "\n".join(lines).encode()))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "records.txt"


@pytest.mark.parametrize("loader, record_type",
                         [(load_ground_truths, GroundTruth),
                          (load_detections, Detection)])
@settings(max_examples=300, deadline=None, database=None)
@given(content=_CONTENTS)
def test_loaders_return_records_or_validation_error(fuzz_path, loader,
                                                    record_type, content):
    fuzz_path.write_bytes(content)
    try:
        records = loader(fuzz_path)
    except ValidationError:
        return
    assert all(isinstance(r, record_type) for r in records)


# ---------------------------------------------------------------------------
# Oracle: the per-line loaders that the columnar parse replaced, frozen. Each
# line is split, converted with float() and built into validated records.

def _per_line(path, expected_tokens):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != expected_tokens:
            raise ValidationError(
                f"{path}:{lineno}: expected {expected_tokens} fields, got {len(tokens)}")
        try:
            numbers = [float(t) for t in tokens[2:]]
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        yield lineno, tokens, numbers


def per_line_ground_truths(path):
    records = []
    for lineno, tokens, coords in _per_line(path, 6):
        try:
            box = Box(*coords)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        records.append(GroundTruth(tokens[0], tokens[1], box))
    return records


def per_line_detections(path):
    records = []
    for lineno, tokens, numbers in _per_line(path, 7):
        try:
            record = Detection(tokens[0], tokens[1], numbers[0], Box(*numbers[1:]))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        records.append(record)
    return records


LOADERS = {"ground_truths": (load_ground_truths, per_line_ground_truths),
           "detections": (load_detections, per_line_detections)}


def record_fields(record):
    """Type, ids and the bytes of every float of one record."""
    numbers = [record.box.x_min, record.box.y_min, record.box.x_max,
               record.box.y_max]
    if isinstance(record, Detection):
        numbers.insert(0, record.confidence)
    return (type(record), record.image_id, record.class_id,
            *(struct.pack("<d", x) for x in numbers))


def assert_loader_matches_per_line(path, kind):
    """Both give equal records, or both raise the same ValidationError."""
    loader, oracle = LOADERS[kind]
    try:
        expected = [record_fields(r) for r in oracle(path)]
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            loader(path)
        assert str(info.value) == str(exc)
        return
    table = loader(path)
    assert isinstance(table, BoxTable)
    assert [record_fields(r) for r in table] == expected


def _record_line(detections):
    """A well-formed line, with now and then one number swapped for a fuzz
    token. A box side of at least 1e-3 on corners of at most 1e3 keeps
    x_min < x_max after rounding."""
    corner, side = st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)
    confidence = [st.floats(0.0, 1.0)] if detections else []

    def line(drawn):
        *fields, (x, y, w, h), swap_at, token = drawn
        numbers = [*fields[2:], x, y, x + w, y + h]
        tokens = [*fields[:2], *map(repr, numbers)]
        if 2 <= swap_at < len(tokens):
            tokens[swap_at] = token
        return " ".join(tokens)

    ids = st.one_of(st.sampled_from(["img0", "img1"]), st.sampled_from(_IDS))
    return st.tuples(ids, st.sampled_from(["car", "ship"]), *confidence,
                     st.tuples(corner, corner, side, side),
                     st.integers(0, 15), _NUMBERS).map(line)


def _draw_file_and_compare(fuzz_path, kind, data):
    lines = st.lists(_record_line(kind == "detections"), max_size=5)
    records = st.tuples(st.one_of(st.just("\n"), st.sampled_from(_BREAKS)), lines).map(
        lambda drawn: drawn[0].join(drawn[1]).encode())
    fuzz_path.write_bytes(data.draw(st.one_of(_CONTENTS, records)))
    assert_loader_matches_per_line(fuzz_path, kind)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_table_loaders_equal_the_per_line_loaders(fuzz_path, kind, data):
    _draw_file_and_compare(fuzz_path, kind, data)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), block=st.integers(1, 8))
def test_table_loaders_equal_the_per_line_loaders_in_tiny_blocks(fuzz_path, kind,
                                                                 data, block):
    # reads of a few bytes cut the file inside lines, characters and CR LF
    with mock.patch.object(detection, "_BLOCK", block):
        _draw_file_and_compare(fuzz_path, kind, data)


def assert_matches_in_every_block_size(path, kind):
    """The loader agrees with the per-line oracle at every read size, so
    with a cut at every byte of the file."""
    for block in range(1, len(path.read_bytes()) + 2):
        with mock.patch.object(detection, "_BLOCK", block):
            assert_loader_matches_per_line(path, kind)


class TestBlockReads:
    @pytest.mark.parametrize("content", [
        b"img0 car 0 0 2 2\r\nimg0 car 0 0 2 2\r\nimg0 car 5 5 1 1\r\n",
        "img0 船 0 0 2 2\nimg1 😀 0 0 1 1\r\n".encode(),
        b"img0 car 0 0 2 2\rimg1 car 0 0 1 1\x0cimg2 car 0 0 1 1\n\n",
        "img0 car 0 0 2 2\u2028img1 car 0 0 1 1\x85img2 car 5 5 1 1".encode(),
        b"img0 car 0 0 2 2\nimg1 car 0 0 1 1",
        b"img0 car " + b"0" * 300 + b".5 0 2 2\nimg0 car 5 5 1 1\n",
        b"img0 car 1 2\nimg0 car 0 0 2 2\nimg\xe2\x82 car 0 0 1 1\n",
        b"img0 car 0 0 2 2\nimg1 car 0 0 1 1 \xf0\x9f\x98",
        b"img0 car 0 0 2 2\n\n\xff\n",
        # where numpy's C reader and the per-line parse disagree or could
        b"img0 car 1_0 0 20 2\nimg1 car 0 0 1 1\n",
        "img0 car \u0661 0 \u0663 2\nimg1 car 0 0 1 1\n".encode(),
        "img0 car \uff11 0 \uff13 2\nimg1 car 0 0 1 1\n".encode(),
        b"img#0 car 0 0 2 2\nimg1 car 0 0 #2 2\n",
        b"img0\x00 car 0 0 2 2\nimg1 car 0 0 1 1\n",
        b"im\x00g0 car 0 0 2 2\nimg1 car 0 0 1 1\n",
        *(f"{'i' * n} car 0 0 2 2\nimg1 {'c' * n} 0 0 1 1\n".encode()
          for n in (_WIDTH - 1, _WIDTH, _WIDTH + 1)),
        *(f"img0 car 0 0 2 2\nimg1 car 0 0 1 1{brk}img2 car 0 0 3 3\nimg3 car 1 1 2 2\n"
          .encode() for brk in ["\x0c", "\x0b", "\x1c", "\r", "\x85", "\u2028"]),
        b"img0 car -0 0 2 2\nimg1 car 0 0 1 1\n",
        b"img0 car 0 0 1 1\nimg1 car 0 0 -nan 2\n",
        b"", b"\n\n\r\n", b" \t\n  \n\t"],
        ids=["crlf", "multi-byte", "cr-ff", "unicode-breaks", "no-final-newline",
             "long-line", "bad-continuation", "cut-short-at-end", "bad-start-byte",
             "underscore", "arabic-indic", "full-width", "hash", "trailing-nul",
             "inner-nul", "id-one-short", "id-fills-field", "id-one-long", "form-feed",
             "vertical-tab", "file-separator", "lone-cr", "next-line", "line-separator",
             "minus-zero", "minus-nan", "empty", "blank-lines", "whitespace"])
    def test_every_cut_gives_the_whole_file_result(self, tmp_path, content):
        # a CR LF split by a read stays one line break, so the bad box of
        # "crlf" is on line 3 at every cut; pyproject.toml makes a warning an
        # error, so the files without data also show that numpy never warns
        path = tmp_path / "gt.txt"
        path.write_bytes(content)
        assert_matches_in_every_block_size(path, "ground_truths")

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_late_bad_utf8_wins_over_a_bad_first_line(self, tmp_path, kind):
        # the parse stops on line 1, but the file is decoded to its end, and
        # the position counts from the start of the file, not of the block
        confidence = "0.5 " if kind == "detections" else ""
        head = b"img0 car 1 2\n" + f"img0 car {confidence}0 0 2 2\n".encode() * 8000
        assert len(head) > 2 * detection._BLOCK
        path = tmp_path / "records.txt"
        path.write_bytes(head + b"img1 car \xff\n")
        assert_loader_matches_per_line(path, kind)
        with pytest.raises(ValidationError) as info:
            LOADERS[kind][0](path)
        assert str(info.value) == (
            f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
            f"position {len(head) + 9}: invalid start byte")


class TestTableLoaders:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @pytest.mark.parametrize("token", ["1_0", "nan", "1e999", "-0"])
    def test_special_tokens_agree_with_per_line(self, tmp_path, kind, token):
        path = tmp_path / "records.txt"
        confidence = "0.5 " if kind == "detections" else ""
        path.write_text(f"img0 car {confidence}{token} 0 20 1\n")
        assert_loader_matches_per_line(path, kind)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @pytest.mark.parametrize("box", ["0 0 1e-200 1e-200", "-1e308 0 1e308 1",
                                     "0 0 1e-160 1e-160", "1 1 1e154 1e154"])
    def test_area_limits_agree_with_per_line(self, tmp_path, kind, box):
        # underflowing and overflowing areas, and two just inside the range
        path = tmp_path / "records.txt"
        confidence = "1 " if kind == "detections" else ""
        path.write_text(f"img0 car {confidence}{box}\n")
        assert_loader_matches_per_line(path, kind)

    def test_special_tokens_parse_as_float_does(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("img0 car -0 1_0 20 2e1\n")
        (record,) = load_ground_truths(path)
        assert struct.pack("<d", record.box.x_min) == struct.pack("<d", -0.0)
        assert (record.box.y_min, record.box.y_max) == (10.0, 20.0)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_first_bad_line_wins(self, tmp_path, kind):
        # line 1 has a degenerate box, line 2 a wrong field count
        confidence = "0.5 " if kind == "detections" else ""
        path = tmp_path / "records.txt"
        path.write_text(f"img0 car {confidence}5 5 1 1\nimg0 car 1 2\n")
        assert_loader_matches_per_line(path, kind)
        with pytest.raises(ValidationError, match=r"records\.txt:1: box must"):
            LOADERS[kind][0](path)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_bad_row_after_blank_lines_names_its_line(self, tmp_path, kind):
        # the row's line number is counted again from the non-blank lines
        confidence = "0.5 " if kind == "detections" else ""
        path = tmp_path / "records.txt"
        path.write_text(f"\n\nimg0 car {confidence}0 0 2 2\n \t\n\n"
                        f"img0 car {confidence}5 5 1 1\nimg1 car {confidence}0 0 1 1\n")
        assert_loader_matches_per_line(path, kind)
        with pytest.raises(ValidationError, match=r"records\.txt:6: box must"):
            LOADERS[kind][0](path)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_bad_box_wins_over_a_later_unparsable_token(self, tmp_path, kind):
        # the parse stops at line 3, but the box on line 1 is reported
        confidence = "0.5 " if kind == "detections" else ""
        path = tmp_path / "records.txt"
        path.write_text(f"img0 car {confidence}5 5 1 1\nimg0 car {confidence}0 0 2 2\n"
                        f"img0 car {confidence}zero 0 2 2\n")
        assert_loader_matches_per_line(path, kind)
        with pytest.raises(ValidationError, match=r"records\.txt:1: box must"):
            LOADERS[kind][0](path)

    def test_bad_box_wins_over_bad_confidence_on_one_line(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("img0 car 0.5 0 0 2 2\nimg0 car 1.5 0 0 nan 2\n")
        assert_loader_matches_per_line(path, "detections")
        with pytest.raises(ValidationError, match=r"det\.txt:2: box coordinates"):
            load_detections(path)

    def test_table_columns(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("a car 0.25 0 0 2 2\n\nb bus 1 1 2 3 4\n")
        table = load_detections(path)
        assert table.image_ids == ["a", "b"] and table.class_ids == ["car", "bus"]
        assert table.confidences.tolist() == [0.25, 1.0]
        assert table.boxes.flags.c_contiguous and table.boxes.dtype == np.float64
        assert table.boxes.tolist() == [[0, 0, 2, 2], [1, 2, 3, 4]]
        assert table[-1] == Detection("b", "bus", 1.0, Box(1.0, 2.0, 3.0, 4.0))
        empty = tmp_path / "gt.txt"
        empty.write_text("\n")
        assert load_ground_truths(empty).boxes.shape == (0, 4)

    def test_from_records_round_trip(self):
        dets, gts = crowded_instance(1, grid=False)
        assert list(BoxTable.from_records(dets)) == dets
        assert list(BoxTable.from_records(gts)) == gts
        table = BoxTable.from_records(dets)
        assert BoxTable.from_records(table) is table
        assert BoxTable.from_records(gts).confidences is None


def write_crowded_scene(directory, seed=0):
    """A seeded scene of 50 images x 4 classes, with 25 ground truths and 100
    detections per (image, class), 60 of them shifted off a ground truth:
    5,000 and 20,000 lines, about 46 bytes a detection line."""
    rng = np.random.default_rng(seed)
    groups = [(f"img{i:03d}", f"cls{c}") for i in range(50) for c in range(4)]

    def boxes(*shape):
        size = rng.uniform(24.0, 96.0, (*shape, 2))
        corner = rng.uniform(0.0, 1.0, (*shape, 2)) * (640.0 - size)
        return np.concatenate([corner, corner + size], axis=-1)

    truths = boxes(len(groups), 25)
    near = truths[np.arange(len(groups))[:, None], rng.integers(0, 25, (len(groups), 60))]
    near += np.tile(rng.normal(0.0, 8.0, (len(groups), 60, 2)), 2)
    found = np.concatenate([near, boxes(len(groups), 40)], axis=1)
    gt_lines = [f"{image} {cls} " + " ".join(f"{v:.2f}" for v in box)
                for (image, cls), group in zip(groups, truths) for box in group]
    det_lines = [f"{image} {cls} {rng.random():.4f} " + " ".join(f"{v:.2f}" for v in box)
                 for (image, cls), group in zip(groups, found) for box in group]
    gt_path, det_path = directory / "gt.txt", directory / "det.txt"
    gt_path.write_text("\n".join(gt_lines) + "\n")
    det_path.write_text("\n".join(det_lines[i] for i in rng.permutation(len(det_lines)))
                        + "\n")
    return gt_path, det_path


def traced_peak(call):
    """Peak bytes allocated during ``call()``, above what was live before."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def declined_blocks(loader, path):
    """The loader's table, and the lines of each block that the C reader
    declined, as :func:`detection._read_lines` received them."""
    declined = []
    read_lines = detection._read_lines

    def counting(path, lines, *rest):
        declined.append(lines)
        return read_lines(path, lines, *rest)

    with mock.patch.object(detection, "_read_lines", counting):
        return loader(path), declined


class TestCReader:
    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        return write_crowded_scene(tmp_path_factory.mktemp("scene"))

    def test_a_clean_file_declines_no_block(self, scene):
        gt_path, det_path = scene
        assert len(det_path.read_bytes()) > 10 * detection._BLOCK
        for loader, path, rows in [(load_ground_truths, gt_path, 5_000),
                                   (load_detections, det_path, 20_000)]:
            table, declined = declined_blocks(loader, path)
            assert declined == [] and len(table) == rows

    @pytest.mark.parametrize("sep", ["\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\r", "\x85", "\u2028", "\u2029"])
    def test_a_nul_or_odd_line_break_declines_only_its_block(self, scene, tmp_path, sep):
        # a NUL stays inside the id; any other of these breaks the line in two
        _, det_path = scene
        lines = det_path.read_text().splitlines()
        lines[9_999] = f"odd{sep}odd cls0 0.5 0 0 2 2" if sep == "\x00" else \
            f"odd cls0 0.5 0 0 2 2{sep}odd cls0 0.5 0 0 1 1"
        path = tmp_path / "det.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        table, declined = declined_blocks(load_detections, path)
        (block,) = declined
        odd = lines[9_999].splitlines()
        at = block.index(odd[0])
        assert block[at:at + len(odd)] == odd and len(block) < len(lines) // 10
        assert table.image_ids.count(odd[0].split()[0]) == len(odd)
        assert_loader_matches_per_line(path, "detections")


class TestMemory:
    """Peak traced allocations of scoring a 20,000-line detection file.

    tracemalloc counts allocations, so the peaks are the same on every run.
    Loading peaks at about 101 bytes a line: the parsed columns, one block of
    text and the C reader's rows of it. Parsing every line in Python read 99,
    and holding the whole file as lines 161. Evaluation peaks at
    about 38 bytes a detection above its inputs, while matching holds the
    confidence ranking, one group ranking and the box areas; sorting by
    confidence a second time for AP read 41, and ranking into Python lists
    87.
    """

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        return write_crowded_scene(tmp_path_factory.mktemp("scene"))

    def test_loading_holds_the_columns_not_the_text(self, scene):
        _, det_path = scene
        assert traced_peak(lambda: load_detections(det_path)) / 20_000 < 130

    def test_evaluation_ranks_in_index_arrays(self, scene):
        gt_path, det_path = scene
        detections, ground_truths = load_detections(det_path), load_ground_truths(gt_path)
        assert len(detections) == 20_000 and len(ground_truths) == 5_000
        peak = traced_peak(lambda: evaluate_detections(detections, ground_truths))
        assert peak / len(detections) < 64
