"""Scoring object detections: matching, AP, and the report.

Walks one tiny scene through greedy confidence-ordered matching, shows how
a duplicate detection turns into a false positive, and scores a small
two-class set end to end. The same machinery backs the eval-detections
CLI subcommand.
"""
from fedsim import Detection, GroundTruth, evaluate_detections, iou
from fedsim.detection import Box, average_precision, match_detections

# Overlap is intersection over union on plain corner-coordinate boxes.
a = Box(0, 0, 2, 2)
b = Box(1, 0, 3, 2)
print(f"iou of two half-overlapping squares: {iou(a, b):.4f}")
print()

# One object, two detections claiming it. The higher-confidence detection
# matches first and the duplicate becomes a false positive.
gt = [GroundTruth("scene", "ship", Box(0, 0, 4, 4))]
dets = [
    Detection("scene", "ship", 0.9, Box(0.1, 0, 4.1, 4)),
    Detection("scene", "ship", 0.7, Box(0.2, 0.1, 4.2, 4.1)),
]
match = match_detections(dets, gt, 0.5)
print("duplicate-detection labels (confidence order):", match.labels.tolist())
print(f"true positives {match.num_true_positives}, "
      f"missed objects {match.num_unmatched_ground_truths}")
print()

# AP integrates the precision envelope over recall. A true positive ranked
# above a false positive scores a full 1.0; swap them and AP halves.
print("AP, hit before miss:", average_precision([True, False], 1))
print("AP, miss before hit:", average_precision([False, True], 1))
print()

# A small two-class scene set, scored end to end.
gts = [
    GroundTruth("s1", "ship", Box(0, 0, 4, 4)),
    GroundTruth("s1", "dock", Box(6, 0, 9, 3)),
    GroundTruth("s2", "ship", Box(2, 2, 5, 6)),
]
dets = [
    Detection("s1", "ship", 0.95, Box(0, 0, 4, 4)),
    Detection("s1", "dock", 0.80, Box(6.2, 0, 9.2, 3)),
    Detection("s2", "ship", 0.60, Box(7, 7, 9, 9)),   # way off, false positive
]
report = evaluate_detections(dets, gts, 0.5)
print("per-class AP50:", {k: round(v, 4) for k, v in report.per_class_ap.items()})
print(f"mean AP {report.mean_ap:.4f}, precision {report.precision:.4f}, "
      f"recall {report.recall:.4f}")
