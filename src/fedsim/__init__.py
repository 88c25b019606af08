"""Desk-scale federated learning simulator with detection metrics.

The pieces compose bottom-up: flat parameter vectors (:mod:`fedsim.params`),
a synthetic non-IID federation (:mod:`fedsim.data`), differentiable task
models (:mod:`fedsim.models`), local SGD (:mod:`fedsim.training`), server
aggregation (:mod:`fedsim.aggregation`), the round loop and baselines
(:mod:`fedsim.orchestration`), and an AP-based detection scorer
(:mod:`fedsim.detection`). :mod:`fedsim.cli` wires them into a command line.
"""

from .aggregation import (AggregatorState, FedOptConfig, STRATEGIES, aggregate)
from .config import ExperimentConfig
from .data import (ClientDataset, HeterogeneityConfig, LabeledSet,
                   generate_federation, load_federation, save_federation)
from .detection import (Box, BoxTable, Detection, DetectionReport,
                        GroundTruth, average_precision, evaluate_detections,
                        iou, match_detections)
from .errors import (ConfigError, DivergenceError, EmptyInputError,
                     FedsimError, NumericError, ShapeError,
                     UndefinedMetricError, ValidationError)
from .models import TaskModel
from .orchestration import (FederatedResult, GlobalBaselineResult,
                            LocalBaselineResult, RoundSchedule, run_federated,
                            run_global_baseline, run_local_baseline,
                            schedule_presets)
from .params import (ParamVector, coordinate_median, l2_distance,
                     load_checkpoint, save_checkpoint, weighted_sum)
from .training import RoundUpdates, TrainerConfig, train, train_clients

__version__ = "0.1.0"

__all__ = [
    "AggregatorState", "Box", "BoxTable", "ClientDataset", "ConfigError",
    "Detection", "DetectionReport", "DivergenceError", "EmptyInputError",
    "ExperimentConfig", "FedOptConfig", "FederatedResult", "FedsimError",
    "GlobalBaselineResult", "GroundTruth", "HeterogeneityConfig", "LabeledSet",
    "LocalBaselineResult", "NumericError", "ParamVector", "RoundSchedule",
    "RoundUpdates", "STRATEGIES", "ShapeError", "TaskModel", "TrainerConfig",
    "UndefinedMetricError", "ValidationError", "aggregate",
    "average_precision", "coordinate_median", "evaluate_detections",
    "generate_federation", "iou", "l2_distance", "load_checkpoint",
    "load_federation", "match_detections", "run_federated",
    "run_global_baseline", "run_local_baseline", "save_checkpoint",
    "save_federation", "schedule_presets", "train", "train_clients",
    "weighted_sum",
]
