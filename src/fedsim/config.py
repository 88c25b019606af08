"""Experiment configuration: one flat record covering data, model, schedule
and aggregation choices, serializable to JSON and back without loss."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .aggregation import FedOptConfig, check_strategy
from .data import SPLITS, HeterogeneityConfig, check_counts
from .errors import ConfigError, checked, record
from .models import TaskModel
from .orchestration import RoundSchedule
from .training import TrainerConfig


@record
class ExperimentConfig:
    seed: int = 0
    num_clients: int = 8
    split: tuple[int, int, int] = (200, 67, 67)
    label_skew_alpha: float = 0.3
    feature_shift_scale: float = 1.5
    class_separation: float = 0.3
    architecture: str = "linear"
    input_dim: int = 32
    num_classes: int = 4
    hidden_units: int = 16
    strategy: str = "fedavg"
    rounds: int = 10
    epochs_per_round: int = 15
    total_epochs: int | None = 150
    batch_size: int = 32
    learning_rate: float = 0.1
    prox_mu: float | None = None
    fedopt_variant: str = "adam"
    server_learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 1e-3
    # Accepted and ignored, so that old config files load and summaries keep
    # their config keys: clients are always weighted by their sample counts,
    # and training is always client-lockstep.
    uniform_weighting: bool = False
    parallel: bool = False
    patience: int | None = None

    def __post_init__(self):
        # The type rule never coerces a field, as summary.json embeds to_dict();
        # a one-field rule lives in the run object that owns the field.
        check_counts(self.num_clients, self.split)
        check_strategy(self.strategy)
        spent = self.rounds * self.epochs_per_round
        if self.total_epochs is not None and spent != self.total_epochs:
            raise ConfigError(
                f"schedule spends {spent} local epochs "
                f"(rounds={self.rounds} x epochs_per_round={self.epochs_per_round}) "
                f"but total_epochs is {self.total_epochs}")
        object.__setattr__(self, "split", tuple(self.split))
        # build every run object, so that each subcommand checks every rule
        self.model()
        self.heterogeneity()
        self.fedopt()
        TrainerConfig(epochs=self.schedule().total_epochs,
                      batch_size=self.batch_size, learning_rate=self.learning_rate,
                      seed=self.seed, prox_mu=self.prox_mu or 0.0)

    # Builders for the live objects; each one re-runs its own validation.
    def model(self) -> TaskModel:
        return TaskModel(input_dim=self.input_dim, num_classes=self.num_classes,
                         architecture=self.architecture,
                         hidden_units=self.hidden_units)

    def schedule(self) -> RoundSchedule:
        return RoundSchedule(self.rounds, self.epochs_per_round, self.patience)

    def heterogeneity(self) -> HeterogeneityConfig:
        return HeterogeneityConfig(label_skew_alpha=self.label_skew_alpha,
                                   feature_shift_scale=self.feature_shift_scale,
                                   class_separation=self.class_separation)

    def fedopt(self) -> FedOptConfig:
        return FedOptConfig(variant=self.fedopt_variant,
                            server_learning_rate=self.server_learning_rate,
                            beta1=self.beta1, beta2=self.beta2, tau=self.tau)

    @checked
    def with_schedule(self, schedule: RoundSchedule) -> "ExperimentConfig":
        return dataclasses.replace(
            self, rounds=schedule.rounds,
            epochs_per_round=schedule.epochs_per_round,
            total_epochs=schedule.total_epochs)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["split"] = dict(zip(SPLITS, self.split))
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be an object, got {raw!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(raw)
        split = data.get("split")
        if isinstance(split, dict):
            missing = [k for k in SPLITS if k not in split]
            if missing:
                raise ConfigError(f"split is missing counts for {missing}")
            unknown = [k for k in split if k not in SPLITS]
            if unknown:
                raise ConfigError(f"unknown split keys: {unknown}")
            data["split"] = [split[k] for k in SPLITS]
        return cls(**data)

    @classmethod
    @checked
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        try:  # bad UTF-8 or JSON or a huge int (ValueError), deep nesting
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path} is not valid UTF-8 JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must contain a JSON object")
        return cls.from_dict(raw)
