from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from fedsim.config import ExperimentConfig
from fedsim.errors import ConfigError
from fedsim.orchestration import RoundSchedule


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        cfg = ExperimentConfig(seed=9, strategy="fedopt", fedopt_variant="yogi",
                               prox_mu=0.5, patience=3)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(num_clients=3, split=(30, 10, 10),
                               rounds=5, epochs_per_round=4, total_epochs=20)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert ExperimentConfig.from_json_file(path) == cfg

    def test_split_accepts_list_or_named_dict(self):
        a = ExperimentConfig.from_dict({"split": [10, 5, 5],
                                        "total_epochs": None})
        b = ExperimentConfig.from_dict(
            {"split": {"train": 10, "val": 5, "test": 5},
             "total_epochs": None})
        assert a.split == b.split == (10, 5, 5)

    def test_split_dict_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="test"):
            ExperimentConfig.from_dict({"split": {"train": 10, "val": 5}})

    def test_split_dict_unknown_key_rejected(self):
        # a misspelt key was once dropped without a word
        with pytest.raises(ConfigError, match=r"unknown split keys: \['tset'\]"):
            ExperimentConfig.from_dict(
                {"split": {"train": 20, "val": 8, "test": 8, "tset": 3}})


class TestValidation:
    def test_unknown_keys_are_named(self):
        with pytest.raises(ConfigError, match="learning_rte"):
            ExperimentConfig.from_dict({"learning_rte": 0.1})

    @pytest.mark.parametrize("raw", [["seed"], None, "seed"])
    def test_a_config_that_is_not_a_dict_is_refused(self, raw):
        # ["seed"] once ended in a bare ValueError and None in a TypeError
        with pytest.raises(ConfigError, match=f"^a config must be an object, got {re.escape(repr(raw))}$"):
            ExperimentConfig.from_dict(raw)

    def test_schedule_budget_mismatch_names_both_numbers(self):
        with pytest.raises(ConfigError, match="40") as info:
            ExperimentConfig(rounds=4, epochs_per_round=10, total_epochs=150)
        assert "150" in str(info.value)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(strategy="gossip")

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_file(path)

    @pytest.mark.parametrize("fields", [
        {"rounds": 2.5, "total_epochs": None},
        {"rounds": "3", "total_epochs": None},
        {"batch_size": 8.7},
        {"seed": True},
        {"num_clients": 8.0},
        {"total_epochs": 150.0},
        {"patience": 2.0},
        {"patience": -3},
        {"patience": 0},
        {"split": (200.5, 67, 67)},
        {"split": (200, 67)},
        {"split": "200"},
        {"learning_rate": "0.1"},
        {"prox_mu": "0.1"},
        {"tau": "1"},
        {"label_skew_alpha": "x"},
        {"class_separation": None},
        {"uniform_weighting": "no"},
        {"parallel": 1},
        {"beta1": True},
        {"architecture": 3},
        {"fedopt_variant": None},
        # each of these once ended in a traceback, a divergence or a silently
        # wrong run instead of a config error
        pytest.param({"seed": -1}, id="negative-seed"),
        pytest.param({"label_skew_alpha": math.inf}, id="infinite-label-skew"),
        pytest.param({"class_separation": math.inf}, id="infinite-class-separation"),
        pytest.param({"feature_shift_scale": math.inf}, id="infinite-feature-shift"),
        pytest.param({"feature_shift_scale": math.nan}, id="nan-feature-shift"),
        pytest.param({"learning_rate": -math.inf}, id="minus-infinite-learning-rate"),
        pytest.param({"prox_mu": math.nan}, id="nan-optional-float"),
        pytest.param({"tau": 10 ** 400}, id="integer-beyond-float-range"),
        pytest.param({"split": 5}, id="scalar-split"),
        pytest.param({"split": None}, id="null-split"),
        pytest.param({"split": True}, id="bool-split"),
        # loaded, and then its summary could not be written as JSON
        pytest.param({"split": (np.int64(20), 8, 8)}, id="numpy-integer-split"),
    ])
    def test_bad_field_types_and_values_rejected(self, fields):
        with pytest.raises(ConfigError, match=next(iter(fields))):
            ExperimentConfig(**fields)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(fields)

    def test_integer_float_fields_past_64_bits_are_accepted(self):
        # numpy's isfinite refuses such an int: the config error named no
        # field, and before that `run` ended in a TypeError traceback
        fields = {"learning_rate": 10 ** 300, "prox_mu": 2 ** 64,
                  "server_learning_rate": 2 ** 64, "tau": 10 ** 300}
        cfg = ExperimentConfig.from_dict(fields)
        assert {k: getattr(cfg, k) for k in fields} == fields

    def test_valid_config_serializes_unchanged(self):
        cfg = ExperimentConfig(patience=1, split=[30, 10, 10], total_epochs=None,
                               learning_rate=1)
        assert cfg.split == (30, 10, 10)
        assert cfg.to_dict()["learning_rate"] == 1
        assert cfg.to_dict()["split"] == {"train": 30, "val": 10, "test": 10}
        assert cfg.to_dict()["patience"] == 1

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_file(path)


class TestBuilders:
    def test_builders_produce_configured_objects(self):
        cfg = ExperimentConfig(architecture="one_hidden_layer", hidden_units=8,
                               fedopt_variant="adagrad", tau=0.01,
                               label_skew_alpha=0.7)
        assert cfg.model().hidden_units == 8
        assert cfg.schedule().total_epochs == 150
        assert cfg.fedopt().variant == "adagrad"
        assert cfg.heterogeneity().label_skew_alpha == 0.7

    def test_with_schedule_keeps_budget_consistent(self):
        cfg = ExperimentConfig()
        updated = cfg.with_schedule(RoundSchedule(3, 50))
        assert (updated.rounds, updated.epochs_per_round) == (3, 50)
        assert updated.total_epochs == 150
        assert updated.schedule().total_epochs == 150

    def test_budget_falls_back_to_product(self):
        cfg = ExperimentConfig(rounds=2, epochs_per_round=7, total_epochs=None)
        assert cfg.schedule().total_epochs == 14
