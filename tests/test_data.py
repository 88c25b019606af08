from __future__ import annotations

import dataclasses
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import orchestration
from fedsim.aggregation import FedOptConfig
from fedsim.data import (SPLITS, ClientDataset, HeterogeneityConfig, LabeledSet,
                         generate_federation, load_federation, save_federation)
from fedsim.errors import ConfigError, FedsimError, ShapeError, ValidationError
from fedsim.models import TaskModel
from fedsim.orchestration import (RoundSchedule, run_federated, run_global_baseline,
                                  run_local_baseline)
from fedsim.params import read_container


def small_federation(seed=3, **kwargs):
    return generate_federation(num_clients=4, split=(50, 20, 20), seed=seed,
                               **kwargs)


def labeled(rows, width, value=1.0):
    """``rows`` rows of ``width`` features, each ``value``, labelled 0..rows-1."""
    return LabeledSet(np.full((rows, width), value), np.arange(rows))


def client(client_id, width=2, train=None, val=None, test=None):
    """A client of 2 rows per split, each split ``width`` wide unless given."""
    return ClientDataset(client_id, *(labeled(2, width) if s is None else s
                                      for s in (train, val, test)))


# The client-list rule (data.check_clients), as every entry point that takes
# a client list applies it: (clients, error, message). The rows from
# "nan-val" on once passed the run functions, which scored a NaN feature and
# trained round 1 before an empty val split raised; the rows from "object"
# on ended in a bare AttributeError there and in save_federation. An id that
# is not an int never reaches a list: ClientDataset refuses it.
CLIENT_RULE = [
    pytest.param([], ConfigError, "^need at least one client$", id="empty"),
    pytest.param(iter([client(1)]), ConfigError,
                 "^clients must be a list, got list_iterator$", id="iterator"),
    # two clients with id 1 once wrote one client_01.bin
    pytest.param([client(1), client(1)], ValidationError,
                 r"client ids must be distinct integers, got \[1, 1\]", id="repeated-id"),
    pytest.param([client(1), client(2, width=3)], ShapeError,
                 r"client features have widths \[2, 3\]", id="client-widths"),
    pytest.param([client(1, val=labeled(2, 3))], ShapeError,
                 r"client features have widths \[2, 3\]", id="split-widths"),
    pytest.param([client(1, val=labeled(0, 2))], ValidationError,
                 "needs at least one row", id="no-rows"),
    pytest.param([client(1, test=labeled(2, 2, np.inf))], ValidationError,
                 "^client 1 split 'test' features hold non-finite values$",
                 id="non-finite"),
    pytest.param([client(1), client(2, val=labeled(2, 2, np.nan))], ValidationError,
                 "^client 2 split 'val' features hold non-finite values$", id="nan-val"),
    pytest.param([client(1), client(2, test=labeled(2, 2, np.nan))], ValidationError,
                 "^client 2 split 'test' features hold non-finite values$", id="nan-test"),
    pytest.param([client(1), client(2, val=labeled(0, 2))], ValidationError,
                 "^client 2 split 'val' needs at least one row$", id="empty-val"),
    pytest.param([object()], ConfigError,
                 r"^clients\[0\] must be a ClientDataset, got <object object at ",
                 id="object"),
    pytest.param([client(1), "x"], ConfigError,
                 r"^clients\[1\] must be a ClientDataset, got 'x'$", id="string"),
    pytest.param([{"client_id": 1}], ConfigError,
                 r"^clients\[0\] must be a ClientDataset, got \{'client_id': 1\}$",
                 id="dict"),
    # the element rule comes before the ids are read
    pytest.param([client(1), client(1), None], ConfigError,
                 r"^clients\[2\] must be a ClientDataset, got None$",
                 id="none-after-repeated-id"),
]
RULE_MODEL = TaskModel(input_dim=2, num_classes=2)  # fits client()'s splits
ENTRY_POINTS = {
    "run_federated": lambda clients: run_federated(RULE_MODEL, clients,
                                                   RoundSchedule(1, 1)),
    "run_local_baseline": lambda clients: run_local_baseline(RULE_MODEL, clients, 1),
    "run_global_baseline": lambda clients: run_global_baseline(RULE_MODEL, clients, 1),
}


@st.composite
def client_lists(draw):
    """Up to four clients with distinct ids in any order, of 1 to 3 rows per
    split and one width; about one list in three then takes one fault that
    load would reject: an empty list, a repeated id, a split of another
    width, a split with no rows, or a non-finite feature."""
    width = draw(st.integers(1, 3))
    values = st.sampled_from([0.5, -0.0, 1e308, 5e-324, -2.0])
    ids = draw(st.permutations(range(6)))[:draw(st.integers(1, 4))]
    clients = [ClientDataset(k, *(labeled(draw(st.integers(1, 3)), width, draw(values))
                                  for _ in SPLITS)) for k in ids]
    fault = draw(st.sampled_from([None] * 12 + ["empty", "repeated-id", "width",
                                                "no-rows", "non-finite"]))
    k = draw(st.integers(0, len(clients) - 1))
    split = draw(st.sampled_from(SPLITS))
    if fault == "empty":
        return []
    if fault == "repeated-id":
        clients.append(client(clients[k].client_id, width))
    elif fault:
        bad = {"width": labeled(2, width + 1), "no-rows": labeled(0, width),
               "non-finite": labeled(2, width, draw(st.sampled_from(
                   [np.nan, np.inf, -np.inf])))}[fault]
        clients[k] = dataclasses.replace(clients[k], **{split: bad})
    return clients


class TestLabeledSet:
    def test_alignment_required(self):
        with pytest.raises(ShapeError):
            LabeledSet(np.zeros((3, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("features, labels, message", [
        (np.zeros((2, 3)), np.array([0.5, 1.9]), "labels must be integers, got float64"),
        (np.zeros((2, 3)), np.array(["0", "1"]), "labels must be integers, got <U1"),
        (np.zeros((2, 3)), np.array([True, False]), "labels must be integers, got bool"),
        (np.zeros((2, 3)), np.array([2 ** 63, 1], dtype=np.uint64),
         "labels must fit int64, got 9223372036854775808"),
        (np.full((2, 3), "1"), np.array([0, 1]),
         "features must be integers or floats, got <U1"),
        (np.ones((2, 3), dtype=bool), np.array([0, 1]),
         "features must be integers or floats, got bool"),
    ], ids=["float-labels", "string-labels", "bool-labels", "uint64-labels",
            "string-features", "bool-features"])
    def test_arrays_of_another_kind_are_validation_error(self, features, labels,
                                                         message):
        # labels [0.5, 1.9] once trained as classes [0, 1], and uint64 labels
        # [2**63, 1] were kept as [-2**63, 1]
        with pytest.raises(ValidationError, match=f"^{message}$"):
            LabeledSet(features, labels)

    def test_integer_features_become_float64(self):
        s = LabeledSet(np.arange(6, dtype=np.int32).reshape(2, 3),
                       np.array([0, 1], dtype=np.uint8))
        assert (s.features.dtype, s.labels.dtype) == (np.float64, np.int64)
        assert s.features.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_arrays_are_frozen(self):
        s = LabeledSet(np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            s.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            s.labels[0] = 1


@pytest.mark.parametrize("client_id", [True, 2.0, "2"], ids=["bool", "float", "string"])
def test_a_client_id_must_be_an_int(client_id):
    # each once reached a client list, which check_clients alone refused
    with pytest.raises(ConfigError, match=re.escape(
            f"client_id must be an integer, got {client_id!r}")):
        client(client_id)


@pytest.mark.parametrize("split", SPLITS)
def test_a_client_split_must_be_a_labeled_set(split):
    # a train split given as an array once ended in a bare AttributeError
    # from the run functions and save_federation
    with pytest.raises(ConfigError, match=f"^{split} must be a LabeledSet, got array"):
        client(1, **{split: np.zeros((2, 2))})


class TestGenerateFederation:
    def test_shapes_and_ids(self):
        clients = small_federation()
        assert [c.client_id for c in clients] == [1, 2, 3, 4]
        for c in clients:
            assert c.train.features.shape == (50, 32)
            assert len(c.val) == 20 and len(c.test) == 20

    def test_labels_within_range(self):
        clients = small_federation()
        for c in clients:
            for split in (c.train, c.val, c.test):
                assert split.labels.min() >= 0
                assert split.labels.max() < 4

    def test_deterministic_in_seed(self):
        assert small_federation(seed=11) == small_federation(seed=11)

    def test_different_seeds_differ(self):
        a = small_federation(seed=1)
        b = small_federation(seed=2)
        assert not np.array_equal(a[0].train.features, b[0].train.features)

    def test_low_alpha_skews_labels_harder(self):
        skewed = generate_federation(
            num_clients=6, split=(200, 10, 10), seed=5,
            heterogeneity=HeterogeneityConfig(label_skew_alpha=0.1))
        flat = generate_federation(
            num_clients=6, split=(200, 10, 10), seed=5,
            heterogeneity=HeterogeneityConfig(label_skew_alpha=1000.0))

        def mean_top_fraction(clients):
            tops = []
            for c in clients:
                counts = np.bincount(c.train.labels, minlength=4)
                tops.append(counts.max() / counts.sum())
            return float(np.mean(tops))

        assert mean_top_fraction(skewed) > 0.6
        assert mean_top_fraction(flat) < 0.45

    def test_feature_shift_scale_is_the_offset_norm(self):
        base = small_federation(
            seed=9, heterogeneity=HeterogeneityConfig(feature_shift_scale=0.0))
        shifted = small_federation(
            seed=9, heterogeneity=HeterogeneityConfig(feature_shift_scale=3.0))
        for b, s in zip(base, shifted):
            diff = s.train.features - b.train.features
            # every row moved by the same client offset, of norm 3
            assert np.allclose(diff, diff[0], atol=1e-12)
            assert np.linalg.norm(diff[0]) == pytest.approx(3.0, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_federation(num_clients=0)
        with pytest.raises(ConfigError):
            generate_federation(split=(10, 0, 10))
        with pytest.raises(ConfigError):
            HeterogeneityConfig(label_skew_alpha=0.0)
        with pytest.raises(ConfigError):
            HeterogeneityConfig(feature_shift_scale=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["label_skew_alpha", "feature_shift_scale",
                                       "class_separation"])
    def test_non_finite_knob_rejected(self, field, value):
        # a NaN feature_shift_scale once gave every client a zero offset,
        # inf gave infinite features, and a NaN class_separation NaN features
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            HeterogeneityConfig(**{field: value})

    @pytest.mark.parametrize("name, value, message", [
        ("num_clients", True, "must be an integer, got True"),
        ("num_clients", 2.5, "must be an integer, got 2.5"),
        ("num_clients", "2", "must be an integer, got '2'"),
        ("seed", True, "must be an integer, got True"),
        ("seed", 1.5, "must be an integer, got 1.5"),
        ("seed", -1, "must be >= 0, got -1"),
        ("input_dim", 2.5, "must be an integer, got 2.5"),
        ("input_dim", 0, "must be >= 1, got 0"),
        ("num_classes", 1, "must be >= 2, got 1"),
    ])
    def test_wrong_argument_is_one_named_config_error(self, name, value, message):
        # num_clients=True once built one client, and the rest reached numpy
        with pytest.raises(ConfigError, match=f"^{name} {message}$"):
            generate_federation(**{name: value})

    @pytest.mark.parametrize("value", [None, {"label_skew_alpha": 0.3}, FedOptConfig()],
                             ids=["none", "dict", "another-config"])
    def test_heterogeneity_must_be_a_heterogeneity_config(self, value):
        # a dict once ended in an AttributeError
        with pytest.raises(ConfigError,
                           match="^heterogeneity must be a HeterogeneityConfig, got "):
            generate_federation(heterogeneity=value)

    def test_class_separation_scales_the_shared_class_means(self):
        def features(separation):
            clients = small_federation(heterogeneity=HeterogeneityConfig(
                class_separation=separation))
            return np.concatenate([c.train.features for c in clients])

        # labels, offsets and noise do not depend on the separation
        base = features(0.0)
        assert np.allclose(features(2.0) - base, 2 * (features(1.0) - base))
        assert not np.allclose(features(1.0), base)


class TestFederationIO:
    def test_round_trip_is_exact(self, tmp_path):
        clients = small_federation(seed=21)
        save_federation(clients, tmp_path / "fed", metadata={"seed": 21})
        loaded = load_federation(tmp_path / "fed")
        assert [c.client_id for c in loaded] == [c.client_id for c in clients]
        for a, b in zip(clients, loaded):
            for split in ("train", "val", "test"):
                sa, sb = getattr(a, split), getattr(b, split)
                assert np.array_equal(sa.features, sb.features)
                assert np.array_equal(sa.labels, sb.labels)

    def test_one_file_lists_all_clients(self, tmp_path):
        clients = small_federation()
        path = save_federation(clients, tmp_path / "fed", metadata={"seed": 3})
        assert path == tmp_path / "fed" / "federation.bin"
        assert [p.name for p in path.parent.iterdir()] == ["federation.bin"]
        header, payload = read_container(path)
        assert header == {"width": 32, "clients": [
            {"client_id": k, "rows": {"train": 50, "val": 20, "test": 20}}
            for k in range(1, 5)], "metadata": {"seed": 3}}
        assert len(payload) == 4 * 90 * 33 * 8

    @pytest.mark.parametrize("clients, error, message", CLIENT_RULE)
    def test_save_refuses_what_load_rejects(self, tmp_path, clients, error, message):
        # an empty list once wrote a manifest that load rejected
        with pytest.raises(error, match=message):
            save_federation(clients, tmp_path / "fed")
        assert not (tmp_path / "fed").exists()

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("clients, error, message", CLIENT_RULE)
    def test_runs_refuse_what_save_refuses(self, monkeypatch, entry, clients, error,
                                           message):
        trained = []
        for name in ("train_clients", "train"):
            monkeypatch.setattr(orchestration, name,
                                lambda *args, **kwargs: trained.append(args))
        with pytest.raises(error, match=message):
            ENTRY_POINTS[entry](clients)
        assert trained == []  # a run refuses the list before any training

    def test_load_returns_clients_equal_to_those_saved(self, tmp_path):
        clients = small_federation(seed=5)
        save_federation(clients, tmp_path / "fed")
        assert load_federation(tmp_path / "fed") == clients

    @pytest.mark.parametrize("metadata, message", [
        # once a bare TypeError from json.dumps
        ({"x": object()}, "^metadata cannot be written as JSON: Object of type object"),
        # once written, and then rejected by load as "metadata must be an object"
        ([1, 2], r"^metadata must be a dict or null, got \[1, 2\]$"),
    ], ids=["not-json", "not-an-object"])
    def test_metadata_load_cannot_read_is_refused_before_a_byte(self, tmp_path, metadata,
                                                                message):
        with pytest.raises(ConfigError, match=message):
            save_federation([client(1)], tmp_path / "fed", metadata=metadata)
        assert not (tmp_path / "fed").exists()

    @pytest.mark.parametrize("expected, message", [
        # once a 2-client federation returned without complaint
        ({"num_clients": 5}, "^num_clients is 5 but .*federation.bin holds 2 clients$"),
        # once "num_clients must be an integer, got None"
        ({"split": (5, 3, 3)}, r"federation.bin: split is \[5, 3, 3\] but client 1 "
                               r"has \[2, 2, 2\] rows$"),
        ({"num_clients": 2.0}, "^num_clients must be an integer or null, got 2.0$"),
        ({"split": (2, 2)}, r"^split must be three positive integer counts"),
    ], ids=["num-clients", "split", "num-clients-float", "split-short"])
    def test_load_checks_each_expectation_given_on_its_own(self, tmp_path, expected,
                                                          message):
        save_federation([client(1), client(2)], tmp_path / "fed")
        assert len(load_federation(tmp_path / "fed", 2, (2, 2, 2))) == 2
        with pytest.raises(ConfigError, match=message):
            load_federation(tmp_path / "fed", **expected)

    @pytest.mark.parametrize("metadata", [["seed"], "seed", 7])
    def test_load_refuses_metadata_that_is_not_a_dict_before_reading(self, tmp_path,
                                                                    metadata):
        # once a bare AttributeError: 'list' object has no attribute 'items';
        # tmp_path holds no federation, which load would report on reading
        with pytest.raises(ConfigError, match="^metadata must be a dict or null, got "):
            load_federation(tmp_path, metadata=metadata)

    @settings(max_examples=150, deadline=None)
    @given(clients=client_lists())
    def test_save_raises_or_load_returns_the_clients(self, clients):
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch) / "fed"
            try:
                save_federation(clients, directory)
            except FedsimError:
                assert not directory.exists()
                return
            loaded = load_federation(directory)
        expected = sorted(clients, key=lambda c: c.client_id)
        assert [c.client_id for c in loaded] == [c.client_id for c in expected]
        for a, b in zip(expected, loaded):
            for split in SPLITS:
                sa, sb = getattr(a, split), getattr(b, split)
                assert sa.features.shape == sb.features.shape
                assert sa.features.tobytes() == sb.features.tobytes()
                assert sa.labels.tobytes() == sb.labels.tobytes()
