from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.data import (SPLITS, ClientDataset, GROUP_ALL_ID, HeterogeneityConfig,
                         LabeledSet, generate_federation, load_federation,
                         pool_clients, save_federation)
from fedsim.errors import ConfigError, FedsimError, ShapeError, ValidationError
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


@st.composite
def client_lists(draw):
    """Up to four clients with distinct ids in any order, of 1 to 3 rows per
    split and one width; about one list in three then takes one fault that
    load would reject: an empty list, a repeated or bool id, a split of
    another width, a split with no rows, or a non-finite feature."""
    width = draw(st.integers(1, 3))
    values = st.sampled_from([0.5, -0.0, 1e308, 5e-324, -2.0])
    ids = draw(st.permutations(range(6)))[:draw(st.integers(1, 4))]
    clients = [ClientDataset(k, *(labeled(draw(st.integers(1, 3)), width, draw(values))
                                  for _ in SPLITS)) for k in ids]
    fault = draw(st.sampled_from([None] * 12 + ["empty", "repeated-id", "bool-id",
                                                "width", "no-rows", "non-finite"]))
    k = draw(st.integers(0, len(clients) - 1))
    split = draw(st.sampled_from(SPLITS))
    if fault == "empty":
        return []
    if fault == "repeated-id":
        clients.append(client(clients[k].client_id, width))
    elif fault == "bool-id":
        clients[k] = dataclasses.replace(clients[k], client_id=True)
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
        (np.full((2, 3), "1"), np.array([0, 1]),
         "features must be integers or floats, got <U1"),
        (np.ones((2, 3), dtype=bool), np.array([0, 1]),
         "features must be integers or floats, got bool"),
    ], ids=["float-labels", "string-labels", "bool-labels", "string-features",
            "bool-features"])
    def test_arrays_of_another_kind_are_validation_error(self, features, labels,
                                                         message):
        # labels [0.5, 1.9] once trained as classes [0, 1]
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


class TestGenerateFederation:
    def test_shapes_and_ids(self):
        clients = small_federation()
        group = pool_clients(clients)
        assert [c.client_id for c in clients] == [1, 2, 3, 4]
        assert group.client_id == GROUP_ALL_ID
        for c in clients:
            assert c.train.features.shape == (50, 32)
            assert len(c.val) == 20 and len(c.test) == 20
        assert len(group.train) == 200
        assert len(group.val) == 80

    def test_labels_within_range(self):
        clients = small_federation()
        for c in clients:
            for split in (c.train, c.val, c.test):
                assert split.labels.min() >= 0
                assert split.labels.max() < 4

    def test_deterministic_in_seed(self):
        a_clients = small_federation(seed=11)
        b_clients = small_federation(seed=11)
        a_group, b_group = pool_clients(a_clients), pool_clients(b_clients)
        for a, b in zip(a_clients, b_clients):
            assert np.array_equal(a.train.features, b.train.features)
            assert np.array_equal(a.train.labels, b.train.labels)
        assert np.array_equal(a_group.test.features, b_group.test.features)

    def test_different_seeds_differ(self):
        a = small_federation(seed=1)
        b = small_federation(seed=2)
        assert not np.array_equal(a[0].train.features, b[0].train.features)

    def test_pool_is_exact_union_in_client_order(self):
        clients = small_federation()
        group = pool_clients(clients)
        offset = 0
        for c in clients:
            chunk = group.train.features[offset:offset + len(c.train)]
            assert np.array_equal(chunk, c.train.features)
            labels = group.train.labels[offset:offset + len(c.train)]
            assert np.array_equal(labels, c.train.labels)
            offset += len(c.train)
        assert offset == len(group.train)

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
        with pytest.raises(ConfigError):
            pool_clients([])

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
        assert np.array_equal(pool_clients(clients).test.features,
                              pool_clients(loaded).test.features)

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

    @pytest.mark.parametrize("clients, error, message", [
        ([], ConfigError, "cannot save an empty client list"),
        # two clients with id 1 once wrote one client_01.bin
        ([client(1), client(1)], ValidationError,
         r"client ids must be distinct integers, got \[1, 1\]"),
        ([client(1), client(True)], ValidationError, r"got \[1, True\]"),
        ([client(1), client(2, width=3)], ShapeError,
         r"cannot save features of widths \[2, 3\]"),
        ([client(1, val=labeled(2, 3))], ShapeError,
         r"cannot save features of widths \[2, 3\]"),
        ([client(1, val=labeled(0, 2))], ValidationError, "needs at least one row"),
        ([client(1, test=labeled(2, 2, np.inf))], ValidationError,
         "finite features"),
    ], ids=["empty", "repeated-id", "bool-id", "client-widths", "split-widths",
            "no-rows", "non-finite"])
    def test_save_refuses_what_load_rejects(self, tmp_path, clients, error, message):
        # an empty list once wrote a manifest that load rejected
        with pytest.raises(error, match=message):
            save_federation(clients, tmp_path / "fed")
        assert not (tmp_path / "fed").exists()

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
