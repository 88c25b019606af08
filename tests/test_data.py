from __future__ import annotations

import numpy as np
import pytest

from fedsim.data import (ClientDataset, GROUP_ALL_ID, HeterogeneityConfig,
                         LabeledSet, generate_federation, load_federation,
                         pool_clients, save_federation)
from fedsim.errors import ConfigError, ShapeError


def small_federation(seed=3, **kwargs):
    return generate_federation(num_clients=4, split=(50, 20, 20), seed=seed,
                               **kwargs)


class TestLabeledSet:
    def test_alignment_required(self):
        with pytest.raises(ShapeError):
            LabeledSet(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_arrays_are_frozen(self):
        s = LabeledSet(np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            s.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            s.labels[0] = 1


class TestGenerateFederation:
    def test_shapes_and_ids(self):
        clients, group = small_federation()
        assert [c.client_id for c in clients] == [1, 2, 3, 4]
        assert group.client_id == GROUP_ALL_ID
        for c in clients:
            assert c.train.features.shape == (50, 32)
            assert len(c.val) == 20 and len(c.test) == 20
        assert len(group.train) == 200
        assert len(group.val) == 80

    def test_labels_within_range(self):
        clients, _ = small_federation()
        for c in clients:
            for split in (c.train, c.val, c.test):
                assert split.labels.min() >= 0
                assert split.labels.max() < 4

    def test_deterministic_in_seed(self):
        a_clients, a_group = small_federation(seed=11)
        b_clients, b_group = small_federation(seed=11)
        for a, b in zip(a_clients, b_clients):
            assert np.array_equal(a.train.features, b.train.features)
            assert np.array_equal(a.train.labels, b.train.labels)
        assert np.array_equal(a_group.test.features, b_group.test.features)

    def test_different_seeds_differ(self):
        a, _ = small_federation(seed=1)
        b, _ = small_federation(seed=2)
        assert not np.array_equal(a[0].train.features, b[0].train.features)

    def test_pool_is_exact_union_in_client_order(self):
        clients, group = small_federation()
        offset = 0
        for c in clients:
            chunk = group.train.features[offset:offset + len(c.train)]
            assert np.array_equal(chunk, c.train.features)
            labels = group.train.labels[offset:offset + len(c.train)]
            assert np.array_equal(labels, c.train.labels)
            offset += len(c.train)
        assert offset == len(group.train)

    def test_low_alpha_skews_labels_harder(self):
        skewed, _ = generate_federation(
            num_clients=6, split=(200, 10, 10), seed=5,
            heterogeneity=HeterogeneityConfig(label_skew_alpha=0.1))
        flat, _ = generate_federation(
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
        base, _ = small_federation(
            seed=9, heterogeneity=HeterogeneityConfig(feature_shift_scale=0.0))
        shifted, _ = small_federation(
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


class TestFederationIO:
    def test_round_trip_is_exact(self, tmp_path):
        clients, group = small_federation(seed=21)
        save_federation(clients, tmp_path / "fed", metadata={"seed": 21})
        loaded, loaded_group = load_federation(tmp_path / "fed")
        assert [c.client_id for c in loaded] == [c.client_id for c in clients]
        for a, b in zip(clients, loaded):
            for split in ("train", "val", "test"):
                sa, sb = getattr(a, split), getattr(b, split)
                assert np.array_equal(sa.features, sb.features)
                assert np.array_equal(sa.labels, sb.labels)
        assert np.array_equal(group.test.features, loaded_group.test.features)

    def test_manifest_lists_all_clients(self, tmp_path):
        import json

        clients, _ = small_federation()
        manifest_path = save_federation(clients, tmp_path / "fed")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["clients"] == [{"file": f"client_0{k}.bin"}
                                       for k in range(1, 5)]

    def test_manifest_with_old_entry_fields_loads_unchanged(self, tmp_path):
        # manifests once repeated each client's id and split sizes; the
        # client files are the one source of both, so the copies are ignored
        import json

        clients, _ = small_federation()
        manifest_path = save_federation(clients, tmp_path / "fed")
        expected, _ = load_federation(tmp_path / "fed")
        manifest = json.loads(manifest_path.read_text())
        for entry, client in zip(manifest["clients"], clients):
            entry.update(client_id=client.client_id,
                         sizes={"train": 50, "val": 20, "test": 20})
        manifest_path.write_text(json.dumps(manifest))
        loaded, _ = load_federation(tmp_path / "fed")
        assert [c.client_id for c in loaded] == [c.client_id for c in expected]
        for a, b in zip(expected, loaded):
            for split in ("train", "val", "test"):
                assert np.array_equal(getattr(a, split).features,
                                      getattr(b, split).features)
                assert np.array_equal(getattr(a, split).labels,
                                      getattr(b, split).labels)
