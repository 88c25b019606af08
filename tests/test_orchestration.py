from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fedsim import orchestration
from fedsim.data import LabeledSet, generate_federation, pool_clients
from fedsim.errors import ConfigError, ShapeError, ValidationError
from fedsim.models import TaskModel
from fedsim.orchestration import (RoundSchedule, run_federated,
                                  run_global_baseline, run_local_baseline,
                                  schedule_presets)
from fedsim.params import load_checkpoint
from fedsim.training import RoundUpdates, train


def per_client_train(model, initial, clients, cfg, *, round_index=0):
    """Stand-in for train_clients that trains the clients one by one."""
    ids = sorted(clients)
    alone = [train(model, initial, clients[cid], cfg, round_index=round_index,
                   client_id=cid) for cid in ids]
    return RoundUpdates(tuple(ids), np.concatenate([a.block for a in alone]),
                        np.concatenate([a.sample_counts for a in alone]),
                        np.hstack([a.loss_traces for a in alone]),
                        initial.manifest)


@pytest.fixture(scope="module")
def federation():
    return generate_federation(num_clients=3, split=(40, 15, 15), seed=31)


@pytest.fixture(scope="module")
def model():
    return TaskModel()


class TestSchedules:
    def test_presets_cover_the_fixed_budget(self):
        presets = schedule_presets()
        assert [(s.rounds, s.epochs_per_round) for s in presets.values()] == [
            (3, 50), (5, 30), (10, 15), (15, 10)]
        assert all(s.total_epochs == 150 for s in presets.values())
        assert list(presets) == ["opt1", "opt2", "opt3", "opt4"]

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            RoundSchedule(0, 10)
        with pytest.raises(ConfigError):
            RoundSchedule(3, 0)


class TestRunFederated:
    def test_round_records_and_epoch_accounting(self, federation, model):
        clients, group = federation
        result = run_federated(model, clients, group, RoundSchedule(4, 3),
                               seed=1)
        assert len(result.rounds) == 4
        assert [r.round_number for r in result.rounds] == [1, 2, 3, 4]
        assert [r.cumulative_epochs for r in result.rounds] == [3, 6, 9, 12]
        assert result.client_ids == (1, 2, 3)
        assert result.client_epoch_counts == (12, 12, 12)
        assert 0.0 <= result.test_accuracy <= 1.0
        for rec in result.rounds:
            assert len(rec.client_val_accuracies) == 3

    def test_same_seed_is_bitwise_reproducible(self, federation, model):
        clients, group = federation
        a = run_federated(model, clients, group, RoundSchedule(3, 2), seed=7)
        b = run_federated(model, clients, group, RoundSchedule(3, 2), seed=7)
        assert np.array_equal(a.final_weights.values, b.final_weights.values)
        assert [r.val_accuracy for r in a.rounds] == \
               [r.val_accuracy for r in b.rounds]

    def test_parallel_matches_sequential_bitwise(self, federation, model,
                                                 monkeypatch):
        # lockstep training of all clients at once against one train call
        # per client, in id order
        clients, group = federation
        par = run_federated(model, clients, group, RoundSchedule(3, 2), seed=7)
        monkeypatch.setattr(orchestration, "train_clients", per_client_train)
        seq = run_federated(model, clients, group, RoundSchedule(3, 2), seed=7)
        assert np.array_equal(seq.final_weights.values, par.final_weights.values)
        assert seq.test_accuracy == par.test_accuracy

    def test_client_order_does_not_matter(self, federation, model):
        clients, group = federation
        forward = run_federated(model, clients, group, RoundSchedule(2, 2), seed=3)
        reversed_ = run_federated(model, list(reversed(clients)), group,
                                  RoundSchedule(2, 2), seed=3)
        assert np.array_equal(forward.final_weights.values,
                              reversed_.final_weights.values)
        assert reversed_.client_ids == (1, 2, 3)

    def test_fedprox_default_mu_kicks_in(self, federation, model):
        clients, group = federation
        avg = run_federated(model, clients, group, RoundSchedule(2, 3),
                            "fedavg", seed=5)
        prox = run_federated(model, clients, group, RoundSchedule(2, 3),
                             "fedprox", seed=5)
        prox_mu0 = run_federated(model, clients, group, RoundSchedule(2, 3),
                                 "fedprox", seed=5, prox_mu=0.0)
        # an explicit mu of zero collapses fedprox onto fedavg exactly,
        # while the 0.01 default moves the trajectory
        assert np.array_equal(avg.final_weights.values,
                              prox_mu0.final_weights.values)
        assert not np.array_equal(avg.final_weights.values,
                                  prox.final_weights.values)

    def test_strategies_disagree_on_heterogeneous_clients(self, federation, model):
        clients, group = federation
        outs = {}
        for strategy in ("fedavg", "fedmedian", "fedopt"):
            outs[strategy] = run_federated(
                model, clients, group, RoundSchedule(2, 2), strategy, seed=2)
        assert not np.array_equal(outs["fedavg"].final_weights.values,
                                  outs["fedmedian"].final_weights.values)
        assert not np.array_equal(outs["fedavg"].final_weights.values,
                                  outs["fedopt"].final_weights.values)

    def test_patience_stops_early_on_a_plateau(self, federation, model):
        clients, group = federation
        result = run_federated(model, clients, group, RoundSchedule(8, 1),
                               seed=1, learning_rate=1e-9, patience=2)
        # round 1 sets the best; two stale rounds then trip the stop
        assert len(result.rounds) == 3

    def test_checkpoints_written_per_round(self, federation, model, tmp_path):
        clients, group = federation
        result = run_federated(model, clients, group, RoundSchedule(3, 1),
                               seed=4, checkpoint_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert files == ["round_001.ckpt", "round_002.ckpt", "round_003.ckpt"]
        final = load_checkpoint(tmp_path / "round_003.ckpt")
        assert np.array_equal(final.values, result.final_weights.values)

    def test_client_validation(self, federation, model):
        clients, group = federation
        with pytest.raises(ConfigError):
            run_federated(model, [], group, RoundSchedule(1, 1))
        with pytest.raises(ValidationError):
            run_federated(model, [clients[0], clients[0]], group,
                          RoundSchedule(1, 1))


    @pytest.mark.parametrize("run", [
        lambda m, c, g: run_federated(m, c, g, RoundSchedule(1, 1)),
        lambda m, c, g: run_local_baseline(m, c, g, total_epochs=1),
        lambda m, c, g: run_global_baseline(m, c, g, total_epochs=1),
    ], ids=["federated", "local", "global"])
    def test_splits_checked_against_the_model(self, federation, model, run):
        clients, group = federation
        with pytest.raises(ShapeError, match="input_dim 16"):
            run(TaskModel(input_dim=16), clients, group)
        for label in (-1, model.num_classes):
            bad = dataclasses.replace(group, test=LabeledSet(
                group.test.features,
                np.where(np.arange(len(group.test)) == 3, label,
                         group.test.labels)))
            with pytest.raises(ValidationError, match="pooled data test"):
                run(model, clients, bad)


def pooled_forward(model, weights, split):
    """The pooled accuracy as it was taken before it was summed from the
    clients' counts: one forward over the whole pooled split."""
    return model.evaluate_accuracy(weights, split.features, split.labels)


@pytest.fixture
def evaluation_shapes(monkeypatch):
    """The feature shapes of every ``evaluate_accuracy`` call, as made."""
    shapes = []
    evaluate = TaskModel.evaluate_accuracy

    def recorded(self, weights, x, y):
        shapes.append(np.shape(x))
        return evaluate(self, weights, x, y)

    monkeypatch.setattr(TaskModel, "evaluate_accuracy", recorded)
    return shapes


def summed(accuracies, splits):
    correct = sum(round(a * len(s)) for a, s in zip(accuracies, splits))
    return correct / sum(len(s) for s in splits)


class TestPooledAccuracy:
    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("architecture", ["linear", "one_hidden_layer"])
    def test_pooled_is_the_summed_counts_and_the_pooled_forward(
            self, seed, architecture, tmp_path):
        clients, group = generate_federation(num_clients=5, split=(30, 13, 11),
                                             seed=seed)
        model = TaskModel(architecture=architecture)
        vals, tests = [c.val for c in clients], [c.test for c in clients]
        result = run_federated(model, clients, group, RoundSchedule(3, 2),
                               seed=seed, checkpoint_dir=tmp_path)
        for rec in result.rounds:
            weights = load_checkpoint(tmp_path / f"round_{rec.round_number:03d}.ckpt")
            assert rec.val_accuracy == summed(rec.client_val_accuracies, vals)
            assert rec.val_accuracy == pooled_forward(model, weights, group.val)
        final = result.final_weights
        assert result.test_accuracy == summed(result.client_test_accuracies, tests)
        assert result.test_accuracy == pooled_forward(model, final, group.test)

        pooled = run_global_baseline(model, clients, group, total_epochs=4, seed=seed)
        assert pooled.test_accuracy == summed(pooled.client_test_accuracies, tests)
        assert pooled.test_accuracy == pooled_forward(model, pooled.final_weights,
                                                      group.test)
        local = run_local_baseline(model, clients, group, total_epochs=4, seed=seed)
        assert local.client_test_accuracies == tuple(
            pooled_forward(model, w, group.test) for w in local.final_weights)

    def test_unequal_split_sizes_match_per_client_calls(self, model, tmp_path,
                                                        evaluation_shapes):
        generated, _ = generate_federation(num_clients=5, split=(20, 12, 12),
                                           seed=3)
        # runs of val sizes [6, 6], [9], [6, 6]; test sizes all differ
        clients = [dataclasses.replace(
            c, val=LabeledSet(c.val.features[:n], c.val.labels[:n]),
            test=LabeledSet(c.test.features[:m], c.test.labels[:m]))
            for c, n, m in zip(generated, [6, 6, 9, 6, 6], [12, 11, 10, 9, 8])]
        group = pool_clients(clients)
        result = run_federated(model, clients, group, RoundSchedule(2, 1),
                               checkpoint_dir=tmp_path)
        assert evaluation_shapes == 2 * [(2, 6, 32), (1, 9, 32), (2, 6, 32)] + [
            (1, m, 32) for m in [12, 11, 10, 9, 8]]
        for rec in result.rounds:
            weights = load_checkpoint(tmp_path / f"round_{rec.round_number:03d}.ckpt")
            assert rec.client_val_accuracies == tuple(
                model.evaluate_accuracy(weights, c.val.features, c.val.labels)
                for c in clients)
            assert rec.val_accuracy == pooled_forward(model, weights, group.val)
        assert result.client_test_accuracies == tuple(
            model.evaluate_accuracy(result.final_weights, c.test.features,
                                    c.test.labels) for c in clients)
        assert result.test_accuracy == pooled_forward(
            model, result.final_weights, group.test)

    def test_one_evaluation_call_per_round_on_equal_splits(
            self, federation, model, evaluation_shapes):
        clients, group = federation
        run_federated(model, clients, group, RoundSchedule(4, 1))
        assert evaluation_shapes == 5 * [(3, 15, 32)]  # 4 rounds, then test

    @pytest.mark.parametrize("run", [
        lambda m, c, g: run_federated(m, c, g, RoundSchedule(1, 1)),
        lambda m, c, g: run_local_baseline(m, c, g, total_epochs=1),
        lambda m, c, g: run_global_baseline(m, c, g, total_epochs=1),
    ], ids=["federated", "local", "global"])
    @pytest.mark.parametrize("split", ["val", "test"])
    def test_a_pooled_set_other_than_the_union_is_rejected(
            self, federation, model, run, split):
        clients, group = federation
        union = getattr(group, split)
        others = {
            "reordered": pool_clients(clients[::-1]),
            "short": dataclasses.replace(group, **{split: LabeledSet(
                union.features[1:], union.labels[1:])}),
            "relabelled": dataclasses.replace(group, **{split: LabeledSet(
                union.features, (union.labels + 1) % model.num_classes)}),
            "moved": dataclasses.replace(group, **{split: LabeledSet(
                union.features + 1e-12, union.labels)}),
        }
        message = (f"pooled data {split} is not the clients' {split} splits "
                   f"concatenated in id order")
        for name, other in others.items():
            if name == "reordered" and split == "test":
                continue  # the val check fires first
            with pytest.raises(ValidationError) as info:
                run(model, clients, other)
            assert str(info.value) == message, name
        # a pool of the clients in any given order is the union in id order
        run(model, clients[::-1], group)


class TestBaselines:
    def test_local_trains_one_model_per_client(self, federation, model):
        clients, group = federation
        result = run_local_baseline(model, clients, group, total_epochs=6,
                                    seed=2)
        assert result.client_ids == (1, 2, 3)
        assert len(result.final_weights) == 3
        assert all(len(t) == 6 for t in result.client_loss_traces)
        assert result.mean_test_accuracy == pytest.approx(
            sum(result.client_test_accuracies) / 3)
        # siloed models see different data, so they must differ
        assert not np.array_equal(result.final_weights[0].values,
                                  result.final_weights[1].values)

    def test_global_trains_on_the_pool(self, federation, model):
        clients, group = federation
        result = run_global_baseline(model, clients, group, total_epochs=6,
                                     seed=2)
        assert len(result.loss_trace) == 6
        assert len(result.client_test_accuracies) == 3
        assert result.client_ids == tuple(
            sorted(c.client_id for c in clients))
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_budget_validation(self, federation, model):
        clients, group = federation
        with pytest.raises(ConfigError):
            run_local_baseline(model, clients, group, total_epochs=0)
        with pytest.raises(ConfigError):
            run_global_baseline(model, clients, group, total_epochs=0)


class TestMemory:
    """Peak traced allocations of a cross-device-sized run, in (K, P) blocks.

    tracemalloc counts allocations, not resident pages, so the peak is the
    same on every run. A round holds one block of client weights, and fedopt
    one more for the displacements. The peak sits in training, at about 1.23
    blocks (fedmedian, fedavg) and 2.07 (fedopt): the block plus one 8-client
    stack's gradient workspace and activations. Per-client copies restacked
    each round, with the last round still alive, read 2.06 and 3.09; a stack
    trained on a copy of its 8 rows rather than on a view of them, 1.36.
    """

    @pytest.fixture(scope="class")
    def cross_device(self):
        model = TaskModel(input_dim=64, num_classes=10,
                          architecture="one_hidden_layer", hidden_units=256)
        clients, group = generate_federation(
            num_clients=64, split=(20, 10, 10), input_dim=64, num_classes=10,
            seed=0)
        assert model.num_params == 19_210
        return model, clients, group

    @pytest.mark.parametrize("strategy, bound", [
        ("fedmedian", 1.25), ("fedavg", 1.25), ("fedopt", 2.25)])
    def test_peak_stays_near_one_block_per_round(self, cross_device, strategy,
                                                  bound):
        model, clients, group = cross_device
        block_bytes = len(clients) * model.num_params * 8
        tracemalloc.start()
        try:
            run_federated(model, clients, group, RoundSchedule(3, 1), strategy,
                          seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / block_bytes < bound
