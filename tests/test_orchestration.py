from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fedsim import orchestration, training
from fedsim.data import LabeledSet, generate_federation
from fedsim.errors import ConfigError, ShapeError, ValidationError
from fedsim.models import TaskModel
from fedsim.orchestration import (RoundSchedule, run_federated,
                                  run_global_baseline, run_local_baseline,
                                  schedule_presets)
from fedsim.params import load_checkpoint
from fedsim.training import RoundUpdates, TrainerConfig, train


def per_client_train(model, initial, clients, cfg, *, round_index=0):
    """Stand-in for train_clients that trains the clients one by one."""
    ids = sorted(clients)
    alone = [train(model, initial, clients[cid], cfg, round_index=round_index,
                   client_id=cid) for cid in ids]
    return RoundUpdates(tuple(ids), np.concatenate([a.block for a in alone]),
                        np.concatenate([a.sample_counts for a in alone]),
                        np.hstack([a.loss_traces for a in alone]),
                        initial.manifest)


RUNS = [lambda m, c: run_federated(m, c, RoundSchedule(1, 1)),
        lambda m, c: run_local_baseline(m, c, total_epochs=1),
        lambda m, c: run_global_baseline(m, c, total_epochs=1)]
RUN_IDS = ["federated", "local", "global"]


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

    @pytest.mark.parametrize("patience", [0, -3, 1.5, True])
    def test_patience_below_one_or_not_an_integer_rejected(self, patience):
        # run_federated once took patience as a keyword of its own, and 0 or
        # -3 stopped a run after round 1 without a word
        with pytest.raises(ConfigError, match="patience must be"):
            RoundSchedule(8, 1, patience=patience)


class TestRunFederated:
    def test_round_records_and_epoch_accounting(self, federation, model):
        clients = federation
        result = run_federated(model, clients, RoundSchedule(4, 3),
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
        clients = federation
        a = run_federated(model, clients, RoundSchedule(3, 2), seed=7)
        b = run_federated(model, clients, RoundSchedule(3, 2), seed=7)
        assert np.array_equal(a.final_weights.values, b.final_weights.values)
        assert [r.val_accuracy for r in a.rounds] == \
               [r.val_accuracy for r in b.rounds]

    def test_parallel_matches_sequential_bitwise(self, federation, model,
                                                 monkeypatch):
        # lockstep training of all clients at once against one train call
        # per client, in id order
        clients = federation
        par = run_federated(model, clients, RoundSchedule(3, 2), seed=7)
        monkeypatch.setattr(orchestration, "train_clients", per_client_train)
        seq = run_federated(model, clients, RoundSchedule(3, 2), seed=7)
        assert np.array_equal(seq.final_weights.values, par.final_weights.values)
        assert seq.test_accuracy == par.test_accuracy

    def test_client_order_does_not_matter(self, federation, model):
        clients = federation
        forward = run_federated(model, clients, RoundSchedule(2, 2), seed=3)
        reversed_ = run_federated(model, list(reversed(clients)),
                                  RoundSchedule(2, 2), seed=3)
        assert np.array_equal(forward.final_weights.values,
                              reversed_.final_weights.values)
        assert reversed_.client_ids == (1, 2, 3)

    def test_fedprox_default_mu_kicks_in(self, federation, model):
        clients = federation
        avg = run_federated(model, clients, RoundSchedule(2, 3),
                            "fedavg", seed=5)
        prox = run_federated(model, clients, RoundSchedule(2, 3),
                             "fedprox", seed=5)
        prox_mu0 = run_federated(model, clients, RoundSchedule(2, 3),
                                 "fedprox", seed=5, prox_mu=0.0)
        # an explicit mu of zero collapses fedprox onto fedavg exactly,
        # while the 0.01 default moves the trajectory
        assert np.array_equal(avg.final_weights.values,
                              prox_mu0.final_weights.values)
        assert not np.array_equal(avg.final_weights.values,
                                  prox.final_weights.values)

    def test_strategies_disagree_on_heterogeneous_clients(self, federation, model):
        clients = federation
        outs = {}
        for strategy in ("fedavg", "fedmedian", "fedopt"):
            outs[strategy] = run_federated(
                model, clients, RoundSchedule(2, 2), strategy, seed=2)
        assert not np.array_equal(outs["fedavg"].final_weights.values,
                                  outs["fedmedian"].final_weights.values)
        assert not np.array_equal(outs["fedavg"].final_weights.values,
                                  outs["fedopt"].final_weights.values)

    def test_patience_stops_early_on_a_plateau(self, federation, model):
        clients = federation
        result = run_federated(model, clients, RoundSchedule(8, 1, patience=2),
                               seed=1, learning_rate=1e-9)
        # round 1 sets the best; two stale rounds then trip the stop
        assert len(result.rounds) == 3

    @pytest.mark.parametrize("script", [(0.5, 0.6, 0.6, 0.55),
                                        (0.5, 0.5, 0.6, 0.6, 0.6)])
    def test_patience_counts_rounds_since_the_best(self, federation, model,
                                                   monkeypatch, script):
        # a tie does not reset the count and a rise does, so both scripts
        # stop on their last round; the final test scoring reads 0
        pooled = iter(script)
        monkeypatch.setattr(orchestration, "_accuracies",
                            lambda model, weights, splits:
                            (next(pooled, 0.0), *[0.0] * len(splits)))
        result = run_federated(model, federation,
                               RoundSchedule(8, 1, patience=2), seed=1)
        assert [r.val_accuracy for r in result.rounds] == list(script)

    # a missing directory once cost round 1's training and then ended in a
    # FileNotFoundError on round_001.ckpt.tmp
    @pytest.mark.parametrize("subdir", [".", "missing/nested"])
    def test_checkpoints_written_per_round(self, federation, model, tmp_path, subdir):
        clients, directory = federation, tmp_path / subdir
        result = run_federated(model, clients, RoundSchedule(3, 1),
                               seed=4, checkpoint_dir=directory)
        files = sorted(p.name for p in directory.glob("*.ckpt"))
        assert files == ["round_001.ckpt", "round_002.ckpt", "round_003.ckpt"]
        final = load_checkpoint(directory / "round_003.ckpt")
        assert np.array_equal(final.values, result.final_weights.values)

    def test_client_validation(self, federation, model):
        clients = federation
        with pytest.raises(ConfigError):
            run_federated(model, [], RoundSchedule(1, 1))
        with pytest.raises(ValidationError):
            run_federated(model, [clients[0], clients[0]], RoundSchedule(1, 1))

    def test_unknown_strategy_rejected_before_round_one(self, federation, model,
                                                        monkeypatch):
        # aggregate names an unknown strategy too, but only after a round of
        # local training has been spent
        calls = []
        monkeypatch.setattr(orchestration, "train_clients",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigError,
                           match="unknown aggregation strategy 'fedavgg'"):
            run_federated(model, federation, RoundSchedule(3, 1), "fedavgg")
        assert calls == []

    @pytest.mark.parametrize("strategy", ["fedopt", "fedavg"])
    def test_fedopt_not_a_config_rejected_before_round_one(self, federation, model,
                                                           monkeypatch, strategy):
        # fedopt=None once trained round 1 and then ended in an AttributeError
        calls = []
        monkeypatch.setattr(orchestration, "train_clients",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigError, match="^fedopt must be a FedOptConfig, got None$"):
            run_federated(model, federation, RoundSchedule(3, 1), strategy, fedopt=None)
        assert calls == []

    @pytest.mark.parametrize("run", [run_local_baseline, run_global_baseline])
    @pytest.mark.parametrize("epochs, message", [
        (1.5, "^total_epochs must be an integer, got 1.5$"),
        (0, "^total_epochs must be >= 1, got 0$"),
    ])
    def test_total_epochs_fails_under_its_own_name(self, federation, model, run,
                                                   epochs, message):
        # 1.5 was once worded "epochs must be an integer", by the TrainerConfig
        # built first
        with pytest.raises(ConfigError, match=message):
            run(model, federation, epochs)

    @pytest.mark.parametrize("run", RUNS, ids=RUN_IDS)
    def test_splits_checked_against_the_model(self, federation, model, run):
        clients = federation
        with pytest.raises(ShapeError, match="input_dim 16"):
            run(TaskModel(input_dim=16), clients)
        first = clients[0]
        for label in (-1, model.num_classes):
            bad = dataclasses.replace(first, test=LabeledSet(
                first.test.features,
                np.where(np.arange(len(first.test)) == 3, label,
                         first.test.labels)))
            with pytest.raises(ValidationError, match="client 1 test labels"):
                run(model, [bad, *clients[1:]])

    @pytest.mark.parametrize("run", RUNS, ids=RUN_IDS)
    def test_each_split_meets_the_model_once_before_training(self, federation, model,
                                                             run, monkeypatch):
        checks, before_training = [], []
        check_data = TaskModel.check_data

        def counted(*args, **kwargs):
            checks.append(args)
            return check_data(*args, **kwargs)

        monkeypatch.setattr(TaskModel, "check_data", counted)
        for module in (orchestration, training):  # the global baseline trains via train
            def train_clients(*args, original=module.train_clients, **kwargs):
                before_training.append(len(checks))
                return original(*args, **kwargs)
            monkeypatch.setattr(module, "train_clients", train_clients)
        run(model, federation)
        assert before_training[0] == 3 * len(federation)

    @pytest.mark.parametrize("run", RUNS, ids=RUN_IDS)
    def test_the_lowest_id_fault_is_reported_first(self, federation, model, run):
        # given as [2, 1, 3], client 2's NaN feature was once reported before
        # client 1's label outside the model's classes
        first, second = federation[:2]
        out_of_range = np.full(len(first.test), model.num_classes)
        bad_labels = dataclasses.replace(
            first, test=LabeledSet(first.test.features, out_of_range))
        features = second.val.features.copy()
        features[0, 0] = np.nan
        bad_features = dataclasses.replace(
            second, val=LabeledSet(features, second.val.labels))
        with pytest.raises(ValidationError, match="^client 1 test labels"):
            run(model, [bad_features, bad_labels, *federation[2:]])


def pooled(clients, split):
    """The clients' ``split`` concatenated in id order."""
    ordered = sorted(clients, key=lambda c: c.client_id)
    return LabeledSet(np.concatenate([getattr(c, split).features for c in ordered]),
                      np.concatenate([getattr(c, split).labels for c in ordered]))


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
        clients = generate_federation(num_clients=5, split=(30, 13, 11),
                                      seed=seed)
        val, test = pooled(clients, "val"), pooled(clients, "test")
        model = TaskModel(architecture=architecture)
        vals, tests = [c.val for c in clients], [c.test for c in clients]
        result = run_federated(model, clients, RoundSchedule(3, 2),
                               seed=seed, checkpoint_dir=tmp_path)
        for rec in result.rounds:
            weights = load_checkpoint(tmp_path / f"round_{rec.round_number:03d}.ckpt")
            assert rec.val_accuracy == summed(rec.client_val_accuracies, vals)
            assert rec.val_accuracy == pooled_forward(model, weights, val)
        final = result.final_weights
        assert result.test_accuracy == summed(result.client_test_accuracies, tests)
        assert result.test_accuracy == pooled_forward(model, final, test)

        glob = run_global_baseline(model, clients, total_epochs=4, seed=seed)
        assert glob.test_accuracy == summed(glob.client_test_accuracies, tests)
        assert glob.test_accuracy == pooled_forward(model, glob.final_weights, test)
        local = run_local_baseline(model, clients, total_epochs=4, seed=seed)
        assert local.client_test_accuracies == tuple(
            pooled_forward(model, w, test) for w in local.final_weights)

    def test_unequal_split_sizes_match_per_client_calls(self, model, tmp_path,
                                                        evaluation_shapes):
        generated = generate_federation(num_clients=5, split=(20, 12, 12),
                                        seed=3)
        # runs of val sizes [6, 6], [9], [6, 6]; test sizes all differ
        clients = [dataclasses.replace(
            c, val=LabeledSet(c.val.features[:n], c.val.labels[:n]),
            test=LabeledSet(c.test.features[:m], c.test.labels[:m]))
            for c, n, m in zip(generated, [6, 6, 9, 6, 6], [12, 11, 10, 9, 8])]
        val, test = pooled(clients, "val"), pooled(clients, "test")
        result = run_federated(model, clients, RoundSchedule(2, 1),
                               checkpoint_dir=tmp_path)
        assert evaluation_shapes == 2 * [(2, 6, 32), (1, 9, 32), (2, 6, 32)] + [
            (1, m, 32) for m in [12, 11, 10, 9, 8]]
        for rec in result.rounds:
            weights = load_checkpoint(tmp_path / f"round_{rec.round_number:03d}.ckpt")
            assert rec.client_val_accuracies == tuple(
                model.evaluate_accuracy(weights, c.val.features, c.val.labels)
                for c in clients)
            assert rec.val_accuracy == pooled_forward(model, weights, val)
        assert result.client_test_accuracies == tuple(
            model.evaluate_accuracy(result.final_weights, c.test.features,
                                    c.test.labels) for c in clients)
        assert result.test_accuracy == pooled_forward(
            model, result.final_weights, test)

    def test_one_evaluation_call_per_round_on_equal_splits(
            self, federation, model, evaluation_shapes):
        clients = federation
        run_federated(model, clients, RoundSchedule(4, 1))
        assert evaluation_shapes == 5 * [(3, 15, 32)]  # 4 rounds, then test

    @pytest.mark.parametrize("run", RUNS, ids=RUN_IDS)
    def test_clients_in_any_order_give_the_id_ordered_union(
            self, federation, model, run):
        forward, reverse = run(model, federation), run(model, federation[::-1])
        assert reverse.client_ids == forward.client_ids == (1, 2, 3)
        assert reverse.client_test_accuracies == forward.client_test_accuracies
        final = [forward.final_weights, reverse.final_weights]
        if not isinstance(final[0], tuple):  # one model, not one per client
            final = [(w,) for w in final]
        for a, b in zip(*final):
            assert np.array_equal(a.values, b.values)


class TestBaselines:
    def test_local_trains_one_model_per_client(self, federation, model):
        clients = federation
        result = run_local_baseline(model, clients, total_epochs=6,
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
        clients = federation
        result = run_global_baseline(model, list(reversed(clients)),
                                     total_epochs=6, seed=2)
        # the pool is the train splits in id order, however they are given
        alone = train(model, model.init_weights(2), pooled(clients, "train"),
                      TrainerConfig(epochs=6, seed=2))
        assert result.final_weights.values.tobytes() == alone.block[0].tobytes()
        assert result.loss_trace == tuple(alone.loss_traces[:, 0].tolist())
        assert len(result.loss_trace) == 6
        assert len(result.client_test_accuracies) == 3
        assert result.client_ids == tuple(
            sorted(c.client_id for c in clients))
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_budget_validation(self, federation, model):
        clients = federation
        with pytest.raises(ConfigError):
            run_local_baseline(model, clients, total_epochs=0)
        with pytest.raises(ConfigError):
            run_global_baseline(model, clients, total_epochs=0)


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
        clients = generate_federation(
            num_clients=64, split=(20, 10, 10), input_dim=64, num_classes=10,
            seed=0)
        assert model.num_params == 19_210
        return model, clients

    @pytest.mark.parametrize("strategy, bound", [
        ("fedmedian", 1.25), ("fedavg", 1.25), ("fedopt", 2.25)])
    def test_peak_stays_near_one_block_per_round(self, cross_device, strategy,
                                                  bound):
        model, clients = cross_device
        block_bytes = len(clients) * model.num_params * 8
        tracemalloc.start()
        try:
            run_federated(model, clients, RoundSchedule(3, 1), strategy,
                          seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / block_bytes < bound
