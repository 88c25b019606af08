from __future__ import annotations

import pickle
from collections import namedtuple

import numpy as np
import pytest

from fedsim import training
from fedsim.data import LabeledSet
from fedsim.errors import ConfigError, DivergenceError, EmptyInputError
from fedsim.models import TaskModel
from fedsim.training import STACK_BYTES, TrainerConfig, train, train_clients


@pytest.fixture
def setup():
    model = TaskModel(input_dim=6, num_classes=3)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(25, 6)) + rng.integers(0, 3, size=25)[:, None]
    y = ((x.mean(axis=1) > 1.0).astype(int) + (x.mean(axis=1) > 2.0)).astype(int)
    return model, model.init_weights(17), LabeledSet(x, y)


def manual_sgd(model, initial, data, cfg, round_index=0):
    """Reference loop written straight from the documented contract."""
    w = initial.values.copy()
    anchor = initial.values
    trace = []
    n = len(data)
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(
            (cfg.seed, round_index, epoch)).permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grad = model.loss_and_gradient_flat(
                w, data.features[idx], data.labels[idx])
            total += loss * idx.size
            if cfg.prox_mu > 0:
                grad = grad + cfg.prox_mu * (w - anchor)
            w = w - cfg.learning_rate * grad
        trace.append(total / n)
    return w, trace


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainerConfig(epochs=-1)
        with pytest.raises(ConfigError):
            TrainerConfig(epochs=1, batch_size=0)
        with pytest.raises(ConfigError):
            TrainerConfig(epochs=1, learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainerConfig(epochs=1, prox_mu=-0.1)


class TestTrain:
    def test_zero_epochs_returns_initial_bitwise(self, setup):
        model, w0, data = setup
        update = train(model, w0, data, TrainerConfig(epochs=0))
        assert np.array_equal(update.block[0], w0.values)
        assert update.loss_traces.shape == (0, 1)
        assert update.sample_counts.tolist() == [len(data)]

    def test_matches_reference_loop_exactly(self, setup):
        model, w0, data = setup
        cfg = TrainerConfig(epochs=3, batch_size=7, learning_rate=0.1, seed=5)
        update = train(model, w0, data, cfg, round_index=2)
        expected_w, expected_trace = manual_sgd(model, w0, data, cfg,
                                                round_index=2)
        assert np.array_equal(update.block[0], expected_w)
        assert update.loss_traces[:, 0].tolist() == expected_trace

    def test_short_final_batch_is_kept(self, setup):
        # 25 samples at batch size 10 -> batches of 10, 10, 5; the reference
        # loop keeps the tail, so exact agreement proves train does too.
        model, w0, data = setup
        cfg = TrainerConfig(epochs=2, batch_size=10, learning_rate=0.05, seed=3)
        update = train(model, w0, data, cfg)
        expected_w, _ = manual_sgd(model, w0, data, cfg)
        assert np.array_equal(update.block[0], expected_w)

    def test_full_batch_is_plain_gradient_descent(self, setup):
        # even a full batch is visited in that epoch's shuffle order, so the
        # reference applies the same permutation before the gradient step
        model, w0, data = setup
        cfg = TrainerConfig(epochs=2, batch_size=len(data), learning_rate=0.1)
        update = train(model, w0, data, cfg)
        w = w0.values.copy()
        for epoch in range(2):
            order = np.random.default_rng((0, 0, epoch)).permutation(len(data))
            _, g = model.loss_and_gradient_flat(
                w, data.features[order], data.labels[order])
            w = w - 0.1 * g
        assert np.array_equal(update.block[0], w)

    def test_trace_length_and_descent(self, setup):
        model, w0, data = setup
        update = train(model, w0, data,
                       TrainerConfig(epochs=20, batch_size=8,
                                     learning_rate=0.1, seed=1))
        assert update.loss_traces.shape == (20, 1)
        assert update.loss_traces[-1, 0] < update.loss_traces[0, 0]

    def test_deterministic_per_seed_and_round(self, setup):
        model, w0, data = setup
        cfg = TrainerConfig(epochs=2, batch_size=4, learning_rate=0.1, seed=9)
        a = train(model, w0, data, cfg, round_index=0)
        b = train(model, w0, data, cfg, round_index=0)
        c = train(model, w0, data, cfg, round_index=1)
        d = train(model, w0, data, TrainerConfig(epochs=2, batch_size=4,
                                                 learning_rate=0.1, seed=10))
        assert np.array_equal(a.block, b.block)
        assert not np.array_equal(a.block, c.block)
        assert not np.array_equal(a.block, d.block)


class TestProximalTerm:
    def test_mu_zero_identical_to_plain_sgd(self, setup):
        model, w0, data = setup
        base = TrainerConfig(epochs=4, batch_size=6, learning_rate=0.1, seed=2)
        with_mu = TrainerConfig(epochs=4, batch_size=6, learning_rate=0.1,
                                seed=2, prox_mu=0.0)
        a = train(model, w0, data, base)
        b = train(model, w0, data, with_mu)
        assert np.array_equal(a.block, b.block)

    def test_large_mu_pins_weights_to_anchor(self, setup):
        model, w0, data = setup

        def distance(mu):
            # keep lr * mu below the stability bound of 2 so the proximal
            # pull contracts instead of oscillating
            cfg = TrainerConfig(epochs=4, batch_size=6, learning_rate=0.01,
                                seed=2, prox_mu=mu)
            update = train(model, w0, data, cfg)
            return float(np.linalg.norm(update.block[0] - w0.values))

        d_free, d_mild, d_hard = distance(0.0), distance(1.0), distance(50.0)
        assert d_hard < d_mild < d_free

    def test_trace_records_plain_data_loss(self, setup):
        # One batch per epoch: the epoch-2 entry must equal the plain
        # cross-entropy at the weights reached after step 1, with no
        # proximal contribution mixed in.
        model, w0, data = setup
        cfg = TrainerConfig(epochs=2, batch_size=len(data), learning_rate=0.1,
                            prox_mu=5.0)
        update = train(model, w0, data, cfg)

        def shuffled(epoch):
            order = np.random.default_rng((0, 0, epoch)).permutation(len(data))
            return data.features[order], data.labels[order]

        loss0, g0 = model.loss_and_gradient_flat(w0.values, *shuffled(0))
        w1 = w0.values - 0.1 * g0  # prox gradient is zero at the anchor
        loss1, _ = model.loss_and_gradient_flat(w1, *shuffled(1))
        assert update.loss_traces[0, 0] == loss0
        assert update.loss_traces[1, 0] == loss1


class TestFailureModes:
    def test_empty_split_rejected(self, setup):
        model, w0, _ = setup
        empty = LabeledSet(np.zeros((0, 6)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyInputError):
            train(model, w0, empty, TrainerConfig(epochs=1))

    def test_huge_learning_rate_diverges_with_context(self, setup):
        # cross-entropy gradients are bounded by the feature scale, so the
        # step itself must overflow: lr near the float64 ceiling does it
        model, w0, data = setup
        cfg = TrainerConfig(epochs=50, batch_size=len(data),
                            learning_rate=1e308, seed=0)
        with pytest.raises(DivergenceError) as info:
            train(model, w0, data, cfg, round_index=4, client_id=7)
        assert info.value.epoch >= 0
        assert info.value.round_index == 4
        assert info.value.client_id == 7

    @pytest.mark.parametrize("scales, named", [((100.0,), 1), ((1e-3, 100.0), 2)],
                             ids=["lone", "stacked"])
    def test_a_step_that_overflows_diverges_on_the_weights(self, scales, named):
        # the first loss is finite, but lr = 1e308 on features near 100 makes
        # the step, and so the weights, infinite; features near 1e-3 keep
        # client 1 of the stack finite
        model = TaskModel(input_dim=4, num_classes=3)
        sets = make_sets(model, (4,) * len(scales), seed=0, scales=scales)
        cfg = TrainerConfig(epochs=2, batch_size=4, learning_rate=1e308)
        with pytest.raises(DivergenceError,
                           match="^weights became non-finite at epoch 0$") as info:
            train_clients(model, model.init_weights(0), sets, cfg, round_index=3)
        assert (info.value.client_id, info.value.epoch,
                info.value.round_index) == (named, 0, 3)

    def test_divergence_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(
            DivergenceError("m", epoch=2, round_index=1, client_id=3)))
        assert type(error) is DivergenceError
        assert (str(error), error.epoch, error.round_index,
                error.client_id) == ("m", 2, 1, 3)


def make_sets(model, sizes, seed, scales=None):
    """One random labeled split per client id 1..len(sizes)."""
    rng = np.random.default_rng(seed)
    sets = {}
    for cid, n in enumerate(sizes, start=1):
        scale = 1.0 if scales is None else scales[cid - 1]
        x = rng.normal(size=(n, model.input_dim)) * scale
        sets[cid] = LabeledSet(x, rng.integers(0, model.num_classes, size=n))
    return sets


Stack = namedtuple("Stack", "ids copied orders")


def consecutive(rows):
    """The client ids 1, 2, ... cut into stacks of ``rows`` clients each."""
    ends = np.cumsum(rows).tolist()
    return [list(range(end - r + 1, end + 1)) for r, end in zip(rows, ends)]


@pytest.fixture
def stacks(monkeypatch):
    """Records each stack ``train_clients`` steps as a :class:`Stack`: its
    client ids, whether it trained on a copy (a view of the block or a lone
    row does not own its data) and the epoch orders it read."""
    log = []
    sgd = training._sgd

    def recording(model, w, anchor, ids, clients, orders, *args):
        log.append(Stack(list(ids), w.flags.owndata, orders))
        return sgd(model, w, anchor, ids, clients, orders, *args)

    monkeypatch.setattr(training, "_sgd", recording)
    return log


class TestStackSizes:
    # Pinned so that a change to STACK_BYTES is a deliberate one.
    @pytest.mark.parametrize("input_dim, architecture, hidden, classes, "
                             "params, clients, rows", [
        (64, "one_hidden_layer", 256, 10, 19_210, 64, 8),  # cross-device
        (32, "linear", 16, 4, 132, 8, 8),  # the default config's model
        (512, "one_hidden_layer", 64, 4, 33_092, 8, 4),  # criterion 6's
    ])
    def test_rows_per_stack(self, stacks, input_dim, architecture, hidden,
                            classes, params, clients, rows):
        model = TaskModel(input_dim=input_dim, num_classes=classes,
                          architecture=architecture, hidden_units=hidden)
        assert model.num_params == params
        train_clients(model, model.init_weights(0),
                      make_sets(model, (4,) * clients, seed=0),
                      TrainerConfig(epochs=1, batch_size=4))
        assert [(s.ids, s.copied) for s in stacks] == [
            (ids, False) for ids in consecutive([rows] * (clients // rows))]


# 40,003 parameters, 320 KB a row: a stack holds at most 4 clients
WIDE = 4000


class TestLockstep:
    # the clients per stack of each case's id-order runs of one size
    ROWS = {
        (25, 18, 25, 18, 25): [1] * 5,
        (12, 12, 12, 12, 12): [4, 1],
        (15,) * 10 + (9, 9): [4, 4, 2, 2],
        (15, 9) * 6: [1] * 12,
        (15,) * 5 + (9,) * 2 + (15,) * 2: [4, 1, 2, 2],
    }

    @pytest.mark.parametrize("architecture, hidden, sizes, batch_size, mu", [
        # interleaved split sizes: every client trains alone; 7 divides
        # neither 25 nor 18
        ("linear", 16, (25, 18, 25, 18, 25), 7, 0.0),
        ("one_hidden_layer", 16, (25, 18, 25, 18, 25), 7, 0.0),
        ("linear", 16, (25, 18, 25, 18, 25), 10, 0.5),
        ("one_hidden_layer", 16, (25, 18, 25, 18, 25), 10, 0.5),
        # five clients of one size exceed the stack cap: 4 rows and a lone one
        ("one_hidden_layer", WIDE, (12, 12, 12, 12, 12), 5, 0.1),
        # one run cut into three stacks sharing each epoch's shuffle, then a
        # second run
        ("one_hidden_layer", WIDE, (15,) * 10 + (9, 9), 4, 0.0),
        # interleaved sizes over the cap: twelve lone clients
        ("one_hidden_layer", WIDE, (15, 9) * 6, 4, 0.2),
        # a size that comes back after another is a new run
        ("one_hidden_layer", WIDE, (15,) * 5 + (9,) * 2 + (15,) * 2, 4, 0.0),
    ])
    def test_matches_per_client_reference_bitwise(self, stacks, architecture,
                                                  hidden, sizes, batch_size, mu):
        model = TaskModel(input_dim=6, num_classes=3,
                          architecture=architecture, hidden_units=hidden)
        w0 = model.init_weights(4)
        sets = make_sets(model, sizes, seed=8)
        cfg = TrainerConfig(epochs=3, batch_size=batch_size,
                            learning_rate=0.1, seed=6, prox_mu=mu)
        updates = train_clients(model, w0, sets, cfg, round_index=2)
        assert list(updates.client_ids) == sorted(sets)
        assert updates.block.flags.c_contiguous
        for k, cid in enumerate(updates.client_ids):
            data = sets[cid]
            expected_w, expected_trace = manual_sgd(model, w0, data, cfg,
                                                    round_index=2)
            assert np.array_equal(updates.block[k], expected_w)
            assert updates.loss_traces[:, k].tolist() == expected_trace
            assert updates.sample_counts[k] == len(data)
        if hidden == WIDE:
            assert sizes.count(sizes[0]) * model.num_params * 8 > STACK_BYTES
        # id-order runs of one size, each stack on a view of the block
        assert [(s.ids, s.copied) for s in stacks] == [
            (ids, False) for ids in consecutive(self.ROWS[sizes])]
        # the stacks of one run share one drawn list of orders; a run's lone
        # stack reads them lazily
        same_run = [sizes[a.ids[0] - 1] == sizes[b.ids[0] - 1]
                    for a, b in zip(stacks, stacks[1:])]
        assert [a.orders is b.orders for a, b in zip(stacks, stacks[1:])] == same_run
        shared = [a or b for a, b in zip([False] + same_run, same_run + [False])]
        assert [isinstance(s.orders, list) for s in stacks] == shared

    @pytest.mark.parametrize("input_dim, scales, late, early, stack_rows", [
        # client 1 (features of scale 5e3) overflows at epoch 5 and client 2
        # (scale 1e5) at epoch 0; client 3 stays finite. All three share a
        # stack.
        (6, (5e3, 1e5, 1.0), 1, 2, [3]),
        # 36,003 parameters, so the six clients train as a stack of clients
        # 1-4 and one of clients 5 and 6, each on a view of the block.
        # Client 5 (scale 250) overflows at epoch 1 and client 6 (scale 1e4)
        # at epoch 0, while clients 1-4 stay finite.
        (12_000, (1.0, 1.0, 1.0, 1.0, 250.0, 1e4), 5, 6, [4, 2]),
    ], ids=["one-stack", "second-stack"])
    def test_divergence_names_the_client_a_sequential_run_would(
            self, stacks, input_dim, scales, late, early, stack_rows):
        # lr = 1e300 with five steps per epoch; the stack holding ``early``
        # stops on it first
        model = TaskModel(input_dim=input_dim, num_classes=3)
        w0 = model.init_weights(0)
        sets = make_sets(model, (10,) * len(scales), seed=1, scales=scales)
        cfg = TrainerConfig(epochs=8, batch_size=2, learning_rate=1e300)

        def divergence(run):
            with pytest.raises(DivergenceError) as info:
                run()
            err = info.value
            return err.client_id, err.epoch, err.round_index, str(err)

        alone = {cid: divergence(lambda cid=cid: train(
                     model, w0, sets[cid], cfg, round_index=4, client_id=cid))
                 for cid in (late, early)}
        assert alone[early][1] < alone[late][1]

        def sequential():
            for cid in sorted(sets):
                train(model, w0, sets[cid], cfg, round_index=4, client_id=cid)

        expected = divergence(sequential)
        assert expected == alone[late]
        stacks.clear()
        assert divergence(
            lambda: train_clients(model, w0, sets, cfg, round_index=4)) == expected
        assert [(s.ids, s.copied) for s in stacks[:len(stack_rows)]] == [
            (ids, False) for ids in consecutive(stack_rows)]
        # only the stack that raised is replayed, alone on a copy and in id
        # order, up to the first of its clients to diverge
        assert [(s.ids, s.copied) for s in stacks[len(stack_rows):]] == [
            ([late], True)]

    def test_empty_split_rejected(self, setup):
        model, w0, data = setup
        empty = LabeledSet(np.zeros((0, 6)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyInputError):
            train_clients(model, w0, {1: data, 2: empty}, TrainerConfig(epochs=1))
