from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.aggregation
from fedsim.aggregation import (AggregatorState, FedOptConfig, aggregate)
from fedsim.errors import (ConfigError, EmptyInputError, NumericError,
                           ShapeError, ValidationError)
from fedsim.params import ParamVector
from fedsim.training import RoundUpdates


def update(client_id, values, count=10):
    """One client's (id, weights, sample count)."""
    return client_id, np.asarray(values, dtype=np.float64).reshape(-1), count


def round_of(clients):
    """One round's RoundUpdates from a list of :func:`update` triples."""
    ids, rows, counts = zip(*clients)
    block = np.stack(rows)
    return RoundUpdates(ids, block, np.array(counts), np.zeros((0, len(ids))),
                        (("w", (block.shape[1],)),))


def frozen(values):
    """``values`` as a read-only float64 array with no base, which a checked
    value keeps without a copy."""
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


def global_vec(values):
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    return ParamVector(arr, (("w", (arr.size,)),))


class TestPreconditions:
    """A malformed round cannot be built, so aggregate never sees one."""

    def test_unsorted_updates_rejected(self):
        with pytest.raises(ValidationError):
            round_of([update(2, [1.0]), update(1, [2.0])])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            round_of([update(1, [1.0]), update(1, [2.0])])

    def test_empty_updates_rejected(self):
        with pytest.raises(EmptyInputError):
            RoundUpdates((), np.zeros((0, 1)), np.zeros(0, dtype=int),
                         np.zeros((0, 0)), (("w", (1,)),))

    def test_zero_sample_count_rejected(self):
        with pytest.raises(ValidationError):
            round_of([update(1, [1.0], count=0)])

    @pytest.mark.parametrize("ids", [None, [1], (1.0,), ("a",)])
    def test_client_ids_that_are_not_a_tuple_of_ints_rejected(self, ids):
        # None was once a bare TypeError, and ("a",) was kept
        with pytest.raises(ConfigError,
                           match=r"^client_ids must be a tuple of integers, got "):
            RoundUpdates(ids, np.zeros((1, 1)), np.array([4]), np.zeros((1, 1)),
                         (("w", (1,)),))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            aggregate("fedsgd", global_vec([0.0]), round_of([update(1, [1.0])]))

    @pytest.mark.parametrize("strategy", sorted(fedsim.aggregation.STRATEGIES))
    @pytest.mark.parametrize("fedopt", [None, {"beta1": 0.9}], ids=["none", "dict"])
    def test_fedopt_that_is_not_a_fedopt_config_rejected(self, strategy, fedopt):
        # fedopt=None once ended in "'NoneType' object has no attribute 'beta1'"
        with pytest.raises(ConfigError, match="^fedopt must be a FedOptConfig, got "):
            aggregate(strategy, global_vec([0.0]), round_of([update(1, [1.0])]),
                      fedopt=fedopt)

    @pytest.mark.parametrize("strategy", sorted(fedsim.aggregation.STRATEGIES))
    @pytest.mark.parametrize("global_values", [[0.0, 0.0, 0.0], [0.0]])
    def test_manifest_mismatch_rejected(self, strategy, global_values):
        # fedopt once broke in a numpy broadcast and fedavg silently
        # returned the 2-value block mean
        with pytest.raises(ShapeError, match="manifest"):
            aggregate(strategy, global_vec(global_values),
                      round_of([update(1, [1.0, 2.0]), update(2, [3.0, 4.0])]))

    @pytest.mark.parametrize("block, counts, traces", [
        (np.zeros((2, 3)), [5, 5], np.zeros((1, 2))),  # 3 values, manifest 2
        (np.zeros((3, 2)), [5, 5], np.zeros((1, 2))),  # 3 rows for 2 ids
        (np.zeros((2, 2)), [5], np.zeros((1, 2))),
        (np.zeros((2, 2)), [5, 5], np.zeros((1, 3))),
        (np.zeros((2, 2)), [5, 5], np.zeros(2)),
    ])
    def test_bad_shapes_rejected(self, block, counts, traces):
        with pytest.raises(ShapeError):
            RoundUpdates((1, 2), block, np.array(counts), traces,
                         (("w", (2,)),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(NumericError):
            round_of([update(1, [1.0, 2.0]), update(2, [bad, 0.0])])

    def test_finite_block_whose_sum_overflows_accepted(self):
        # a non-finite sum falls back to min and max
        built = round_of([update(1, [1e308, 1e308]), update(2, [1e308, -1.0])])
        with np.errstate(over="ignore"):
            assert not math.isfinite(built.block.sum())

    def test_block_is_owned(self):
        # a writable block is copied and the caller's stays writable; a
        # read-only one with no base is kept
        block = np.arange(6.0).reshape(2, 3)
        built = RoundUpdates((1, 2), block, np.array([4, 4]), np.zeros((1, 2)),
                             (("w", (3,)),))
        assert built.block is not block and np.array_equal(built.block, block)
        assert block.flags.writeable and not built.block.flags.writeable
        block = frozen(np.arange(6.0)).reshape(2, 3)
        assert RoundUpdates((1, 2), block, np.array([4, 4]), np.zeros((1, 2)),
                            (("w", (3,)),)).block is block


class TestAveragingStrategies:
    def test_fedavg_weights_by_sample_count(self):
        # counts 300:100 normalize to exactly 0.75:0.25,
        # so the average of [1,2] and [4,8] is [1.75, 3.5]
        g = global_vec([0.0, 0.0])
        out, state = aggregate("fedavg", g, round_of([
            update(1, [1.0, 2.0], count=300),
            update(2, [4.0, 8.0], count=100),
        ]))
        assert out.values.tolist() == [1.75, 3.5]
        assert state.momentum is None

    def test_fedavg_single_client_passthrough(self):
        w = [0.1, -2.7, 3.3]
        out, _ = aggregate("fedavg", global_vec([0.0, 0.0, 0.0]),
                           round_of([update(5, w, count=42)]))
        assert out.values.tolist() == w

    def test_fedprox_server_side_equals_fedavg(self):
        g = global_vec([0.0, 0.0])
        updates = round_of([update(1, [1.0, 2.0], count=30),
                            update(2, [5.0, 6.0], count=70)])
        a, _ = aggregate("fedavg", g, updates)
        b, _ = aggregate("fedprox", g, updates)
        assert np.array_equal(a.values, b.values)

    def test_fedmedian_ignores_sample_counts(self):
        g = global_vec([0.0])
        out, _ = aggregate("fedmedian", g, round_of([
            update(1, [0.0], count=10000),
            update(2, [1.0], count=1),
            update(3, [2.0], count=1),
        ]))
        assert out.values.tolist() == [1.0]

    def test_fedmedian_even_count_averages_middle(self):
        g = global_vec([0.0])
        out, _ = aggregate("fedmedian", g, round_of([
            update(1, [0.0]), update(2, [1.0]),
            update(3, [5.0]), update(4, [100.0]),
        ]))
        assert out.values.tolist() == [3.0]


class TestFedOpt:
    def test_adam_one_round_hand_trace(self):
        # global 0, one client at [1, -2] -> delta = [1, -2]
        # m = 0.1 * delta, v = 0.01 * delta^2
        # step = lr * m / (sqrt(v) + tau)
        g = global_vec([0.0, 0.0])
        cfg = FedOptConfig(variant="adam")
        out, state = aggregate("fedopt", g, round_of([update(1, [1.0, -2.0])]),
                               fedopt=cfg)
        m = [0.1 * 1.0, 0.1 * -2.0]
        v = [0.01 * 1.0, 0.01 * 4.0]
        expected = [0.1 * m[i] / (math.sqrt(v[i]) + 1e-3) for i in range(2)]
        assert np.allclose(out.values, expected, rtol=1e-12, atol=0)
        assert np.allclose(state.momentum, m, rtol=1e-12, atol=0)
        assert np.allclose(state.second_moment, v, rtol=1e-12, atol=0)

    def test_adam_second_round_uses_carried_state(self):
        g0 = global_vec([0.0])
        cfg = FedOptConfig(variant="adam")
        g1, state = aggregate("fedopt", g0, round_of([update(1, [1.0])]),
                              fedopt=cfg)
        g2, state2 = aggregate("fedopt", g1, round_of([update(1, [1.0])]),
                               state, fedopt=cfg)
        delta2 = 1.0 - g1.values[0]
        m2 = 0.9 * state.momentum[0] + 0.1 * delta2
        v2 = 0.99 * state.second_moment[0] + 0.01 * delta2 ** 2
        expected = g1.values[0] + 0.1 * m2 / (math.sqrt(v2) + 1e-3)
        assert g2.values[0] == pytest.approx(expected, rel=1e-12)
        assert state2.momentum[0] == pytest.approx(m2, rel=1e-12)

    def test_adagrad_accumulates_squares(self):
        g0 = global_vec([2.0])
        cfg = FedOptConfig(variant="adagrad")
        # client sits still at 3.0, so delta repeats until the server
        # catches up; v must be the running sum of delta^2
        g1, s1 = aggregate("fedopt", g0, round_of([update(1, [3.0])]), fedopt=cfg)
        d1 = 1.0
        assert s1.second_moment[0] == pytest.approx(d1 ** 2, rel=1e-12)
        g2, s2 = aggregate("fedopt", g1, round_of([update(1, [3.0])]), s1,
                           fedopt=cfg)
        d2 = 3.0 - g1.values[0]
        assert s2.second_moment[0] == pytest.approx(
            d1 ** 2 + d2 ** 2, rel=1e-12)

    def test_yogi_first_step_matches_adam(self):
        # from zero state sign(0 - delta^2) = -1, so yogi adds
        # (1-beta2) * delta^2 exactly like adam's first update
        g = global_vec([0.0, 0.0])
        upd = round_of([update(1, [0.5, -1.5])])
        adam_out, adam_state = aggregate(
            "fedopt", g, upd, fedopt=FedOptConfig(variant="adam"))
        yogi_out, yogi_state = aggregate(
            "fedopt", g, upd, fedopt=FedOptConfig(variant="yogi"))
        assert np.array_equal(adam_out.values, yogi_out.values)
        assert np.array_equal(adam_state.second_moment,
                              yogi_state.second_moment)

    def test_yogi_second_step_hand_trace(self):
        g0 = global_vec([0.0])
        cfg = FedOptConfig(variant="yogi")
        g1, s1 = aggregate("fedopt", g0, round_of([update(1, [2.0])]), fedopt=cfg)
        v1 = 0.01 * 4.0
        g2, s2 = aggregate("fedopt", g1, round_of([update(1, [2.0])]), s1,
                           fedopt=cfg)
        d2 = 2.0 - g1.values[0]
        v2 = v1 - 0.01 * d2 ** 2 * np.sign(v1 - d2 ** 2)
        assert s2.second_moment[0] == pytest.approx(v2, rel=1e-12)
        m2 = 0.9 * s1.momentum[0] + 0.1 * d2
        expected = g1.values[0] + 0.1 * m2 / (math.sqrt(v2) + 1e-3)
        assert g2.values[0] == pytest.approx(expected, rel=1e-12)

    def test_second_moment_never_negative(self):
        # randomized rounds; the invariant must hold for every variant
        rng = np.random.default_rng(23)
        for variant in ("adam", "adagrad", "yogi"):
            cfg = FedOptConfig(variant=variant)
            g = global_vec(rng.normal(size=6))
            state = AggregatorState()
            for _ in range(25):
                updates = round_of([update(i + 1, rng.normal(scale=3.0, size=6))
                                    for i in range(3)])
                g, state = aggregate("fedopt", g, updates, state, fedopt=cfg)
                assert np.all(state.second_moment >= 0.0)

    def test_stationary_clients_leave_global_unchanged(self):
        g = global_vec([1.0, -2.0, 3.0])
        out, _ = aggregate("fedopt", g,
                           round_of([update(1, g.values), update(2, g.values)]),
                           fedopt=FedOptConfig(variant="adam"))
        assert np.array_equal(out.values, g.values)

    def test_sample_count_weighting_applies_to_delta(self):
        # counts 300:100 -> delta = 0.75*1 + 0.25*5 = 2.0 exactly
        g = global_vec([0.0])
        out, state = aggregate("fedopt", g, round_of([
            update(1, [1.0], count=300),
            update(2, [5.0], count=100),
        ]), fedopt=FedOptConfig(variant="adam"))
        assert state.momentum[0] == pytest.approx(0.1 * 2.0, rel=1e-12)

    def test_state_is_not_mutated(self):
        g = global_vec([0.0])
        cfg = FedOptConfig(variant="adam")
        _, s1 = aggregate("fedopt", g, round_of([update(1, [1.0])]), fedopt=cfg)
        before = s1.momentum.copy()
        aggregate("fedopt", g, round_of([update(1, [5.0])]), s1, fedopt=cfg)
        assert np.array_equal(s1.momentum, before)

    @pytest.mark.parametrize("variant", ["adam", "adagrad", "yogi"])
    def test_overflowing_displacement_is_numeric_error(self, variant):
        # delta^2 overflows, so v = inf and the step m / inf = 0 would leave
        # the global where it was
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="moments"):
                aggregate("fedopt", global_vec(np.zeros(4)),
                          round_of([update(1, np.full(4, 1e200))]),
                          fedopt=FedOptConfig(variant=variant))

    def test_state_slots_are_read_only_arrays(self):
        _, state = aggregate("fedopt", global_vec([0.0, 1.0]),
                             round_of([update(1, [1.0, 2.0])]))
        for slot in (state.momentum, state.second_moment):
            assert slot.dtype == np.float64 and slot.shape == (2,)
            assert not slot.flags.writeable

    def test_state_keeps_its_slots_without_copying(self):
        momentum, second = np.zeros(3), np.ones(3)
        momentum.flags.writeable = second.flags.writeable = False
        state = AggregatorState(momentum, second)
        assert state.momentum is momentum and state.second_moment is second
        assert AggregatorState(second_moment=second).momentum is None

    @pytest.mark.parametrize("value", [-5.0, -5e-324, -0.0])
    def test_second_moment_with_its_sign_bit_set_is_refused(self, value):
        # a hand-built second moment of -5 once reached adam's and adagrad's
        # sqrt, warned, and ended in "parameter vector contains NaN or Inf"
        with pytest.raises(NumericError, match="^fedopt second_moment holds a "
                                               "negative value or -0.0$"):
            AggregatorState(frozen([-5.0, -0.0]), frozen([1.0, value]))

    def test_momentum_may_be_negative(self):
        momentum = frozen([-5.0, -0.0])
        assert AggregatorState(momentum, frozen([0.0, 1.0])).momentum is momentum

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), beta2=st.sampled_from([0.0, 0.5, 0.99, 0.999999]))
    def test_yogi_never_sets_the_second_moment_sign_bit(self, data, beta2):
        # v - (1 - b2) * d^2 * sign(v - d^2) subtracts less than v where
        # v > d^2 and adds elsewhere, so no clamp is needed; squares that
        # underflow and signed zeros included
        edges = st.sampled_from([0.0, -0.0, 5e-324, 1e-160, 1.0])
        second = data.draw(st.lists(st.floats(0.0, 1e150) | edges.map(abs),
                                    min_size=4, max_size=4))
        delta = data.draw(st.lists(st.floats(-1e150, 1e150) | edges,
                                   min_size=4, max_size=4))
        _, state = aggregate("fedopt", global_vec(np.zeros(4)),
                             round_of([update(1, delta)]),
                             AggregatorState(second_moment=frozen(second)),
                             fedopt=FedOptConfig(variant="yogi", beta2=beta2))
        assert not np.signbit(state.second_moment).any()

    @pytest.mark.parametrize("slots", ["momentum", "second_moment", "both"])
    def test_state_of_another_length_is_a_shape_error(self, slots):
        g = global_vec(np.arange(15.0))
        updates = round_of([update(1, np.ones(15))])
        three = np.zeros(3)
        three.flags.writeable = False
        state = AggregatorState(
            momentum=None if slots == "second_moment" else three,
            second_moment=None if slots == "momentum" else three)
        with pytest.raises(ShapeError, match=r"\(3,\).*\(15,\)"):
            aggregate("fedopt", g, updates, state)

    @pytest.mark.parametrize("strategy", ["fedavg", "fedmedian", "fedopt"])
    def test_round_builds_one_param_vector(self, strategy, monkeypatch):
        post_init = ParamVector.__post_init__
        built = []

        def counted(vector):
            built.append(vector)
            post_init(vector)

        g = global_vec([0.0, 1.0, 2.0])
        updates = round_of([update(1, [1.0, 2.0, 3.0]), update(2, [0.0, 0.5, 9.0])])
        _, state = aggregate(strategy, g, updates)
        monkeypatch.setattr(ParamVector, "__post_init__", counted)
        aggregate(strategy, g, updates, state)
        assert len(built) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FedOptConfig(variant="rmsprop")
        with pytest.raises(ConfigError):
            FedOptConfig(server_learning_rate=0.0)
        with pytest.raises(ConfigError):
            FedOptConfig(beta1=1.0)
        with pytest.raises(ConfigError):
            FedOptConfig(tau=0.0)


def reference_sqrt_div_offset(a, b, tau):
    """``params.sqrt_div_offset`` as it was, frozen for the oracle below."""
    if a.manifest != b.manifest:
        raise ShapeError("vectors have different shape manifests")
    if not tau > 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    if np.any(b.values < 0):
        raise NumericError("sqrt of negative value")
    return ParamVector(a.values / (np.sqrt(b.values) + tau), a.manifest)


def reference_delta(global_weights, block, counts):
    """The mean displacement as ``weighted_sum`` computed it, frozen."""
    w = np.asarray(counts, dtype=np.float64)
    return (w / w.sum()) @ (block - global_weights.values)


def reference_fedopt(global_weights, delta, slots, fedopt):
    """The fedopt step as it was when every intermediate was a checked
    ``ParamVector``, frozen as the bitwise oracle. ``slots`` is ``None`` or
    the (momentum, second moment) vectors it returned last round."""
    manifest = global_weights.manifest
    delta = ParamVector(delta, manifest)
    zeros = ParamVector(np.zeros(len(global_weights)), manifest)
    momentum, second = slots or (zeros, zeros)

    b1, b2 = fedopt.beta1, fedopt.beta2
    new_momentum = momentum.values * b1 + delta.values * (1.0 - b1)
    delta_sq = delta.values * delta.values
    if fedopt.variant == "adam":
        new_second = second.values * b2 + delta_sq * (1.0 - b2)
    elif fedopt.variant == "adagrad":
        new_second = second.values + delta_sq
    else:  # yogi
        new_second = second.values - (1.0 - b2) * delta_sq * np.sign(second.values - delta_sq)
        low = new_second.min()
        if low < -1e-12:
            raise NumericError(
                f"yogi second moment fell to {low}, below tolerance")
        new_second = np.maximum(new_second, 0.0)

    momentum_vec = ParamVector(new_momentum, manifest)
    second_vec = ParamVector(new_second, manifest)
    step = reference_sqrt_div_offset(momentum_vec, second_vec, fedopt.tau)
    new_global = ParamVector(
        global_weights.values + fedopt.server_learning_rate * step.values,
        manifest)
    return new_global, (momentum_vec, second_vec)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


class TestFedOptMatchesReference:
    @pytest.mark.parametrize("variant", ["adam", "adagrad", "yogi"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_over_rounds(self, seed, variant):
        rng = np.random.default_rng(seed)
        p = 37
        cfg = FedOptConfig(variant=variant,
                           server_learning_rate=rng.uniform(0.05, 1.0),
                           beta1=rng.uniform(0.0, 0.95),
                           beta2=rng.uniform(0.0, 0.999))
        g = global_vec(rng.choice([-0.0, 0.0, 1.5], size=p))
        state, slots = AggregatorState(), None
        for _ in range(4):
            k = int(rng.integers(1, 5))
            block = g.values + rng.normal(scale=0.5, size=(k, p))
            # stationary clients give +0.0 and -0.0 displacements
            block[:, ::3] = g.values[::3]
            block[:, 1::4] = rng.choice([-0.0, 0.0], size=block[:, 1::4].shape)
            updates = RoundUpdates(tuple(range(1, k + 1)), block,
                                   rng.integers(1, 50, size=k),
                                   np.zeros((0, k)), (("w", (p,)),))
            expected, slots = reference_fedopt(
                g, reference_delta(g, block, updates.sample_counts), slots, cfg)
            g, state = aggregate("fedopt", g, updates, state, fedopt=cfg)
            assert same_bits(g.values, expected.values)
            assert same_bits(state.momentum, slots[0].values)
            assert same_bits(state.second_moment, slots[1].values)

    @pytest.mark.parametrize("variant", ["adam", "adagrad", "yogi"])
    def test_signed_zero_displacements_bitwise(self, variant, monkeypatch):
        # Whether the matmul in weighted_sum returns -0.0 for a column of
        # zeros depends on the BLAS, so the displacement is swapped in at
        # that patch point: round one's zero slots turn -0.0 into +0.0.
        rng = np.random.default_rng(5)
        p = 40
        cfg = FedOptConfig(variant=variant)
        g = global_vec(rng.choice([-0.0, 0.0, 1.0], size=p))
        updates = round_of([update(1, np.zeros(p))])
        state, slots = AggregatorState(), None
        for _ in range(4):
            delta = rng.choice([-0.0, 0.0, 0.25, -3.0], size=p)
            expected, slots = reference_fedopt(g, delta, slots, cfg)
            monkeypatch.setattr(fedsim.aggregation, "weighted_sum",
                                lambda block, weights: delta)
            g, state = aggregate("fedopt", g, updates, state, fedopt=cfg)
            assert same_bits(g.values, expected.values)
            assert same_bits(state.momentum, slots[0].values)
            assert same_bits(state.second_moment, slots[1].values)
