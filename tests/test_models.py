from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.errors import (ConfigError, EmptyInputError, NumericError, ShapeError,
                           ValidationError)
from fedsim.models import TaskModel
from fedsim.params import ParamVector, layout


def finite_difference_gradient(model, w, x, y, eps=1e-6):
    """Central differences on the loss, one coordinate at a time."""
    grad = np.zeros_like(w)
    for i in range(w.size):
        plus, minus = w.copy(), w.copy()
        plus[i] += eps
        minus[i] -= eps
        lp, _ = model.loss_and_gradient_flat(plus, x, y)
        lm, _ = model.loss_and_gradient_flat(minus, x, y)
        grad[i] = (lp - lm) / (2 * eps)
    return grad


def reference_loss_and_gradient(model, w, x, y):
    """The step as it was before the step workspace: fresh arrays throughout,
    one class-axis ``max`` and one ``np.concatenate``. Kept verbatim as the
    bitwise reference for ``loss_and_gradient_flat``."""
    lead = w.shape[:-1]
    p = {name: w[..., offset:stop].reshape(lead + dims)
         for name, offset, stop, dims in layout(model.manifest)}
    n = x.shape[-2]
    if model.architecture == "linear":
        logits, hidden = x @ p["weight"].swapaxes(-1, -2) + p["bias"][..., None, :], None
    else:
        hidden = np.tanh(x @ p["hidden_weight"].swapaxes(-1, -2)
                         + p["hidden_bias"][..., None, :])
        logits = (hidden @ p["output_weight"].swapaxes(-1, -2)
                  + p["output_bias"][..., None, :])
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expl = np.exp(shifted)
    sums = expl.sum(axis=-1, keepdims=True)
    label_at = (np.arange(y.size), y.reshape(-1))
    picked = shifted.reshape(-1, model.num_classes)[label_at].reshape(y.shape)
    loss = (np.log(sums[..., 0]) - picked).sum(axis=-1) / n

    dlogits = expl / sums
    dlogits.reshape(-1, model.num_classes)[label_at] -= 1.0
    dlogits /= n

    dlogits_t = dlogits.swapaxes(-1, -2)
    if model.architecture == "linear":
        grads = {"weight": dlogits_t @ x, "bias": dlogits.sum(axis=-2)}
    else:
        d_hidden = (dlogits @ p["output_weight"]) * (1.0 - hidden * hidden)
        grads = {
            "hidden_weight": d_hidden.swapaxes(-1, -2) @ x,
            "hidden_bias": d_hidden.sum(axis=-2),
            "output_weight": dlogits_t @ hidden,
            "output_bias": dlogits.sum(axis=-2),
        }
    flat = np.concatenate(
        [grads[name].reshape(lead + (-1,)) for name, _ in model.manifest],
        axis=-1)
    return (float(loss) if loss.ndim == 0 else loss), flat


def reference_accuracy(model, w, x, y):
    """``evaluate_accuracy`` as it was: out-of-place bias add and ``tanh``,
    and the mean of the hits. Kept verbatim as the bitwise reference."""
    p = {name: w[offset:stop].reshape(dims)
         for name, offset, stop, dims in layout(model.manifest)}
    if model.architecture == "linear":
        logits = x @ p["weight"].T + p["bias"]
    else:
        hidden = np.tanh(x @ p["hidden_weight"].T + p["hidden_bias"])
        logits = hidden @ p["output_weight"].T + p["output_bias"]
    return float(np.mean(np.argmax(logits, axis=1) == y))


def reference_init_weights(model, seed):
    """``init_weights`` as it was: one array per segment in manifest order,
    packed by ``from_segments``. Frozen as the bitwise reference."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, dims in model.manifest:
        if name.endswith("bias"):
            arrays[name] = np.zeros(dims)
        else:
            arrays[name] = rng.normal(0.0, 0.1, size=dims)
    return np.concatenate([np.asarray(arrays[name], dtype=np.float64).reshape(-1)
                           for name, _ in model.manifest])


class TestLayout:
    def test_param_counts(self):
        assert TaskModel().num_params == 4 * 32 + 4
        mlp = TaskModel(architecture="one_hidden_layer")
        assert mlp.num_params == 16 * 32 + 16 + 4 * 16 + 4

    def test_init_deterministic_with_zero_biases(self):
        model = TaskModel()
        a = model.init_weights(5)
        b = model.init_weights(5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, model.init_weights(6).values)
        segments = {name: a.values[offset:stop]
                    for name, offset, stop, _ in layout(model.manifest)}
        assert not segments["bias"].any()
        assert segments["weight"].any()

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (True, "seed must be an integer, got True"),
    ])
    def test_init_rejects_a_wrong_seed_by_name(self, seed, message):
        # numpy's generator raised its own ValueError or TypeError
        with pytest.raises(ConfigError, match=f"^{message}$"):
            TaskModel().init_weights(seed)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("model", [
        TaskModel(), TaskModel(input_dim=5, num_classes=3),
        TaskModel(architecture="one_hidden_layer"),
        TaskModel(input_dim=9, num_classes=2, architecture="one_hidden_layer",
                  hidden_units=3),
    ], ids=["linear", "linear-small", "mlp", "mlp-small"])
    def test_init_matches_reference_bitwise(self, model, seed):
        got = model.init_weights(seed)
        assert got.manifest == model.manifest
        assert np.array_equal(got.values.view(np.uint64),
                              reference_init_weights(model, seed).view(np.uint64))

    @pytest.mark.parametrize("field, value, message", [
        ("input_dim", 0, "input_dim must be >= 1, got 0"),
        ("num_classes", 1, "num_classes must be >= 2, got 1"),
        ("hidden_units", 0, "hidden_units must be >= 1, got 0"),
    ])
    def test_each_size_is_checked_by_name(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            TaskModel(**{field: value})

    def test_rejects_unknown_architecture(self):
        with pytest.raises(ConfigError):
            TaskModel(architecture="transformer")


class TestLossOracles:
    def test_zero_weights_give_log_num_classes(self):
        model = TaskModel(input_dim=6, num_classes=3)
        w = ParamVector(np.zeros(model.num_params), model.manifest)
        x = np.random.default_rng(0).normal(size=(10, 6))
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        loss, _ = model.loss_and_gradient(w, x, y)
        assert loss == pytest.approx(math.log(3), rel=1e-12)

    def test_single_example_by_hand(self):
        # x = e_0, W row 0 = e_0, everything else zero:
        # logits = (1, 0, 0), label 0, so loss = logsumexp(1,0,0) - 1.
        model = TaskModel(input_dim=2, num_classes=3)
        flat = np.zeros(model.num_params)
        flat[0] = 1.0  # W[0, 0]
        w = ParamVector(flat, model.manifest)
        loss, _ = model.loss_and_gradient(w, np.array([[1.0, 0.0]]), np.array([0]))
        expected = math.log(math.e + 2.0) - 1.0
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_mean_reduction_ignores_duplication(self):
        model = TaskModel(input_dim=4, num_classes=3)
        rng = np.random.default_rng(1)
        w = model.init_weights(1)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        loss_once, grad_once = model.loss_and_gradient(w, x, y)
        loss_twice, grad_twice = model.loss_and_gradient(
            w, np.vstack([x, x]), np.concatenate([y, y]))
        assert loss_twice == pytest.approx(loss_once, rel=1e-12)
        assert np.allclose(grad_once.values, grad_twice.values,
                           rtol=1e-12, atol=1e-15)


class TestGradients:
    @pytest.mark.parametrize("architecture", ["linear", "one_hidden_layer"])
    def test_matches_finite_differences(self, architecture):
        model = TaskModel(input_dim=5, num_classes=3, architecture=architecture,
                          hidden_units=4)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 5))
        y = rng.integers(0, 3, size=12)
        for trial in range(3):
            w = rng.normal(scale=0.5, size=model.num_params)
            _, analytic = model.loss_and_gradient_flat(w, x, y)
            numeric = finite_difference_gradient(model, w, x, y)
            assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_descent_reduces_loss(self):
        model = TaskModel(input_dim=8, num_classes=4)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 8))
        y = rng.integers(0, 4, size=40)
        w = model.init_weights(3).values.copy()
        first, _ = model.loss_and_gradient_flat(w, x, y)
        for _ in range(60):
            _, g = model.loss_and_gradient_flat(w, x, y)
            w -= 0.2 * g
        last, _ = model.loss_and_gradient_flat(w, x, y)
        assert last < first


class TestStepMatchesReference:
    """The in-place step equals the frozen reference bit for bit.

    At 2, 4 and 10 classes the row counts below fall on both sides of the
    rule that picks the class-axis max form, so both forms are compared."""

    def batches(self, model, clients, rows, seed, scale=1.0):
        rng = np.random.default_rng(seed)
        lead = () if clients == 1 else (clients,)
        w = rng.normal(scale=scale, size=lead + (model.num_params,))
        x = rng.normal(size=lead + (rows, model.input_dim))
        y = rng.integers(0, model.num_classes, size=lead + (rows,))
        return w, x, y

    @staticmethod
    def same_bits(got, expected):
        assert np.asarray(got).dtype == np.asarray(expected).dtype
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("architecture", ["linear", "one_hidden_layer"])
    @pytest.mark.parametrize("num_classes", [2, 4, 10])
    @pytest.mark.parametrize("clients, rows", [(1, 5), (1, 250), (3, 5), (3, 70)])
    def test_bitwise_equal_with_short_last_batch(self, architecture, num_classes,
                                                 clients, rows):
        model = TaskModel(input_dim=7, num_classes=num_classes,
                          architecture=architecture, hidden_units=6)
        w, x, y = self.batches(model, clients, rows, seed=rows + num_classes)
        w_before = w.copy()
        workspace = model.workspace(w)
        # a full batch, then a short last batch on the same workspace
        for batch in (slice(None), slice(0, max(1, rows // 3))):
            xb, yb = x[..., batch, :], y[..., batch]
            loss, grad = model.loss_and_gradient_flat(w, xb, yb, workspace)
            assert grad is workspace.grad
            expected_loss, expected_grad = reference_loss_and_gradient(model, w, xb, yb)
            self.same_bits(loss, expected_loss)
            self.same_bits(grad, expected_grad)
            fresh_loss, fresh_grad = model.loss_and_gradient_flat(w, xb, yb)
            self.same_bits(fresh_loss, expected_loss)
            self.same_bits(fresh_grad, expected_grad)
        assert np.array_equal(w, w_before)

    @pytest.mark.parametrize("architecture", ["linear", "one_hidden_layer"])
    @pytest.mark.parametrize("num_classes", [2, 4, 10])
    @pytest.mark.parametrize("clients, rows", [(1, 250), (3, 70), (3, 5)])
    def test_non_finite_weights_give_the_reference_pattern(self, architecture,
                                                           num_classes, clients, rows):
        model = TaskModel(input_dim=7, num_classes=num_classes,
                          architecture=architecture, hidden_units=6)
        w, x, y = self.batches(model, clients, rows, seed=3, scale=1e3)
        flat = w.reshape(-1)
        flat[::5] = np.inf
        flat[1::7] = -np.inf
        flat[2::11] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            got = model.loss_and_gradient_flat(w, x, y)
            expected = reference_loss_and_gradient(model, w, x, y)
        for g, e in zip(got, expected):
            g, e = np.asarray(g), np.asarray(e)
            assert np.array_equal(np.isnan(g), np.isnan(e))
            assert np.array_equal(g[~np.isnan(g)], e[~np.isnan(e)])
            assert not np.isfinite(e).all()


class TestPredictions:
    def test_probabilities_form_a_simplex(self):
        model = TaskModel(architecture="one_hidden_layer")
        rng = np.random.default_rng(4)
        w = ParamVector(rng.normal(scale=5.0, size=model.num_params),
                        model.manifest)
        x = rng.normal(scale=10.0, size=(30, 32))
        probs = model.predict_proba(w, x)
        assert probs.shape == (30, 4)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_ties_take_lowest_class(self):
        model = TaskModel(input_dim=3, num_classes=4)
        w = ParamVector(np.zeros(model.num_params), model.manifest)
        x = np.ones((5, 3))
        # all logits equal, so every prediction is class 0
        assert model.evaluate_accuracy(w, x, np.zeros(5, dtype=int)) == 1.0
        assert model.evaluate_accuracy(w, x, np.ones(5, dtype=int)) == 0.0

    def test_accuracy_counts_correct_fraction(self):
        model = TaskModel(input_dim=2, num_classes=2)
        flat = np.zeros(model.num_params)
        flat[0] = 1.0   # class-0 logit follows feature 0
        w = ParamVector(flat, model.manifest)
        x = np.array([[5.0, 0.0], [-5.0, 0.0], [4.0, 0.0], [-4.0, 0.0]])
        y = np.array([0, 1, 1, 1])
        assert model.evaluate_accuracy(w, x, y) == 0.75


@st.composite
def stacked_evaluations(draw):
    """A model, weights whose class rows repeat (so logits tie), and K
    clients' (n, d) features and labels."""
    model = TaskModel(input_dim=draw(st.integers(1, 5)),
                      num_classes=draw(st.integers(2, 5)),
                      architecture=draw(st.sampled_from(["linear",
                                                         "one_hidden_layer"])),
                      hidden_units=draw(st.integers(1, 4)))
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # small integers make many logits tie exactly; class rows drawn from a
    # pool of two make whole classes tie
    scale = draw(st.sampled_from([0.5, 1.0]))
    flat = rng.integers(-2, 3, size=model.num_params) * scale
    segments = {name: flat[offset:stop].reshape(dims)
                for name, offset, stop, dims in layout(model.manifest)}
    last = "weight" if model.architecture == "linear" else "output_weight"
    bias = "bias" if model.architecture == "linear" else "output_bias"
    pool = rng.integers(0, 2, size=model.num_classes)
    segments[last][:] = segments[last][pool]
    segments[bias][:] = segments[bias][pool]
    x = rng.integers(-3, 4, size=(k, n, model.input_dim)).astype(np.float64)
    y = rng.integers(0, model.num_classes, size=(k, n))
    return model, ParamVector(flat, model.manifest), x, y


class TestStackedAccuracy:
    @settings(max_examples=300, deadline=None)
    @given(stacked_evaluations())
    def test_rows_equal_the_per_client_calls(self, case):
        model, w, x, y = case
        stacked = model.evaluate_accuracy(w, x, y)
        assert stacked.shape == (x.shape[0],)
        p = {name: w.values[offset:stop].reshape(dims)
             for name, offset, stop, dims in layout(model.manifest)}
        for k in range(x.shape[0]):
            alone = model.evaluate_accuracy(w, x[k], y[k])
            assert type(alone) is float
            assert stacked[k] == alone == reference_accuracy(model, w.values,
                                                             x[k], y[k])
            # ties go to the lowest class among the largest logits
            logits, _ = model._logits(p, x[k])
            hits = sum(min(np.flatnonzero(row == row.max())) == label
                       for row, label in zip(logits, y[k]))
            assert alone == hits / x.shape[1]
            assert round(alone * x.shape[1]) == hits


class TestValidation:
    def test_wrong_manifest_rejected(self):
        model = TaskModel()
        other = TaskModel(architecture="one_hidden_layer")
        with pytest.raises(ShapeError):
            model.loss_and_gradient(other.init_weights(0),
                                    np.zeros((2, 32)), np.zeros(2, dtype=int))

    def test_empty_batch_rejected(self):
        model = TaskModel()
        w = model.init_weights(0)
        with pytest.raises(EmptyInputError):
            model.loss_and_gradient(w, np.zeros((0, 32)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyInputError):
            model.evaluate_accuracy(w, np.zeros((0, 32)), np.zeros(0, dtype=int))
        for shape in [(0, 4, 32), (3, 0, 32)]:
            with pytest.raises(EmptyInputError):
                model.evaluate_accuracy(w, np.zeros(shape),
                                        np.zeros(shape[:2], dtype=int))

    @pytest.mark.parametrize("labels, error", [
        ([0, 1, 4], ValidationError), ([0, -1, 2], ValidationError),
        ([0.0, 1.0, 2.0], ValidationError), ([0, 1], ShapeError)])
    def test_bad_labels_rejected(self, labels, error):
        # the step indexes labels by flat position, where an out-of-range
        # label would read another row's logit instead of failing
        model = TaskModel()
        with pytest.raises(error):
            model.loss_and_gradient(model.init_weights(0), np.zeros((3, 32)),
                                    np.array(labels))

    def test_unsigned_labels_score_as_their_int64(self):
        # uint labels in range once ended in a numpy casting TypeError
        model = TaskModel()
        w, x, y = model.init_weights(0), np.ones((3, 32)), np.array([0, 3, 1])
        assert model.loss_and_gradient(w, x, y.astype(np.uint8))[0] == \
            model.loss_and_gradient(w, x, y)[0]

    @pytest.mark.parametrize("architecture", ["linear", "one_hidden_layer"])
    def test_non_finite_loss_is_numeric_error(self, architecture):
        # finite weights near the float64 ceiling overflow the logits
        model = TaskModel(input_dim=4, num_classes=3, architecture=architecture,
                          hidden_units=3)
        w = ParamVector(np.full(model.num_params, 1e308), model.manifest)
        with pytest.raises(NumericError, match="^non-finite loss nan$"):
            model.loss_and_gradient(w, np.full((2, 4), 10.0), np.array([0, 1]))

    @pytest.mark.parametrize("architecture", ["linear", "one_hidden_layer"])
    @pytest.mark.parametrize("shape", [(2, 4), (3, 2, 4)], ids=["flat", "stacked"])
    def test_non_finite_logits_are_numeric_error(self, architecture, shape):
        # the overflowed logits were scored, as if their argmax meant anything
        model = TaskModel(input_dim=4, num_classes=3, architecture=architecture,
                          hidden_units=3)
        w = ParamVector(np.full(model.num_params, 1e308), model.manifest)
        with pytest.raises(NumericError, match="^non-finite logits$"):
            model.evaluate_accuracy(w, np.full(shape, 10.0),
                                    np.zeros(shape[:-1], dtype=int))

    def test_wrong_feature_dim_rejected(self):
        model = TaskModel()
        w = model.init_weights(0)
        with pytest.raises(ShapeError):
            model.loss_and_gradient(w, np.zeros((3, 31)), np.zeros(3, dtype=int))

    def test_integer_features_score_as_their_floats(self):
        model = TaskModel()
        w, y = model.init_weights(0), np.arange(3) % 4
        x = np.arange(96).reshape(3, 32) % 5 - 2
        assert np.array_equal(model.predict_proba(w, x), model.predict_proba(w, x * 1.0))
        assert model.loss_and_gradient(w, x, y)[0] == model.loss_and_gradient(w, x * 1.0, y)[0]
        assert model.evaluate_accuracy(w, x, y) == model.evaluate_accuracy(w, x * 1.0, y)
