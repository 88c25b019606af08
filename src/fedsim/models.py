"""Differentiable classification models standing in for a full detector.

Two architectures: multinomial logistic regression ("linear"), and a
one-hidden-layer tanh perceptron. Both expose mean cross-entropy loss with
analytic gradients over a flat parameter vector, which is what the local
trainers and the server optimizer operate on.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .data import as_features
from .errors import (ConfigError, EmptyInputError, NumericError, ShapeError,
                     ValidationError, check_fields, check_int, record)
from .params import Manifest, ParamVector, layout, manifest_size

LINEAR = "linear"
ONE_HIDDEN_LAYER = "one_hidden_layer"


class StepWorkspace(NamedTuple):
    """What repeated SGD steps on one weight array reuse: the segment views
    of the weights, a flat gradient buffer, and the segment views of it."""

    weights: dict[str, np.ndarray]
    grad: np.ndarray
    grads: dict[str, np.ndarray]


@record
class TaskModel:
    """Model layout: architecture plus input/output dimensions.

    The parameter layout is published as a shape manifest so that model
    weights travel as plain :class:`ParamVector` values.
    """

    input_dim: int = 32
    num_classes: int = 4
    architecture: str = LINEAR
    hidden_units: int = 16

    def __post_init__(self):
        check_fields(self)
        if self.architecture not in (LINEAR, ONE_HIDDEN_LAYER):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        check_int("input_dim", self.input_dim, 1)
        check_int("num_classes", self.num_classes, 2)
        check_int("hidden_units", self.hidden_units, 1)

    @functools.cached_property
    def manifest(self) -> Manifest:
        d, c, h = self.input_dim, self.num_classes, self.hidden_units
        if self.architecture == LINEAR:
            return (("weight", (c, d)), ("bias", (c,)))
        return (
            ("hidden_weight", (h, d)),
            ("hidden_bias", (h,)),
            ("output_weight", (c, h)),
            ("output_bias", (c,)),
        )

    @property
    def num_params(self) -> int:
        return manifest_size(self.manifest)

    def init_weights(self, seed: int) -> ParamVector:
        """Small random weights, zero biases; deterministic in the seed."""
        check_int("seed", seed, 0)
        rng = np.random.default_rng(seed)
        flat = np.zeros(self.num_params)
        for name, offset, stop, _ in layout(self.manifest):
            if not name.endswith("bias"):
                flat[offset:stop] = rng.normal(0.0, 0.1, size=stop - offset)
        return ParamVector(flat, self.manifest)

    def _unpack(self, w: np.ndarray) -> dict[str, np.ndarray]:
        """Segment views of a flat vector (P,) or of a client stack (K, P)."""
        lead = w.shape[:-1]
        return {name: w[..., offset:stop].reshape(lead + dims)
                for name, offset, stop, dims in layout(self.manifest)}

    def _logits(self, p: dict[str, np.ndarray], x: np.ndarray):
        """Logits and hidden activations, both fresh arrays; ``x`` is (n, d),
        or (K, n, d) with segments ``p`` unpacked from a (P,) vector or a
        (K, P) stack."""
        if self.architecture == LINEAR:
            logits = x @ p["weight"].swapaxes(-1, -2)
            logits += p["bias"][..., None, :]
            return logits, None
        hidden = x @ p["hidden_weight"].swapaxes(-1, -2)
        hidden += p["hidden_bias"][..., None, :]
        np.tanh(hidden, out=hidden)
        logits = hidden @ p["output_weight"].swapaxes(-1, -2)
        logits += p["output_bias"][..., None, :]
        return logits, hidden

    def predict_proba(self, weights: ParamVector, x: np.ndarray) -> np.ndarray:
        """Per-example class probabilities (rows sum to 1)."""
        x, _ = self.check_data(weights, x)
        logits, _ = self._logits(self._unpack(weights.values), x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(shifted)
        return expl / expl.sum(axis=1, keepdims=True)

    def workspace(self, w: np.ndarray) -> StepWorkspace:
        """Segment views of ``w`` and a gradient buffer shaped like it.

        The views stay valid for as long as ``w`` is only updated in place.
        """
        grad = np.empty_like(w)
        return StepWorkspace(self._unpack(w), grad, self._unpack(grad))

    def loss_and_gradient_flat(self, w: np.ndarray, x: np.ndarray, y: np.ndarray,
                               workspace: StepWorkspace | None = None
                               ) -> tuple[float, np.ndarray]:
        """Mean cross-entropy and its gradient, on raw flat arrays.

        Allocation-light path used by the SGD loop, with no checks: its
        arrays must pass :meth:`check_data`. It also takes a leading
        client axis: ``w`` (K, P), ``x`` (K, n, d) and ``y`` (K, n) give a
        (K,) loss array and a (K, P) gradient, and row k is bitwise what the
        call on client k's arrays alone returns, because every operation
        acts on one client's slice.

        The gradient is written into ``workspace.grad``, which must come from
        :meth:`workspace` on this ``w``, and that buffer is returned; the
        next call on the workspace overwrites it. Without a workspace the
        call builds a throwaway one, so the gradient is a fresh array.
        """
        ws = self.workspace(w) if workspace is None else workspace
        p, g = ws.weights, ws.grads
        n, num_classes = x.shape[-2], self.num_classes
        # logits and hidden are fresh arrays, worked on in place from here
        logits, hidden = self._logits(p, x)
        top = np.maximum(logits[..., 0], logits[..., 1])
        for c in range(2, num_classes):
            np.maximum(top, logits[..., c], out=top)
        logits -= top[..., None]
        # flat positions of every row's label entry, for take and put
        label_at = np.arange(0, y.size * num_classes, num_classes)
        label_at += y.reshape(-1)
        row_loss = -logits.take(label_at).reshape(y.shape)
        dlogits = np.exp(logits, out=logits)
        sums = np.add.reduce(dlogits, axis=-1)
        row_loss += np.log(sums)
        loss = np.add.reduce(row_loss, axis=-1) / n

        # dL/dlogits for mean CE: (softmax - onehot) / n
        dlogits /= sums[..., None]
        dlogits.put(label_at, dlogits.take(label_at) - 1.0)
        dlogits /= n

        dlogits_t = dlogits.swapaxes(-1, -2)
        if self.architecture == LINEAR:
            np.matmul(dlogits_t, x, out=g["weight"])
            np.add.reduce(dlogits, axis=-2, out=g["bias"])
        else:
            np.matmul(dlogits_t, hidden, out=g["output_weight"])
            np.add.reduce(dlogits, axis=-2, out=g["output_bias"])
            # tanh' = 1 - hidden^2, formed in hidden's own buffer
            d_hidden = dlogits @ p["output_weight"]
            hidden *= hidden
            np.subtract(1.0, hidden, out=hidden)
            d_hidden *= hidden
            np.matmul(d_hidden.swapaxes(-1, -2), x, out=g["hidden_weight"])
            np.add.reduce(d_hidden, axis=-2, out=g["hidden_bias"])
        return (float(loss) if loss.ndim == 0 else loss), ws.grad

    def loss_and_gradient(self, weights: ParamVector, x: np.ndarray,
                          y: np.ndarray) -> tuple[float, ParamVector]:
        """Mean cross-entropy over the batch and a shape-compatible gradient."""
        x, y = self.check_data(weights, x, np.asarray(y))  # None fails the shape rule
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            loss, grad = self.loss_and_gradient_flat(weights.values, x, y)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss}")
        return loss, ParamVector(grad, self.manifest)

    def evaluate_accuracy(self, weights: ParamVector, x: np.ndarray,
                          y: np.ndarray) -> float | np.ndarray:
        """Fraction of argmax-correct predictions; ties go to the lowest class.

        It also takes a leading client axis: ``x`` (K, n, d) and ``y`` (K, n)
        give a (K,) array, and row k is bitwise what the call on client k's
        arrays alone returns. Each value is the correct count over n,
        correctly rounded, so ``round(accuracy * n)`` recovers the count.
        Finite weights can still overflow the logits, and a non-finite logit
        is a :class:`NumericError`, not a score.
        """
        x, y = self.check_data(weights, x, np.asarray(y), stacked=True)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            logits, _ = self._logits(self._unpack(weights.values), x)
        if not np.isfinite(logits).all():
            raise NumericError("non-finite logits")
        correct = np.count_nonzero(logits.argmax(axis=-1) == y, axis=-1)
        accuracy = correct / x.shape[-2]
        return float(accuracy) if accuracy.ndim == 0 else accuracy

    def check_data(self, weights: ParamVector | None, x, y=None,
                   stacked: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """``x`` and ``y`` by the one rule for the data this model takes:
        ``weights`` (unless None) in its layout and ``x`` (n, input_dim), or
        also (K, n, input_dim) if ``stacked`` (ShapeError); labels ``y`` (unless
        None) one integer per row (ShapeError), over a row at least
        (EmptyInputError), each in [0, num_classes) (ValidationError), as a
        step reads each label's logit by flat position."""
        if weights is not None and weights.manifest != self.manifest:
            raise ShapeError("weights do not match the model's parameter layout")
        x = as_features(x)
        if x.ndim not in ((2, 3) if stacked else (2,)) or x.shape[-1] != self.input_dim:
            raise ShapeError(f"features of shape {x.shape}; the model expects "
                             f"input_dim {self.input_dim}")
        if y is None:
            return x, None
        y = np.asarray(y)
        if y.shape != x.shape[:-1]:
            raise ShapeError(f"labels of shape {y.shape} for features of shape {x.shape}")
        if not y.size:
            raise EmptyInputError("no rows to train or score on")
        if y.dtype.kind not in "iu":
            raise ValidationError(f"labels must be integers, got {y.dtype}")
        if y.min() < 0 or y.max() >= self.num_classes:
            raise ValidationError(f"labels span [{y.min()}, {y.max()}]; the model "
                                  f"expects 0..{self.num_classes - 1}")
        return x, y.astype(np.int64, copy=False)
