"""Differentiable classification models standing in for a full detector.

Two architectures: multinomial logistic regression ("linear"), and a
one-hidden-layer tanh perceptron. Both expose mean cross-entropy loss with
analytic gradients over a flat parameter vector, which is what the local
trainers and the server optimizer operate on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInputError, NumericError, ShapeError
from .params import (Layout, Manifest, ParamVector, from_segments, layout,
                     manifest_size)

LINEAR = "linear"
ONE_HIDDEN_LAYER = "one_hidden_layer"


@dataclass(frozen=True)
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
        if self.architecture not in (LINEAR, ONE_HIDDEN_LAYER):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.input_dim < 1 or self.num_classes < 2 or self.hidden_units < 1:
            raise ConfigError("input_dim >= 1, num_classes >= 2, hidden_units >= 1 required")

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

    @functools.cached_property
    def _layout(self) -> Layout:
        return layout(self.manifest)

    @property
    def num_params(self) -> int:
        return manifest_size(self.manifest)

    def init_weights(self, seed: int) -> ParamVector:
        """Small random weights, zero biases; deterministic in the seed."""
        rng = np.random.default_rng(seed)
        arrays = {}
        for name, dims in self.manifest:
            if name.endswith("bias"):
                arrays[name] = np.zeros(dims)
            else:
                arrays[name] = rng.normal(0.0, 0.1, size=dims)
        return from_segments(arrays, self.manifest)

    def _unpack(self, w: np.ndarray) -> dict[str, np.ndarray]:
        """Segment views of a flat vector (P,) or of a client stack (K, P)."""
        lead = w.shape[:-1]
        return {name: w[..., offset:stop].reshape(lead + dims)
                for name, offset, stop, dims in self._layout}

    def _logits(self, p: dict[str, np.ndarray], x: np.ndarray):
        """Logits and hidden activations; ``x`` is (n, d), or (K, n, d) with
        segments ``p`` unpacked from a (K, P) stack."""
        if self.architecture == LINEAR:
            return x @ p["weight"].swapaxes(-1, -2) + p["bias"][..., None, :], None
        hidden = np.tanh(x @ p["hidden_weight"].swapaxes(-1, -2)
                         + p["hidden_bias"][..., None, :])
        return (hidden @ p["output_weight"].swapaxes(-1, -2)
                + p["output_bias"][..., None, :]), hidden

    def predict_proba(self, weights: ParamVector, x: np.ndarray) -> np.ndarray:
        """Per-example class probabilities (rows sum to 1)."""
        self._check_weights(weights)
        logits, _ = self._logits(self._unpack(weights.values),
                                 np.asarray(x, dtype=np.float64))
        shifted = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(shifted)
        return expl / expl.sum(axis=1, keepdims=True)

    def loss_and_gradient_flat(self, w: np.ndarray, x: np.ndarray,
                               y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean cross-entropy and its gradient, on raw flat arrays.

        Allocation-light path used by the SGD loop; no manifest checks. It
        also takes a leading client axis: ``w`` (K, P), ``x`` (K, n, d) and
        ``y`` (K, n) give a (K,) loss array and a (K, P) gradient, and row k
        is bitwise what the call on client k's arrays alone returns, because
        every operation acts on one client's slice.
        """
        n = x.shape[-2]
        p = self._unpack(w)
        logits, hidden = self._logits(p, x)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        expl = np.exp(shifted)
        sums = expl.sum(axis=-1, keepdims=True)
        # (row, label) entries of the (rows, classes) view of every client
        label_at = (np.arange(y.size), y.reshape(-1))
        picked = shifted.reshape(-1, self.num_classes)[label_at].reshape(y.shape)
        loss = (np.log(sums[..., 0]) - picked).sum(axis=-1) / n

        # dL/dlogits for mean CE: (softmax - onehot) / n
        dlogits = expl / sums
        dlogits.reshape(-1, self.num_classes)[label_at] -= 1.0
        dlogits /= n

        dlogits_t = dlogits.swapaxes(-1, -2)
        if self.architecture == LINEAR:
            grads = {"weight": dlogits_t @ x, "bias": dlogits.sum(axis=-2)}
        else:
            d_hidden = (dlogits @ p["output_weight"]) * (1.0 - hidden * hidden)
            grads = {
                "hidden_weight": d_hidden.swapaxes(-1, -2) @ x,
                "hidden_bias": d_hidden.sum(axis=-2),
                "output_weight": dlogits_t @ hidden,
                "output_bias": dlogits.sum(axis=-2),
            }
        lead = w.shape[:-1]
        flat = np.concatenate(
            [grads[name].reshape(lead + (-1,)) for name, _, _, _ in self._layout],
            axis=-1)
        return (float(loss) if loss.ndim == 0 else loss), flat

    def loss_and_gradient(self, weights: ParamVector, x: np.ndarray,
                          y: np.ndarray) -> tuple[float, ParamVector]:
        """Mean cross-entropy over the batch and a shape-compatible gradient."""
        self._check_weights(weights)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.shape[0] == 0:
            raise EmptyInputError("batch is empty")
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"expected features of dim {self.input_dim}, got {x.shape}")
        loss, grad = self.loss_and_gradient_flat(weights.values, x, y)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss}")
        return loss, ParamVector(grad, self.manifest)

    def evaluate_accuracy(self, weights: ParamVector, x: np.ndarray,
                          y: np.ndarray) -> float:
        """Fraction of argmax-correct predictions; ties go to the lowest class."""
        self._check_weights(weights)
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] == 0:
            raise EmptyInputError("cannot evaluate on an empty split")
        logits, _ = self._logits(self._unpack(weights.values), x)
        predicted = np.argmax(logits, axis=1)
        return float(np.mean(predicted == np.asarray(y)))

    def _check_weights(self, weights: ParamVector):
        if weights.manifest != self.manifest:
            raise ShapeError("weights do not match the model's parameter layout")
