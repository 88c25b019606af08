"""Client-side local training: plain minibatch SGD with an optional proximal pull.

One call to :func:`train_clients` is every client's work for one round:
``epochs`` passes over each client's training split, reshuffled every epoch.
With ``prox_mu > 0`` each step also pulls the weights back toward the round's
incoming global vector, which is the only difference between the FedAvg and
FedProx client. The round comes back as one :class:`RoundUpdates`: a (K, P)
block with each client's weights as a row, in client-id order.

Clients train in lockstep. The shuffle order depends on the seed, the round
and the epoch, never on the client, so clients whose splits have the same
size visit the same batch positions. Their features are stacked to
(K, n, d), and each minibatch is one batched step for the whole stack.
Every operation in the step acts on one client's slice, so each client's
result is bitwise what training it alone gives. A stack is a run of
consecutive ids with one features shape, and steps in place on its rows of
the block; a lone client steps on its row. :func:`train` is the one-client case.
Before its first step a stack's arrays and the incoming weights pass
:meth:`~fedsim.models.TaskModel.check_data`, the model's rule for its data.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from .data import LabeledSet
from .errors import (ConfigError, DivergenceError, EmptyInputError, NumericError,
                     ShapeError, ValidationError, check_fields, check_int,
                     owned, record)
from .models import TaskModel
from .params import Manifest, ParamVector, manifest_size

# Cap on the bytes of one stack's (K, P) weights. Stacking saves numpy call
# overhead per client, but a stack's gradient buffer (as large as its
# weights) and activations sit on top of the round's block and set its memory
# peak. With 19,210 parameters (cross-device) the cap gives 8 rows, and a
# 64-client round peaks at 1.23 blocks (tracemalloc); 16 rows read 1.44. The
# default 132-parameter model stacks all its clients, a 33,092-parameter one
# 4, and a model over half the cap trains one client at a time.
STACK_BYTES = 1280 * 1024


@record
class TrainerConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0
    prox_mu: float = 0.0

    def __post_init__(self):
        check_fields(self)
        check_int("epochs", self.epochs, 0)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.prox_mu < 0:
            raise ConfigError(f"prox_mu must be >= 0, got {self.prox_mu}")


@record
class RoundUpdates:
    """One round's client results: row k of the (K, P) ``block`` holds the
    weights of client ``client_ids[k]`` and column k of the (epochs, K)
    ``loss_traces`` its loss per epoch. The ids strictly increase, which
    fixes the server's reduction order; the block must be finite. Each
    array is held by :func:`~fedsim.errors.owned`."""

    client_ids: tuple[int, ...]
    block: np.ndarray
    sample_counts: np.ndarray
    loss_traces: np.ndarray
    manifest: Manifest

    def __post_init__(self):
        ids, k = self.client_ids, len(self.client_ids)
        if not k:
            raise EmptyInputError("no client updates")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValidationError(f"client ids must strictly increase, got {list(ids)}")
        shapes = self.block.shape, self.sample_counts.shape, self.loss_traces.shape[1:]
        if shapes != ((k, manifest_size(self.manifest)), (k,), (k,)):
            raise ShapeError(f"{k} clients but block, count and trace shapes {shapes}")
        if np.any(self.sample_counts < 1):
            raise ValidationError(f"sample counts must be >= 1, got {self.sample_counts}")
        for name in ("block", "sample_counts", "loss_traces"):
            object.__setattr__(self, name, owned(getattr(self, name)))
        if not np.isfinite(self.block).all():
            raise NumericError("client weights contain NaN or Inf")


def train(model: TaskModel, initial: ParamVector, data: LabeledSet,
          cfg: TrainerConfig, *, round_index: int = 0,
          client_id: int = 0) -> RoundUpdates:
    """Train one client; :func:`train_clients` with a single client."""
    return train_clients(model, initial, {client_id: data}, cfg,
                         round_index=round_index)


def train_clients(model: TaskModel, initial: ParamVector,
                  clients: Mapping[int, LabeledSet], cfg: TrainerConfig, *,
                  round_index: int = 0) -> RoundUpdates:
    """Run ``cfg.epochs`` epochs of SGD from ``initial`` on every client.

    ``clients`` maps client id to training split; the block's rows come in
    id order. The shuffle order for epoch e is drawn from a generator seeded
    with (cfg.seed, round_index, e), so a given round's batch order does not
    depend on how many rounds ran before it. The final short batch is kept.
    Each loss trace holds one entry per epoch: the sample-weighted mean of
    the plain data loss (the proximal term is never included), measured on
    the batches as they were visited.

    Each run of consecutive ids with one features shape steps together, in
    stacks of at most ``STACK_BYTES`` of weights. Raises DivergenceError,
    tagged with the 0-based epoch, as soon as a loss or weight stops being
    finite; it names the client that training one client after another in id
    order would. Every row of a stack is bitwise its client's solo training,
    so only the stack that raised can hold that client, and only its clients
    are replayed one at a time, in id order, to find it.
    """
    ids = sorted(clients)
    sizes = [len(clients[cid]) for cid in ids]

    def shuffles(n: int) -> Iterator[np.ndarray]:
        return (np.random.default_rng((cfg.seed, round_index, epoch)).permutation(n)
                for epoch in range(cfg.epochs))

    per_stack = max(1, STACK_BYTES // initial.values.nbytes)
    block = initial.values[None].repeat(len(ids), axis=0)  # no base, unlike np.tile's view
    traces = np.empty((cfg.epochs, len(ids)))
    end = 0
    # overflow is handled as divergence in _sgd; keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        # np.stack needs one features shape per stack; _sgd checks it against the model
        for (n, _), run in itertools.groupby(ids, lambda cid: clients[cid].features.shape):
            start, end = end, end + len(list(run))
            starts = range(start, end, per_stack)
            # A run cut into several stacks draws its orders once; each stack
            # finishes every epoch before the next starts. A lone stack reads the
            # draws lazily, holding one order at a time.
            orders = list(shuffles(n)) if len(starts) > 1 else shuffles(n)
            for lo in starts:
                hi = min(lo + per_stack, end)
                # in place on a view of the stack's rows, or on a lone 1-D row
                w = block[lo] if hi - lo == 1 else block[lo:hi]
                try:
                    traces[:, lo:hi] = _sgd(model, w, initial, ids[lo:hi],
                                            clients, orders, cfg, round_index)
                except DivergenceError:
                    # its first divergence need not be its lowest-id client's
                    if hi - lo > 1:
                        for cid in ids[lo:hi]:
                            _sgd(model, initial.values.copy(), initial, [cid],
                                 clients, shuffles(n), cfg, round_index)
                    raise
    block.flags.writeable = False  # RoundUpdates keeps it, uncopied
    return RoundUpdates(tuple(ids), block, np.array(sizes), traces, initial.manifest)


def _sgd(model: TaskModel, w: np.ndarray, initial: ParamVector, ids: list[int],
         clients: Mapping[int, LabeledSet], orders: Iterable[np.ndarray],
         cfg: TrainerConfig, round_index: int) -> np.ndarray:
    """The SGD loop, in place on ``w``, for clients of one features shape.

    Returns the (epochs, K) loss traces. One client trains on its own 2-D
    arrays; several are stacked on a leading client axis and step in
    lockstep. ``initial`` is the proximal anchor, ``orders`` each epoch's shuffle.
    """
    sets = [clients[cid] for cid in ids]
    n = len(sets[0])
    if len(sets) == 1:
        x, y = sets[0].features, sets[0].labels
    else:
        x = np.stack([s.features for s in sets])
        y = np.stack([s.labels for s in sets])
    x, y = model.check_data(initial, x, y, stacked=True)
    # w only ever changes in place, so its segment views stay valid
    workspace = model.workspace(w)
    # one client's loss is a float, which math checks without a numpy call
    loss_is_finite = (math.isfinite if len(sets) == 1
                      else lambda loss: np.isfinite(loss).all())
    traces = []
    for epoch, order in enumerate(orders):
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grad = model.loss_and_gradient_flat(
                w, x.take(idx, axis=-2), y.take(idx, axis=-1), workspace)
            if not loss_is_finite(loss):
                raise _diverged("loss", loss, ids, epoch, round_index)
            loss_sum += loss * idx.size
            # in place: grad is the workspace's buffer, w the caller's array
            if cfg.prox_mu > 0.0:
                grad += cfg.prox_mu * (w - initial.values)
            grad *= cfg.learning_rate
            w -= grad
            if not np.isfinite(w).all():
                raise _diverged("weights", w, ids, epoch, round_index)
        traces.append(loss_sum / n)
    return np.array(traces, dtype=np.float64).reshape(cfg.epochs, len(ids))


def _diverged(what: str, values, ids: list[int], epoch: int,
              round_index: int) -> DivergenceError:
    """The divergence of the first client in ``ids`` with a non-finite value."""
    finite = np.isfinite(values).reshape(len(ids), -1).all(axis=1)
    return DivergenceError(
        f"{what} became non-finite at epoch {epoch}",
        epoch=epoch, round_index=round_index,
        client_id=ids[int(np.argmin(finite))])
