"""Server-side aggregation of client updates.

Four strategies share one entry point. Each works in plain float64 arrays on
the round's (K, P) block of client weights as training left it, and only the
new global becomes a (checked) :class:`ParamVector`. ``fedavg`` and
``fedprox`` average the returned weight vectors in proportion to client
sample counts (the proximal term lives entirely on the client, so the server
side is identical).
``fedmedian`` takes an unweighted coordinate-wise median. ``fedopt`` treats
the weighted mean client displacement as a pseudo-gradient and feeds it to an
adaptive optimizer living on the server; its slots are carried between rounds
in an :class:`AggregatorState` that is never mutated in place.
"""

from __future__ import annotations


import numpy as np

from .errors import ConfigError, NumericError, ShapeError, checked, held, record
from .params import ParamVector, coordinate_median, weighted_sum
from .training import RoundUpdates

FEDAVG = "fedavg"
FEDPROX = "fedprox"
FEDMEDIAN = "fedmedian"
FEDOPT = "fedopt"
STRATEGIES = (FEDAVG, FEDPROX, FEDMEDIAN, FEDOPT)

FEDOPT_VARIANTS = ("adam", "adagrad", "yogi")


@record
class FedOptConfig:
    variant: str = "adam"
    server_learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 1e-3

    def __post_init__(self):
        if self.variant not in FEDOPT_VARIANTS:
            raise ConfigError(f"unknown fedopt variant {self.variant!r}")
        if not self.server_learning_rate > 0:
            raise ConfigError("server_learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0) or not (0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")


@record
class AggregatorState:
    """FedOpt's slots carried across rounds: finite (P,) float64 arrays by
    :func:`~fedsim.errors.held`, or ``None`` before the first fedopt
    round; no second-moment entry has its sign bit set (a negative value or
    -0.0). The other strategies keep no state."""

    momentum: np.ndarray | None = None
    second_moment: np.ndarray | None = None

    def __post_init__(self):
        shapes = set()
        for name in ("momentum", "second_moment"):
            if (slot := getattr(self, name)) is None:
                continue
            object.__setattr__(self, name, slot := held(name, slot, np.float64, (None,)))
            if not np.isfinite(slot).all():
                raise NumericError(f"fedopt moments are not finite: {name}")
            if name == "second_moment" and np.signbit(slot).any():
                raise NumericError("fedopt second_moment holds a negative value or -0.0")
            shapes.add(slot.shape)
        if len(shapes) > 1:
            raise ShapeError("momentum and second_moment differ in shape")


def check_strategy(strategy: str) -> None:
    """Raise a ConfigError unless ``strategy`` is one of :data:`STRATEGIES`."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown aggregation strategy {strategy!r}")


@checked
def aggregate(
    strategy: str,
    global_weights: ParamVector,
    updates: RoundUpdates,
    state: AggregatorState | None = None,
    *,
    fedopt: FedOptConfig = FedOptConfig(),
) -> tuple[ParamVector, AggregatorState]:
    """Combine one round's block of client weights into the next global vector.

    Returns ``(new_global, new_state)``; the incoming state is left untouched.
    The block's rows are in client-id order, a :class:`RoundUpdates`
    invariant, which keeps the reduction order fixed however the clients
    were scheduled.
    """
    check_strategy(strategy)
    if global_weights.manifest != updates.manifest:
        raise ShapeError("global weights and client block differ in shape manifest")
    state = state or AggregatorState()
    counts = updates.sample_counts

    if strategy in (FEDAVG, FEDPROX):
        return ParamVector(weighted_sum(updates.block, counts), updates.manifest), state

    if strategy == FEDMEDIAN:
        return ParamVector(coordinate_median(updates.block), updates.manifest), state

    # fedopt: adaptive step along the mean client displacement. Round one
    # starts from zero slots, where 0 * b1 + x turns a -0.0 in x into +0.0.
    g = global_weights.values
    for name in ("momentum", "second_moment"):
        slot = getattr(state, name)
        if slot is not None and slot.shape != g.shape:
            raise ShapeError(f"fedopt {name} has shape {slot.shape}, "
                             f"but the global weights have shape {g.shape}")
    delta = weighted_sum(updates.block - g, counts)
    zeros = np.zeros_like(g)
    momentum = zeros if state.momentum is None else state.momentum
    second = zeros if state.second_moment is None else state.second_moment

    b1, b2 = fedopt.beta1, fedopt.beta2
    new_momentum = momentum * b1 + delta * (1.0 - b1)
    delta_sq = delta * delta
    if fedopt.variant == "adam":
        new_second = second * b2 + delta_sq * (1.0 - b2)
    elif fedopt.variant == "adagrad":
        new_second = second + delta_sq
    else:  # yogi subtracts less than v where v > delta^2 and adds elsewhere
        new_second = second - (1.0 - b2) * delta_sq * np.sign(second - delta_sq)
    new_momentum.flags.writeable = new_second.flags.writeable = False  # the state keeps them
    # The state checks its slots: an overflowed square makes v inf, and the
    # step m / inf would be a silent zero.
    state = AggregatorState(momentum=new_momentum, second_moment=new_second)

    step = new_momentum / (np.sqrt(new_second) + fedopt.tau)
    return ParamVector(g + fedopt.server_learning_rate * step, updates.manifest), state
