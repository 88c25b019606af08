"""Round-based federated training and the two non-federated reference runs.

The driver loop is deliberately plain: broadcast the global vector, let every
client train locally for the round's epoch budget, aggregate, evaluate on the
pooled validation split, repeat. Baselines reuse the same trainer so that a
comparison between federated, purely local, and pooled training differs only
in who sees which data. The pooled data is always the clients' splits in id
order, never an argument of its own.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import numpy as np

from .aggregation import FEDPROX, AggregatorState, FedOptConfig, aggregate, check_strategy
from .data import ClientDataset, LabeledSet, check_clients
from .errors import at_least, checked, record
from .models import TaskModel
from .params import ParamVector, save_checkpoint
from .training import TrainerConfig, train, train_clients


@record
class RoundSchedule:
    """How a fixed local-epoch budget is spent: ``rounds`` server rounds of
    ``epochs_per_round`` local epochs each. ``patience``, rounds without a
    better pooled validation accuracy, turns on early stopping."""

    rounds: int
    epochs_per_round: int
    patience: int | None = None

    def __post_init__(self):
        at_least(1, rounds=self.rounds, epochs_per_round=self.epochs_per_round,
                 patience=self.patience)

    @property
    def total_epochs(self) -> int:
        return self.rounds * self.epochs_per_round


def schedule_presets() -> dict[str, RoundSchedule]:
    """Named (rounds, epochs_per_round) pairs, all spending 150 local epochs."""
    return {
        "opt1": RoundSchedule(3, 50),
        "opt2": RoundSchedule(5, 30),
        "opt3": RoundSchedule(10, 15),
        "opt4": RoundSchedule(15, 10),
    }


@record
class RoundRecord:
    round_number: int  # 1-based
    val_accuracy: float
    client_val_accuracies: tuple[float, ...]
    cumulative_epochs: int
    duration_s: float


@record
class FederatedResult:
    strategy: str
    seed: int
    final_weights: ParamVector
    rounds: tuple[RoundRecord, ...]
    test_accuracy: float
    client_test_accuracies: tuple[float, ...]
    client_ids: tuple[int, ...]
    client_loss_traces: tuple[tuple[float, ...], ...]
    total_duration_s: float

    @property
    def client_epoch_counts(self) -> tuple[int, ...]:
        return tuple(len(trace) for trace in self.client_loss_traces)


@record
class LocalBaselineResult:
    seed: int
    client_ids: tuple[int, ...]
    final_weights: tuple[ParamVector, ...]
    client_test_accuracies: tuple[float, ...]  # each model on the pooled test split
    mean_test_accuracy: float
    client_loss_traces: tuple[tuple[float, ...], ...]
    total_duration_s: float


@record
class GlobalBaselineResult:
    seed: int
    client_ids: tuple[int, ...]
    final_weights: ParamVector
    test_accuracy: float
    client_test_accuracies: tuple[float, ...]
    loss_trace: tuple[float, ...]
    total_duration_s: float


def _accuracies(model: TaskModel, weights: ParamVector,
                splits: list[LabeledSet]) -> tuple[float, ...]:
    """``weights``' pooled accuracy over ``splits``, total correct over total
    rows, and then its accuracy on each split, in order.

    Each run of consecutive splits with one size (the rule
    :func:`~fedsim.training.train_clients` groups by) is stacked for one
    ``evaluate_accuracy`` call and freed when it returns; each row of the
    call is bitwise the call on that split alone.
    """
    accuracies = []
    for _, run in itertools.groupby(splits, len):
        run = list(run)
        accuracies += model.evaluate_accuracy(
            weights, np.stack([s.features for s in run]),
            np.stack([s.labels for s in run])).tolist()
    sizes = [len(s) for s in splits]
    # each accuracy is its count over n, correctly rounded
    correct = sum(round(a * n) for a, n in zip(accuracies, sizes))
    return (correct / sum(sizes), *accuracies)


@checked
def run_federated(
    model: TaskModel,
    clients: list[ClientDataset],
    schedule: RoundSchedule,
    strategy: str = "fedavg",
    *,
    seed: int = 0,
    batch_size: int = 32,
    learning_rate: float = 0.1,
    prox_mu: float | None = None,
    fedopt: FedOptConfig = FedOptConfig(),
    checkpoint_dir: str | Path | None = None,
) -> FederatedResult:
    """Drive ``schedule.rounds`` rounds of local training plus aggregation.

    ``prox_mu=None`` means 0 except under the fedprox strategy, which gets a
    mild default pull of 0.01. Each round trains all clients in one
    :func:`~fedsim.training.train_clients` call, which steps each run of
    consecutive ids with equal split sizes in lockstep and is bitwise equal
    to training them one by one; each round's (K, P) block is aggregated in
    id order and freed before the next. ``schedule.patience`` turns on early
    stopping. ``checkpoint_dir``, made first if missing, gets one
    ``round_NNN.ckpt`` per round and keeps a longer run's later files.
    """
    clients = check_clients(clients, model)
    check_strategy(strategy)
    if prox_mu is None:
        prox_mu = 0.01 if strategy == FEDPROX else 0.0
    cfg = TrainerConfig(epochs=schedule.epochs_per_round, batch_size=batch_size,
                        learning_rate=learning_rate, seed=seed, prox_mu=prox_mu)

    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    global_weights = model.init_weights(seed)
    state = AggregatorState()
    records: list[RoundRecord] = []
    traces = []  # each round's (epochs, K) loss traces

    train_sets = {c.client_id: c.train for c in clients}
    best = 0  # the index of the best round so far
    for round_index in range(schedule.rounds):
        round_started = time.perf_counter()
        updates = train_clients(model, global_weights, train_sets, cfg,
                                round_index=round_index)
        traces.append(updates.loss_traces)

        global_weights, state = aggregate(strategy, global_weights, updates,
                                          state, fedopt=fedopt)
        del updates  # free the block before the next round allocates one

        val_accuracy, *client_val = _accuracies(
            model, global_weights, [c.val for c in clients])
        records.append(RoundRecord(
            round_number=round_index + 1,
            val_accuracy=val_accuracy,
            client_val_accuracies=tuple(client_val),
            cumulative_epochs=(round_index + 1) * schedule.epochs_per_round,
            duration_s=time.perf_counter() - round_started,
        ))
        if checkpoint_dir is not None:
            save_checkpoint(global_weights,
                            Path(checkpoint_dir) / f"round_{round_index + 1:03d}.ckpt")

        # a tie does not reset the count
        if val_accuracy > records[best].val_accuracy:
            best = round_index
        elif schedule.patience and round_index - best >= schedule.patience:
            break

    test_accuracy, *client_test = _accuracies(
        model, global_weights, [c.test for c in clients])

    return FederatedResult(
        strategy=strategy,
        seed=seed,
        final_weights=global_weights,
        rounds=tuple(records),
        test_accuracy=test_accuracy,
        client_test_accuracies=tuple(client_test),
        client_ids=tuple(c.client_id for c in clients),
        client_loss_traces=tuple(map(tuple, np.concatenate(traces).T.tolist())),
        total_duration_s=time.perf_counter() - started,
    )


@checked
def run_local_baseline(
    model: TaskModel,
    clients: list[ClientDataset],
    total_epochs: int,
    *,
    seed: int = 0,
    batch_size: int = 32,
    learning_rate: float = 0.1,
) -> LocalBaselineResult:
    """Train one isolated model per client (no communication at all).

    Every model starts from the same initial vector and spends the same
    ``total_epochs`` budget as a federated run, then is scored on the pooled
    test split, so the average shows what siloed training gives up.
    """
    clients = check_clients(clients, model)
    at_least(1, total_epochs=total_epochs)
    cfg = TrainerConfig(epochs=total_epochs, batch_size=batch_size,
                        learning_rate=learning_rate, seed=seed)
    started = time.perf_counter()
    initial = model.init_weights(seed)

    updates = train_clients(model, initial,
                            {c.client_id: c.train for c in clients}, cfg)
    final = tuple(ParamVector(row, updates.manifest) for row in updates.block)
    tests = [c.test for c in clients]
    accuracies = tuple(_accuracies(model, w, tests)[0] for w in final)
    return LocalBaselineResult(
        seed=seed,
        client_ids=tuple(c.client_id for c in clients),
        final_weights=final,
        client_test_accuracies=accuracies,
        mean_test_accuracy=float(sum(accuracies) / len(accuracies)),
        client_loss_traces=tuple(map(tuple, updates.loss_traces.T.tolist())),
        total_duration_s=time.perf_counter() - started,
    )


@checked
def run_global_baseline(
    model: TaskModel,
    clients: list[ClientDataset],
    total_epochs: int,
    *,
    seed: int = 0,
    batch_size: int = 32,
    learning_rate: float = 0.1,
) -> GlobalBaselineResult:
    """Train a single model on the pooled training data, the clients' train
    splits concatenated in id order (the privacy-free upper reference), for
    the same epoch budget."""
    clients = check_clients(clients, model)
    at_least(1, total_epochs=total_epochs)
    cfg = TrainerConfig(epochs=total_epochs, batch_size=batch_size,
                        learning_rate=learning_rate, seed=seed)
    started = time.perf_counter()
    initial = model.init_weights(seed)
    pooled = LabeledSet(np.concatenate([c.train.features for c in clients]),
                        np.concatenate([c.train.labels for c in clients]))
    update = train(model, initial, pooled, cfg)
    weights = ParamVector(update.block[0], update.manifest)
    test_accuracy, *client_test = _accuracies(
        model, weights, [c.test for c in clients])
    return GlobalBaselineResult(
        seed=seed,
        client_ids=tuple(c.client_id for c in clients),
        final_weights=weights,
        test_accuracy=test_accuracy,
        client_test_accuracies=tuple(client_test),
        loss_trace=tuple(update.loss_traces[:, 0].tolist()),
        total_duration_s=time.perf_counter() - started,
    )
