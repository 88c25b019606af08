"""Synthetic non-IID federation generator.

Each client draws labels from its own Dirichlet-skewed class distribution and
sees features shifted by a client-specific offset, so clients disagree both in
label balance and in feature geometry. The pooled dataset is the exact
concatenation of the per-client splits in client-id order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .params import write_atomic

GROUP_ALL_ID = 0  # client_id reserved for the pooled dataset


@dataclass(frozen=True)
class HeterogeneityConfig:
    """Knobs controlling how far apart the clients are.

    label_skew_alpha: Dirichlet concentration for per-client class priors.
        Small values (0.3) give heavily skewed label distributions; large
        values approach a uniform prior.
    feature_shift_scale: L2 norm of the per-client feature offset.
    """

    label_skew_alpha: float = 0.3
    feature_shift_scale: float = 1.5

    def __post_init__(self):
        if not self.label_skew_alpha > 0:
            raise ConfigError(f"label_skew_alpha must be > 0, got {self.label_skew_alpha}")
        if self.feature_shift_scale < 0:
            raise ConfigError("feature_shift_scale must be >= 0")


@dataclass(frozen=True)
class LabeledSet:
    """Immutable (features, labels) pair for one split."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"features {features.shape} and labels {labels.shape} do not align")
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class ClientDataset:
    client_id: int
    train: LabeledSet
    val: LabeledSet
    test: LabeledSet


def _concat(sets: list[LabeledSet]) -> LabeledSet:
    widths = sorted({s.features.shape[1] for s in sets})
    if len(widths) > 1:
        raise ShapeError(f"cannot pool features of widths {widths}")
    return LabeledSet(
        np.concatenate([s.features for s in sets]),
        np.concatenate([s.labels for s in sets]),
    )


def pool_clients(clients: list[ClientDataset]) -> ClientDataset:
    """Union of all client splits, concatenated in the given order."""
    if not clients:
        raise ConfigError("cannot pool an empty client list")
    return ClientDataset(
        client_id=GROUP_ALL_ID,
        train=_concat([c.train for c in clients]),
        val=_concat([c.val for c in clients]),
        test=_concat([c.test for c in clients]),
    )


def generate_federation(
    num_clients: int = 8,
    split: tuple[int, int, int] = (200, 67, 67),
    heterogeneity: HeterogeneityConfig = HeterogeneityConfig(),
    seed: int = 0,
    *,
    input_dim: int = 32,
    num_classes: int = 4,
    class_separation: float = 0.3,
) -> tuple[list[ClientDataset], ClientDataset]:
    """Build ``num_clients`` datasets plus their pooled union.

    Returns ``(clients, group_all)``. Deterministic: the same arguments always
    produce byte-identical arrays. Class means are shared across clients;
    client k adds its own unit-direction offset scaled by
    ``heterogeneity.feature_shift_scale`` and samples labels from its own
    Dirichlet draw.
    """
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    if len(split) != 3 or any(n < 1 for n in split):
        raise ConfigError(f"split must be three positive counts, got {split!r}")
    if input_dim < 1 or num_classes < 2:
        raise ConfigError("input_dim >= 1 and num_classes >= 2 required")

    geometry_rng = np.random.default_rng((seed, GROUP_ALL_ID))
    class_means = geometry_rng.normal(0.0, 1.0, size=(num_classes, input_dim))
    class_means *= class_separation

    clients = []
    for client_id in range(1, num_clients + 1):
        rng = np.random.default_rng((seed, client_id))
        class_prior = rng.dirichlet(
            np.full(num_classes, heterogeneity.label_skew_alpha))
        direction = rng.normal(0.0, 1.0, size=input_dim)
        norm = np.linalg.norm(direction)
        if norm > 0 and heterogeneity.feature_shift_scale > 0:
            offset = direction * (heterogeneity.feature_shift_scale / norm)
        else:
            offset = np.zeros(input_dim)

        sets = []
        for count in split:
            labels = rng.choice(num_classes, size=count, p=class_prior)
            noise = rng.normal(0.0, 1.0, size=(count, input_dim))
            sets.append(LabeledSet(class_means[labels] + offset + noise, labels))
        clients.append(ClientDataset(client_id, *sets))

    return clients, pool_clients(clients)


# ---------------------------------------------------------------------------
# On-disk layout: one JSON per client plus a manifest listing them.

def _set_to_json(s: LabeledSet) -> dict:
    return {"features": s.features.tolist(), "labels": s.labels.tolist()}


def _set_from_json(obj, where: str) -> LabeledSet:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object with 'features' and 'labels'")
    try:
        features = np.array(obj.get("features"))
        labels = np.array(obj.get("labels"))
    except ValueError:  # a ragged nested list
        raise ShapeError(f"{where} features or labels are ragged") from None
    if features.ndim != 2 or features.dtype.kind not in "iuf":
        raise ShapeError(f"{where} features must be a 2-D list of numbers")
    if not np.isfinite(features).all():  # JSON's NaN and Infinity
        raise ValidationError(f"{where} features hold non-finite values")
    if labels.ndim != 1 or (labels.size and labels.dtype.kind not in "iu"):
        raise ShapeError(f"{where} labels must be a list of integers")
    if len(labels) != len(features):
        raise ShapeError(f"{where} has {len(labels)} labels for "
                         f"{len(features)} feature rows")
    return LabeledSet(features.astype(np.float64, copy=False),
                      labels.astype(np.int64, copy=False))


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an int past the digit cap
        raise ConfigError(f"{path} is not valid UTF-8 JSON: {exc}") from None


def save_federation(clients: list[ClientDataset], directory: str | Path,
                    metadata: dict | None = None) -> Path:
    """Write client_NN.json files and a manifest listing them, each through
    :func:`~fedsim.params.write_atomic`; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for client in clients:
        name = f"client_{client.client_id:02d}.json"
        payload = {
            "client_id": client.client_id,
            "splits": {
                "train": _set_to_json(client.train),
                "val": _set_to_json(client.val),
                "test": _set_to_json(client.test),
            },
        }
        write_atomic(directory / name, json.dumps(payload).encode("utf-8"))
        entries.append({"file": name})
    manifest = {"clients": entries, "metadata": metadata or {}}
    manifest_path = directory / "federation.json"
    write_atomic(manifest_path, json.dumps(manifest, indent=2).encode("utf-8"))
    return manifest_path


def load_federation(directory: str | Path) -> tuple[list[ClientDataset], ClientDataset]:
    """Read a federation written by :func:`save_federation`.

    A malformed structure raises ConfigError (missing or ill-typed keys),
    ShapeError (arrays that are ragged, not 2-D or misaligned) or
    ValidationError (non-finite features), naming the file.
    """
    directory = Path(directory)
    manifest_path = directory / "federation.json"
    manifest = read_json(manifest_path)
    entries = manifest.get("clients") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ConfigError(f"{manifest_path} needs a 'clients' list")
    clients = []
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)):
            raise ConfigError(f"{manifest_path}: every client entry needs a "
                              f"'file' name, got {entry!r}")
        path = directory / entry["file"]
        payload = read_json(path)
        splits = payload.get("splits") if isinstance(payload, dict) else None
        if not isinstance(splits, dict):
            raise ConfigError(f"{path} needs a 'splits' object")
        client_id = payload.get("client_id")
        if type(client_id) is not int:
            raise ConfigError(f"{path}: client_id must be an integer, "
                              f"got {client_id!r}")
        clients.append(ClientDataset(client_id, *(
            _set_from_json(splits.get(name), f"{path} split {name!r}")
            for name in ("train", "val", "test"))))
    clients.sort(key=lambda c: c.client_id)
    return clients, pool_clients(clients)
