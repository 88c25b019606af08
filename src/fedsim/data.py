"""Synthetic non-IID federation generator, and its file on disk.

Each client draws labels from its own Dirichlet-skewed class distribution and
sees features shifted by a client-specific offset, so clients disagree both in
label balance and in feature geometry. The pooled dataset, built on demand by
:func:`pool_clients`, is the exact concatenation of the per-client splits in
client-id order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import (ConfigError, FedsimError, ShapeError, ValidationError,
                     check_fields, check_int, check_type, is_int, record)
from .params import read_container, write_container

GROUP_ALL_ID = 0  # client_id reserved for the pooled dataset
SPLITS = ("train", "val", "test")


@record
class HeterogeneityConfig:
    """Knobs controlling how far apart the clients are.

    label_skew_alpha: Dirichlet concentration for per-client class priors.
        Small values (0.3) give heavily skewed label distributions; large
        values approach a uniform prior.
    feature_shift_scale: L2 norm of the per-client feature offset.
    class_separation: scale of the class means that every client shares.
    """

    label_skew_alpha: float = 0.3
    feature_shift_scale: float = 1.5
    class_separation: float = 0.3

    def __post_init__(self):
        check_fields(self)
        if not self.label_skew_alpha > 0:
            raise ConfigError(f"label_skew_alpha must be > 0, got {self.label_skew_alpha}")
        if self.feature_shift_scale < 0:
            raise ConfigError("feature_shift_scale must be >= 0")


def as_features(x) -> np.ndarray:
    """``x`` as a float64 array by the feature rule: integers or floats; a
    bool, string or object array is a :class:`ValidationError`, never cast."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        raise ValidationError(f"features must be integers or floats, got {x.dtype}")
    return x.astype(np.float64, copy=False)


@record
class LabeledSet:
    """Immutable (features, labels) pair for one split: integer or float
    features and integer labels, stored as float64 and int64. Any other
    array kind (bool, string, object, or float labels) is a
    :class:`ValidationError`, never cast."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features, labels = as_features(self.features), np.asarray(self.labels)
        if labels.dtype.kind not in "iu":
            raise ValidationError(f"labels must be integers, got {labels.dtype}")
        features = np.ascontiguousarray(features)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"features {features.shape} and labels {labels.shape} do not align")
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]


@record
class ClientDataset:
    client_id: int
    train: LabeledSet
    val: LabeledSet
    test: LabeledSet


def check_clients(clients: list[ClientDataset]) -> None:
    """The rule for a client list: a list or tuple of one client at least
    (ConfigError), distinct integer ids as given (ValidationError), one width
    (ShapeError), and rows and finite features in each split, read alone
    (ValidationError)."""
    if not isinstance(clients, (list, tuple)):
        raise ConfigError(f"clients must be a list, got {type(clients).__name__}")
    if not clients:
        raise ConfigError("need at least one client")
    ids = [c.client_id for c in clients]
    if not (all(map(is_int, ids)) and len(set(ids)) == len(ids)):
        raise ValidationError(f"client ids must be distinct integers, got {ids}")
    widths = sorted({getattr(c, s).features.shape[1] for c in clients for s in SPLITS})
    if len(widths) > 1:
        raise ShapeError(f"client features have widths {widths}")
    for c in clients:
        for name in SPLITS:
            features = getattr(c, name).features
            if not (len(features) and np.isfinite(features).all()):
                raise ValidationError(f"client {c.client_id} split {name!r} " + (
                    "features hold non-finite values" if len(features)
                    else "needs at least one row"))


def _concat(sets: list[LabeledSet]) -> LabeledSet:
    return LabeledSet(np.concatenate([s.features for s in sets]),
                      np.concatenate([s.labels for s in sets]))


def pool_clients(clients: list[ClientDataset]) -> ClientDataset:
    """Union of all client splits, concatenated in the given order."""
    check_clients(clients)
    return ClientDataset(GROUP_ALL_ID, *(_concat([getattr(c, s) for c in clients])
                                         for s in SPLITS))


def check_counts(num_clients: int, split) -> None:
    """At least one client and three positive integer split counts (rows
    per client)."""
    check_int("num_clients", num_clients, 1)
    if not (isinstance(split, (tuple, list)) and len(split) == 3 and all(
            is_int(n) and n >= 1 for n in split)):
        raise ConfigError(f"split must be three positive integer counts, got {split!r}")


def generate_federation(
    num_clients: int = 8,
    split: tuple[int, int, int] = (200, 67, 67),
    heterogeneity: HeterogeneityConfig = HeterogeneityConfig(),
    seed: int = 0,
    *,
    input_dim: int = 32,
    num_classes: int = 4,
) -> list[ClientDataset]:
    """Build ``num_clients`` datasets, with client ids 1..num_clients in order.

    Deterministic: the same arguments always produce byte-identical arrays.
    Class means are shared across clients; client k adds its own
    unit-direction offset scaled by ``heterogeneity.feature_shift_scale`` and
    samples labels from its own Dirichlet draw.
    """
    check_counts(num_clients, split)
    check_type("heterogeneity", heterogeneity, HeterogeneityConfig)
    check_int("seed", seed, 0)
    check_int("input_dim", input_dim, 1)
    check_int("num_classes", num_classes, 2)

    geometry_rng = np.random.default_rng((seed, GROUP_ALL_ID))
    class_means = geometry_rng.normal(0.0, 1.0, size=(num_classes, input_dim))
    class_means *= heterogeneity.class_separation

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

    return clients


# ---------------------------------------------------------------------------
# On-disk layout: one fedsim.params container, <directory>/federation.bin,
# whose header is {"width": d, "clients": [{"client_id": k, "rows": {"train":
# n, "val": n, "test": n}}, ...], "metadata": {...}}, the metadata being the
# generating config. The payload holds each listed client's train, val and
# test in turn, each as n * d "<f8" features and then n "<i8" labels.
FEDERATION_FILE = "federation.bin"


def save_federation(clients: list[ClientDataset], directory: str | Path,
                    metadata: dict | None = None) -> Path:
    """Write the clients and ``metadata`` as one file, ``federation.bin`` in
    ``directory``, through :func:`~fedsim.params.write_atomic`, so a
    federation is replaced whole or not at all; returns its path.

    A list that :func:`check_clients` refuses, which :func:`load_federation`
    would reject, or ``metadata`` that is not a JSON object (ConfigError),
    raises before a byte is written.
    """
    check_clients(clients)
    if not isinstance(metadata or {}, dict):
        raise ConfigError(f"metadata must be an object, got {metadata!r}")
    try:
        json.dumps(metadata)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"metadata cannot be written as JSON: {exc}") from None
    sets = [getattr(c, split) for c in clients for split in SPLITS]
    header = {"width": sets[0].features.shape[1], "clients": [
        {"client_id": c.client_id, "rows": {s: len(getattr(c, s)) for s in SPLITS}}
        for c in clients], "metadata": metadata or {}}
    path = Path(directory) / FEDERATION_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    write_container(path, header, b"".join(
        s.features.astype("<f8").tobytes() + s.labels.astype("<i8").tobytes()
        for s in sets))
    return path


def load_federation(directory: str | Path, num_clients: int | None = None,
                    split=None, metadata: dict | None = None
                    ) -> list[ClientDataset]:
    """Read the federation that :func:`save_federation` wrote into
    ``directory``; returns its clients in id order.

    ``federation.bin`` must be a regular file (a symlink to one is fine), or
    ConfigError names it and says to re-run gen-data. A malformed file
    raises ConfigError (a missing or ill-typed header key), ShapeError (a
    damaged container, or a payload of the wrong size) or ValidationError (a
    client id listed twice, or non-finite features), naming the file. Given
    ``num_clients``, the file must hold that many clients; given ``split``
    (three counts, as :func:`check_counts` words them), each client must
    have exactly those rows. Each ``metadata`` field that the file's
    metadata also records must hold the same value there, or ConfigError
    names the file.
    """
    if num_clients is not None:
        check_int("num_clients", num_clients, 1)
    if split is not None:
        check_counts(1, split)  # the split rule alone
    path = Path(directory) / FEDERATION_FILE
    # a device or pipe would be read until memory runs out
    if not path.is_file():
        raise ConfigError(f"{path} is missing or not a regular file; "
                          f"re-run gen-data to write the federation")
    header, payload = read_container(path)
    width, entries = header.get("width"), header.get("clients")
    if not (is_int(width) and width >= 1):
        raise ConfigError(f"{path}: width must be a positive integer, got {width!r}")
    if not (isinstance(entries, list) and entries
            and all(isinstance(entry, dict) for entry in entries)):
        raise ConfigError(f"{path} needs a non-empty 'clients' list of objects")
    rows = {}  # client id -> its three row counts, in file order
    for entry in entries:
        client_id, counts = entry.get("client_id"), entry.get("rows")
        if not is_int(client_id):
            raise ConfigError(f"{path}: client_id must be an integer, got {client_id!r}")
        if client_id in rows:
            raise ValidationError(f"{path}: client_id {client_id} is listed twice")
        counts = [counts.get(s) for s in SPLITS] if isinstance(counts, dict) else [None]
        if not all(is_int(n) and n >= 1 for n in counts):
            raise ConfigError(f"{path}: client {client_id} needs positive integer "
                              f"{list(SPLITS)} rows, got {entry.get('rows')!r}")
        rows[client_id] = counts
    total = sum(map(sum, rows.values()))
    if len(payload) != 8 * (width + 1) * total:
        raise ShapeError(f"{path}: {total} rows of width {width} need "
                         f"{8 * (width + 1) * total} payload bytes, got {len(payload)}")
    if num_clients is not None and len(rows) != num_clients:
        raise ConfigError(f"num_clients is {num_clients} but {path} "
                          f"holds {len(rows)} clients")
    if split is not None:
        for client_id, counts in rows.items():
            if counts != list(split):
                raise ConfigError(f"{path}: split is {list(split)} but client "
                                  f"{client_id} has {counts} rows")
    recorded = header.get("metadata")
    if metadata and recorded is not None:
        if not isinstance(recorded, dict):
            raise ConfigError(f"{path}: metadata must be an object, got {recorded!r}")
        for field, value in metadata.items():
            if field in recorded and recorded[field] != value:
                raise ConfigError(f"{field} is {value} but {path} "
                                  f"was generated with {recorded[field]!r}")
    clients, offset = [], 0
    for client_id, counts in rows.items():
        sets = []
        for n in counts:
            features = np.frombuffer(payload, "<f8", n * width, offset).reshape(n, width)
            labels = np.frombuffer(payload, "<i8", n, offset + features.nbytes)
            sets.append(LabeledSet(features, labels))
            offset += features.nbytes + labels.nbytes
        clients.append(ClientDataset(client_id, *sets))
    try:
        check_clients(clients)
    except FedsimError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return sorted(clients, key=lambda c: c.client_id)
