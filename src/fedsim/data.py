"""Synthetic non-IID federation generator, and its files on disk.

Each client draws labels from its own Dirichlet-skewed class distribution and
sees features shifted by a client-specific offset, so clients disagree both in
label balance and in feature geometry. The pooled dataset, built on demand by
:func:`pool_clients`, is the exact concatenation of the per-client splits in
client-id order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError, check_fields, check_int
from .params import read_container, write_atomic, write_container

GROUP_ALL_ID = 0  # client_id reserved for the pooled dataset
SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
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


def check_counts(num_clients: int, split, files=None) -> None:
    """At least one client and three positive integer split counts (rows
    per client). ``files``, if given, maps each client file's path to its
    client, and the clients must hold exactly those counts."""
    check_int("num_clients", num_clients, 1)
    if not (isinstance(split, (tuple, list)) and len(split) == 3 and all(
            isinstance(n, Integral) and not isinstance(n, bool) and n >= 1
            for n in split)):
        raise ConfigError(f"split must be three positive integer counts, got {split!r}")
    if files is not None and len(files) != num_clients:
        raise ConfigError(f"num_clients is {num_clients} but the federation "
                          f"holds {len(files)} clients")
    for path, client in (files or {}).items():
        for name, want in zip(SPLITS, split):
            if len(getattr(client, name)) != want:
                raise ConfigError(f"{path}: split.{name} is {want} but client "
                                  f"{client.client_id} has "
                                  f"{len(getattr(client, name))} {name} rows")


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
# On-disk layout: federation.json, a JSON manifest listing the client files
# with the generating config as its "metadata", and one client_NN.bin per
# client. A client file is a fedsim.params container whose header is
# {"client_id": k, "width": d, "rows": {"train": n, "val": n, "test": n}}
# and whose payload holds train, val and test, each as n * d "<f8" features
# and then n "<i8" labels.


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, huge int, deep nesting
        raise ConfigError(f"{path} is not valid UTF-8 JSON: {exc}") from None


def save_federation(clients: list[ClientDataset], directory: str | Path,
                    metadata: dict | None = None) -> Path:
    """Write one client file per client and a manifest listing them, each
    through :func:`~fedsim.params.write_atomic`; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for client in clients:
        sets = [getattr(client, split) for split in SPLITS]
        width = sets[0].features.shape[1]
        if any(s.features.shape[1] != width for s in sets):
            raise ShapeError(f"client {client.client_id} splits differ in width")
        name = f"client_{client.client_id:02d}.bin"
        header = {"client_id": client.client_id, "width": width,
                  "rows": dict(zip(SPLITS, map(len, sets)))}
        write_container(directory / name, header, b"".join(
            s.features.astype("<f8").tobytes() + s.labels.astype("<i8").tobytes()
            for s in sets))
        entries.append({"file": name})
    manifest = {"clients": entries, "metadata": metadata or {}}
    manifest_path = directory / "federation.json"
    write_atomic(manifest_path, json.dumps(manifest, indent=2).encode("utf-8"))
    return manifest_path


def _read_client(path: Path) -> ClientDataset:
    try:
        header, payload = read_container(path)
    except ShapeError as exc:
        raise ShapeError(f"{exc}; re-run gen-data to rewrite the federation") from None
    client_id, width, rows = (header.get(k) for k in ("client_id", "width", "rows"))
    if type(client_id) is not int:
        raise ConfigError(f"{path}: client_id must be an integer, got {client_id!r}")
    counts = [rows.get(split) for split in SPLITS] if isinstance(rows, dict) else [None]
    if not all(type(n) is int and n >= 1 for n in [width, *counts]):
        raise ConfigError(f"{path}: width and {list(SPLITS)} rows must be positive "
                          f"integers, got width {width!r} and rows {rows!r}")
    if len(payload) != 8 * (width + 1) * sum(counts):
        raise ShapeError(f"{path}: rows {counts} of width {width} need "
                         f"{8 * (width + 1) * sum(counts)} payload bytes, got {len(payload)}")
    sets, offset = [], 0
    for split, n in zip(SPLITS, counts):
        features = np.frombuffer(payload, "<f8", n * width, offset).reshape(n, width)
        if not np.isfinite(features).all():
            raise ValidationError(f"{path} split {split!r} features hold non-finite values")
        labels = np.frombuffer(payload, "<i8", n, offset + features.nbytes)
        sets.append(LabeledSet(features.astype(np.float64), labels.astype(np.int64)))
        offset += features.nbytes + labels.nbytes
    return ClientDataset(client_id, *sets)


def load_federation(directory: str | Path, num_clients: int | None = None,
                    split=None, metadata: dict | None = None
                    ) -> list[ClientDataset]:
    """Read a federation written by :func:`save_federation`; returns its
    clients in id order.

    A malformed manifest or client file raises ConfigError (a missing or
    ill-typed key), ShapeError (a damaged container, a payload of the wrong
    size or a width other than the first client's) or ValidationError
    (non-finite features, or a client id an earlier file holds), naming the
    file. Each entry's ``file`` must be the bare name of a regular file in
    ``directory``, or ConfigError names the manifest. Given ``num_clients``
    and ``split``, the clients must match them (:func:`check_counts`), and a
    client's wrong row count names its file.
    Each ``metadata`` field that the manifest's metadata also records must
    hold the same value there, or ConfigError names the manifest.
    """
    directory = Path(directory)
    manifest_path = directory / "federation.json"
    manifest = read_json(manifest_path)
    entries = manifest.get("clients") if isinstance(manifest, dict) else None
    if not (isinstance(entries, list) and entries):
        raise ConfigError(f"{manifest_path} needs a non-empty 'clients' list")
    clients, files = [], {}
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)):
            raise ConfigError(f"{manifest_path}: every client entry needs a "
                              f"'file' name, got {entry!r}")
        name = entry["file"]
        path = directory / name
        # a bare name: no path leads outside the directory, and no device
        # or pipe is read until memory runs out
        if Path(name).name != name or not path.is_file():
            raise ConfigError(f"{manifest_path}: 'file' must name a regular "
                              f"file in {directory}, got {name!r}")
        client = _read_client(path)
        if client.client_id in files:
            raise ValidationError(f"{path}: client_id {client.client_id} already "
                                  f"read from {files[client.client_id].name}")
        files[client.client_id] = path
        width = client.train.features.shape[1]
        if not clients:
            first, first_width = path, width
        elif width != first_width:
            raise ShapeError(f"{path}: features of width {width}, but "
                             f"{first.name} has width {first_width}")
        clients.append(client)
    clients.sort(key=lambda c: c.client_id)
    if split is not None:
        check_counts(num_clients, split, {files[c.client_id]: c for c in clients})
    recorded = manifest.get("metadata")
    if metadata and recorded is not None:
        if not isinstance(recorded, dict):
            raise ConfigError(f"{manifest_path}: metadata must be an object, "
                              f"got {recorded!r}")
        for field, value in metadata.items():
            if field in recorded and recorded[field] != value:
                raise ConfigError(f"{field} is {value} but {manifest_path} "
                                  f"was generated with {recorded[field]!r}")
    return clients
