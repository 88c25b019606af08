"""Mutation fuzzing of the federation-directory, checkpoint and config readers.

A malformed federation directory must end ``fedsim run --data`` with a
documented exit code (0, 2, 3 or 4) and never with an exception. A client
file that is truncated, holds a non-finite feature, or lacks or mistypes a
header key must end it with 2. A damaged checkpoint must make
``load_checkpoint`` raise a ``FedsimError`` subclass and nothing else. A
mutated config dict must be rejected with a ``ConfigError`` or build every
object a subcommand builds from it. All run under the derandomized profile
from conftest.
"""
from __future__ import annotations

import json
import math
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import cli
from fedsim.config import ExperimentConfig
from fedsim.errors import ConfigError, FedsimError, ShapeError
from fedsim.params import ParamVector, load_checkpoint, save_checkpoint
from fedsim.training import TrainerConfig

# Two clients, one round of one epoch, on 4-wide features: a run takes a
# few milliseconds, so each example is one full in-process CLI call.
CONFIG = {"num_clients": 2, "split": [6, 3, 3], "input_dim": 4,
          "num_classes": 3, "rounds": 1, "epochs_per_round": 1,
          "total_epochs": 1, "batch_size": 4, "seed": 1}
DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}
CLIENT = "client_02.bin"


@pytest.fixture(scope="module")
def federation(tmp_path_factory):
    """(config path, federation directory, the bytes of CLIENT)."""
    root = tmp_path_factory.mktemp("fuzz_federation")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    data_dir = root / "fed"
    assert cli.main(["gen-data", "--config", str(config),
                     "--out", str(data_dir)]) == 0
    assert sorted(p.name for p in data_dir.iterdir()) == [
        "client_01.bin", CLIENT, "federation.json"]
    return config, data_dir, (data_dir / CLIENT).read_bytes()


def split_client(raw):
    """(header dict, payload offset) of a client file's bytes."""
    (size,) = struct.unpack_from("<Q", raw)
    return json.loads(raw[8:8 + size]), 8 + size


def feature_offsets(raw):
    """The byte offset of every feature value in a client file."""
    header, offset = split_client(raw)
    out = []
    for split in ("train", "val", "test"):
        n, width = header["rows"][split], header["width"]
        out.extend(range(offset, offset + 8 * n * width, 8))
        offset += 8 * n * (width + 1)
    return out


def run_with(federation, files):
    """Exit code of ``fedsim run --data`` on a copy of the federation with
    ``files`` ({name: bytes}) written over it."""
    config, data_dir, _ = federation
    with tempfile.TemporaryDirectory() as scratch:
        fed = Path(scratch) / "fed"
        shutil.copytree(data_dir, fed)
        for name, raw in files.items():
            (fed / name).write_bytes(raw)
        return cli.main(["run", "--config", str(config), "--data", str(fed),
                         "--out", str(Path(scratch) / "out")])


def test_every_truncated_client_file_is_a_config_error(federation):
    _, _, raw = federation
    for end in range(len(raw)):
        assert run_with(federation, {CLIENT: raw[:end]}) == 2, end
    assert run_with(federation, {CLIENT: raw}) == 0


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_flipped_client_bytes_end_in_a_documented_exit_code(federation, data):
    _, _, raw = federation
    _, payload_at = split_client(raw)
    # flips within the length and header, or within the payload
    lo, hi = data.draw(st.sampled_from([(0, payload_at), (payload_at, len(raw))]))
    flips = data.draw(st.lists(st.tuples(st.integers(lo, hi - 1),
                                         st.integers(1, 255)),
                               min_size=1, max_size=4))
    mutated = bytearray(raw)
    for offset, mask in flips:
        mutated[offset] ^= mask
    if lo and data.draw(st.booleans()):  # overwrite one feature outright
        offset = data.draw(st.sampled_from(feature_offsets(raw)))
        mutated[offset:offset + 8] = struct.pack("<d", data.draw(NON_FINITE))
    code = run_with(federation, {CLIENT: bytes(mutated)})
    assert code in DOCUMENTED_EXIT_CODES
    features = np.array([struct.unpack_from("<d", mutated, offset)[0]
                         for offset in feature_offsets(raw)])
    if lo and not np.isfinite(features).all():
        assert code == 2


def nodes(doc, path=()):
    """Every (path, value) below ``doc``; a path is a tuple of keys and indices."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(-10.0, 10.0), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_header_or_manifest_key_ends_in_a_documented_exit_code(
        federation, data):
    """A deleted or retyped key of a client header is exit 2; one of the
    manifest may also be ignored (its metadata is never read)."""
    _, data_dir, raw = federation
    name = data.draw(st.sampled_from([CLIENT, "federation.json"]))
    if name == CLIENT:
        doc, payload_at = split_client(raw)
    else:
        doc = json.loads((data_dir / name).read_text())
    path = data.draw(st.sampled_from([p for p, _ in nodes(doc)]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        old = parent[path[-1]]
        parent[path[-1]] = data.draw(OTHER_VALUES.filter(
            lambda new: type(new) is not type(old)))
    encoded = json.dumps(doc).encode("utf-8")
    if name == CLIENT:
        encoded = struct.pack("<Q", len(encoded)) + encoded + raw[payload_at:]
    code = run_with(federation, {name: encoded})
    assert code in DOCUMENTED_EXIT_CODES
    if name == CLIENT:
        assert code == 2


# ---------------------------------------------------------------------------
# Checkpoints

MANIFEST = (("w", (2, 3)),)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """(a scratch file path, the bytes of a valid 6-value checkpoint)."""
    root = tmp_path_factory.mktemp("fuzz_checkpoint")
    path = root / "good.ckpt"
    save_checkpoint(ParamVector(np.arange(6.0) - 2.5, MANIFEST), path)
    return root / "mutated.ckpt", path.read_bytes()


def load_or_none(path, raw):
    """load_checkpoint on ``raw``; None for a FedsimError, which is the only
    exception it may raise."""
    path.write_bytes(raw)
    try:
        return load_checkpoint(path)
    except FedsimError:
        return None


def test_every_truncated_checkpoint_is_a_fedsim_error(checkpoint):
    path, raw = checkpoint
    for end in range(len(raw)):
        assert load_or_none(path, raw[:end]) is None, end
    assert load_or_none(path, raw) is not None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flipped_checkpoint_bytes_raise_only_fedsim_errors(checkpoint, data):
    path, raw = checkpoint
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                         st.integers(1, 255)),
                               min_size=1, max_size=4))
    mutated = bytearray(raw)
    for offset, mask in flips:
        mutated[offset] ^= mask
    loaded = load_or_none(path, bytes(mutated))
    assert loaded is None or isinstance(loaded, ParamVector)


@settings(max_examples=60, deadline=None)
@given(count=st.one_of(st.integers(-2**70, 2**70), st.floats(), st.none(),
                       st.booleans(), st.text(max_size=3)))
def test_wrong_checkpoint_count_is_a_shape_error(checkpoint, count):
    path, raw = checkpoint
    (header_len,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + header_len])
    header["count"] = count
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(encoded)) + encoded
                     + raw[8 + header_len:])
    if type(count) is int and count == 6:
        assert len(load_checkpoint(path)) == 6
    else:
        with pytest.raises(ShapeError):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# Config dicts

DEFAULT_CONFIG = ExperimentConfig().to_dict()
CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 0.999999, 1.0, 1e-300, 10 ** 300,
                     10 ** 400, "fedopt", "fedprox", "yogi", "one_hidden_layer",
                     "cnn"]),
    st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=4),
    st.dictionaries(st.sampled_from(["train", "val", "test", "extra"]),
                    st.integers(-1, 3), max_size=4))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_mutated_config_builds_its_run_objects_or_is_a_config_error(data):
    raw = dict(DEFAULT_CONFIG)
    for _ in range(data.draw(st.integers(1, 3))):
        key = data.draw(st.sampled_from([*DEFAULT_CONFIG, "extra"]))
        if key in raw and data.draw(st.booleans()):
            del raw[key]
        else:
            raw[key] = data.draw(CONFIG_VALUES)
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    schedule = cfg.schedule()
    cfg.model()
    cfg.heterogeneity()
    cfg.fedopt()
    TrainerConfig(epochs=schedule.total_epochs, batch_size=cfg.batch_size,
                  learning_rate=cfg.learning_rate, seed=cfg.seed,
                  prox_mu=cfg.prox_mu or 0.0)
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
