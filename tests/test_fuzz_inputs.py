"""Mutation fuzzing of the federation-directory, checkpoint and config readers.

A malformed federation directory must end ``fedsim run --data`` with a
documented exit code (0, 2, 3 or 4) and never with an exception, and a
non-finite number in a client file must always end it with 2. A damaged
checkpoint must make ``load_checkpoint`` raise a ``FedsimError`` subclass
and nothing else. A mutated config dict must be rejected with a
``ConfigError`` or build every object a subcommand builds from it. All run
under the derandomized profile from conftest.
"""
from __future__ import annotations

import copy
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


@pytest.fixture(scope="module")
def federation(tmp_path_factory):
    """(config path, federation directory, its files parsed as JSON)."""
    root = tmp_path_factory.mktemp("fuzz_federation")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    data_dir = root / "fed"
    assert cli.main(["gen-data", "--config", str(config),
                     "--out", str(data_dir)]) == 0
    docs = {path.name: json.loads(path.read_text())
            for path in sorted(data_dir.glob("*.json"))}
    assert sorted(docs) == ["client_01.json", "client_02.json",
                            "federation.json"]
    return config, data_dir, docs


def nodes(doc, path=()):
    """Every (path, value) below ``doc``; a path is a tuple of keys and indices."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(-10.0, 10.0), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def mutate(docs, draw):
    """Apply one drawn mutation to a copy of ``docs``; returns (docs, kind)."""
    docs = copy.deepcopy(docs)
    kind = draw(st.sampled_from(["delete", "retype", "ragged", "non-finite"]))
    # only client files hold feature matrices; every number in one is read
    # (the id, the features and the labels)
    client = draw(st.sampled_from(["client_01.json", "client_02.json"]))
    if kind == "non-finite":
        paths = [p for p, v in nodes(docs[client]) if is_number(v)]
        path = draw(st.sampled_from(paths))
        parent_of(docs[client], path)[path[-1]] = draw(NON_FINITE)
    elif kind == "ragged":
        matrices = [p for p, v in nodes(docs[client])
                    if isinstance(v, list) and v and isinstance(v[0], list)]
        path = draw(st.sampled_from(matrices))
        matrix = parent_of(docs[client], path)[path[-1]]
        row = matrix[draw(st.integers(0, len(matrix) - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(0.5)
    else:
        name = draw(st.sampled_from(sorted(docs)))
        path = draw(st.sampled_from([p for p, _ in nodes(docs[name])]))
        parent = parent_of(docs[name], path)
        if kind == "delete":
            del parent[path[-1]]
        else:
            old = parent[path[-1]]
            parent[path[-1]] = draw(OTHER_VALUES.filter(
                lambda new: type(new) is not type(old)))
    return docs, kind


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_mutated_federation_ends_in_a_documented_exit_code(federation, data):
    config, data_dir, docs = federation
    mutated, kind = mutate(docs, data.draw)
    with tempfile.TemporaryDirectory() as scratch:
        fed = Path(scratch) / "fed"
        shutil.copytree(data_dir, fed)
        for name, doc in mutated.items():
            (fed / name).write_text(json.dumps(doc))
        code = cli.main(["run", "--config", str(config), "--data", str(fed),
                         "--out", str(Path(scratch) / "out")])
    assert code in DOCUMENTED_EXIT_CODES
    if kind == "non-finite":
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
