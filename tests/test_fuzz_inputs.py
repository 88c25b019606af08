"""Mutation fuzzing of the federation, checkpoint and config readers.

A malformed federation file must end ``fedsim run --data`` with a
documented exit code (0, 2, 3 or 4) and never with an exception. One that
is truncated, holds a non-finite feature, or lacks or mistypes a header key
outside its metadata must end it with 2. A damaged checkpoint must make
``load_checkpoint`` raise a ``FedsimError`` subclass and nothing else. A
mutated config dict must be rejected with a ``ConfigError`` or build every
object a subcommand builds from it. Every argument slot of a public function,
a ``TaskModel`` method, a config type or a checked value type takes None and
``object()``: a slot annotated ``| None`` accepts None, and every other
draw, and each wrong value drawn for a slot with a value rule, raises a
``FedsimError`` subclass. The few public classes and functions left out are
exempt by name, with their reason. All run under the derandomized profile
from conftest.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import math
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim
from fedsim import cli, training
from fedsim.aggregation import AggregatorState, FedOptConfig, aggregate
from fedsim.config import ExperimentConfig
from fedsim.data import (ClientDataset, HeterogeneityConfig, LabeledSet,
                         generate_federation, load_federation, save_federation)
from fedsim.detection import (Box, BoxTable, Detection, DetectionReport, GroundTruth,
                              MatchResult, average_precision, evaluate_detections,
                              iou, match_detections)
from fedsim.errors import ConfigError, FedsimError, ShapeError
from fedsim.models import TaskModel
from fedsim.orchestration import (RoundSchedule, run_federated,
                                  run_global_baseline, run_local_baseline)
from fedsim.params import (ParamVector, coordinate_median, l2_distance, load_checkpoint,
                           save_checkpoint, weighted_sum)
from fedsim.training import RoundUpdates, TrainerConfig, train, train_clients

# Two clients, one round of one epoch, on 4-wide features: a run takes a
# few milliseconds, so each example is one full in-process CLI call.
CONFIG = {"num_clients": 2, "split": [6, 3, 3], "input_dim": 4,
          "num_classes": 3, "rounds": 1, "epochs_per_round": 1,
          "total_epochs": 1, "batch_size": 4, "seed": 1}
DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}


@pytest.fixture(scope="module")
def federation(tmp_path_factory):
    """(config path, the bytes of the federation file that gen-data wrote)."""
    root = tmp_path_factory.mktemp("fuzz_federation")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    data_dir = root / "fed"
    assert cli.main(["gen-data", "--config", str(config),
                     "--out", str(data_dir)]) == 0
    assert [p.name for p in data_dir.iterdir()] == ["federation.bin"]
    return config, (data_dir / "federation.bin").read_bytes()


def split_header(raw):
    """(header dict, payload offset) of a federation file's bytes."""
    (size,) = struct.unpack_from("<Q", raw)
    return json.loads(raw[8:8 + size]), 8 + size


def feature_offsets(raw):
    """The byte offset of every feature value in a federation file."""
    header, offset = split_header(raw)
    out, width = [], header["width"]
    for entry in header["clients"]:
        for split in ("train", "val", "test"):
            n = entry["rows"][split]
            out.extend(range(offset, offset + 8 * n * width, 8))
            offset += 8 * n * (width + 1)
    return out


def run_with(federation, raw):
    """Exit code of ``fedsim run --data`` on a federation file of ``raw``."""
    config, _ = federation
    with tempfile.TemporaryDirectory() as scratch:
        fed = Path(scratch) / "fed"
        fed.mkdir()
        (fed / "federation.bin").write_bytes(raw)
        return cli.main(["run", "--config", str(config), "--data", str(fed),
                         "--out", str(Path(scratch) / "out")])


def test_every_truncated_federation_file_is_a_config_error(federation):
    _, raw = federation
    for end in range(len(raw)):
        assert run_with(federation, raw[:end]) == 2, end
    assert run_with(federation, raw) == 0


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_flipped_federation_bytes_end_in_a_documented_exit_code(federation, data):
    _, raw = federation
    _, payload_at = split_header(raw)
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
    code = run_with(federation, bytes(mutated))
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
def test_mutated_header_key_ends_in_a_documented_exit_code(federation, data):
    """A deleted or retyped header key is exit 2; one under ``metadata`` may
    also be ignored (a run compares only the generator fields there, and a
    file without metadata is not checked)."""
    _, raw = federation
    doc, payload_at = split_header(raw)
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
    code = run_with(federation, struct.pack("<Q", len(encoded)) + encoded
                    + raw[payload_at:])
    assert code in DOCUMENTED_EXIT_CODES
    if path[0] != "metadata":
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


# ---------------------------------------------------------------------------
# Library arguments

# Two clients of 6/3/3 rows on 4-wide features, so that a run function
# reaches its argument checks at once.
FUZZ_MODEL = TaskModel(input_dim=4, num_classes=3)
FUZZ_CLIENTS = generate_federation(num_clients=2, split=(6, 3, 3), seed=1,
                                   input_dim=4, num_classes=3)
FUZZ_WEIGHTS = FUZZ_MODEL.init_weights(0)
FUZZ_BATCH = {"x": np.zeros((2, 4)), "y": np.array([0, 1])}
# six rows, as each fuzzed client's train split: a label of -1 or 3, or 3 or
# 5 columns
WRONG_SPLITS = [LabeledSet(np.zeros((6, 4)), [0, 1, 2, 0, 1, label]) for label in (-1, 3)] + [
    LabeledSet(np.zeros((6, width)), [0, 1, 2, 0, 1, 2]) for width in (3, 5)]
UNIT_BOX = np.array([[0.0, 0.0, 1.0, 1.0]])
FUZZ_TRUTHS = BoxTable(["a"], ["c"], UNIT_BOX)
FUZZ_UPDATES = train_clients(FUZZ_MODEL, FUZZ_WEIGHTS,
                             {c.client_id: c.train for c in FUZZ_CLIENTS},
                             TrainerConfig(epochs=1))
# Stands in CALLS for the fuzz_dir fixture's directory.
FUZZ_DIR = Path("<fuzz_dir>")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory that holds FUZZ_CLIENTS' federation."""
    directory = tmp_path_factory.mktemp("fuzz_arguments")
    save_federation(FUZZ_CLIENTS, directory)
    return directory


# (callable, valid positional arguments, valid keyword arguments); every
# slot takes None and object(), and the slots of RUN_ARGUMENTS also a drawn
# wrong value
CALLS = [
    (ExperimentConfig, (), {}),
    (TrainerConfig, (), {"epochs": 1}),
    (RoundSchedule, (), {"rounds": 3, "epochs_per_round": 2}),
    (HeterogeneityConfig, (), {}),
    (FedOptConfig, (), {}),
    (TaskModel, (), {}),
    (run_federated, (FUZZ_MODEL, FUZZ_CLIENTS, RoundSchedule(1, 1)), {}),
    (run_local_baseline, (FUZZ_MODEL, FUZZ_CLIENTS), {"total_epochs": 1}),
    (run_global_baseline, (FUZZ_MODEL, FUZZ_CLIENTS), {"total_epochs": 1}),
    (generate_federation, (), {}),
    (TaskModel.init_weights, (FUZZ_MODEL,), {}),
    (TaskModel.predict_proba, (FUZZ_MODEL, FUZZ_WEIGHTS), {"x": FUZZ_BATCH["x"]}),
    (TaskModel.loss_and_gradient, (FUZZ_MODEL, FUZZ_WEIGHTS), FUZZ_BATCH),
    (TaskModel.evaluate_accuracy, (FUZZ_MODEL, FUZZ_WEIGHTS), FUZZ_BATCH),
    (ParamVector, (), {"values": np.zeros(2), "manifest": (("w", (2,)),)}),
    (LabeledSet, (), {"features": np.zeros((2, 3)), "labels": np.array([0, 1])}),
    (Box, (), {"x_min": 0.0, "y_min": 0.0, "x_max": 1.0, "y_max": 1.0}),
    (Detection, (), {"image_id": "a", "class_id": "c", "confidence": 0.5,
                     "box": Box(0.0, 0.0, 1.0, 1.0)}),
    (GroundTruth, (), {"image_id": "a", "class_id": "c", "box": Box(0.0, 0.0, 1.0, 1.0)}),
    (BoxTable, (), {"image_ids": ["a"], "class_ids": ["c"], "boxes": UNIT_BOX,
                    "confidences": np.array([0.5])}),
    (AggregatorState, (), {"momentum": np.zeros(2), "second_moment": np.ones(2)}),
    (average_precision, (), {"labels_by_confidence": [True, False],
                             "num_ground_truths": 2}),
    (MatchResult, (), {"labels": np.array([True, False]), "num_ground_truths": 2}),
    (match_detections, ([], FUZZ_TRUTHS), {}),
    (evaluate_detections, ([], FUZZ_TRUTHS), {}),
    (weighted_sum, (np.ones((2, 3)),), {"weights": [1.0, 1.0]}),
    (train, (FUZZ_MODEL,), {"initial": FUZZ_WEIGHTS, "data": FUZZ_CLIENTS[0].train,
                            "cfg": TrainerConfig(epochs=1)}),
    (train_clients, (FUZZ_MODEL,), {
        "initial": FUZZ_WEIGHTS, "clients": {c.client_id: c.train for c in FUZZ_CLIENTS},
        "cfg": TrainerConfig(epochs=1)}),
    (aggregate, ("fedavg", FUZZ_WEIGHTS, FUZZ_UPDATES), {}),
    (RoundUpdates, (), {f.name: getattr(FUZZ_UPDATES, f.name)
                        for f in dataclasses.fields(RoundUpdates)}),
    (iou, (Box(0.0, 0.0, 1.0, 1.0), Box(0.0, 0.0, 2.0, 2.0)), {}),
    (l2_distance, (FUZZ_WEIGHTS, FUZZ_WEIGHTS), {}),
    (coordinate_median, (np.ones((2, 3)),), {}),
    (save_checkpoint, (FUZZ_WEIGHTS, FUZZ_DIR), {}),
    (load_checkpoint, (FUZZ_DIR,), {}),
    (save_federation, (FUZZ_CLIENTS, FUZZ_DIR), {}),
    (load_federation, (FUZZ_DIR,), {}),
    (ClientDataset, (1, *(FUZZ_CLIENTS[0].train,) * 3), {}),
    (DetectionReport, (), dict(iou_threshold=0.5, eleven_point=False,
                               per_class_ap={"c": 0.5}, mean_ap=0.5, precision=0.5,
                               recall=0.25, true_positives=1, false_positives=1,
                               num_ground_truths=4)),
    (TaskModel.check_data, (FUZZ_MODEL, FUZZ_WEIGHTS, FUZZ_BATCH["x"]), {}),
    (ExperimentConfig.with_schedule, (ExperimentConfig(), RoundSchedule(5, 30)), {}),
    (ExperimentConfig.from_json_file, (FUZZ_DIR,), {}),
]
RUN_ARGUMENTS = {
    run_federated: ("seed", "batch_size", "learning_rate", "prox_mu", "fedopt"),
    run_local_baseline: ("seed", "batch_size", "learning_rate", "total_epochs"),
    run_global_baseline: ("seed", "batch_size", "learning_rate", "total_epochs"),
    generate_federation: ("num_clients", "split", "heterogeneity", "seed",
                          "input_dim", "num_classes"),
    TaskModel.init_weights: ("seed",),
    TaskModel.predict_proba: ("x",),
    TaskModel.loss_and_gradient: ("x", "y"),
    TaskModel.evaluate_accuracy: ("x", "y"),
    Detection: ("image_id", "class_id", "confidence"),
    GroundTruth: ("image_id", "class_id"),
    BoxTable: ("image_ids", "class_ids", "boxes", "confidences"),
    average_precision: ("labels_by_confidence", "num_ground_truths", "eleven_point"),
    MatchResult: ("labels",),
    match_detections: ("iou_threshold",),
    evaluate_detections: ("iou_threshold", "eleven_point"),
    weighted_sum: ("weights",),
    train: ("initial", "data"),
    train_clients: ("initial", "clients"),
    # an id or a count without a range rule: a negative one is a valid value
    ClientDataset: (),
    DetectionReport: (),
}
DRAW = object()  # a wrong value is drawn for the slot


def drawn(call) -> tuple[str, ...]:
    """The slots that also take drawn wrong values: RUN_ARGUMENTS', or
    every field of a record."""
    if call in RUN_ARGUMENTS:
        return RUN_ARGUMENTS[call]
    return tuple(f.name for f in dataclasses.fields(call)) if inspect.isclass(call) else ()


ARGUMENTS = [
    pytest.param(call, args, kwargs, name,
                 "" if parameter.annotation is parameter.empty else parameter.annotation,
                 value, id=f"{call.__name__}.{name}{label}")
    for call, args, kwargs in CALLS
    for name, parameter in inspect.signature(call).parameters.items() if name != "self"
    for label, value in [("-None", None), ("-object", object())]
    + ([("", DRAW)] if name in drawn(call) else [])]

NOT_A_NUMBER = st.one_of(st.text(max_size=3), st.booleans())
NUMPY_INTEGER = st.integers(-3, 9).map(np.int64)  # an integer, but not an int
BEYOND_FLOAT = st.integers(10 ** 399, 10 ** 400 - 1).map(
    lambda n: n * (-1) ** (n % 2))  # 400 digits, either sign
WRONG_VALUES = {
    "int": st.one_of(NOT_A_NUMBER, st.floats(), st.integers(max_value=-1),
                     NUMPY_INTEGER),
    "float": st.one_of(NOT_A_NUMBER, BEYOND_FLOAT,
                       st.sampled_from([math.nan, math.inf, -math.inf])),
    "bool": st.one_of(st.text(max_size=3), st.integers(), st.floats()),
    "str": st.one_of(st.integers(), st.floats(), st.booleans(),
                     st.sampled_from(["", "bogus"])),
    # ExperimentConfig.split: not three positive integer counts
    "tuple[int, int, int]": st.one_of(
        NOT_A_NUMBER, st.integers(), st.lists(st.integers(1, 9)).filter(
            lambda counts: len(counts) != 3),
        st.tuples(st.one_of(NOT_A_NUMBER, st.floats(), st.integers(max_value=0),
                            NUMPY_INTEGER),
                  st.integers(1, 9), st.integers(1, 9)).flatmap(st.permutations)),
}


def box_ok(box):
    """The box rule, written out: positive sides and a finite positive area."""
    x0, y0, x1, y1 = box
    return x0 < x1 and y0 < y1 and 0.0 < (x1 - x0) * (y1 - y0) < math.inf


def pairs_of(values):
    return st.lists(values, min_size=2, max_size=2)


# Arguments that are not a plain number or string, by test id: every value
# breaks the argument's own rule, and no argument is ever cast.
NOT_A_STR = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                      st.binary(max_size=2))
# another length than the table's one row, an id that is not a str, or not a
# list or tuple
ID_LISTS = st.one_of(
    st.lists(st.text(max_size=2) | NOT_A_STR, max_size=3).filter(
        lambda ids: len(ids) != 1 or not isinstance(ids[0], str)).flatmap(
        lambda ids: st.sampled_from([ids, tuple(ids)])),
    st.sampled_from(["a", None, {"a"}, iter(["a"])]))
WRONG_ARGUMENTS = {
    # a value is not an integer or float, or one is not finite, or the count is off
    "ParamVector.values": st.one_of(
        pairs_of(st.text(max_size=2)), pairs_of(st.booleans()), pairs_of(NON_FINITE),
        st.sampled_from([None, [1 + 2j, 0], [0.0], [0.0, 0.0, 0.0]])),
    # one segment whose name is not a str, or whose dims hold a wrong value
    "ParamVector.manifest": st.one_of(
        st.one_of(st.integers(), st.floats(), st.booleans(), st.none()).map(
            lambda name: ((name, (2,)),)),
        st.one_of(WRONG_VALUES["int"].map(lambda dim: (dim,)),
                  st.sampled_from([None, 2, "2", {2: 2}])).map(
            lambda dims: (("w", dims),))),
    "LabeledSet.features": st.sampled_from([
        np.full((2, 3), "1"), np.ones((2, 3), dtype=bool), np.full((2, 3), None),
        np.zeros(2), np.zeros((3, 3))]),
    "LabeledSet.labels": st.one_of(
        pairs_of(st.floats()), pairs_of(st.text(max_size=2)), pairs_of(st.booleans()),
        st.sampled_from([None, [0], [0, 1, 2], [[0, 1]]])),
    # a model's features: a bool, string, object or complex array, never
    # cast, or rows of another width than the model's 4
    **dict.fromkeys(["predict_proba.x", "loss_and_gradient.x", "evaluate_accuracy.x"],
                    st.sampled_from([np.ones((2, 4), dtype=bool), np.full((2, 4), "1"),
                                     np.full((2, 4), 1.0, dtype=object), np.full((2, 4), 1j),
                                     [[True] * 4] * 2, [["0"] * 4] * 2,
                                     np.zeros((2, 5)), np.zeros((2, 3)), np.zeros(4)])),
    # labels for the two rows of x: another count or shape, not integers, or
    # outside the model's classes [0, 3)
    **dict.fromkeys(["loss_and_gradient.y", "evaluate_accuracy.y"],
                    st.sampled_from([np.zeros(3, dtype=int), np.zeros((1, 2), dtype=int),
                                     np.array([0.0, 1.0]), np.array([True, False]),
                                     np.array(["0", "1"]), np.array([0, 3]),
                                     np.array([-1, 0]), None, 0])),
    # weights of another model, or a training split with a label outside the
    # model's classes [0, 3) or rows of another width than its 4; a label of
    # -1 once trained on another row's logit, and the rest ended in a bare
    # IndexError or ValueError
    **dict.fromkeys(["train.initial", "train_clients.initial"], st.sampled_from(
        [TaskModel(input_dim=4, num_classes=2).init_weights(0),
         TaskModel(input_dim=4, num_classes=3, architecture="one_hidden_layer")
         .init_weights(0)])),
    "train.data": st.sampled_from(WRONG_SPLITS),
    # the other client is valid, and of the same size, so the two would stack
    "train_clients.clients": st.sampled_from(WRONG_SPLITS).flatmap(
        lambda bad: st.sampled_from([{1: bad, 2: FUZZ_CLIENTS[1].train},
                                     {1: FUZZ_CLIENTS[0].train, 2: bad}])),
    # a slot that is not finite, not an array, or another dtype or shape than
    # the other slot's (2,) float64
    **dict.fromkeys(["AggregatorState.momentum", "AggregatorState.second_moment"],
                    st.one_of(
                        st.sampled_from([[0.0, 0.0], 0.0, np.zeros(2, dtype=np.float32),
                                         np.zeros((1, 2)), np.zeros(3)]),
                        NON_FINITE.map(lambda bad: np.array([0.0, bad])))),
    **dict.fromkeys(["Detection.image_id", "Detection.class_id",
                     "GroundTruth.image_id", "GroundTruth.class_id"], NOT_A_STR),
    "BoxTable.image_ids": ID_LISTS,
    "BoxTable.class_ids": ID_LISTS,
    "BoxTable.boxes": st.one_of(
        st.tuples(*[st.floats()] * 4).filter(lambda box: not box_ok(box)).map(
            lambda box: np.array([box])),
        st.sampled_from([np.zeros((1, 3)), np.zeros((2, 4)), np.array([[0, 0, 1, 1]]),
                         [[0.0, 0.0, 1.0, 1.0]], None])),
    "BoxTable.confidences": st.one_of(
        st.floats().filter(lambda c: not 0.0 <= c <= 1.0).map(lambda c: np.array([c])),
        st.sampled_from([np.array([0.5, 0.5]), np.array([1]), [0.5]])),
    # for the block's two rows: not numbers, not finite, negative, another
    # count, all zero, or a sum past the float range
    "weighted_sum.weights": st.one_of(
        pairs_of(st.text(max_size=2)), pairs_of(st.booleans()), pairs_of(NON_FINITE),
        pairs_of(st.floats(max_value=-1e-300, allow_infinity=False)),
        st.sampled_from([None, [1.0], [1.0, 1.0, 1.0], [0, 0], [1e308, 1e308],
                         [sys.float_info.max] * 2])),
    # a round of two clients whose ids are not a tuple of ints, or whose
    # arrays are lists or of another dtype; each once ended in a bare
    # TypeError or AttributeError, or was kept as given
    "RoundUpdates.client_ids": st.sampled_from(
        [[1, 2], ("a", "b"), (1.0, 2.0), (True, 2), (np.int64(1), np.int64(2))]),
    **{f"RoundUpdates.{name}": st.sampled_from([array.tolist(), *map(array.astype, dtypes)])
       for name, array, dtypes in [
           ("block", FUZZ_UPDATES.block, (np.float32, np.int64)),
           ("sample_counts", FUZZ_UPDATES.sample_counts, (np.float64, np.int32)),
           ("loss_traces", FUZZ_UPDATES.loss_traces, (np.float32, np.int64))]},
    # the manifest rule: a tuple or list of (str name, int dims) pairs,
    # here of the block's size
    "RoundUpdates.manifest": st.sampled_from(
        ["w", ((1, (len(FUZZ_WEIGHTS),)),), (("w", (float(len(FUZZ_WEIGHTS)),)),),
         (("w", (np.int64(len(FUZZ_WEIGHTS)),)),)]),
    # not the config type the argument names; a dict of its fields is not one
    "run_federated.fedopt": st.sampled_from([None, {"variant": "adam"}, "adam",
                                             HeterogeneityConfig()]),
    "generate_federation.heterogeneity": st.sampled_from(
        [None, {"label_skew_alpha": 0.3}, 0.3, FedOptConfig()]),
    # the labels rule: a non-empty sequence must be 1-D bool, never cast
    **dict.fromkeys(["average_precision.labels_by_confidence", "MatchResult.labels"],
                    st.one_of(
                        st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=2)),
                                 min_size=1),
                        st.lists(st.integers(), min_size=1).map(np.array),
                        st.lists(st.floats(), min_size=1).map(np.array),
                        st.lists(st.booleans(), min_size=1).map(
                            lambda labels: np.array([labels])),
                        st.sampled_from([None, [[True]], [True, 1]]))),
}
# Every number field must be >= 0 but class_separation (a sign flip of the
# class means) and a Box's lower corners (any value below the fuzzed box's
# x_max = y_max = 1 makes a box).
SIGNED = {"class_separation", "x_min", "y_min"}


def wrong_values(call, name: str, annotation: str):
    if f"{call.__name__}.{name}" in WRONG_ARGUMENTS:
        return WRONG_ARGUMENTS[f"{call.__name__}.{name}"]
    base, _, optional = annotation.partition(" | ")
    values = WRONG_VALUES[base]
    if not optional:
        values |= st.none()
    if base == "float" and name not in SIGNED:
        values |= st.floats(max_value=-1e-300, allow_infinity=False)
    return values


@pytest.mark.parametrize("call, args, kwargs, name, annotation, value", ARGUMENTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_wrong_library_argument_is_a_fedsim_error(call, args, kwargs, name,
                                                    annotation, value, data, fuzz_dir):
    """One argument slot given None, ``object()`` or a drawn wrong value: a
    wrong type (a string, a bool, a float or numpy integer for an int) or an
    out-of-range value (negative, NaN, inf, a 400-digit int). None in a slot
    annotated ``| None`` is accepted; anything else raises a FedsimError
    subclass, never a bare TypeError, AttributeError or ValueError.
    """
    if value is DRAW:
        value = data.draw(wrong_values(call, name, annotation), label=name)
    bound = inspect.signature(call).bind_partial(*args, **kwargs)
    for slot, given_value in bound.arguments.items():
        if given_value is FUZZ_DIR:
            bound.arguments[slot] = fuzz_dir
    bound.arguments[name] = value
    if value is None and annotation.endswith(" | None"):
        call(*bound.args, **bound.kwargs)
    else:
        with pytest.raises(FedsimError):
            call(*bound.args, **bound.kwargs)


def test_the_step_loop_is_not_checked():
    """The SGD loop and the step it calls check no argument: a cross-device
    run takes 320 steps, and their arrays pass check_data once per stack."""
    for step in (TaskModel.loss_and_gradient_flat, training._sgd):
        assert not hasattr(step, "__wrapped__"), step.__qualname__


def test_every_public_function_checks_its_arguments():
    """Each public function that takes an argument carries the type rule,
    so an annotation added later is checked without a hand-written check;
    the two block reductions take arrays only, which the rule leaves to
    their own block and weight rules."""
    functions = [getattr(fedsim, name) for name in fedsim.__all__
                 if inspect.isfunction(getattr(fedsim, name))]
    unchecked = {fn.__name__ for fn in functions
                 if inspect.signature(fn).parameters and not hasattr(fn, "__wrapped__")}
    assert unchecked <= {"coordinate_median", "weighted_sum"}


# Public classes and functions that the test above does not fuzz, each with
# the reason.
EXEMPT = {
    **dict.fromkeys(["FedsimError", "ConfigError", "DivergenceError",
                     "EmptyInputError", "NumericError", "ShapeError",
                     "UndefinedMetricError", "ValidationError"],
                    "an exception type: raised, not fed input"),
    # a result record's tuple fields are generic, which the type rule leaves
    # to their readers, and the library is their one reader
    "FederatedResult": "a result record that run_federated builds",
    "LocalBaselineResult": "a result record that run_local_baseline builds",
    "GlobalBaselineResult": "a result record that run_global_baseline builds",
    "schedule_presets": "takes no argument",
}


def test_every_public_class_and_function_is_fuzzed_or_exempt():
    public = {name for name in fedsim.__all__
              if inspect.isclass(getattr(fedsim, name))
              or inspect.isfunction(getattr(fedsim, name))}
    fuzzed = {call.__name__ for call, _, _ in CALLS}
    assert public - fuzzed == set(EXEMPT)  # an exemption never outlives its need
