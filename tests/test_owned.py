"""The one rule by which a checked value holds an array: ``errors.owned``.

A value type checks an array once and then treats it as fixed, so no later
write through the caller's array, or through an array under it, may change
the value, and the caller's array is never frozen. A producer inside fedsim
that freezes an array it has just built hands it over without a copy.
"""
from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from fedsim import data, detection, errors
from fedsim.aggregation import AggregatorState
from fedsim.data import LabeledSet, generate_federation, load_federation, save_federation
from fedsim.detection import (BoxTable, MatchResult, load_detections, load_ground_truths,
                              match_detections)
from fedsim.errors import owned
from fedsim.models import TaskModel
from fedsim.params import ParamVector
from fedsim.training import RoundUpdates, TrainerConfig, train_clients


def frozen(array):
    array.flags.writeable = False
    return array


def root(array):
    """The object at the end of an array's ``.base`` chain."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array


class TestRule:
    def test_read_only_array_with_no_base_is_kept(self):
        array = frozen(np.arange(3.0))
        assert owned(array) is array

    def test_read_only_view_of_a_read_only_array_is_kept(self):
        array = frozen(np.arange(3.0))[1:]
        assert owned(array) is array

    def test_read_only_view_of_bytes_is_kept(self):
        array = np.frombuffer(bytes(48), "<f8").reshape(2, 3)
        assert owned(array) is array and isinstance(root(array), bytes)

    @pytest.mark.parametrize("make", [
        lambda: np.arange(3.0),
        lambda: frozen(np.arange(3.0)[:]),  # a read-only view of a writable base
        lambda: frozen(np.arange(6.0).reshape(2, 3).T.copy(order="F")),
        lambda: frozen(np.frombuffer(bytearray(24), "<f8")),
    ], ids=["writable", "view-of-writable", "fortran", "bytearray"])
    def test_anything_else_is_a_read_only_c_contiguous_copy(self, make):
        array = make()
        writeable = array.flags.writeable
        got = owned(array)
        assert got is not array and not np.shares_memory(got, array)
        assert np.array_equal(got, array) and got.dtype == array.dtype
        assert got.flags.c_contiguous and not got.flags.writeable
        assert array.flags.writeable == writeable  # the caller's array is untouched


# (type.field, a fresh valid array, the value built from an array in that field)
CHECKED = [
    ("ParamVector.values", lambda: np.arange(3.0),
     lambda a: ParamVector(a, (("w", (3,)),))),
    ("LabeledSet.features", lambda: np.zeros((2, 3)),
     lambda a: LabeledSet(a, np.array([0, 1]))),
    ("LabeledSet.labels", lambda: np.array([0, 1]),
     lambda a: LabeledSet(np.zeros((2, 3)), a)),
    ("RoundUpdates.block", lambda: np.zeros((2, 3)),
     lambda a: RoundUpdates((1, 2), a, np.array([4, 4]), np.zeros((1, 2)), (("w", (3,)),))),
    ("RoundUpdates.sample_counts", lambda: np.array([4, 4]),
     lambda a: RoundUpdates((1, 2), np.zeros((2, 3)), a, np.zeros((1, 2)), (("w", (3,)),))),
    ("RoundUpdates.loss_traces", lambda: np.zeros((1, 2)),
     lambda a: RoundUpdates((1, 2), np.zeros((2, 3)), np.array([4, 4]), a, (("w", (3,)),))),
    ("AggregatorState.momentum", lambda: np.zeros(3), lambda a: AggregatorState(a)),
    ("AggregatorState.second_moment", lambda: np.ones(3),
     lambda a: AggregatorState(second_moment=a)),
    ("BoxTable.boxes", lambda: np.array([[0.0, 0.0, 1.0, 1.0]]),
     lambda a: BoxTable(["a"], ["c"], a, np.array([0.5]))),
    ("BoxTable.confidences", lambda: np.array([0.5]),
     lambda a: BoxTable(["a"], ["c"], np.array([[0.0, 0.0, 1.0, 1.0]]), a)),
    ("MatchResult.labels", lambda: np.array([True, False]), lambda a: MatchResult(a, 1)),
    # a hand-built order was once kept as given, writable and uncopied
    ("MatchResult.order", lambda: np.array([1, 0], dtype=np.intp),
     lambda a: MatchResult(np.array([True, False]), 1, a)),
]


@pytest.mark.parametrize("field, make, build", CHECKED, ids=[c[0] for c in CHECKED])
@pytest.mark.parametrize("given", ["writable", "read-only-view"])
def test_a_later_write_never_changes_a_checked_value(field, make, build, given):
    # a NaN written into a BoxTable's boxes after it was built once turned
    # evaluate_detections' mean_ap from 1.0 into 0.0, with no error
    base = make()
    array = base if given == "writable" else frozen(base[...])
    value = getattr(build(array), field.split(".")[1])
    before = value.copy()
    if array.flags.writeable:
        array[...] = array + 1  # a bool array's False turns True
    base[...] = base + 1
    assert np.array_equal(value, before) and not value.flags.writeable
    assert base.flags.writeable and array.flags.writeable == (given == "writable")


@pytest.mark.parametrize("field, make, build", CHECKED, ids=[c[0] for c in CHECKED])
@pytest.mark.parametrize("copier", [lambda obj: pickle.loads(pickle.dumps(obj)),
                                    copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_copied_record_holds_read_only_arrays(field, make, build, copier):
    # unpickling once skipped __post_init__, so a copy came back writable
    value = build(make())
    copied = copier(value)
    array = getattr(copied, field.split(".")[1])
    assert copied == value and not array.flags.writeable and array.flags.c_contiguous


def kept(module, monkeypatch):
    """Spy on ``module``'s ``owned``: a list of whether each call kept its
    array. ``errors.held`` looks ``owned`` up in ``errors``."""
    calls = []

    def spy(array, owned=errors.owned):
        result = owned(array)
        calls.append(result is array)
        return result

    monkeypatch.setattr(module, "owned", spy)
    return calls


def test_load_federation_hands_over_views_of_the_file_bytes(tmp_path, monkeypatch):
    save_federation(generate_federation(num_clients=2, split=(4, 2, 2), input_dim=3),
                    tmp_path)
    calls = kept(data, monkeypatch)
    clients = load_federation(tmp_path)
    assert calls == [True] * 12
    for split in (getattr(c, name) for c in clients for name in data.SPLITS):
        assert isinstance(root(split.features), bytes)
        assert isinstance(root(split.labels), bytes)


def test_round_updates_keep_the_block_that_training_built(monkeypatch):
    model = TaskModel(input_dim=3, num_classes=2)
    clients = {c.client_id: c.train for c in generate_federation(
        num_clients=3, split=(4, 2, 2), input_dim=3, num_classes=2)}
    calls = kept(errors, monkeypatch)
    updates = train_clients(model, model.init_weights(0), clients, TrainerConfig(epochs=1))
    assert calls[0] and updates.block.base is None  # the block comes first


def test_match_result_keeps_the_labels_that_matching_built(monkeypatch):
    truths = BoxTable(["a"], ["c"], np.array([[0.0, 0.0, 1.0, 1.0]]))
    detections = BoxTable(["a"] * 2, ["c"] * 2, np.array([[0.0, 0.0, 1.0, 1.0]] * 2),
                          np.array([0.5, 0.9]))
    calls, order_calls = kept(detection, monkeypatch), kept(errors, monkeypatch)
    match = match_detections(detections, truths)
    assert calls[-1] and match.labels.base is None  # the labels come last
    assert order_calls == [True] and match.order.base is None
    assert match.labels.tolist() == [False, True] and match.order.tolist() == [1, 0]


@pytest.mark.parametrize("load, line", [
    (load_ground_truths, "a c 0 0 1 1\n"), (load_detections, "a c 0.5 0 0 1 1\n")])
def test_a_loaded_table_keeps_the_loader_columns(tmp_path, monkeypatch, load, line):
    path = tmp_path / "records.txt"
    path.write_text(line * 3)
    calls = kept(errors, monkeypatch)
    table = load(path)
    assert calls == [True] * (2 if table.confidences is not None else 1)
    assert table.boxes.tolist() == [[0.0, 0.0, 1.0, 1.0]] * 3
