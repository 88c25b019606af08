"""The 21 value types built by ``errors.record`` against ``dataclass(frozen=True)``.

Each type is compared with an oracle: a class that
``dataclasses.make_dataclass(..., frozen=True)`` builds from the same fields
and the same user methods, so its ``__init__``, ``__repr__``, ``__eq__``,
``__hash__``, ``__setattr__`` and ``__delattr__`` are the generated ones. On
sample values the two must agree in every outcome, an exception included.
The one departure is ``__eq__`` on a type with an array field: the generated
one compares field tuples, which asks an array of several values for one
truth value and raises, so there the oracle compares each array by its
shape and values.
A guard pins the start-up saving: no fedsim dataclass carries a generated
method, and no ``@dataclass`` decorator is left in the source.
"""
from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import pickle
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fedsim.cli  # noqa: F401  (loads every fedsim module)
from fedsim.aggregation import AggregatorState, FedOptConfig
from fedsim.config import ExperimentConfig
from fedsim.data import ClientDataset, HeterogeneityConfig, LabeledSet
from fedsim.detection import (Box, BoxTable, Detection, DetectionReport, GroundTruth,
                              MatchResult)
from fedsim.errors import record
from fedsim.models import TaskModel
from fedsim.orchestration import (FederatedResult, GlobalBaselineResult,
                                  LocalBaselineResult, RoundRecord, RoundSchedule)
from fedsim.params import ParamVector
from fedsim.training import RoundUpdates, TrainerConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "fedsim"


def frozen(array):
    array.flags.writeable = False
    return array


def samples(cls) -> list[dict]:
    """Two sets of keyword arguments for ``cls``; arrays are fresh each call."""
    w3 = ParamVector(np.arange(3.0), (("w", (3,)),))
    rec = RoundRecord(1, 0.5, (0.5, 0.25), 3, 0.01)
    split = LabeledSet(np.zeros((2, 3)), np.array([0, 1]))
    return {
        FedOptConfig: [{}, {"variant": "yogi", "beta1": 0.5}],
        AggregatorState: [{"momentum": frozen(np.zeros(3)),
                           "second_moment": frozen(np.ones(3))},
                          {"second_moment": frozen(np.ones(3))}],
        ExperimentConfig: [{}, {"seed": 3, "split": [20, 7, 7]}],
        HeterogeneityConfig: [{}, {"label_skew_alpha": 1.0}],
        LabeledSet: [{"features": np.zeros((2, 3)), "labels": np.array([0, 1])},
                     {"features": np.ones((1, 1)), "labels": np.array([1])}],
        ClientDataset: [{"client_id": 1, "train": split, "val": split, "test": split},
                        {"client_id": 2, "train": split, "val": split, "test": split}],
        Box: [{"x_min": 0.0, "y_min": 0.0, "x_max": 1.0, "y_max": 2.0},
              {"x_min": 1, "y_min": -1.5, "x_max": 3, "y_max": 3.0}],
        GroundTruth: [{"image_id": "a", "class_id": "c", "box": Box(0, 0, 1, 1)},
                      {"image_id": "b", "class_id": "c", "box": Box(0, 0, 2, 1)}],
        Detection: [{"image_id": "a", "class_id": "c", "confidence": 0.5,
                     "box": Box(0, 0, 1, 1)},
                    {"image_id": "a", "class_id": "d", "confidence": 1,
                     "box": Box(0, 0, 1, 1)}],
        BoxTable: [{"image_ids": ["a"], "class_ids": ["c"],
                    "boxes": np.array([[0.0, 0.0, 1.0, 1.0]]), "confidences": np.array([0.5])},
                   {"image_ids": ("a", "b"), "class_ids": ("c", "c"),
                    "boxes": np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0]]),
                    "confidences": None}],
        MatchResult: [{"labels": np.array([True, False]), "num_ground_truths": 2,
                       "order": frozen(np.array([1, 0]))},
                      {"labels": np.array([True]), "num_ground_truths": 1,
                       "order": frozen(np.array([0]))}],
        DetectionReport: [dict(iou_threshold=0.5, eleven_point=False,
                               per_class_ap={"c": 0.5}, mean_ap=0.5,
                               precision=0.5, recall=0.25, true_positives=1,
                               false_positives=1, num_ground_truths=4),
                          dict(iou_threshold=0.75, eleven_point=True, per_class_ap={},
                               mean_ap=0.0, precision=0.0, recall=0.0, true_positives=0,
                               false_positives=2, num_ground_truths=1)],
        TaskModel: [{}, {"architecture": "one_hidden_layer", "input_dim": 3}],
        RoundSchedule: [{"rounds": 3, "epochs_per_round": 2},
                        {"rounds": 1, "epochs_per_round": 1, "patience": 2}],
        RoundRecord: [dict(round_number=1, val_accuracy=0.5, client_val_accuracies=(0.5,),
                           cumulative_epochs=3, duration_s=0.01),
                      dict(round_number=2, val_accuracy=0.75, client_val_accuracies=(),
                           cumulative_epochs=6, duration_s=0.02)],
        FederatedResult: [dict(strategy="fedavg", seed=0, final_weights=w3, rounds=(rec,),
                               test_accuracy=0.5, client_test_accuracies=(0.5, 0.5),
                               client_ids=(1, 2), client_loss_traces=((1.0,), (2.0,)),
                               total_duration_s=0.1),
                          dict(strategy="fedopt", seed=1, final_weights=w3, rounds=(),
                               test_accuracy=0.25, client_test_accuracies=(),
                               client_ids=(), client_loss_traces=(),
                               total_duration_s=0.0)],
        LocalBaselineResult: [dict(seed=0, client_ids=(1,), final_weights=(w3,),
                                   client_test_accuracies=(0.5,), mean_test_accuracy=0.5,
                                   client_loss_traces=((1.0,),), total_duration_s=0.1),
                              dict(seed=2, client_ids=(), final_weights=(),
                                   client_test_accuracies=(), mean_test_accuracy=0.0,
                                   client_loss_traces=(), total_duration_s=0.0)],
        GlobalBaselineResult: [dict(seed=0, client_ids=(1,), final_weights=w3,
                                    test_accuracy=0.5, client_test_accuracies=(0.5,),
                                    loss_trace=(1.0, 0.5), total_duration_s=0.1),
                               dict(seed=0, client_ids=(1,), final_weights=w3,
                                    test_accuracy=0.5, client_test_accuracies=(0.5,),
                                    loss_trace=(), total_duration_s=0.1)],
        ParamVector: [{"values": np.arange(3.0), "manifest": (("w", (3,)),)},
                      {"values": np.ones(1), "manifest": [("b", [1])]}],
        TrainerConfig: [{"epochs": 2}, {"epochs": 1, "seed": 4, "prox_mu": 0.5}],
        RoundUpdates: [dict(client_ids=(1, 2), block=np.zeros((2, 3)),
                            sample_counts=np.array([2, 3]), loss_traces=np.ones((1, 2)),
                            manifest=(("w", (3,)),)),
                       dict(client_ids=(4,), block=np.ones((1, 1)),
                            sample_counts=np.array([1]), loss_traces=np.ones((0, 1)),
                            manifest=(("b", (1,)),))],
    }[cls]


RECORDS = [FedOptConfig, AggregatorState, ExperimentConfig, HeterogeneityConfig,
           LabeledSet, ClientDataset, Box, GroundTruth, Detection, BoxTable,
           MatchResult, DetectionReport, TaskModel, RoundSchedule, RoundRecord,
           FederatedResult, LocalBaselineResult, GlobalBaselineResult, ParamVector,
           TrainerConfig, RoundUpdates]
GENERATED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")
# The types with an array in a compared field.
ARRAY_FIELDS = (AggregatorState, LabeledSet, BoxTable, MatchResult, ParamVector,
                RoundUpdates)

# The oracles live in a module of their own, so that pickle finds them by
# the qualified name they share with the type they mirror.
ORACLES = types.ModuleType("fedsim_record_oracles")
sys.modules[ORACLES.__name__] = ORACLES


def as_values(obj) -> tuple:
    """``obj``'s compared fields, an array as its shape and its values as
    Python numbers."""
    values = (getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare)
    return tuple((v.shape, v.tolist()) if isinstance(v, np.ndarray) else v
                 for v in values)


def values_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return as_values(self) == as_values(other)


def oracle(cls):
    """``cls``'s fields and user methods in a ``dataclass(frozen=True)``;
    but not the ``__reduce__`` that ``record`` installs, which rebuilds the
    record type. A type with an array field compares by :func:`values_eq`
    and stays unhashable."""
    fields = dataclasses.fields(cls)
    skip = {*GENERATED, "__reduce__", "__signature__", "__dict__", "__weakref__",
            "__module__", "__qualname__", "__annotations__", "__dataclass_fields__",
            "__dataclass_params__", "__match_args__", *(f.name for f in fields)}
    namespace = {k: v for k, v in vars(cls).items()
                 if k not in skip and not k.startswith("_record_")}
    if cls.__doc__.startswith(cls.__name__ + "("):
        del namespace["__doc__"]  # the docstring dataclass writes is under test
    ref = dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default, compare=f.compare,
                                            repr=f.repr, metadata=f.metadata))
         for f in fields],
        namespace=namespace, frozen=True)
    ref.__module__ = ORACLES.__name__
    if cls in ARRAY_FIELDS:
        ref.__eq__ = values_eq  # after the class is made, so __hash__ stays
    setattr(ORACLES, cls.__name__, ref)
    return ref


def outcome(call):
    """``call()``'s value, or its exception's type name and message."""
    try:
        return "returned", call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def positional(cls, kwargs: dict) -> list:
    return [kwargs.get(f.name, f.default) for f in dataclasses.fields(cls)]


def built(cls, pair: list[dict]) -> list:
    """Instances from the same keyword arguments as the other side's."""
    first, second = pair
    return [cls(**first), cls(**first), cls(**second), cls(*positional(cls, second))]


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def pair(request):
    """(record type, its oracle, the record's instances, the oracle's)."""
    cls = request.param
    ref = oracle(cls)
    kwargs = samples(cls)
    return cls, ref, built(cls, kwargs), built(ref, kwargs)


def test_comparison_hash_and_repr_match(pair):
    cls, ref, ours, theirs = pair
    for i, (a, ra) in enumerate(zip(ours, theirs)):
        assert repr(a) == repr(ra)
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ra))
        assert (a == object()) is (ra == object()) is False
        for b, rb in zip(ours[i:], theirs[i:]):
            assert outcome(lambda: a == b) == outcome(lambda: ra == rb)
            assert outcome(lambda: b != a) == outcome(lambda: rb != ra)
    assert outcome(lambda: ours[0] == theirs[0]) == ("returned", False)


@pytest.mark.parametrize("cls", [*ARRAY_FIELDS, ClientDataset, FederatedResult,
                                 LocalBaselineResult, GlobalBaselineResult])
def test_equal_arrays_compare_equal_and_stay_unhashable(cls):
    # == on two equal records holding distinct arrays once raised "The
    # truth value of an array with more than one element is ambiguous"
    first = cls(**samples(cls)[0])
    copied = pickle.loads(pickle.dumps(first))
    assert first == copied and not first != copied
    assert first != cls(**samples(cls)[1])
    with pytest.raises(TypeError):
        hash(first)


def test_an_array_field_compares_by_shape_and_values():
    manifest = (("w", (3,)),)
    assert ParamVector(np.zeros(3), manifest) == ParamVector(np.zeros(3), manifest)
    assert ParamVector(np.zeros(3), manifest) == ParamVector(-np.zeros(3), manifest)
    assert ParamVector(np.zeros(3), manifest) != ParamVector(np.ones(3), manifest)
    assert LabeledSet(np.zeros((2, 3)), [0, 1]) != LabeledSet(np.zeros((2, 2)), [0, 1])
    assert AggregatorState(momentum=frozen(np.zeros(3))) != AggregatorState()
    # MatchResult.order is not compared
    assert MatchResult(np.array([True]), 1, frozen(np.array([0]))) == \
        MatchResult(np.array([True]), 1, frozen(np.array([5])))


def test_fields_are_frozen(pair):
    cls, ref, ours, theirs = pair
    for name in [f.name for f in dataclasses.fields(cls)] + ["not_a_field"]:
        assert outcome(lambda: setattr(ours[0], name, 1)) == \
            outcome(lambda: setattr(theirs[0], name, 1))
        assert outcome(lambda: delattr(ours[0], name)) == \
            outcome(lambda: delattr(theirs[0], name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ours[0], name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ours[0], name)
    assert repr(ours[0]) == repr(theirs[0])


@pytest.mark.parametrize("copier", [lambda obj: pickle.loads(pickle.dumps(obj)),
                                    copy.deepcopy], ids=["pickle", "deepcopy"])
def test_round_trips_match(pair, copier):
    cls, ref, ours, theirs = pair
    for a, ra in zip(ours, theirs):
        copied = copier(a)
        assert type(copied) is cls and repr(copied) == repr(a) == repr(copier(ra))
        assert outcome(lambda: copied == a) == outcome(lambda: copier(ra) == ra)


def test_dataclasses_functions_match(pair):
    cls, ref, ours, theirs = pair
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(ours[0])
    facts = ("name", "type", "default", "default_factory", "init", "repr", "hash",
             "compare", "metadata", "kw_only")
    assert [[getattr(f, fact) for fact in facts] for f in dataclasses.fields(cls)] == \
        [[getattr(f, fact) for fact in facts] for f in dataclasses.fields(ref)]
    assert cls.__match_args__ == ref.__match_args__
    assert repr(dataclasses.asdict(ours[2])) == repr(dataclasses.asdict(theirs[2]))
    changes = samples(cls)[1]
    assert repr(dataclasses.replace(ours[0], **changes)) == \
        repr(dataclasses.replace(theirs[0], **changes))


def test_signature_and_docstring_match(pair):
    cls, ref, _, _ = pair
    assert inspect.signature(cls) == inspect.signature(ref)
    assert str(inspect.signature(cls)) == str(inspect.signature(ref))
    assert cls.__doc__ == ref.__doc__


def test_wrong_arguments_are_type_errors(pair):
    cls, ref, _, _ = pair
    kwargs = samples(cls)[0]
    args = positional(cls, kwargs)
    first = dataclasses.fields(cls)[0].name
    calls = [lambda c: c(*args, 0),                       # extra
             lambda c: c(**kwargs, not_a_field=0),        # unknown
             lambda c: c(args[0], **{first: args[0]})]    # repeated
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING]
    if required:
        calls.append(lambda c: c(**{k: v for k, v in zip(cls.__match_args__, args)
                                    if k != required[-1]}))  # missing
    for call in calls:
        with pytest.raises(TypeError):
            call(ref)
        with pytest.raises(TypeError):
            call(cls)


def test_post_init_patched_on_the_class_runs(monkeypatch):
    seen = []
    post_init = ParamVector.__post_init__

    def counted(vector):
        seen.append(vector)
        post_init(vector)

    ParamVector(np.zeros(1), (("w", (1,)),))
    monkeypatch.setattr(ParamVector, "__post_init__", counted)
    vector = ParamVector(np.zeros(2), (("w", (2,)),))
    assert seen == [vector] and not vector.values.flags.writeable


@pytest.mark.parametrize("spec", [
    {"a": dataclasses.field(default_factory=list), "b": 0},
    {"a": dataclasses.field(default=0, init=False), "b": 0},
    {"a": dataclasses.field(default=0, kw_only=True), "b": 0},
    {"a": dataclasses.field(default=0, hash=False), "b": 0},
    {"a": 0, "b": dataclasses.field(default=0, compare=False)},
], ids=["default_factory", "init", "kw_only", "hash", "one_compared"])
def test_record_refuses_a_field_it_cannot_build(spec):
    namespace = {"__annotations__": dict.fromkeys(spec, "int"), **spec}
    with pytest.raises(TypeError, match="record cannot build"):
        record(type("Bad", (), namespace))


def fedsim_dataclasses() -> list[type]:
    return [obj for name, module in sorted(sys.modules.items())
            if name == "fedsim" or name.startswith("fedsim.")
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == name
            and dataclasses.is_dataclass(obj)]


def test_no_fedsim_dataclass_carries_generated_code():
    """``dataclass`` compiles its methods from text, so their code objects
    name the file ``<string>``; each one costs start-up time."""
    found = fedsim_dataclasses()
    assert sorted(cls.__name__ for cls in found) == sorted(c.__name__ for c in RECORDS)
    generated = [f"{cls.__name__}.{name}" for cls in found
                 for name, value in [*vars(cls).items(),
                                     *((n, getattr(cls, n)) for n in GENERATED)]
                 if getattr(getattr(value, "__code__", None), "co_filename",
                            None) == "<string>"]
    assert generated == []


def test_no_dataclass_decorator_in_the_source():
    def is_dataclass_decorator(node):
        target = node.func if isinstance(node, ast.Call) else node
        return (isinstance(target, ast.Name) and target.id == "dataclass"
                or isinstance(target, ast.Attribute) and target.attr == "dataclass")

    decorated = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and any(map(is_dataclass_decorator, node.decorator_list))]
    assert decorated == []
