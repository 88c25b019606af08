"""Exception types shared across the simulator, the config field check,
:func:`record`, which makes each of the package's value types a frozen
dataclass with one set of methods shared by all of them, and :func:`owned`.

A value type holds each array it has checked as :func:`owned` returns it:
the array itself when it is read-only and C-contiguous and every array under
it (its ``.base`` chain) is read-only, ending in ``None`` or ``bytes``; else
a read-only C-contiguous copy. The caller's array is never frozen or changed,
and no later write through it changes a checked value. A producer that has
just built an array hands it over uncopied by freezing it first. The rule
guards against accidental writes only: numpy lets the holder of a read-only
array with no base set ``writeable`` back to True; memory under ``bytes``
stays read-only."""

from __future__ import annotations

import dataclasses
import inspect
import sys
from operator import attrgetter

import numpy as np


class FedsimError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(FedsimError):
    """Operands have incompatible shape manifests or lengths."""


class EmptyInputError(FedsimError):
    """An operation that needs at least one element received none."""


class NumericError(FedsimError):
    """A value outside the numeric domain: NaN, Inf, or an invalid weight."""


class ConfigError(FedsimError):
    """Invalid or inconsistent configuration."""


def is_int(value) -> bool:
    """The one integer rule: a Python ``int``, never a ``bool``, and never
    converted, so a float, a string or a numpy integer is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """The float rule: a finite ``int`` or ``float``, never a ``bool``. json
    reads NaN and Infinity, and an integer literal can exceed the float
    range, so a number must also lie within that range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# Annotation text -> (check, what the message says the value must be).
_TYPE_CHECKS = {
    "int": (is_int, "an integer"),
    "float": (is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def check_fields(config) -> None:
    """Check each ``int``, ``float``, ``bool`` or ``str`` field (or ``| None``)
    of the dataclass ``config`` by its annotation, never coercing it."""
    for f in dataclasses.fields(config):
        base, _, optional = f.type.partition(" | ")
        check, expected = _TYPE_CHECKS.get(base, (None, None))
        value = getattr(config, f.name)
        if check and not (check(value) or (optional and value is None)):
            raise ConfigError(f"{f.name} must be {expected}"
                              f"{' or null' if optional else ''}, got {value!r}")


# The methods that record installs, as dataclass(frozen=True) generates them
# but for __eq__ on an array, whose own == is elementwise, so _eq compares it
# by shape and values; each reads the field tuples of the instance's class.
_set = object.__setattr__


def _init(self, *args, **kwargs):
    cls = self.__class__
    names = cls._record_names
    if kwargs or len(args) != len(names):
        bound = cls.__signature__.bind(*args, **kwargs)  # TypeError as a call's
        bound.apply_defaults()
        args = bound.args
    for name, value in zip(names, args):
        _set(self, name, value)
    if cls._record_post_init:
        self.__post_init__()


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}"
                       for name in self._record_repr)
    return f"{self.__class__.__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    key = self.__class__._record_key
    return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray)
                          or isinstance(b, np.ndarray) else a == b)
               for a, b in zip(key(self), key(other)))


def _hash(self):
    return hash(self.__class__._record_key(self))


def _setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(self):
    return self.__class__, tuple(getattr(self, name) for name in self._record_names)


def record(cls):
    """``cls`` as ``dataclasses.dataclass(frozen=True)`` makes it, at a
    fraction of the import cost.

    The dataclass decorator writes and compiles six methods for each class.
    Here ``cls`` becomes a dataclass without them (so ``fields``, ``asdict``,
    ``replace`` and ``is_dataclass`` work), and takes the functions above,
    written once, which read its field tuples: ``__init__`` with the same
    signature, then ``__post_init__`` if the class has one; ``__repr__``,
    ``__eq__`` and ``__hash__`` over the ``repr`` and ``compare`` fields, an
    array field equal by ``np.array_equal`` and still unhashable; and
    a :class:`dataclasses.FrozenInstanceError` on assigning or deleting an
    attribute; and ``__reduce__``, so that pickle and ``copy`` rebuild
    through ``__init__`` and a copy is checked and owned too. A field takes
    a default, ``compare`` and ``repr``, nothing else, and two at least are
    compared.
    """
    doc = cls.__doc__
    cls.__doc__ = "-"  # else dataclass builds one through inspect.signature
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    compared = [f.name for f in fields if f.compare]
    if len(compared) < 2 or any(  # one name: attrgetter returns no tuple
            f.default_factory is not dataclasses.MISSING or not f.init
            or f.kw_only or f.hash is not None for f in fields):
        raise TypeError(f"{cls.__name__} has a field that record cannot build")
    empty = inspect.Parameter.empty
    cls.__signature__ = inspect.Signature(
        [inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                           default=empty if f.default is dataclasses.MISSING
                           else f.default, annotation=f.type) for f in fields],
        return_annotation=None)
    cls.__doc__ = doc or cls.__name__ + str(cls.__signature__).replace(" -> None", "")
    cls._record_post_init = hasattr(cls, "__post_init__")
    cls._record_names = tuple(f.name for f in fields)
    cls._record_repr = tuple(f.name for f in fields if f.repr)
    cls._record_key = attrgetter(*compared)
    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = _init, _repr, _eq, _hash
    cls.__setattr__, cls.__delattr__, cls.__reduce__ = _setattr, _delattr, _reduce
    return cls


def owned(array: np.ndarray) -> np.ndarray:
    """``array``, or a read-only copy, by the rule in the module docstring."""
    base = array
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if (base is None or isinstance(base, bytes)) and array.flags.c_contiguous:
        return array
    copy = np.array(array, order="C")
    copy.flags.writeable = False
    return copy


def check_type(name: str, value, cls: type) -> None:
    """An instance of ``cls``, checked and worded as :func:`check_fields` does."""
    check, expected = _TYPE_CHECKS.get(cls.__name__, (None, f"a {cls.__name__}"))
    if not (check(value) if check else isinstance(value, cls)):
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


def check_int(name: str, value, minimum: int | None = None) -> None:
    """An integer (of at least ``minimum``, if given), by :func:`check_type`."""
    check_type(name, value, int)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


class DivergenceError(FedsimError):
    """Training produced a non-finite loss.

    Carries the zero-based epoch at which divergence was detected, plus
    optional round/client context when raised from a federated run.
    """

    def __init__(self, message: str, epoch: int, round_index: int | None = None,
                 client_id: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.round_index = round_index
        self.client_id = client_id

    def __reduce__(self):
        # The default rebuilds from ``args`` alone, which lacks ``epoch``; a
        # sweep's error reaches the CLI from a worker process by pickle.
        return (type(self), (str(self), self.epoch, self.round_index,
                             self.client_id), self.__dict__)


class ValidationError(FedsimError):
    """Malformed input record: a detection, a ground truth, or a client."""


class UndefinedMetricError(FedsimError):
    """A metric is undefined for the given inputs (e.g. no ground truths)."""
