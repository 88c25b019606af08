"""Exception types; the one type rule; :func:`record`, which makes each value
type a frozen dataclass with shared methods; and :func:`owned` and :func:`held`.

The type rule: record fields and the arguments of :func:`checked` functions
(every public one) are checked by their annotations, resolved in their
module on first use, and never coerced. ``int`` takes no ``bool``, ``float``
a finite number, a class (or union) its instances, ``| None`` None; else a
:class:`ConfigError`, "``<name>`` must be a ``<Class>``, got ...". Array
slots follow :func:`held` (those that convert by kind, such as ``LabeledSet``'s,
their own rules), generic ones such as ``tuple[int, ...]`` their readers'
rules, and ``TaskModel.loss_and_gradient_flat`` and the SGD loop are
unchecked by design: their arrays pass ``check_data`` once per stack.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import types
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


# The scalar classes' rules, (test, what a value must be); a field whose
# metadata sets "finite" to False takes any float, for its own rule to word.
_SCALARS = {
    int: (is_int, "an integer"),
    float: (is_number, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    type(None): (lambda v: v is None, "null"),
}
_ANY_FLOAT = (lambda v: isinstance(v, float) or is_number(v),
              "a float or an int within the float range")


def _rule(kind, namespace: dict, finite: bool):
    """(test, expected) of an annotation, resolved in ``namespace``, that
    names a class or a union of classes; None for an array or generic one,
    which :func:`owned` or the slot's reader checks."""
    kind = eval(kind, namespace) if isinstance(kind, str) else kind
    kinds = kind.__args__ if isinstance(kind, types.UnionType) else (kind,)
    # a generic alias such as tuple[int, ...] passes isinstance(k, type) on 3.10
    if np.ndarray in kinds or not all(isinstance(k, type) and not isinstance(
            k, types.GenericAlias) for k in kinds):
        return None
    tests = [_ANY_FLOAT if k is float and not finite else _SCALARS.get(k)
             or (lambda v, k=k: isinstance(v, k), f"a {k.__name__}") for k in kinds]
    return (lambda v: any(test(v) for test, _ in tests),
            " or ".join(expected for _, expected in tests))


def _checker(slots, namespace: dict):
    """A check of a call's ``(args, kwargs)`` by the type rule, its rules
    resolved on the first call from ``slots()``, the (index, name,
    annotation, finite) of each slot. A slot left to its default is not
    checked."""
    rules = None

    def check(args: tuple, kwargs: dict) -> None:
        nonlocal rules
        if rules is None:
            rules = [(index, name, *rule) for index, name, kind, finite in slots()
                     if (rule := _rule(kind, namespace, finite))]
        for index, name, test, expected in rules:
            # check itself stands for an argument that was not given
            value = args[index] if index < len(args) else kwargs.get(name, check)
            if value is not check and not test(value):
                raise ConfigError(f"{name} must be {expected}, got {value!r}")

    return check


def checked(fn):
    """``fn`` with the type rule on its annotated arguments, which a call
    finds by position or name, binding no signature."""
    code, kinds = fn.__code__, fn.__annotations__
    names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    check = _checker(lambda: [(i if i < code.co_argcount else sys.maxsize, name,
                               kinds[name], True) for i, name in enumerate(names)
                              if name in kinds], fn.__globals__)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        check(args, kwargs)
        return fn(*args, **kwargs)

    return call


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
    cls._record_check(args, {})
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
    signature, which applies the type rule to every field and then calls
    ``__post_init__`` if the class has one; ``__repr__``, ``__eq__`` and
    ``__hash__`` over the ``repr`` and ``compare`` fields, an array field
    equal by ``np.array_equal`` and still unhashable; a
    :class:`dataclasses.FrozenInstanceError` on assigning or deleting an
    attribute; and ``__reduce__``, so that pickle and ``copy`` rebuild
    through ``__init__`` and a copy is checked and owned too. A field takes
    a default, ``compare``, ``repr`` and ``metadata``, nothing else, and two
    at least are compared.
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
    cls._record_check = _checker(lambda: [(i, f.name, f.type, f.metadata.get("finite", True))
                                          for i, f in enumerate(fields)],
                                 sys.modules[cls.__module__].__dict__)
    cls._record_names = tuple(f.name for f in fields)
    cls._record_repr = tuple(f.name for f in fields if f.repr)
    cls._record_key = attrgetter(*compared)
    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = _init, _repr, _eq, _hash
    cls.__setattr__, cls.__delattr__, cls.__reduce__ = _setattr, _delattr, _reduce
    return cls


def owned(array: np.ndarray) -> np.ndarray:
    """``array`` if it and its ``.base`` chain, ending in None or ``bytes``,
    are read-only and it is C-contiguous; else a read-only C-contiguous copy.
    A value type holds each checked array so, and the caller's array is never
    frozen; a producer hands a fresh array over uncopied by freezing it. This
    guards against accidents only: numpy lets the holder of a read-only array
    with no base make it writeable again."""
    base = array
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if (base is None or isinstance(base, bytes)) and array.flags.c_contiguous:
        return array
    copy = np.array(array, order="C")
    copy.flags.writeable = False
    return copy


def held(name: str, value, dtype, shape: tuple) -> np.ndarray:
    """The array rule: ``value`` by :func:`owned` if it is an ndarray of
    exactly ``dtype``, never cast, whose shape matches ``shape``, where a
    None entry matches any length; else a :class:`ShapeError`."""
    dtype = np.dtype(dtype)
    if (isinstance(value, np.ndarray) and value.dtype == dtype and value.ndim == len(shape)
            and all(want in (None, got) for want, got in zip(shape, value.shape))):
        return owned(value)
    got = (f"{value.dtype} of shape {value.shape}"
           if isinstance(value, np.ndarray) else type(value).__name__)
    shape = str(tuple("n" if n is None else n for n in shape)).replace("'", "")
    raise ShapeError(f"{name} must be {'an' if dtype.name[0] in 'aeio' else 'a'} "
                     f"{dtype} array of shape {shape}, got {got}")


def check_type(name: str, value, cls: type) -> None:
    """An instance of ``cls``, by the type rule."""
    _checker(lambda: [(0, name, cls, True)], {})((value,), {})


def at_least(minimum: int, **values) -> None:
    """The range rule: each of ``values`` that is not None, a number by the
    type rule, is at least ``minimum``."""
    for name, value in values.items():
        if value is not None and value < minimum:
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
