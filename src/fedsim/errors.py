"""Exception types shared across the simulator, and the config field check."""

from __future__ import annotations

import dataclasses
import sys


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


# Annotation text -> (check, what the message says the value must be). bool
# never counts as a number, and a float field accepts an integer. json reads
# NaN and Infinity, and an integer literal can exceed the float range, so a
# number must also lie within that range.
_TYPE_CHECKS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max, "a finite number"),
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


def check_int(name: str, value, minimum: int) -> None:
    """An integer of at least ``minimum``, worded as :func:`check_fields` words it."""
    if not _TYPE_CHECKS["int"][0](value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
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
