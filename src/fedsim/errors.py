"""Exception types shared across the simulator."""

from __future__ import annotations


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
