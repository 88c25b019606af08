"""The one type rule of ``fedsim.errors``: record fields and the arguments of
a ``checked`` function are checked by their annotations, resolved in their
module on first use, and a wrong value is a ``ConfigError`` naming the slot.
"""
from __future__ import annotations

import math
from dataclasses import field

import numpy as np
import pytest

from fedsim import errors
from fedsim.detection import Box
from fedsim.errors import ConfigError, checked, record


# Decorated before Part exists: the rule resolves nothing when it wraps.
@checked
def scaled(part: Part, factor: int = 2, *, note: str | None = None) -> int:
    return part.size * factor


@record
class Part:
    size: int
    box: Box | None = None
    weight: float = 1.0
    loose: float = field(default=0.0, metadata={"finite": False})
    sizes: tuple[int, ...] = ()
    values: np.ndarray | None = None


@pytest.mark.parametrize("call, message", [
    (lambda: scaled(None), "part must be a Part, got None"),
    (lambda: scaled(part=object()), "part must be a Part, got <object object at "),
    (lambda: scaled(Part(1), 2.0), "factor must be an integer, got 2.0"),
    (lambda: scaled(Part(1), factor=True), "factor must be an integer, got True"),
    (lambda: scaled(Part(1), note=3), "note must be a string or null, got 3"),
    (lambda: Part("1"), "size must be an integer, got '1'"),
    (lambda: Part(1, box=(0, 0, 1, 1)), r"box must be a Box or null, got \(0, 0, 1, 1\)"),
    (lambda: Part(1, weight=math.nan), "weight must be a finite number, got nan"),
    (lambda: Part(1, loose=True),
     "loose must be a float or an int within the float range, got True"),
], ids=["function-none", "function-object", "float-for-int", "bool-for-int",
        "keyword-only", "field", "class-field", "non-finite", "any-float"])
def test_a_wrong_value_is_a_config_error_naming_its_slot(call, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        call()


def test_right_values_pass_and_defaults_are_not_checked():
    assert scaled(Part(3)) == 6
    assert scaled(Part(3), 3, note=None) == scaled(part=Part(3), factor=3, note="x") == 9
    assert Part(1, Box(0, 0, 1, 1), 2, math.inf).loose == math.inf


def test_generic_and_array_slots_are_left_to_their_readers():
    part = Part(1, sizes=None, values=[1, 2])
    assert part.sizes is None and part.values == [1, 2]


def test_the_rules_are_resolved_once_on_first_use(monkeypatch):
    resolved = []
    monkeypatch.setattr(errors, "eval", lambda text, namespace:
                        resolved.append(text) or eval(text, namespace), raising=False)

    @checked
    def area(box: Box, scale: float = 1.0, label=None) -> float:
        return box.area * scale

    assert resolved == []
    assert area(Box(0, 0, 2, 2)) == area(Box(0, 0, 1, 4), scale=1) == 4.0
    assert resolved == ["Box", "float"]  # an unannotated slot has no rule
    with pytest.raises(ConfigError, match="^box must be a Box, got None$"):
        area(None)
    assert resolved == ["Box", "float"]
