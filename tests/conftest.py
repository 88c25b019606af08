from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from fedsim.params import ParamVector

# Every run draws the same examples, so a tier-1 result never depends on
# which run found what. Tests keep their own max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def vec():
    """Build a single-segment ParamVector from any 1-D float sequence."""
    def make(values, name="w"):
        arr = np.asarray(values, dtype=np.float64).reshape(-1)
        return ParamVector(arr, ((name, (arr.size,)),))
    return make
