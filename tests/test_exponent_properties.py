"""Property test of the exponent contract: a k-indexed function given an
array of exponents returns exactly the list of its calls with each one."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import k_indexed_calls, random_family

# Unsorted, repeated and single-entry exponent lists all occur.
exponent_arrays = st.lists(st.integers(1, 15), min_size=1, max_size=8).map(np.array)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), ks=exponent_arrays)
def test_array_call_equals_scalar_calls(seed, ks):
    rng = np.random.default_rng(seed)
    subs = random_family(rng, int(rng.integers(2, 5)), int(rng.integers(2, 10)))
    for name, call in k_indexed_calls(subs, ks).items():
        values = call()
        scalars = [k_indexed_calls(subs, k)[name]() for k in ks.tolist()]
        assert isinstance(values, np.ndarray) and values.shape == ks.shape, name
        assert all(isinstance(v, float) for v in scalars), name
        np.testing.assert_array_equal(values, scalars, err_msg=name)
