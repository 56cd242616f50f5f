"""The sort-based dedup helper must match ``np.unique`` exactly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arrays import unique

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _assert_same(a: np.ndarray) -> None:
    got = unique(a)
    want = np.unique(a)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    got_v, got_c = unique(a, return_counts=True)
    want_v, want_c = np.unique(a, return_counts=True)
    assert got_v.tolist() == want_v.tolist()
    assert got_c.dtype == want_c.dtype
    assert got_c.tolist() == want_c.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(_INT64, max_size=64))
@example([])
@example([7])
@example([-3] * 9)
@example([-(2**63), 2**63 - 1, -1, 0, -1])
def test_unique_matches_numpy(values):
    _assert_same(np.array(values, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=200))
def test_unique_matches_numpy_on_heavy_duplicates(values):
    _assert_same(np.array(values, dtype=np.int64))


@pytest.mark.parametrize("shape", [(0, 2), (3, 2), (2, 3, 2)])
def test_unique_flattens_like_numpy(shape):
    a = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape) % 4 - 1
    _assert_same(a)
