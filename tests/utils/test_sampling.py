"""Property tests of the sort-based dedup kernel against ``np.unique``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.sampling import unique_unseen

#: Value ranges from "all equal" through heavily repeated to almost all distinct.
_HIGHS = st.sampled_from([0, 1, 3, 40, 5000, 10**6])


def _nothing_seen(values: np.ndarray) -> np.ndarray:
    return np.zeros(int(values.max()) + 1 if values.size else 0, dtype=bool)


@st.composite
def int_arrays(draw):
    high = draw(_HIGHS)
    return np.array(draw(st.lists(st.integers(0, high), max_size=300)), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(int_arrays())
def test_equals_np_unique(values):
    out = unique_unseen(values, _nothing_seen(values))
    expected = np.unique(values)
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 63), max_size=200),
    st.lists(st.booleans(), min_size=64, max_size=64),
)
def test_skips_seen_values(values, seen):
    values, seen = np.array(values, dtype=np.int64), np.array(seen)
    np.testing.assert_array_equal(unique_unseen(values, seen), np.unique(values[~seen[values]]))


@pytest.mark.parametrize(
    "values",
    [
        np.empty(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(50, 3, dtype=np.int64),
        np.array([9, 2, 9, 0, 2, 2, 5], dtype=np.int32),
        np.tile(np.arange(10, dtype=np.int64)[::-1], 30),
    ],
    ids=["empty", "singleton", "all-equal", "unsorted-int32", "heavily-repeated"],
)
def test_edge_cases(values):
    out = unique_unseen(values, _nothing_seen(values))
    assert out.dtype == values.dtype
    np.testing.assert_array_equal(out, np.unique(values))


def test_does_not_modify_input():
    values = np.array([4, 1, 4, 0], dtype=np.int64)
    unique_unseen(values, np.zeros(5, dtype=bool))
    np.testing.assert_array_equal(values, [4, 1, 4, 0])
