"""Property tests of the sampling kernels.

The dedup kernel is pinned to ``np.unique``; the padding-free distinct sampler
is pinned to the padded reference in ``tests/reference`` where both read the
generator alike (one shared k), and by law everywhere else.  Its collision
flags, whichever check the batch shape picks, are pinned to the key sort of
``tests/reference/sampling_keysort.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.simulation.membership import FullView
from repro.utils import sampling
from repro.utils.sampling import (
    sample_distinct_flat,
    sample_distinct_rows,
    sample_distinct_rows_excluding,
    unique_unseen,
)
from tests.reference import sampling_keysort, sampling_padded

#: Value ranges from "all equal" through heavily repeated to almost all distinct.
_HIGHS = st.sampled_from([0, 1, 3, 40, 5000, 10**6])


def _nothing_seen(values: np.ndarray) -> np.ndarray:
    return np.zeros(int(values.max()) + 1 if values.size else 0, dtype=bool)


@st.composite
def dedup_inputs(draw, *, some_seen):
    """Index values (int32 or int64) and a ``seen`` mask on either side of the branch line.

    ``unique_unseen`` marks a cell mask when ``values.size * 8 >= seen.size``
    and sorts otherwise.  Each draw picks a side; the mask side needs values
    below ``8 * values.size``, since ``seen`` must cover every value.
    """
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    values = np.array(draw(st.lists(st.integers(0, draw(_HIGHS)), max_size=300)), dtype=dtype)
    cover = _nothing_seen(values).size
    line = 8 * values.size
    if cover <= line and draw(st.booleans()):
        cells = draw(st.integers(cover, line))
    else:
        cells = draw(st.integers(max(cover, line + 1), max(cover, line + 1) + 64))
    seen = np.zeros(cells, dtype=bool)
    if some_seen:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        seen = rng.random(cells) < draw(st.floats(0.0, 1.0))
    return values, seen


@settings(max_examples=200, deadline=None)
@given(dedup_inputs(some_seen=False))
@example((np.array([3, 1, 3], dtype=np.int32), np.zeros(4, dtype=bool)))  # mask: 24 >= 4
@example((np.array([5, 0, 5], dtype=np.int64), np.zeros(100, dtype=bool)))  # sort: 24 < 100
def test_equals_np_unique(inputs):
    values, seen = inputs
    out = unique_unseen(values, seen)
    expected = np.unique(values)
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)


@settings(max_examples=200, deadline=None)
@given(dedup_inputs(some_seen=True))
@example((np.array([3, 1, 3, 2], dtype=np.int64), np.array([False, True, False, True])))  # mask: 32 >= 4
@example((np.array([5, 0, 5, 7], dtype=np.int32), np.arange(40) % 3 == 0))  # sort: 32 < 40
def test_skips_seen_values(inputs):
    values, seen = inputs
    out = unique_unseen(values, seen)
    expected = np.unique(values[~seen[values]])
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)


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


# ---------------------------------------------------------------------------
# The padding-free distinct sampler
# ---------------------------------------------------------------------------


def _same_stream(a: np.random.Generator, b: np.random.Generator) -> bool:
    """True when both generators produce the same next draw."""
    return bool(a.integers(1 << 62) == b.integers(1 << 62))


@st.composite
def uniform_batches(draw):
    """``(population, ks)`` with one shared k, from k = 0 up to k = population."""
    population = draw(st.integers(1, 60))
    k = draw(st.integers(0, population))
    return population, np.full(draw(st.integers(0, 40)), k, dtype=np.int64)


@st.composite
def mixed_batches(draw):
    """``(population, ks)`` with any ks, negative and above the population included."""
    population = draw(st.integers(1, 40))
    ks = draw(st.lists(st.integers(-3, population + 3), max_size=40))
    return population, np.array(ks, dtype=np.int64)


class TestUniformKMatchesThePaddedReference:
    """With one shared k the flat kernel reads the generator as the padded one did."""

    @settings(max_examples=300, deadline=None)
    @given(uniform_batches(), st.integers(0, 2**32 - 1))
    def test_values_and_next_draw(self, batch, seed):
        population, ks = batch
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        values, rows = sample_distinct_flat(new, population, ks)
        matrix, valid = sampling_padded.sample_distinct_rows(old, population, ks)
        np.testing.assert_array_equal(values, matrix[valid])
        assert values.dtype == matrix.dtype or not values.size
        assert _same_stream(new, old)

    @pytest.mark.parametrize(
        ("population", "k", "m"),
        [
            (3, 2, 500),  # a third of the rows collide: several redraw rounds
            (5, 4, 500),  # most rows collide: many exhaust the budget and take the keys
            (20, 10, 300),  # k^2 > 4 population: every row takes the random keys
            (8, 8, 200),  # k = population: full permutations
            (1000, 7, 4000),  # the gossip regime: rare redraws
            # The shapes a zoo_planes pass draws: group targets and fixed
            # fanouts, the 30-slot view set-ups, and HyParView's and
            # lpbcast's slot draws (heavy in redraws).
            (4999, 4, 100_000),
            (4999, 2, 50_000),
            (4999, 8, 20_000),
            (4999, 30, 20_000),
            (8, 4, 20_000),
            (30, 4, 20_000),
        ],
    )
    def test_every_path(self, population, k, m):
        ks = np.full(m, k, dtype=np.int64)
        new, old = np.random.default_rng(k * m), np.random.default_rng(k * m)
        matrix, valid = sample_distinct_rows(new, population, ks)
        expected, _ = sampling_padded.sample_distinct_rows(old, population, ks)
        np.testing.assert_array_equal(matrix, expected)
        assert valid.all()
        assert _same_stream(new, old)

    @settings(max_examples=100, deadline=None)
    @given(uniform_batches(), st.integers(0, 2**32 - 1))
    def test_excluding(self, batch, seed):
        population, ks = batch
        population += 1  # one slot is excluded per row
        exclude = np.random.default_rng(seed).integers(0, population, ks.size)
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        matrix, valid = sample_distinct_rows_excluding(new, population, ks, exclude)
        ref, ref_valid = sampling_padded.sample_distinct_rows_excluding(
            old, population, ks, exclude
        )
        np.testing.assert_array_equal(matrix[valid], ref[ref_valid])
        assert _same_stream(new, old)
        for same in (exclude.astype(np.int32), exclude.tolist()):
            again, _ = sample_distinct_rows_excluding(
                np.random.default_rng(seed), population, ks, same
            )
            np.testing.assert_array_equal(again, matrix)

    @pytest.mark.parametrize(
        "population",
        [100_000, 3 * 10**9],  # ids past 16 bits in an int32 matrix; past 32 bits in an int64 one
    )
    def test_excluding_keeps_wide_ids(self, population):
        ks = np.full(400, 4, dtype=np.int64)
        exclude = np.random.default_rng(population).integers(population // 2, population, ks.size)
        ref, _ = sampling_padded.sample_distinct_rows_excluding(
            np.random.default_rng(7), population, ks, exclude
        )
        for same in (exclude, exclude.tolist()):
            matrix, valid = sample_distinct_rows_excluding(
                np.random.default_rng(7), population, ks, same
            )
            assert valid.all()
            np.testing.assert_array_equal(matrix, ref)


class TestAnyKs:
    @settings(max_examples=300, deadline=None)
    @given(mixed_batches(), st.integers(0, 2**32 - 1))
    def test_rows_hold_exactly_their_distinct_values(self, batch, seed):
        population, ks = batch
        values, rows = sample_distinct_flat(np.random.default_rng(seed), population, ks)
        sizes = np.minimum(np.maximum(ks, 0), population)
        np.testing.assert_array_equal(rows, np.repeat(np.arange(ks.size), sizes))
        assert ((values >= 0) & (values < population)).all()
        for row in range(ks.size):
            mine = values[rows == row]
            assert np.unique(mine).size == mine.size == sizes[row]

    @settings(max_examples=200, deadline=None)
    @given(mixed_batches(), st.integers(0, 2**32 - 1))
    def test_matrix_view_agrees_with_the_flat_draw(self, batch, seed):
        population, ks = batch
        values, _ = sample_distinct_flat(np.random.default_rng(seed), population, ks)
        matrix, valid = sample_distinct_rows(np.random.default_rng(seed), population, ks)
        np.testing.assert_array_equal(matrix[valid], values)
        np.testing.assert_array_equal(valid.sum(axis=1), np.minimum(np.maximum(ks, 0), population))

    @settings(max_examples=200, deadline=None)
    @given(mixed_batches(), st.integers(0, 2**32 - 1))
    def test_excluded_id_never_appears(self, batch, seed):
        population, ks = batch
        population += 1
        rng = np.random.default_rng(seed)
        exclude = rng.integers(0, population, ks.size)
        matrix, valid = sample_distinct_rows_excluding(rng, population, ks, exclude)
        assert not (valid & (matrix == exclude[:, None])).any()
        np.testing.assert_array_equal(
            valid.sum(axis=1), np.minimum(np.maximum(ks, 0), population - 1)
        )
        view = FullView(population)
        targets, senders = view.sample_targets_batch(exclude, ks, rng)
        assert not (targets == exclude[senders]).any()
        assert np.unique(senders * population + targets).size == targets.size

    @pytest.mark.parametrize("population", [5, 4999])
    def test_mixed_batch_whose_total_looks_uniform(self, population):
        """``ks = [3, 2, 4]`` sums to three rows of 3: one k is read from min and max."""
        ks = np.tile(np.array([3, 2, 4], dtype=np.int64), 500)
        assert ks.sum() == ks.size * ks[0]
        values, rows = sample_distinct_flat(np.random.default_rng(5), population, ks)
        np.testing.assert_array_equal(rows, np.repeat(np.arange(ks.size), ks))
        cells = values.astype(np.int64) + rows * population
        assert np.unique(cells).size == values.size
        matrix, valid = sample_distinct_rows(np.random.default_rng(5), population, ks)
        np.testing.assert_array_equal(valid.sum(axis=1), ks)
        np.testing.assert_array_equal(matrix[valid], values)

    @given(st.lists(st.integers(-5, 0), max_size=30), st.integers(1, 50))
    def test_zero_or_negative_k_draws_nothing(self, ks, population):
        ks = np.array(ks, dtype=np.int64)
        rng, untouched = np.random.default_rng(3), np.random.default_rng(3)
        values, rows = sample_distinct_flat(rng, population, ks)
        assert values.size == rows.size == 0
        matrix, valid = sample_distinct_rows(rng, population, ks)
        assert matrix.shape == valid.shape == (ks.size, 0)
        assert _same_stream(rng, untouched)


def test_inclusion_is_uniform_for_every_k_of_a_mixed_batch():
    """Chi-square: for each k, every value is included equally often.

    The batch mixes rows that redraw (k = 2..4), rows that take the random
    keys (k^2 > 4 population) and a full permutation, at population 12.
    """
    population, per_k = 12, 3000
    k_values = np.array([1, 2, 3, 4, 7, 9, 12])
    ks = np.random.default_rng(0).permutation(np.repeat(k_values, per_k))
    values, rows = sample_distinct_flat(np.random.default_rng(2008), population, ks)
    row_k = ks[rows]
    for k in k_values[:-1]:  # k = population includes every value by construction
        counts = np.bincount(values[row_k == k], minlength=population)
        assert counts.sum() == per_k * k
        assert stats.chisquare(counts).pvalue > 1e-3, (k, counts)


# ---------------------------------------------------------------------------
# Collision flags by batch shape, pinned to the key sort
# ---------------------------------------------------------------------------

#: From populations that force collisions to ones that make them rare; the
#: last two need int64 keys (rows × population ≥ 2³¹) and int64 values.
_POPULATIONS = st.sampled_from([1, 2, 5, 30, 4999, 10**8, 3 * 10**9])


@st.composite
def flag_batches(draw):
    """``(values, ks, population)``: cells drawn with replacement, one k or mixed ks."""
    population = draw(_POPULATIONS)
    m = draw(st.integers(1, 60))
    if draw(st.booleans()):
        k = draw(st.sampled_from([1, 2, 12, 13, 30]) | st.integers(0, 40))
        ks = np.full(m, k, dtype=np.int64)
    else:
        ks = np.array(draw(st.lists(st.integers(0, 40), min_size=m, max_size=m)), dtype=np.int64)
    dtype = np.int32 if population + int(ks.max()) < np.iinfo(np.int32).max else np.int64
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, population, int(ks.sum()), dtype=dtype), ks, population


class TestCollisionFlags:
    """Every shape's check flags exactly the rows the key sort flags."""

    @settings(max_examples=400, deadline=None)
    @given(flag_batches(), st.booleans())
    @example((np.array([0, 1, 0, 2, 2, 3, 4, 5, 6], dtype=np.int32), np.array([3, 2, 4]), 7), True)
    def test_equal_to_the_key_sort(self, batch, with_rows):
        values, ks, population = batch
        expected = sampling_keysort._collided(values, ks, population)
        rows = np.repeat(np.arange(ks.size, dtype=np.int64), ks) if with_rows else None
        np.testing.assert_array_equal(sampling._collided(values, ks, population, rows), expected)
        if ks.min() == ks.max():
            np.testing.assert_array_equal(
                sampling._collided(values, ks, population, uniform=True), expected
            )

    @pytest.mark.parametrize(
        ("population", "ks"),
        [
            (8, np.full(3000, 4)),  # HyParView's active slots: most rows redraw
            (30, np.full(3000, 4)),
            (50, np.full(2000, 13)),  # one k above the pairwise line
            (200, np.full(1000, 16)),
            (40, np.random.default_rng(1).poisson(4.0, 3000)),  # mixed k
            (9, np.random.default_rng(2).integers(0, 8, 3000)),  # some rows take the keys
        ],
        ids=["4-of-8", "4-of-30", "13-of-50", "16-of-200", "poisson-of-40", "mixed-of-9"],
    )
    def test_equal_in_every_redraw_round(self, monkeypatch, population, ks):
        """Each sub-batch the kernel flags, first round or redraw, is checked by the key sort."""
        calls = []
        real = sampling._collided

        def checked(values, sub_ks, pop, *args, **kwargs):
            flags = real(values, sub_ks, pop, *args, **kwargs)
            np.testing.assert_array_equal(flags, sampling_keysort._collided(values, sub_ks, pop))
            calls.append(sub_ks.size)
            return flags

        monkeypatch.setattr(sampling, "_collided", checked)
        sample_distinct_flat(np.random.default_rng(3), population, ks)
        sample_distinct_rows_excluding(
            np.random.default_rng(4), population + 1, ks, np.arange(ks.size) % (population + 1)
        )
        assert len(calls) > 2  # the redraw rounds were reached
