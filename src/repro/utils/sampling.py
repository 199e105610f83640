"""Shared distinct-sampling kernels for the simulator and the graph layer.

Both hot paths of the library reduce to the same primitive — "draw ``k``
distinct integers uniformly at random from a population" — applied at two
granularities:

* :func:`sample_distinct` — one draw (Floyd's algorithm with a numpy
  partial-permutation crossover).  Used by the scalar simulators and the
  round-based protocol baselines.
* :func:`sample_distinct_flat` — a whole batch of rows as one array program,
  drawn **without padding**: row ``i`` owns exactly its ``ks[i]`` cells of
  one flat array, so a batch of Poisson fanouts costs the sum of its fanouts,
  not rows × largest fanout.  Every cell is drawn with replacement in a
  single operation, a check chosen by the batch's shape finds the rows
  holding a collision, and only those rows are redrawn; rows whose ``k`` is a
  large fraction of the population (or that keep colliding) take an exact
  random-key top-``k`` (argpartition over uniform keys — a Gumbel-top-k with
  uniform instead of Gumbel noise, identical selection law).  This is the
  engine behind
  :meth:`repro.simulation.membership.FullView.sample_targets_batch`
  (the batched Monte-Carlo simulator).
* :func:`sample_distinct_rows` — the same draw viewed as a ``(rows, kmax)``
  matrix plus a validity mask (a free reshape when all rows share one
  ``k``), with :func:`sample_distinct_rows_excluding` layering the
  ubiquitous "never draw yourself" exclusion on top.  The round-based
  protocols, the overlay builders and
  :func:`repro.graphs.configuration_model.directed_configuration_edges`
  (the batched graph-percolation ensemble) index by ``(row, slot)`` and use
  this form, so the simulator and the graph layer cannot drift apart
  statistically.

When every row shares one ``k`` the kernel reads the generator exactly as the
earlier padded ``(rows, kmax)`` sampler did, so fixed-fanout callers
(flooding, pbcast, lpbcast, rdg, hyparview, lazy-push, anti-entropy,
fixed-fanout gossip) keep their fixed-seed outputs.  Batches of variable
fanout (the paper's Poisson gossip, random-fanout gossip, the graph
ensembles) draw a different stream from the same law, so their fixed-seed
outputs — the Fig. 4/5 tables, dimensioning answers — differ from the ones
the padded sampler gave.

The collision check is the bookkeeping around the draw, and it costs more
than the draw itself unless it fits the batch.  When all rows share one ``k``
up to ``_PAIRWISE_MAX_K`` (12) the rows are columns of one ``(k, rows)``
matrix and the k(k-1)/2 column compares are cheapest; the fixed-fanout draws
of the zoo and the group-target draws (4 of 4,999) take this path.  One
larger shared ``k`` (the 30-slot view set-ups) sorts each row and compares
neighbours.  A batch of mixed ``k`` sorts ``row * population + value`` keys.
Each check flags exactly the same rows, so the choice never changes a stream.

:func:`unique_unseen` is the matching dedup kernel: the batched engines use
it to turn a round's delivered cells into the sorted distinct fresh ones, by
a sort for small rounds and a cell mask for large ones.

The module lives under :mod:`repro.utils` because it must not depend on
either the simulation or the graph subpackage.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sample_distinct",
    "sample_distinct_flat",
    "sample_distinct_rows",
    "sample_distinct_rows_excluding",
    "unique_unseen",
]

#: Above this ``k * _NUMPY_CROSSOVER >= population`` threshold the scalar
#: sampler uses a numpy partial permutation instead of the Python Floyd loop:
#: Floyd costs ~k Python-level iterations while the permutation costs O(pop)
#: numpy work, so the crossover sits at k ≈ population / 32.
_NUMPY_CROSSOVER = 32

#: Rejection-sampling retry budget of the batched sampler before a row falls
#: back to the exact random-key path.
_MAX_REJECTION_ROUNDS = 6

#: Element budget of one random-key matrix chunk (rows × population); keeps
#: the fallback path's memory bounded for huge batches.
_KEY_CHUNK_ELEMENTS = 1 << 24

#: Largest shared ``k`` whose collision flags come from pairwise column
#: compares; a larger shared ``k`` sorts each row.  Pairwise work grows as
#: k², a row sort's as k log k.  Flag cost of one call in ms (numpy 2.4.6,
#: a 2-core Intel Xeon container):
#:
#: ====================  ========  ========  ========
#: draw, rows            key sort  pairwise  row sort
#: ====================  ========  ========  ========
#: 2 of 4,999, 90,000        1.31      0.14      3.91
#: 4 of 4,999, 90,000        2.51      0.46      6.81
#: 4 of 8, 90,000            4.30      0.51      7.19
#: 8 of 4,999, 100,000       4.10      2.20      5.76
#: 12 of 4,999, 100,000      6.22      4.77      6.35
#: 16 of 4,999, 100,000      9.04      7.88      7.59
#: 30 of 4,999, 100,000     20.18     22.83     12.24
#: ====================  ========  ========  ========
#:
#: Pairwise still wins clearly at 12; from 16 on the row sort leads.
_PAIRWISE_MAX_K = 12

_INT32_MAX = int(np.iinfo(np.int32).max)


def sample_distinct(
    rng: np.random.Generator, population: int, k: int, exclude: int | None = None
) -> np.ndarray:
    """Sample ``k`` distinct integers from ``[0, population)`` excluding ``exclude``.

    Small ``k`` uses Floyd's algorithm (O(k) expected work); once ``k`` is a
    sizeable fraction of the population (``k * 32 >= population``) a numpy
    partial permutation is cheaper than the Python-level Floyd loop.  If
    ``k`` exceeds the number of available values it is truncated.
    """
    if population <= 0:
        return np.empty(0, dtype=np.int64)
    has_exclude = exclude is not None and 0 <= exclude < population
    available = population - (1 if has_exclude else 0)
    k = min(int(k), available)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    # Sample from the virtual slot range [0, m) with the excluded value (if
    # any) removed; indices >= exclude are shifted up by one afterwards.
    m = available
    if k * _NUMPY_CROSSOVER >= m:
        arr = rng.permutation(m)[:k].astype(np.int64)
    else:
        chosen: set[int] = set()
        for j in range(m - k, m):
            t = int(rng.integers(0, j + 1))
            chosen.add(t if t not in chosen else j)
        arr = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    if has_exclude:
        arr[arr >= exclude] += 1
    return arr


def sample_distinct_flat(
    rng: np.random.Generator, population: int, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``ks[i]`` distinct integers from ``[0, population)`` for every row ``i``.

    Returns ``(values, rows)``, two flat arrays of length
    ``sum(clip(ks, 0, population))``: row ``i`` owns ``min(max(ks[i], 0),
    population)`` consecutive cells of ``values`` (rows in order, each row's
    values in draw order) and ``rows[j]`` is the row of ``values[j]``.  Each
    row is an independent uniform distinct sample.  ``values`` has the
    smallest integer type that holds the population (int32 below ~2³¹: at
    millions of cells the draw and sort traffic dominates, so halving the
    element width is a measurable win); ``rows`` is int64.

    Strategy: draw every cell **with replacement** in one operation, find the
    rows holding a collision, and redraw only those rows, for up to
    ``_MAX_REJECTION_ROUNDS`` rounds.  The collision check follows the batch
    shape (see :func:`_collided`): pairwise column compares when all rows
    share one ``k <= 12``, a per-row sort for one larger ``k``, and one sort
    of ``row * population + value`` keys, built from the returned ``rows``,
    when ``k`` varies.  Only the cells a row asks for are drawn and checked,
    so a batch of very different row lengths costs its total length, not
    rows × longest row.  Rows whose ``k`` is a large fraction of the population
    (``k² > 4·population``: rejection would thrash) and rows that exhaust the
    retry budget take an exact random-key top-``k``: uniform keys per
    candidate, ``argpartition`` for the ``k`` smallest (a Gumbel-top-k with
    uniform instead of Gumbel noise, identical selection law).  When every
    row shares one ``k``, the generator is read exactly as a padded
    ``(rows, k)`` draw reads it.
    """
    ks = np.maximum(np.minimum(np.asarray(ks, dtype=np.int64), population), 0)
    rows = np.repeat(np.arange(ks.size, dtype=np.int64), ks)
    return _draw_rows(rng, population, ks, rows), rows


def _draw_rows(
    rng: np.random.Generator, population: int, ks: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """The ``values`` of :func:`sample_distinct_flat`, for ``ks`` within ``[0, population]``.

    ``rows`` are the batch's row ids, when the caller has made them.
    """
    m = ks.size
    kmax = int(ks.max()) if m else 0
    if kmax == 0:
        return np.empty(0, dtype=np.int64)
    uniform = int(ks.min()) == kmax
    dtype = np.int32 if population + kmax < _INT32_MAX else np.int64
    # First round: draw every cell.  Rows bound for the exact path receive
    # throwaway draws here; it overwrites them below.
    values = rng.integers(0, population, size=m * kmax if uniform else int(ks.sum()), dtype=dtype)
    # Rows where the expected collision count is large go straight to the
    # exact path; rejection would redraw them over and over.
    key_rows = np.empty(0, dtype=np.int64)
    if kmax * kmax > 4 * population:
        key_rows = np.flatnonzero(ks * ks > 4 * population)
    rej = key_rows[:0]
    if kmax > 1 and key_rows.size < m:
        dup = _collided(values, ks, population, rows, uniform)
        dup[key_rows] = False
        rej = np.flatnonzero(dup)
    if not (rej.size or key_rows.size):
        return values
    starts = np.cumsum(ks) - ks
    for _ in range(_MAX_REJECTION_ROUNDS - 1):
        if not rej.size:
            break
        sub_ks = ks[rej]
        draws = rng.integers(0, population, size=int(sub_ks.sum()), dtype=dtype)
        dup = _collided(draws, sub_ks, population, uniform=uniform)
        ok = ~np.repeat(dup, sub_ks)
        values[_segment_cells(starts[rej], sub_ks)[ok]] = draws[ok]
        rej = rej[dup]
    key_rows = np.concatenate([key_rows, rej])

    # Exact fallback: per row, the k smallest of `population` uniform keys
    # form a uniform k-subset.  Chunked so the key matrix stays bounded.
    chunk = max(1, _KEY_CHUNK_ELEMENTS // population)
    for first in range(0, key_rows.size, chunk):
        sub = key_rows[first : first + chunk]
        sub_ks = ks[sub]
        kb = int(sub_ks.max())
        keys = rng.random((sub.size, population))
        if kb < population:
            part = np.argpartition(keys, kb - 1, axis=1)[:, :kb]
            part_keys = np.take_along_axis(keys, part, axis=1)
            order = np.argsort(part_keys, axis=1)
            sel = np.take_along_axis(part, order, axis=1)
        else:
            sel = np.argsort(keys, axis=1)
        values[_segment_cells(starts[sub], sub_ks)] = sel[np.arange(kb) < sub_ks[:, None]]
    return values


def _collided(
    values: np.ndarray,
    ks: np.ndarray,
    population: int,
    rows: np.ndarray | None = None,
    uniform: bool = False,
) -> np.ndarray:
    """Flags of the rows (row ``i`` holds the next ``ks[i]`` cells) that drew a value twice.

    The check is chosen by the batch shape; the flags are the same whichever
    runs, so the rows redrawn, and the generator's stream, are too.

    * ``uniform`` (every row holds ``ks[0]`` cells), ``k <= _PAIRWISE_MAX_K``:
      the cells form an ``(m, k)`` matrix.  Its transpose is copied once, and
      the k(k-1)/2 equalities of two columns are ORed into one flag vector.
    * ``uniform``, larger ``k``: each row is sorted, and a collision is two
      equal neighbours.  Pairwise compares grow as k², a row sort as k log k;
      the two cross between 12 and 16 (table at ``_PAIRWISE_MAX_K``).
    * Mixed ``k``: one sort of the ``row * population + value`` keys puts each
      row's values next to each other.  The keys are built from ``rows``, the
      batch's row ids, when the caller has them, and from repeated row
      offsets otherwise.
    """
    m = ks.size
    if uniform:
        k = int(ks[0])
        matrix = values.reshape(m, k)
        if k > _PAIRWISE_MAX_K:
            matrix = np.sort(matrix, axis=1)
            return (matrix[:, 1:] == matrix[:, :-1]).any(axis=1)
        cols = np.ascontiguousarray(matrix.T)
        out = np.zeros(m, dtype=bool)
        same = np.empty(m, dtype=bool)
        for i in range(1, k):
            for j in range(i):
                np.equal(cols[i], cols[j], out=same)
                out |= same
        return out
    key_dtype = np.int32 if m * population < _INT32_MAX else np.int64
    if rows is None:
        keys = np.repeat(np.arange(0, m * population, population, dtype=key_dtype), ks)
    else:
        keys = rows.astype(key_dtype)
        keys *= population
    keys += values
    keys.sort()
    out = np.zeros(m, dtype=bool)
    out[keys[1:][keys[1:] == keys[:-1]] // population] = True
    return out


def _segment_cells(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` of every segment."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1], dtype=np.int64)


def sample_distinct_rows(
    rng: np.random.Generator, population: int, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise distinct draws as a ``(len(ks), max(ks))`` matrix.

    A matrix view of :func:`sample_distinct_flat` for callers that index by
    ``(row, slot)``: returns ``(matrix, valid)`` where ``valid[i, j]`` marks
    the ``ks[i]`` meaningful entries of row ``i`` (the rest is zero padding
    that no draw touched).  When all rows share one ``k`` the matrix is a free
    reshape of the flat draw and ``valid`` is all true.
    """
    ks = np.minimum(np.asarray(ks, dtype=np.int64), population)
    m = ks.size
    kmax = int(ks.max()) if m else 0
    if kmax <= 0:
        return np.zeros((m, 0), dtype=np.int64), np.zeros((m, 0), dtype=bool)
    values = _draw_rows(rng, population, np.maximum(ks, 0))
    if int(ks.min()) == kmax:
        return values.reshape(m, kmax), np.ones((m, kmax), dtype=bool)
    valid = np.arange(kmax) < ks[:, None]
    matrix = np.zeros((m, kmax), dtype=values.dtype)
    matrix[valid] = values
    return matrix, valid


def sample_distinct_rows_excluding(
    rng: np.random.Generator, population: int, ks: np.ndarray, exclude: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise distinct draws from ``[0, population)`` with one excluded value per row.

    ``exclude[i]`` is removed from row ``i``'s candidate set — the "never
    gossip to yourself" rule every membership view and overlay builder needs.
    Implemented as a draw from the ``population - 1`` *virtual* slots with
    the excluded value deleted; drawn slots ``>= exclude[i]`` shift up by one
    to restore real identifiers.  Returns ``(matrix, valid)`` exactly like
    :func:`sample_distinct_rows` (``ks`` is additionally clipped to
    ``population - 1``); the shift happens in place on the freshly drawn
    matrix, so no extra copy is made.
    """
    ks = np.minimum(np.asarray(ks, dtype=np.int64), population - 1)
    matrix, valid = sample_distinct_rows(rng, population - 1, ks)
    if matrix.shape[1]:
        # Ids are below the population, so they fit the matrix dtype, and the
        # compare stays at the cells' width instead of widening to int64.
        matrix += matrix >= np.asarray(exclude, dtype=matrix.dtype)[:, None]
    return matrix, valid


def unique_unseen(values: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D index array whose ``seen`` flag is False.

    Returns exactly ``np.unique(values[~seen[values]])``.  From numpy 2.3
    ``np.unique`` deduplicates integers with a hash table, which is about 10x
    slower than either branch here.  A round with at least an eighth as many
    values as ``seen`` has cells marks its values in a fresh cell mask and
    reads the unseen marks back in order (O(cells), about 8x faster than the
    sort at 175,000 values over 35,000 cells); a smaller round sorts the
    unseen values and drops every value equal to its predecessor.
    """
    if values.size * 8 >= seen.size:
        hit = np.zeros(seen.size, dtype=bool)
        hit[values] = True
        return np.flatnonzero(hit > seen).astype(values.dtype, copy=False)
    values = np.sort(values[~seen[values]])
    if values.size > 1:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values
