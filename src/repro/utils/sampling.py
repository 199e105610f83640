"""Shared distinct-sampling kernels for the simulator and the graph layer.

Both hot paths of the library reduce to the same primitive — "draw ``k``
distinct integers uniformly at random from a population" — applied at two
granularities:

* :func:`sample_distinct` — one draw (Floyd's algorithm with a numpy
  partial-permutation crossover).  Used by the scalar simulators and the
  round-based protocol baselines.
* :func:`sample_distinct_rows` — a whole batch of draws as one array
  program (with :func:`sample_distinct_rows_excluding` layering the
  ubiquitous "never draw yourself" exclusion on top): draw every row
  **with replacement** in a single operation and
  redraw the rare rows that contain a collision, falling back to an exact
  random-key top-``k`` (argpartition over uniform keys — a Gumbel-top-k with
  uniform instead of Gumbel noise, identical selection law) for rows whose
  ``k`` is a large fraction of the population.  This is the engine behind
  :meth:`repro.simulation.membership.MembershipView.sample_targets_batch`
  (the batched Monte-Carlo simulator) and
  :func:`repro.graphs.configuration_model.directed_configuration_edges`
  (the batched graph-percolation ensemble), so the two layers cannot drift
  apart statistically.

:func:`unique_unseen` is the matching dedup kernel: the batched engines use
it to turn a round's delivered cells into the sorted distinct fresh ones.

The module lives under :mod:`repro.utils` because it must not depend on
either the simulation or the graph subpackage.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sample_distinct",
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


def sample_distinct_rows(
    rng: np.random.Generator, population: int, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``ks[i]`` distinct integers from ``[0, population)`` for every row ``i``.

    Returns ``(matrix, valid)`` where ``matrix`` has shape
    ``(len(ks), max(ks))`` and ``valid[i, j]`` marks the ``ks[i]`` meaningful
    entries of row ``i`` (the rest is junk padding).  Each row is an
    independent uniform distinct sample.  The matrix dtype is the smallest
    integer type that holds the population (int32 below ~2³¹ — at millions
    of rows the draw/sort memory traffic dominates, so halving the element
    width is a measurable win); callers upcast on demand.

    Strategy: draw every row **with replacement** in one array operation and
    redraw only the rows that contain a collision — for the gossip regime
    (fanout ≈ 4, population ≈ thousands) collisions hit ~``k²/2·pop`` of the
    rows so one pass nearly always suffices.  Rows whose ``k`` is a large
    fraction of the population (rejection would thrash) and rows that exhaust
    the retry budget use an exact random-key top-``k``: uniform keys per
    candidate, ``argpartition`` for the ``k`` smallest (a Gumbel-top-k with
    uniform instead of Gumbel noise — identical selection law).
    """
    ks = np.minimum(np.asarray(ks, dtype=np.int64), population)
    m = ks.size
    kmax = int(ks.max()) if m else 0
    if m == 0 or kmax <= 0 or population <= 0:
        valid = np.zeros((m, 0), dtype=bool)
        return np.zeros((m, 0), dtype=np.int64), valid
    cols = np.arange(kmax, dtype=np.int64)
    valid = cols[None, :] < ks[:, None]
    dtype = np.int32 if population + kmax < np.iinfo(np.int32).max else np.int64

    # Rows where the expected collision count is large go straight to the
    # exact path; rejection would redraw them over and over.
    direct = ks * ks > 4 * population
    key_rows = np.flatnonzero(direct)
    # Padding values `population + col` are distinct within a row and never
    # collide with real draws, so the duplicate scan can sort whole rows.
    pad = (population + cols).astype(dtype)
    # First round: draw for EVERY row and let the output own the draw matrix.
    # Redrawing only the rare collision rows afterwards avoids the two
    # full-size fancy-indexed copies a "copy the accepted rows" formulation
    # costs (the dominant expense at millions of rows).  Direct rows receive
    # throwaway draws here; the exact path overwrites them below.  The
    # duplicate scan deliberately includes the padding cells beyond each
    # row's k (their draws are junk): a junk-cell collision only sends the
    # row through one more redraw, which is far cheaper than masking every
    # cell of the full matrix.
    out = rng.integers(0, population, size=(m, kmax), dtype=dtype)
    work = np.sort(out, axis=1)
    dup = (work[:, 1:] == work[:, :-1]).any(axis=1)
    rej = np.flatnonzero(dup & ~direct)
    for _ in range(_MAX_REJECTION_ROUNDS - 1):
        if not rej.size:
            break
        draws = rng.integers(0, population, size=(rej.size, kmax), dtype=dtype)
        work = np.where(valid[rej], draws, pad)
        work.sort(axis=1)
        dup = (work[:, 1:] == work[:, :-1]).any(axis=1)
        ok = ~dup
        out[rej[ok]] = draws[ok]
        rej = rej[dup]
    if rej.size:
        key_rows = np.concatenate([key_rows, rej])

    # Exact fallback: per row, the k smallest of `population` uniform keys
    # form a uniform k-subset.  Chunked so the key matrix stays bounded.
    if key_rows.size:
        chunk = max(1, _KEY_CHUNK_ELEMENTS // max(1, population))
        for start in range(0, key_rows.size, chunk):
            sub = key_rows[start : start + chunk]
            kb = int(ks[sub].max())
            keys = rng.random((sub.size, population))
            if kb < population:
                part = np.argpartition(keys, kb - 1, axis=1)[:, :kb]
                part_keys = np.take_along_axis(keys, part, axis=1)
                order = np.argsort(part_keys, axis=1)
                sel = np.take_along_axis(part, order, axis=1)
            else:
                sel = np.argsort(keys, axis=1)
            out[sub, :kb] = sel[:, :kb]
    return out, valid


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
        matrix += matrix >= np.asarray(exclude)[:, None]
    return matrix, valid


def unique_unseen(values: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D index array whose ``seen`` flag is False.

    Returns exactly ``np.unique(values[~seen[values]])``: the unseen values
    are sorted and every value equal to its predecessor is dropped.  From
    numpy 2.3 ``np.unique`` deduplicates integers with a hash table, which is
    about 10x slower than this sort at the few thousand cells a batched
    gossip round delivers.
    """
    values = np.sort(values[~seen[values]])
    if values.size > 1:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values
