"""The padded row-wise distinct sampler, kept as a test oracle.

This is the batched distinct-sampling kernel the library used before
:func:`repro.utils.sampling.sample_distinct_flat`: every row is drawn padded to
the batch's largest ``k`` as one ``(rows, kmax)`` matrix.  It reads the
generator exactly as the padding-free kernel does when all rows share one
``k``, so the tests pin the new kernel to it value for value there, and by law
elsewhere.
"""

from __future__ import annotations

import numpy as np

#: Rejection-sampling retry budget of the batched sampler before a row falls
#: back to the exact random-key path.
_MAX_REJECTION_ROUNDS = 6

#: Element budget of one random-key matrix chunk (rows × population); keeps
#: the fallback path's memory bounded for huge batches.
_KEY_CHUNK_ELEMENTS = 1 << 24


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
