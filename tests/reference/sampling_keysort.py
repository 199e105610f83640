"""The key-sort collision flags of the distinct sampler, kept as a test oracle.

:func:`repro.utils.sampling.sample_distinct_flat` redraws exactly the rows
that drew a value twice.  It used to find them with one sort of
``row * population + value`` keys for every batch shape; it now picks the
check by batch shape.  The flags must stay equal, or the redrawn rows, and so
every fixed-seed stream, would change; the tests pin them to this function.
"""

from __future__ import annotations

import numpy as np

_INT32_MAX = int(np.iinfo(np.int32).max)


def _collided(values: np.ndarray, ks: np.ndarray, population: int) -> np.ndarray:
    """Flags of the rows (row ``i`` holds the next ``ks[i]`` cells) that drew a value twice.

    One sort of the ``row * population + value`` keys puts each row's values
    next to each other, so a collision is two equal neighbours.
    """
    m = ks.size
    key_dtype = np.int32 if m * population < _INT32_MAX else np.int64
    keys = np.repeat(np.arange(0, m * population, population, dtype=key_dtype), ks)
    keys += values
    keys.sort()
    out = np.zeros(m, dtype=bool)
    out[keys[1:][keys[1:] == keys[:-1]] // population] = True
    return out
