"""Random-number-generator management.

Every stochastic entry point in the library accepts a ``seed`` argument that
may be ``None``, an integer, a :class:`numpy.random.SeedSequence`, or an
existing :class:`numpy.random.Generator`.  These helpers normalise that
argument so Monte-Carlo experiments are reproducible by construction and so
independent replicas receive statistically independent streams.
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np

#: Anything the ``seed`` arguments accept: ``None`` (fresh entropy), an
#: integer, a ``SeedSequence``, or an existing ``Generator``.
SeedLike: TypeAlias = "int | None | np.random.SeedSequence | np.random.Generator"


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic entropy), an ``int``, a
        :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged).

    Examples
    --------
    >>> g = as_generator(123)
    >>> g2 = as_generator(g)
    >>> g is g2
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def seed_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """Return a :class:`numpy.random.SeedSequence` for ``seed``.

    A ``Generator`` argument is not accepted here because a generator cannot
    be converted back into a seed sequence without consuming its stream.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "seed_sequence() cannot accept a Generator; pass an int, None, or SeedSequence"
        )
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def spawn_seeds(n: int, seed: SeedLike = None) -> list[int]:
    """Return ``n`` independent integer seeds derived from ``seed``.

    Integer seeds (rather than generator objects) are picklable and therefore
    safe to ship to worker processes.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        return [int(s) for s in seed.integers(0, 2**63 - 1, size=n, dtype=np.int64)]
    ss = seed_sequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1)) for child in ss.spawn(n)]
