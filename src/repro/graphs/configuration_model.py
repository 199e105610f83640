"""Configuration-model construction of generalized random graphs.

The generalized random graph ``ζ(n, P)`` of Section 4.1 is a graph whose
degree distribution is the fanout distribution ``P``.  Two constructions are
provided:

* :func:`directed_configuration_edges` — each node ``i`` with out-degree
  ``d_i`` picks ``d_i`` distinct targets uniformly at random from the other
  nodes.  This is exactly what the gossip algorithm does (its Figure 1), so
  it is the construction used by :mod:`repro.graphs.gossip_graph` and the
  simulator.  The default ``"vectorized"`` method performs **one** batched
  distinct-target draw for all nodes through
  :func:`repro.utils.sampling.sample_distinct_rows` — the same kernel the
  batched Monte-Carlo simulator uses — while ``"scalar"`` keeps the original
  per-node ``rng.choice`` loop as the behavioural reference.
* :func:`configuration_model_edges` — the classical undirected stub-matching
  configuration model (Newman–Strogatz–Watts), used to validate the
  percolation formulas on their "native" ensemble.

Both return plain ``(m, 2)`` edge arrays.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.sampling import sample_distinct_rows
from repro.utils.validation import check_choice

__all__ = [
    "configuration_model_edges",
    "directed_configuration_edges",
]


def directed_configuration_edges(
    out_degrees: np.ndarray,
    *,
    seed: SeedLike = None,
    allow_self_loops: bool = False,
    method: str = "vectorized",
) -> np.ndarray:
    """Build directed edges where node ``i`` picks ``out_degrees[i]`` distinct targets.

    Targets are chosen uniformly at random without replacement from the other
    nodes (matching the gossip algorithm's "select f_i nodes uniformly at
    random from its membership view").  Out-degrees larger than the number of
    available targets are truncated to it.

    ``method="vectorized"`` (default) draws all nodes' targets in one batched
    :func:`~repro.utils.sampling.sample_distinct_rows` call;
    ``method="scalar"`` is the original per-node loop kept as the behavioural
    reference (the two consume randomness differently, so they agree in
    distribution, not per seed — ``tests/graphs/test_graph_equivalence.py``
    pins them together).

    Returns an ``(m, 2)`` int64 array of ``(source, target)`` pairs.
    """
    check_choice("method", method, ("vectorized", "scalar"))
    rng = as_generator(seed)
    out_degrees = np.asarray(out_degrees, dtype=np.int64)
    n = out_degrees.size
    if np.any(out_degrees < 0):
        raise ValueError("out-degrees must be non-negative")
    max_targets = n if allow_self_loops else n - 1
    if max_targets < 0:
        max_targets = 0

    if method == "scalar":
        return _directed_edges_scalar(rng, out_degrees, n, max_targets, allow_self_loops)

    ks = np.minimum(out_degrees, max_targets)
    matrix, valid = sample_distinct_rows(rng, max_targets, ks)
    if not allow_self_loops and matrix.shape[1]:
        # Each row sampled from the n-1 virtual slots with its own id removed;
        # drawn slots >= node shift up by one to restore real identifiers.
        matrix = matrix + (matrix >= np.arange(n, dtype=np.int64)[:, None])
    sources = np.repeat(np.arange(n, dtype=np.int64), ks)
    if sources.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([sources, matrix[valid]])


def _directed_edges_scalar(
    rng: np.random.Generator,
    out_degrees: np.ndarray,
    n: int,
    max_targets: int,
    allow_self_loops: bool,
) -> np.ndarray:
    """Per-node reference construction (the seed implementation)."""
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for node in range(n):
        k = int(min(out_degrees[node], max_targets))
        if k <= 0:
            continue
        chosen = _sample_targets(rng, n, node, k, allow_self_loops)
        sources.append(np.full(k, node, dtype=np.int64))
        targets.append(chosen)
    if not sources:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([np.concatenate(sources), np.concatenate(targets)])


def _sample_targets(
    rng: np.random.Generator, n: int, node: int, k: int, allow_self_loops: bool
) -> np.ndarray:
    """Sample ``k`` distinct targets for ``node`` from ``0..n-1`` (optionally excluding it)."""
    if allow_self_loops:
        return rng.choice(n, size=k, replace=False).astype(np.int64)
    # Sample from n-1 slots and shift indices >= node by one to skip `node`.
    chosen = rng.choice(n - 1, size=k, replace=False).astype(np.int64)
    chosen[chosen >= node] += 1
    return chosen


def configuration_model_edges(
    degrees: np.ndarray,
    *,
    seed: SeedLike = None,
    simplify: bool = True,
    max_parity_fixes: int = 1,
) -> np.ndarray:
    """Build an undirected configuration-model edge list by stub matching.

    Parameters
    ----------
    degrees:
        Desired degree of every node.  If the sum is odd, one unit is added
        to a randomly chosen node (the standard repair, applied at most
        ``max_parity_fixes`` times).
    simplify:
        When True, self-loops and parallel edges produced by stub matching are
        dropped; the realised degree sequence then deviates slightly from the
        prescribed one, which is the usual trade-off and is irrelevant for
        giant-component measurements at large ``n``.

    Returns an ``(m, 2)`` int64 array with each undirected edge listed once,
    rows sorted lexicographically when ``simplify`` is on.
    """
    rng = as_generator(seed)
    degrees = np.asarray(degrees, dtype=np.int64).copy()
    if np.any(degrees < 0):
        raise ValueError("degrees must be non-negative")
    n = degrees.size
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    fixes = 0
    while degrees.sum() % 2 != 0:
        if fixes >= max_parity_fixes:
            raise ValueError("degree sequence has odd sum and parity repair is disabled")
        degrees[int(rng.integers(0, n))] += 1
        fixes += 1

    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    if simplify and pairs.size:
        keep = pairs[:, 0] != pairs[:, 1]
        pairs = pairs[keep]
        # Drop parallel edges: canonicalise order, lexsort, keep the first of
        # each run (same output as np.unique(axis=0) without its void-dtype
        # row comparisons, which dominated the build at large n).
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        first = np.ones(lo.size, dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        pairs = np.column_stack([lo[first], hi[first]])
    return pairs.astype(np.int64)
