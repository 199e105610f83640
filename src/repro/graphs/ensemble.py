"""Batched graph-percolation ensembles: many ``Gossip(n, P, q)`` graphs at once.

The round simulator validates the paper's reliability curves execution by
execution; this module validates them **graph-side**, at scales the round
simulator cannot reach.  One gossip execution *is* a generalized random graph
(Section 3), so realising ``R`` independent graphs and measuring their giant
components and source reachabilities is a direct empirical check of Eq. 4 —
and it reduces to exactly two vectorised kernels:

* one batched distinct-target draw for **all (replica, member) pairs at
  once** through :func:`repro.utils.sampling.sample_distinct_rows` — the same
  kernel the batched Monte-Carlo simulator uses, so the graph layer and the
  simulator cannot drift apart statistically; and
* one CSR + :mod:`scipy.sparse.csgraph` pass per replica for the undirected
  component partition and the directed source BFS
  (:mod:`repro.graphs.components` fast paths).

Two ensembles are provided:

* :class:`GossipGraphEnsemble` — replicas of the **directed gossip graph**
  with fail-stop failures applied.  Its directed-reachability reliability is
  the operational quantity the paper predicts; its undirected-projection
  giant fraction is the structural proxy.  Note the projection's degree
  distribution is the sum of out- and in-degrees, so only the *reachability*
  is comparable to Eq. 4 (for Poisson fanouts they coincide).
* :func:`percolation_ensemble` — replicas of the **undirected
  configuration-model** graph under site percolation, the ensemble on which
  Eqs. 2-4 are derived; its giant fraction converges to Eq. 4 for any fanout
  distribution.

Replicas are processed in row-budgeted chunks so the batched draw matrix
(``rows × max fanout``) stays memory-bounded even at ``n = 10⁶``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.distributions import FanoutDistribution
from repro.graphs.configuration_model import configuration_model_edges
from repro.graphs.degree_sequence import DegreeMoments, sample_degree_sequence
from repro.utils.rng import SeedLike, as_generator
from repro.utils.sampling import sample_distinct_rows_excluding
from repro.utils.validation import check_integer, check_probability

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "GraphEnsembleResult",
    "GossipGraphEnsemble",
    "PercolationEnsembleResult",
    "percolation_ensemble",
]

#: Row budget of one batched target draw (rows = replicas × members in the
#: chunk).  Bounds the (rows × max-fanout) draw matrix to ~10⁷ int64 cells
#: regardless of how many replicas were requested.
_MAX_ROWS_PER_CHUNK = 1 << 20


def _csr_from_sorted(n_nodes: int, src_sorted: np.ndarray, dst: np.ndarray) -> "sparse.csr_matrix | None":
    """Return the CSR adjacency of arcs whose sources are already nondecreasing.

    Both ensemble edge streams arrive sorted by source (the batched draw
    emits rows in node order; the configuration model lexsorts its edges), so
    the indptr is one bincount + cumsum and the COO round-trip — the single
    most expensive step of a naive ``csr_matrix((data, (row, col)))`` build —
    disappears.  Data is float64 because that is
    :mod:`scipy.sparse.csgraph`'s native dtype; any other dtype makes every
    csgraph call convert (and copy) the whole matrix first.  Returns None
    for an empty arc set.
    """
    if src_sorted.size == 0:
        return None
    from scipy import sparse

    counts = np.bincount(src_sorted, minlength=n_nodes)
    # int32 indices/indptr (all ensemble graphs fit): halves the index
    # bandwidth of the csgraph kernels, which are memory-bound at this size.
    indptr = np.empty(n_nodes + 1, dtype=np.int32)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    data = np.ones(dst.size, dtype=np.float64)
    return sparse.csr_matrix(
        (data, dst.astype(np.int32, copy=False), indptr), shape=(n_nodes, n_nodes)
    )


def _largest_component(n: int, adj: "sparse.csr_matrix | None") -> int:
    """Largest undirected component of the replica (isolated nodes are singletons)."""
    if adj is None:
        return 1 if n else 0
    from scipy.sparse import csgraph

    n_components, labels = csgraph.connected_components(adj, directed=False)
    return int(np.bincount(labels, minlength=n_components).max())


@dataclass(frozen=True)
class GraphEnsembleResult:
    """Per-replica measurements of a gossip-graph ensemble.

    Attributes
    ----------
    n, q, source:
        The ``Gossip(n, P, q)`` parameters of the ensemble.
    repetitions:
        Number of independent graph replicas ``R``.
    n_alive:
        ``(R,)`` nonfailed members per replica.
    reached:
        ``(R,)`` members reachable from the source along effective arcs
        (the source itself included).
    giant_fraction:
        ``(R,)`` largest undirected component of the effective arcs as a
        share of nonfailed members (the structural proxy).
    reliability:
        ``(R,)`` ``reached / n_alive`` — the operational reliability of the
        execution the graph encodes.
    degree_moments:
        Empirical moments of the realised out-degrees of nonfailed members,
        pooled over all replicas; ``1 / mean_excess`` estimates the critical
        ratio of Eq. 3.
    """

    n: int
    q: float
    source: int
    repetitions: int
    n_alive: np.ndarray
    reached: np.ndarray
    giant_fraction: np.ndarray
    reliability: np.ndarray
    degree_moments: DegreeMoments

    def spread_occurred(self, min_reached: int | None = None) -> np.ndarray:
        """Per-replica epidemic-took-off flags (same convention as the simulator)."""
        if min_reached is None:
            min_reached = max(10, int(np.sqrt(self.n)))
        return self.reached > min_reached

    def conditional_reliability(self) -> float:
        """Mean reliability over replicas whose dissemination took off.

        This is the branch the analytical reliability (the giant-component
        size, Eq. 4) corresponds to; returns NaN when no replica took off.
        """
        spread = self.spread_occurred()
        if not spread.any():
            return float("nan")
        return float(self.reliability[spread].mean())

    def empirical_critical_ratio(self) -> float:
        """Empirical Eq. 3: ``1 / G1'(1)`` from the pooled degree moments."""
        excess = self.degree_moments.mean_excess
        return 1.0 / excess if excess > 0 else float("inf")


class GossipGraphEnsemble:
    """Realise ``R`` replicas of the ``Gossip(n, P, q)`` graph as one array program.

    Semantically each replica is an independent
    :func:`~repro.graphs.gossip_graph.build_gossip_graph` draw (fresh failure
    pattern, fresh fanouts, fresh targets); the ensemble merely batches the
    fanout and distinct-target draws across all replicas and runs the
    component/reachability measurements through the CSR fast paths.
    ``tests/graphs/test_ensemble.py`` pins it to the scalar builder in
    distribution.
    """

    def __init__(
        self,
        n: int,
        distribution: FanoutDistribution,
        q: float,
        *,
        source: int = 0,
    ) -> None:
        self.n = check_integer("n", n, minimum=1)
        self.distribution = distribution
        self.q = check_probability("q", q)
        self.source = check_integer("source", source, minimum=0, maximum=self.n - 1)

    def realise(self, repetitions: int, *, seed: SeedLike = None) -> GraphEnsembleResult:
        """Build and measure ``repetitions`` independent graph replicas."""
        from scipy.sparse import csgraph

        repetitions = check_integer("repetitions", repetitions, minimum=1)
        rng = as_generator(seed)
        n, q, source = self.n, self.q, self.source

        n_alive = np.zeros(repetitions, dtype=np.int64)
        reached = np.zeros(repetitions, dtype=np.int64)
        giant = np.zeros(repetitions, dtype=np.float64)
        reliability = np.zeros(repetitions, dtype=np.float64)
        pooled_count = 0
        pooled_sum = 0.0
        pooled_sum_sq = 0.0

        chunk_replicas = max(1, _MAX_ROWS_PER_CHUNK // n)
        done = 0
        while done < repetitions:
            chunk = min(chunk_replicas, repetitions - done)
            fanouts = self.distribution.sample(chunk * n, seed=rng)
            fanouts = np.minimum(fanouts.astype(np.int64, copy=False), n - 1)
            alive = rng.random((chunk, n)) < q
            alive[:, source] = True
            # Failed members never forward: their rows draw zero targets.
            eff_out = np.where(alive, fanouts.reshape(chunk, n), 0)

            # One batched distinct-target draw for every forwarding row of
            # the chunk (all replicas at once); rows with zero fanout are
            # skipped entirely so a low q costs proportionally less.
            ks = eff_out.ravel()
            active = np.flatnonzero(ks > 0)
            members = active % n
            # The shared exclusion kernel shifts slots >= the drawing member
            # up by one to skip itself (in place: the matrix is ours and it
            # is the chunk's largest allocation).
            matrix, valid = sample_distinct_rows_excluding(rng, n, ks[active], members)
            # Work in chunk-global node ids (replica r's member i is r·n + i):
            # the whole chunk then forms ONE block-diagonal graph whose
            # components never span replicas, so a single csgraph
            # connected_components call measures every replica at once.
            # Everything fits int32 (chunk·n <= ~2·_MAX_ROWS_PER_CHUNK),
            # halving the bandwidth of the flatten/filter/gather stages.
            active32 = active.astype(np.int32)
            edge_ks = ks[active]
            src_global = np.repeat(active32, edge_ks)
            dst_global = matrix[valid] + np.repeat(
                (active - members).astype(np.int32), edge_ks
            )
            # Effective arcs: alive source (guaranteed) AND alive target.
            keep = alive.ravel()[dst_global]
            es, ed = src_global[keep], dst_global[keep]
            adj = _csr_from_sorted(chunk * n, es, ed)

            alive_counts = alive.sum(axis=1)
            n_alive[done : done + chunk] = alive_counts
            if adj is None:
                giant[done : done + chunk] = 1.0 / alive_counts
                reached[done : done + chunk] = 1
            else:
                n_components, labels = csgraph.connected_components(adj, directed=False)
                sizes = np.bincount(labels, minlength=n_components)
                # Size of each node's component, reshaped per replica: the
                # row-wise max is that replica's largest component (isolated
                # and failed members count as singletons, exactly as in the
                # scalar largest_component_size).
                giant[done : done + chunk] = (
                    sizes[labels].reshape(chunk, n).max(axis=1) / alive_counts
                )
                # One BFS covers every replica: a virtual super-source node
                # (id chunk·n, sorting after every real node) with an arc to
                # each replica's source visits exactly the union of the
                # per-replica reachable sets.
                super_id = chunk * n
                bfs_adj = _csr_from_sorted(
                    super_id + 1,
                    np.concatenate([es, np.full(chunk, super_id, dtype=np.int32)]),
                    np.concatenate(
                        [ed, np.arange(chunk, dtype=np.int32) * n + source]
                    ),
                )
                order = csgraph.breadth_first_order(
                    bfs_adj, super_id, directed=True, return_predecessors=False
                )
                reached[done : done + chunk] = np.bincount(
                    order[order < super_id] // n, minlength=chunk
                )
            reliability[done : done + chunk] = (
                reached[done : done + chunk] / alive_counts
            )

            alive_degrees = eff_out[alive].astype(np.float64)
            pooled_count += alive_degrees.size
            pooled_sum += float(alive_degrees.sum())
            pooled_sum_sq += float((alive_degrees * alive_degrees).sum())
            done += chunk

        moments = _moments_from_sums(pooled_count, pooled_sum, pooled_sum_sq)
        return GraphEnsembleResult(
            n=n,
            q=q,
            source=source,
            repetitions=repetitions,
            n_alive=n_alive,
            reached=reached,
            giant_fraction=giant,
            reliability=reliability,
            degree_moments=moments,
        )


def _moments_from_sums(count: int, total: float, total_sq: float) -> DegreeMoments:
    """Assemble :class:`DegreeMoments` from pooled ``(count, Σk, Σk²)`` sums."""
    if count == 0:
        return DegreeMoments(mean=0.0, second_factorial=0.0, mean_excess=0.0, variance=0.0)
    mean = total / count
    second_factorial = (total_sq - total) / count
    mean_excess = second_factorial / mean if mean > 0 else 0.0
    variance = total_sq / count - mean * mean
    return DegreeMoments(
        mean=mean,
        second_factorial=second_factorial,
        mean_excess=mean_excess,
        variance=max(variance, 0.0),
    )


@dataclass(frozen=True)
class PercolationEnsembleResult:
    """Per-replica giant fractions of the undirected configuration-model ensemble.

    ``giant_fraction[r]`` is the largest component's share of the *occupied*
    (nonfailed) nodes of replica ``r`` — directly comparable to Eq. 4's
    ``R(q, P)``.
    """

    n: int
    q: float
    repetitions: int
    giant_fraction: np.ndarray

    def mean_fraction(self) -> float:
        """Mean giant fraction across replicas."""
        return float(self.giant_fraction.mean())

    def std_fraction(self) -> float:
        """Sample standard deviation across replicas (0 for one replica)."""
        if self.repetitions < 2:
            return 0.0
        return float(self.giant_fraction.std(ddof=1))


def percolation_ensemble(
    dist: FanoutDistribution,
    n: int,
    q: float,
    *,
    repetitions: int = 10,
    seed: SeedLike = None,
) -> PercolationEnsembleResult:
    """Measure the giant component of ``ζ(n, P)`` under site percolation, batched.

    The vectorised counterpart of
    :func:`repro.graphs.metrics.empirical_giant_component` (which remains the
    scalar reference): per replica one stub-matching build, one vectorised
    occupation filter, and one CSR component pass — no per-edge Python work,
    so ``n = 10⁶`` replicas complete in seconds.
    """
    n = check_integer("n", n, minimum=1)
    q = check_probability("q", q)
    repetitions = check_integer("repetitions", repetitions, minimum=1)
    rng = as_generator(seed)

    fractions = np.zeros(repetitions, dtype=np.float64)
    for rep in range(repetitions):
        degrees = sample_degree_sequence(dist, n, seed=rng, max_degree=n - 1)
        edges = configuration_model_edges(degrees, seed=rng)
        occupied = rng.random(n) < q
        occupied_count = int(occupied.sum())
        if occupied_count == 0:
            fractions[rep] = 0.0
            continue
        if edges.size:
            # The simplified edge list is lexsorted, so the occupied filter
            # leaves the sources nondecreasing — the direct CSR build applies.
            keep = occupied[edges[:, 0]] & occupied[edges[:, 1]]
            kept = edges[keep]
            adj = _csr_from_sorted(n, kept[:, 0], kept[:, 1])
        else:
            adj = None
        fractions[rep] = _largest_component(n, adj) / occupied_count
    return PercolationEnsembleResult(
        n=n, q=q, repetitions=repetitions, giant_fraction=fractions
    )
