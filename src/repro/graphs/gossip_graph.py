"""The gossip-induced random graph of one execution, with failures applied.

Section 3 of the paper observes that "the process of generating a random
graph is similar to the process of gossiping a message": an arc ``x → y`` is
present iff ``x`` gossips the message to ``y``.  Fail-stop failures remove
nodes (site percolation): a failed member neither forwards nor counts towards
the reliability.

:class:`GossipGraph` materialises that object — the directed graph a single
execution *would* trace if every nonfailed member that receives the message
forwards it according to its pre-drawn fanout — and answers both questions
the paper studies:

* which nonfailed members are reachable from the source (reliability), and
* what the component structure of the undirected projection looks like
  (the analytical proxy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.distributions import FanoutDistribution
from repro.graphs.components import largest_component_size, reachable_from
from repro.graphs.configuration_model import directed_configuration_edges
from repro.graphs.degree_sequence import sample_degree_sequence
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_probability

__all__ = ["GossipGraph", "build_gossip_graph"]


@dataclass
class GossipGraph:
    """One realised gossip execution viewed as a random graph.

    Attributes
    ----------
    n:
        Total number of members.
    source:
        The source member (never fails).
    alive:
        Boolean mask of nonfailed members (``alive[source]`` is always True).
    fanouts:
        The fanout drawn by each member (only meaningful for alive members —
        failed members never forward).
    edges:
        Directed gossip arcs ``(x, y)`` restricted to alive sources.  Arcs
        into failed members are kept: a failed member may "receive" the
        message but never forwards it, matching the paper's two failure cases
        (crash before receiving, or after receiving but before forwarding).
    """

    n: int
    source: int
    alive: np.ndarray
    fanouts: np.ndarray
    edges: np.ndarray
    _effective_edges: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------ queries
    def n_alive(self) -> int:
        """Return the number of nonfailed members."""
        return int(self.alive.sum())

    def effective_edges(self) -> np.ndarray:
        """Return the arcs usable for dissemination (alive source AND alive target).

        Arcs into failed members cannot contribute to further dissemination,
        so reachability over the *effective* arcs equals reachability of
        nonfailed members over the full arc set.  The filtered array is
        computed once and cached — ``reached()``, ``reliability()``, and
        ``giant_component_fraction()`` all start from it, and ``alive`` /
        ``edges`` are not meant to be mutated after construction.
        """
        if self._effective_edges is None:
            if self.edges.size == 0:
                self._effective_edges = self.edges
            else:
                keep = self.alive[self.edges[:, 0]] & self.alive[self.edges[:, 1]]
                self._effective_edges = self.edges[keep]
        return self._effective_edges

    def reached(self) -> np.ndarray:
        """Return the boolean mask of members reachable from the source."""
        return reachable_from(self.n, self.effective_edges(), self.source)

    def reliability(self) -> float:
        """Return the realised reliability: reached nonfailed members / nonfailed members."""
        alive_count = self.n_alive()
        if alive_count == 0:
            return 0.0
        reached_alive = int((self.reached() & self.alive).sum())
        return reached_alive / alive_count

    def giant_component_fraction(self) -> float:
        """Return the largest undirected component's share of nonfailed members.

        This is the analytical proxy the paper uses for reliability: the
        undirected projection of the effective gossip arcs, restricted to
        nonfailed members.
        """
        alive_count = self.n_alive()
        if alive_count == 0:
            return 0.0
        effective = self.effective_edges()
        return largest_component_size(self.n, effective) / alive_count if alive_count else 0.0


def build_gossip_graph(
    n: int,
    distribution: FanoutDistribution,
    q: float,
    *,
    source: int = 0,
    seed: SeedLike = None,
    method: str = "vectorized",
) -> GossipGraph:
    """Build the gossip graph of one execution of ``Gossip(n, P, q)``.

    Every member draws a fanout from ``distribution`` and selects that many
    distinct targets uniformly at random from the other members; then a
    uniform fraction ``1 - q`` of members (never the source) is marked failed.

    Parameters
    ----------
    n:
        Group size.
    distribution:
        Fanout distribution ``P``.
    q:
        Nonfailed-member ratio.
    source:
        The member that initiates gossiping (assumed never to fail).
    seed:
        RNG seed or generator.
    method:
        Edge-construction method, forwarded to
        :func:`~repro.graphs.configuration_model.directed_configuration_edges`
        (``"vectorized"`` default, ``"scalar"`` reference).
    """
    n = check_integer("n", n, minimum=1)
    q = check_probability("q", q)
    source = check_integer("source", source, minimum=0, maximum=n - 1)
    rng = as_generator(seed)

    fanouts = sample_degree_sequence(distribution, n, seed=rng, max_degree=n - 1)
    alive = rng.random(n) < q
    alive[source] = True

    # Failed members never forward: drop their out-arcs before building edges
    # (equivalent to building all arcs then filtering, but cheaper).
    effective_out = np.where(alive, fanouts, 0)
    edges = directed_configuration_edges(effective_out, seed=rng, method=method)
    return GossipGraph(n=n, source=source, alive=alive, fanouts=fanouts, edges=edges)
