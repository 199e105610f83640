"""Connected components, union-find, and source reachability.

The analytical model talks about components of the *undirected projection* of
the gossip graph (the giant component), while the operational question — "did
member ``y`` receive the message?" — is directed reachability from the source
node.  Both are provided here on plain edge arrays so the simulator does not
need to materialise a networkx graph on the hot path.

Two implementations back every query:

* the **fast path** (default ``method="csgraph"``) converts the edge array to
  a CSR sparse matrix once and runs :mod:`scipy.sparse.csgraph`'s C kernels
  (``connected_components`` for the undirected partition,
  ``breadth_first_order`` for directed reachability) — linear in ``n + m``
  with no Python-level per-edge work, which is what makes million-node
  percolation ensembles (:mod:`repro.graphs.ensemble`) feasible;
* the **reference path** (``method="unionfind"`` / ``"python"``) keeps the
  original per-edge :class:`UnionFind` loop and the list-frontier BFS.  Both
  are deterministic graph algorithms, so the equivalence tests pin the fast
  path to the reference *exactly*, not just in distribution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.utils.validation import check_choice, check_integer

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "UnionFind",
    "component_labels",
    "connected_components",
    "component_sizes",
    "largest_component_size",
    "reachable_from",
]


class UnionFind:
    """Disjoint-set forest with union by size and path compression.

    Elements are integers ``0 .. n-1``.
    """

    def __init__(self, n: int) -> None:
        n = check_integer("n", n, minimum=0)
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def __len__(self) -> int:
        return len(self.parent)

    def find(self, x: int) -> int:
        """Return the representative of ``x`` (with path compression)."""
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets containing ``a`` and ``b``; return True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True

    def roots(self) -> np.ndarray:
        """Return the representative of every element at once.

        Vectorised pointer doubling: squaring the parent map halves the
        maximal chain depth per iteration, so with union-by-size (depth
        O(log n)) this converges in O(log log n) full-array passes instead of
        ``n`` Python-level :meth:`find` calls.
        """
        roots = self.parent.copy()
        while True:
            nxt = roots[roots]
            if np.array_equal(nxt, roots):
                return roots
            roots = nxt

    def components(self) -> list[np.ndarray]:
        """Return the current partition as a list of element arrays."""
        return _split_by_labels(self.roots())


def _split_by_labels(labels: np.ndarray) -> list[np.ndarray]:
    """Group element indices by label (one stable argsort, no Python loops)."""
    if labels.size == 0:
        return []
    order = np.argsort(labels, kind="stable")
    boundaries = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order, boundaries)


def _check_edges(edges: np.ndarray) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
        raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
    return edges


def edges_to_csr(n: int, edges: np.ndarray) -> "sparse.csr_matrix":
    """Build the ``n × n`` CSR adjacency of an edge array (duplicates collapse)."""
    from scipy import sparse

    edges = _check_edges(edges)
    if edges.size == 0:
        return sparse.csr_matrix((n, n), dtype=np.int8)
    data = np.ones(edges.shape[0], dtype=np.int8)
    return sparse.csr_matrix((data, (edges[:, 0], edges[:, 1])), shape=(n, n))


def component_labels(n: int, edges: np.ndarray) -> tuple[int, np.ndarray]:
    """Return ``(n_components, labels)`` of the undirected graph given by ``edges``.

    ``labels[i]`` is the component index of node ``i``; direction is ignored.
    This is the primitive of the fast path — one CSR build plus one
    ``scipy.sparse.csgraph.connected_components`` call.
    """
    n = check_integer("n", n, minimum=0)
    edges = _check_edges(edges)
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    if edges.size == 0:
        return n, np.arange(n, dtype=np.int64)
    from scipy.sparse import csgraph

    n_components, labels = csgraph.connected_components(
        edges_to_csr(n, edges), directed=False
    )
    return int(n_components), labels.astype(np.int64, copy=False)


def connected_components(n: int, edges: np.ndarray, *, method: str = "csgraph") -> list[np.ndarray]:
    """Return the connected components of an undirected graph given by ``edges``.

    Parameters
    ----------
    n:
        Number of nodes (``0 .. n-1``).
    edges:
        Array of shape ``(m, 2)``; direction is ignored.
    method:
        ``"csgraph"`` (default, CSR + scipy) or ``"unionfind"`` (the per-edge
        reference).  Both return the same partition; only the ordering of the
        component list may differ.
    """
    check_choice("method", method, ("csgraph", "unionfind"))
    if method == "unionfind":
        return _union_all(n, edges).components()
    _, labels = component_labels(n, edges)
    return _split_by_labels(labels)


def component_sizes(n: int, edges: np.ndarray, *, method: str = "csgraph") -> np.ndarray:
    """Return the sizes of all connected components (descending order)."""
    check_choice("method", method, ("csgraph", "unionfind"))
    if method == "unionfind":
        roots = _union_all(n, edges).roots()
        _, counts = np.unique(roots, return_counts=True)
        return np.sort(counts)[::-1]
    n_components, labels = component_labels(n, edges)
    counts = np.bincount(labels, minlength=n_components)
    return np.sort(counts)[::-1]


def largest_component_size(n: int, edges: np.ndarray, *, method: str = "csgraph") -> int:
    """Return the size of the largest connected component (0 for an empty graph)."""
    if n == 0:
        return 0
    return int(component_sizes(n, edges, method=method)[0])


def _union_all(n: int, edges: np.ndarray) -> UnionFind:
    n = check_integer("n", n, minimum=0)
    edges = _check_edges(edges)
    uf = UnionFind(n)
    if edges.size == 0:
        return uf
    for a, b in edges:
        uf.union(int(a), int(b))
    return uf


def reachable_from(
    n: int, edges: np.ndarray, source: int, *, method: str = "csgraph"
) -> np.ndarray:
    """Return the boolean mask of nodes reachable from ``source`` along directed edges.

    This is the operational definition of "received the message": member ``y``
    receives the message of source ``s`` iff there is a directed gossip path
    ``s → ... → y``.  The default method builds the CSR adjacency once and
    runs :func:`scipy.sparse.csgraph.breadth_first_order` (a C-level frontier
    BFS); ``method="python"`` keeps the original list-frontier BFS as the
    behavioural reference.  Both are linear in ``n + m`` and agree exactly.
    """
    check_choice("method", method, ("csgraph", "python"))
    n = check_integer("n", n, minimum=0)
    source = check_integer("source", source, minimum=0, maximum=max(n - 1, 0))
    edges = _check_edges(edges)
    visited = np.zeros(n, dtype=bool)
    if n == 0:
        return visited
    visited[source] = True
    if edges.size == 0:
        return visited

    if method == "csgraph":
        from scipy.sparse import csgraph

        order = csgraph.breadth_first_order(
            edges_to_csr(n, edges), source, directed=True, return_predecessors=False
        )
        visited[order] = True
        return visited

    # Reference path: CSR-style adjacency via one argsort, list-frontier BFS.
    order = np.argsort(edges[:, 0], kind="stable")
    src_sorted = edges[order, 0]
    dst_sorted = edges[order, 1]
    starts = np.searchsorted(src_sorted, np.arange(n), side="left")
    ends = np.searchsorted(src_sorted, np.arange(n), side="right")

    frontier = [source]
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            for v in dst_sorted[starts[u] : ends[u]]:
                if not visited[v]:
                    visited[v] = True
                    next_frontier.append(int(v))
        frontier = next_frontier
    return visited
