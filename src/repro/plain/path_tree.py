"""Path-tree: reachability via a path (chain) cover of the DAG (§3.1).

Jin et al.'s path-tree family generalises the tree cover by covering the
DAG with *paths* instead of a tree.  We implement the chain-cover core the
scheme rests on: decompose the DAG into vertex-disjoint paths and give
every vertex a vector ``reach[v][c]`` — the earliest position in chain
``c`` that ``v`` reaches (∞ if none).  Since a chain vertex reaches its
whole chain suffix, ``Qr(s, t)`` reduces to one comparison:
``reach[s][chain(t)] <= position(t)``.

The vectors are computed by one reverse-topological sweep taking
component-wise minima over out-neighbours, so build time is
O(|E| · #chains).  The index also supports the Table 1 "Dynamic = Yes"
entry: edge insertion propagates the (monotone-decreasing) minima to the
affected ancestors; deletion rebuilds the sweep (documented trade-off —
the original paper's deletion support is similarly the expensive case).
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.errors import NotADAGError, VertexError
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase
from repro.plain.chains import ChainDecomposition, greedy_chain_decomposition

__all__ = ["PathTreeIndex"]

_INF = float("inf")


@register_plain
class PathTreeIndex(ReachabilityIndex):
    """Chain-cover index: one min-position entry per (vertex, chain)."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Path-tree",
        framework="Tree cover",
        complete=True,
        input_kind="DAG",
        dynamic="yes",
    )

    def __init__(
        self,
        graph: DiGraph,
        decomposition: ChainDecomposition,
        reach: list[list[float]],
    ) -> None:
        super().__init__(graph)
        self._decomposition = decomposition
        self._reach = reach

    @classmethod
    def build(cls, graph: DiGraph) -> "PathTreeIndex":
        with build_phase("chain-decomposition") as phase:
            decomposition = greedy_chain_decomposition(graph)
            phase.annotate(chains=decomposition.num_chains)
        with build_phase("min-position-sweep"):
            reach = cls._sweep(graph, decomposition)
        return cls(graph, decomposition, reach)

    @staticmethod
    def _sweep(graph: DiGraph, decomposition: ChainDecomposition) -> list[list[float]]:
        num_chains = decomposition.num_chains
        reach: list[list[float]] = [[_INF] * num_chains for _ in graph.vertices()]
        for v in reversed(topological_order(graph)):
            row = reach[v]
            row[decomposition.chain_of[v]] = decomposition.position_of[v]
            for w in graph.out_neighbors(v):
                other = reach[w]
                for c in range(num_chains):
                    if other[c] < row[c]:
                        row[c] = other[c]
        return reach

    @property
    def decomposition(self) -> ChainDecomposition:
        """The chain cover this index is built over."""
        return self._decomposition

    def _lookup(self, source: int, target: int) -> TriState:
        chain = self._decomposition.chain_of[target]
        if self._reach[source][chain] <= self._decomposition.position_of[target]:
            return TriState.YES
        return TriState.NO

    def size_in_entries(self) -> int:
        """Finite entries in the reach vectors (∞ cells cost nothing stored sparsely)."""
        return sum(
            sum(1 for value in row if value != _INF) for row in self._reach
        )

    # -- dynamic maintenance ------------------------------------------------
    def insert_edge(self, source: int, target: int) -> None:
        """Insert a DAG-preserving edge and propagate minima to ancestors."""
        n = self._graph.num_vertices
        if not (0 <= source < n and 0 <= target < n):
            raise VertexError(f"edge ({source}, {target}) out of range for |V|={n}")
        if self.query(target, source):
            raise NotADAGError(
                f"inserting ({source}, {target}) would create a cycle"
            )
        self._graph.add_edge(source, target)
        num_chains = self._decomposition.num_chains
        # monotone min-propagation: start at `source`, walk in-edges upward
        queue: deque[int] = deque((source,))
        pending = {source}
        while queue:
            v = queue.popleft()
            pending.discard(v)
            row = self._reach[v]
            changed = False
            for w in self._graph.out_neighbors(v):
                other = self._reach[w]
                for c in range(num_chains):
                    if other[c] < row[c]:
                        row[c] = other[c]
                        changed = True
            if changed:
                for u in self._graph.in_neighbors(v):
                    if u not in pending:
                        pending.add(u)
                        queue.append(u)

    def delete_edge(self, source: int, target: int) -> None:
        """Delete an edge; the chain cover and sweep are recomputed.

        Deleting a *chain* edge breaks the invariant that every chain is a
        graph path, so the decomposition itself must be rebuilt — deletion
        is the expensive case for path-structured covers.
        """
        self._graph.remove_edge(source, target)
        self._decomposition = greedy_chain_decomposition(self._graph)
        self._reach = self._sweep(self._graph, self._decomposition)
