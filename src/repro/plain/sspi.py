"""Tree+SSPI: spanning-tree intervals plus a surrogate predecessor index (§3.1).

Chen et al.'s stack-based pattern-matching scheme keeps a spanning-tree
interval labeling and, for the reachability lost to non-tree edges, a
*surrogate & surplus predecessor index* (SSPI): each vertex records the
non-tree predecessors through which it can additionally be reached.  The
index is partial without false positives: a subtree hit answers YES
immediately; otherwise the SSPI lists are chased — here through
index-guided traversal over the predecessor structure.

Lookup additionally consults the SSPI one level deep (``t`` reachable via
a non-tree in-edge whose tail is in ``s``'s subtree), which resolves the
common single-hop cases without traversal.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase
from repro.plain.interval import forest_postorder_intervals, spanning_forest

__all__ = ["TreeSSPIIndex"]


@register_plain
class TreeSSPIIndex(ReachabilityIndex):
    """Tree+SSPI: interval labeling with surplus-predecessor lists."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Tree+SSPI",
        framework="Tree cover",
        complete=False,
        input_kind="DAG",
        dynamic="no",
    )

    def __init__(
        self,
        graph: DiGraph,
        intervals: list[tuple[int, int]],
        surplus_predecessors: list[list[int]],
    ) -> None:
        super().__init__(graph)
        self._intervals = intervals
        self._surplus = surplus_predecessors

    @classmethod
    def build(cls, graph: DiGraph) -> "TreeSSPIIndex":
        with build_phase("spanning-tree-intervals"):
            order = topological_order(graph)
            parent = spanning_forest(graph, order)
            intervals = forest_postorder_intervals(graph, parent)
        with build_phase("surplus-predecessors") as phase:
            surplus: list[list[int]] = [[] for _ in graph.vertices()]
            for u, v in graph.edges():
                if parent[v] != u:
                    surplus[v].append(u)
            phase.annotate(links=sum(len(lst) for lst in surplus))
        return cls(graph, intervals, surplus)

    def _in_subtree(self, source: int, target: int) -> bool:
        a, b = self._intervals[source]
        return a <= self._intervals[target][1] <= b

    def _lookup(self, source: int, target: int) -> TriState:
        """YES via subtree or a one-hop SSPI link; MAYBE otherwise."""
        if source == target:
            return TriState.YES
        if self._in_subtree(source, target):
            return TriState.YES
        for u in self._surplus[target]:
            if u == source or self._in_subtree(source, u):
                return TriState.YES
        return TriState.MAYBE

    def size_in_entries(self) -> int:
        """One interval per vertex plus the surplus predecessor lists."""
        return self._graph.num_vertices + sum(len(lst) for lst in self._surplus)

    @property
    def surplus_predecessors(self) -> list[list[int]]:
        """The SSPI: per-vertex non-tree predecessors (read-only view)."""
        return self._surplus
