"""GRIPP: GRaph Indexing based on Pre- and Postorder numbering (§3.1).

GRIPP materialises the pre/post-order *instance table* of a DFS traversal
in which a vertex may appear several times (once per incoming non-tree
edge).  We implement the algorithmic core: the tree-instance intervals of a
DFS spanning forest over a *general* graph, giving a partial index without
false positives — if ``t``'s tree instance falls inside ``s``'s interval
the answer is certainly YES, otherwise the answer is MAYBE and query
processing hops through non-tree instances, which is exactly the
index-guided traversal of :func:`repro.core.base.guided_query`.

As the survey notes, a MAYBE ("the partial index returns false") forces
traversal, which is why GRIPP is "not competitive compared to the design of
GRAIL and Ferrari that do not have false negatives".  The benchmarks make
that asymmetry visible on negative-heavy workloads.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.obs.build import build_phase

__all__ = ["GrippIndex"]


def _dfs_tree_intervals(graph: DiGraph) -> tuple[list[int], list[int]]:
    """Pre/post numbers of a DFS spanning forest over a general graph.

    Returns (pre, post); ``t`` is in ``s``'s DFS subtree iff
    ``pre[s] <= pre[t]`` and ``post[t] <= post[s]``.
    """
    n = graph.num_vertices
    pre = [0] * n
    post = [0] * n
    visited = bytearray(n)
    clock = 0
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = 1
        clock += 1
        pre[start] = clock
        stack: list[tuple[int, int]] = [(start, 0)]
        while stack:
            v, cursor = stack[-1]
            neighbors = graph.out_neighbors(v)
            advanced = False
            while cursor < len(neighbors):
                w = neighbors[cursor]
                cursor += 1
                if not visited[w]:
                    visited[w] = 1
                    clock += 1
                    pre[w] = clock
                    stack[-1] = (v, cursor)
                    stack.append((w, 0))
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            clock += 1
            post[v] = clock
    return pre, post


@register_plain
class GrippIndex(ReachabilityIndex):
    """GRIPP's tree-instance core: DFS intervals on a general graph."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="GRIPP",
        framework="Tree cover",
        complete=False,
        input_kind="General",
        dynamic="no",
    )

    def __init__(self, graph: DiGraph, pre: list[int], post: list[int]) -> None:
        super().__init__(graph)
        self._pre = pre
        self._post = post

    @classmethod
    def build(cls, graph: DiGraph) -> "GrippIndex":
        with build_phase("dfs-instance-table", vertices=graph.num_vertices):
            pre, post = _dfs_tree_intervals(graph)
        return cls(graph, pre, post)

    def _lookup(self, source: int, target: int) -> TriState:
        """YES when ``t`` is in ``s``'s DFS subtree; MAYBE otherwise.

        No NO answers: GRIPP is a partial index *without false positives*,
        so a negative lookup cannot terminate query processing early.
        """
        if source == target:
            return TriState.YES
        if (
            self._pre[source] <= self._pre[target]
            and self._post[target] <= self._post[source]
        ):
            return TriState.YES
        return TriState.MAYBE

    def size_in_entries(self) -> int:
        """One (pre, post) instance per vertex."""
        return self._graph.num_vertices
