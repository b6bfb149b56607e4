"""Tree cover: interval labeling with interval inheritance (Agrawal et al., §3.1).

The foundational tree-cover index.  A spanning forest of the DAG is
labeled with post-order intervals ``[a_v, b_v]`` (``b_v`` the post-order
number, ``a_v`` the lowest post-order number in ``v``'s subtree); then,
walking vertices in reverse topological order, every vertex inherits the
interval lists of its out-neighbours so that paths through non-tree edges
are captured.  Adjacent or overlapping intervals are merged for compact
storage, exactly as the paper describes.

``Qr(s, t)`` is true iff ``b_t`` falls inside one of ``s``'s intervals.
The index is complete; its drawback — the potentially large number of
inherited intervals — is what the size benchmarks quantify.

This module also exports the spanning-forest/interval helpers reused by
Ferrari, GRIPP, Tree+SSPI and dual labeling.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase

__all__ = [
    "TreeCoverIndex",
    "spanning_forest",
    "forest_postorder_intervals",
    "merge_intervals",
    "interval_list_contains",
]


def spanning_forest(graph: DiGraph, order: list[int]) -> list[int]:
    """A spanning forest of a DAG: ``parent[v]`` or ``-1`` for roots.

    Each vertex picks as tree parent the in-neighbour with the highest
    out-degree — a cheap stand-in for the paper's (NP-hard to optimise)
    optimal tree cover that empirically keeps inherited interval counts low.
    ``order`` must be a topological order, so parents precede children.
    """
    parent = [-1] * graph.num_vertices
    for v in order:
        best = -1
        best_deg = -1
        for u in graph.in_neighbors(v):
            deg = graph.out_degree(u)
            if deg > best_deg:
                best_deg = deg
                best = u
        parent[v] = best
    return parent


def forest_postorder_intervals(
    graph: DiGraph, parent: list[int]
) -> list[tuple[int, int]]:
    """Post-order intervals ``[a_v, b_v]`` over a spanning forest.

    ``b_v`` is ``v``'s post-order number (1-based) in a traversal of the
    forest; ``a_v`` is the smallest post-order number in ``v``'s subtree.
    ``b_t ∈ [a_s, b_s]`` iff ``t`` is in the subtree rooted at ``s``.
    """
    n = graph.num_vertices
    children: list[list[int]] = [[] for _ in range(n)]
    roots: list[int] = []
    for v, p in enumerate(parent):
        if p == -1:
            roots.append(v)
        else:
            children[p].append(v)
    intervals: list[tuple[int, int]] = [(0, 0)] * n
    counter = 0
    for root in roots:
        # iterative post-order: (vertex, child-cursor)
        stack: list[tuple[int, int]] = [(root, 0)]
        low: dict[int, int] = {}
        while stack:
            v, cursor = stack[-1]
            if cursor < len(children[v]):
                stack[-1] = (v, cursor + 1)
                stack.append((children[v][cursor], 0))
                continue
            stack.pop()
            counter += 1
            a = min((low[c] for c in children[v]), default=counter)
            intervals[v] = (a, counter)
            low[v] = a
    return intervals


def merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort and merge overlapping or adjacent intervals.

    Adjacent means ``[1, 6]`` and ``[7, 8]`` merge into ``[1, 8]``, per the
    paper's storage optimisation.
    """
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for a, b in intervals[1:]:
        last_a, last_b = merged[-1]
        if a <= last_b + 1:
            if b > last_b:
                merged[-1] = (last_a, b)
        else:
            merged.append((a, b))
    return merged


def interval_list_contains(intervals: list[tuple[int, int]], point: int) -> bool:
    """Whether ``point`` lies inside one of the sorted, disjoint intervals."""
    pos = bisect_right(intervals, (point, float("inf"))) - 1
    if pos < 0:
        return False
    a, b = intervals[pos]
    return a <= point <= b


@register_plain
class TreeCoverIndex(ReachabilityIndex):
    """The original tree-cover index: intervals plus inheritance."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Tree cover",
        framework="Tree cover",
        complete=True,
        input_kind="DAG",
        dynamic="no",
    )

    def __init__(
        self,
        graph: DiGraph,
        postorder: list[tuple[int, int]],
        interval_lists: list[list[tuple[int, int]]],
    ) -> None:
        super().__init__(graph)
        self._postorder = postorder  # tree interval (a_v, b_v) per vertex
        self._intervals = interval_lists  # merged inherited lists per vertex

    @classmethod
    def build(cls, graph: DiGraph) -> "TreeCoverIndex":
        """Label a spanning forest, then inherit along reverse topo order."""
        with build_phase("spanning-forest-intervals"):
            order = topological_order(graph)
            parent = spanning_forest(graph, order)
            tree_intervals = forest_postorder_intervals(graph, parent)
        with build_phase("interval-inheritance") as phase:
            interval_lists: list[list[tuple[int, int]]] = [[] for _ in graph.vertices()]
            for v in reversed(order):
                collected = [tree_intervals[v]]
                for w in graph.out_neighbors(v):
                    collected.extend(interval_lists[w])
                interval_lists[v] = merge_intervals(collected)
            phase.annotate(intervals=sum(len(lst) for lst in interval_lists))
        return cls(graph, tree_intervals, interval_lists)

    def _lookup(self, source: int, target: int) -> TriState:
        b_target = self._postorder[target][1]
        if interval_list_contains(self._intervals[source], b_target):
            return TriState.YES
        return TriState.NO

    def _lookup_batch(self, pairs) -> list[TriState]:
        """Batched interval containment with the hot arrays bound once."""
        postorder = self._postorder
        intervals = self._intervals
        contains = interval_list_contains
        yes, no = TriState.YES, TriState.NO
        return [
            yes if contains(intervals[s], postorder[t][1]) else no for s, t in pairs
        ]

    def _vertex_at_postorder(self) -> list[int]:
        """``slot[b_v] = v`` — the inverse postorder map, built lazily."""
        slots = self.__dict__.get("_b_to_vertex")
        if slots is None:
            slots = [-1] * (self._graph.num_vertices + 1)
            for v, (_a, b) in enumerate(self._postorder):
                slots[b] = v
            self._b_to_vertex = slots
        return slots

    def _enumerate_fast(
        self, vertex: int, forward: bool
    ) -> tuple[frozenset[int], str, tuple[str, ...]]:
        """Subtree-interval scan — the enumeration form of the §3.1 test.

        Forward, the merged interval list of ``vertex`` *is* the
        descendant set as postorder ranges: expand each ``[a, b]``
        through the inverse postorder map.  Backward, one containment
        probe per vertex collects everyone whose list covers ``b_t``.
        """
        if forward:
            slots = self._vertex_at_postorder()
            members: list[int] = []
            spans = self._intervals[vertex]
            for a, b in spans:
                members.extend(slots[a : b + 1])
            return (
                frozenset(members),
                "enum_interval",
                (
                    f"interval scan: {len(spans)} merged intervals expanded "
                    f"to {len(members)} postorder slots",
                ),
            )
        b_target = self._postorder[vertex][1]
        intervals = self._intervals
        contains = interval_list_contains
        members = [
            s for s in range(self._graph.num_vertices)
            if contains(intervals[s], b_target)
        ]
        return (
            frozenset(members),
            "enum_interval",
            (
                f"interval scan: containment of postorder {b_target} probed "
                f"across all vertices, {len(members)} ancestors",
            ),
        )

    def size_in_entries(self) -> int:
        """Total number of intervals — the paper's definition of index size."""
        return sum(len(lst) for lst in self._intervals)

    def __getstate__(self) -> dict[str, object]:
        """Persistable state: drop the lazy inverse postorder map."""
        state = super().__getstate__()
        state.pop("_b_to_vertex", None)
        return state
