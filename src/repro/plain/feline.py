"""Feline: reachability via a dominance drawing (§3.4).

Veloso et al. embed the DAG in a two-dimensional grid using two
topological orders with *different* tie-breaking: if ``s`` reaches ``t``
then ``s`` strictly dominates ``t`` in both coordinates.  A violated
dominance check is therefore a NO certificate; a satisfied one is MAYBE
and triggers the refined online search (our index-guided traversal).  A
third coordinate — the topological level — sharpens the filter the same
way Feline's heuristic extras do.

The second order is built greedily to *disagree* with the first as much
as possible (processing ready vertices in reverse first-coordinate
order), which is what makes the rectangle ``dom(s) ⊇ dom(t)`` a tight
approximation of real reachability.
"""

from __future__ import annotations

import heapq
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_levels, topological_order
from repro.obs.build import build_phase

__all__ = ["FelineIndex"]


@register_plain
class FelineIndex(ReachabilityIndex):
    """Feline: two-coordinate dominance drawing plus level filter."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Feline",
        framework="-",
        complete=False,
        input_kind="DAG",
        dynamic="no",
    )

    def __init__(
        self, graph: DiGraph, x: list[int], y: list[int], level: list[int]
    ) -> None:
        super().__init__(graph)
        self._x = x
        self._y = y
        self._level = level

    @classmethod
    def build(cls, graph: DiGraph) -> "FelineIndex":
        n = graph.num_vertices
        with build_phase("x-order", vertices=n):
            x = [0] * n
            for position, v in enumerate(topological_order(graph)):
                x[v] = position
        # second topological order, ties broken by *descending* x — the
        # greedy counter-order of the Feline paper.
        with build_phase("y-counter-order"):
            remaining = [graph.in_degree(v) for v in range(n)]
            heap = [(-x[v], v) for v in range(n) if remaining[v] == 0]
            heapq.heapify(heap)
            y = [0] * n
            position = 0
            while heap:
                _, v = heapq.heappop(heap)
                y[v] = position
                position += 1
                for w in graph.out_neighbors(v):
                    remaining[w] -= 1
                    if remaining[w] == 0:
                        heapq.heappush(heap, (-x[w], w))
        with build_phase("topological-levels"):
            level = topological_levels(graph)
        return cls(graph, x, y, level)

    def _lookup(self, source: int, target: int) -> TriState:
        if source == target:
            return TriState.YES
        if self._x[source] >= self._x[target]:
            return TriState.NO
        if self._y[source] >= self._y[target]:
            return TriState.NO
        if self._level[source] >= self._level[target]:
            return TriState.NO
        return TriState.MAYBE

    def size_in_entries(self) -> int:
        """Three coordinates per vertex."""
        return 3 * self._graph.num_vertices

    @property
    def coordinates(self) -> list[tuple[int, int]]:
        """The (x, y) dominance-drawing coordinates per vertex."""
        return list(zip(self._x, self._y))
