"""Path-hop: trees as the intermediate reachability structure (§3.2).

Cai & Poon's path-hop replaces the middle vertex of a 2-hop path with a
path in a spanning *tree*: ``Qr(s, t)`` holds iff there are hops
``a ∈ L_out(s)`` and ``b ∈ L_in(t)`` such that ``a`` is an ancestor of
``b`` in the spanning tree (checked in O(1) with post-order intervals).
The richer middle structure lets the labeling prune more aggressively than
plain 2-hop — pairs already covered by a tree path between existing hops
need no new entries — at the price of a slower build, which is the
trade-off §3.2 reports for these early extensions.

Implementation: the shared pruned-labeling pass with the coverage test
generalised from ``a == b`` to "``a`` tree-reaches ``b``".
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase
from repro.plain.interval import forest_postorder_intervals, spanning_forest
from repro.plain.pruned import degree_order

__all__ = ["PathHopIndex"]


@register_plain
class PathHopIndex(ReachabilityIndex):
    """2-hop labels whose middle hop is a spanning-tree path."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Path-hop",
        framework="2-Hop",
        complete=True,
        input_kind="DAG",
        dynamic="no",
    )

    def __init__(
        self,
        graph: DiGraph,
        intervals: list[tuple[int, int]],
        l_in: list[set[int]],
        l_out: list[set[int]],
    ) -> None:
        super().__init__(graph)
        self._intervals = intervals
        self._l_in = l_in
        self._l_out = l_out

    @classmethod
    def build(cls, graph: DiGraph) -> "PathHopIndex":
        with build_phase("spanning-tree-intervals"):
            order_topo = topological_order(graph)
            parent = spanning_forest(graph, order_topo)
            intervals = forest_postorder_intervals(graph, parent)
        n = graph.num_vertices
        l_in: list[set[int]] = [set() for _ in range(n)]
        l_out: list[set[int]] = [set() for _ in range(n)]

        def tree_reaches(a: int, b: int) -> bool:
            lo, hi = intervals[a]
            return lo <= intervals[b][1] <= hi

        def covered(s: int, t: int) -> bool:
            if s == t:
                return True
            outs = l_out[s] | {s}
            ins = l_in[t] | {t}
            for a in outs:
                for b in ins:
                    if tree_reaches(a, b):
                        return True
            return False

        # Label-pruned full BFS: the tree-reach coverage test decides whether
        # an entry is recorded, but the search itself is not cut short —
        # cutting it would break completeness because tree-covered pairs do
        # not put a lower-ranked hop on the path (unlike plain 2-hop
        # pruning).  The resulting build is slower but the labels smaller,
        # matching §3.2's account of these early extensions.
        with build_phase("tree-pruned-labeling") as phase:
            for hop in degree_order(graph):
                queue: deque[int] = deque((hop,))
                visited = {hop}
                while queue:
                    v = queue.popleft()
                    for w in graph.out_neighbors(v):
                        if w in visited or w == hop:
                            continue
                        visited.add(w)
                        if not covered(hop, w):
                            l_in[w].add(hop)
                        queue.append(w)
                queue = deque((hop,))
                visited = {hop}
                while queue:
                    v = queue.popleft()
                    for w in graph.in_neighbors(v):
                        if w in visited or w == hop:
                            continue
                        visited.add(w)
                        if not covered(w, hop):
                            l_out[w].add(hop)
                        queue.append(w)
            phase.annotate(
                entries=sum(len(s) for s in l_in) + sum(len(s) for s in l_out)
            )
        return cls(graph, intervals, l_in, l_out)

    def _lookup(self, source: int, target: int) -> TriState:
        if source == target:
            return TriState.YES
        lo_s, hi_s = 0, 0
        outs = self._l_out[source] | {source}
        ins = self._l_in[target] | {target}
        for a in outs:
            lo_s, hi_s = self._intervals[a]
            for b in ins:
                if lo_s <= self._intervals[b][1] <= hi_s:
                    return TriState.YES
        return TriState.NO

    def size_in_entries(self) -> int:
        """Hop entries plus one tree interval per vertex."""
        labels = sum(len(s) for s in self._l_in) + sum(len(s) for s in self._l_out)
        return labels + self._graph.num_vertices
