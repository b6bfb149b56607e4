"""Dual labeling: constant-time reachability for sparse non-tree edges (§3.1).

Wang et al.'s design targets graphs that are "almost trees" (e.g. XML with
a few id/idref links): a spanning forest is labeled with post-order
intervals, and the ``t`` non-tree edges get a materialised *transitive link
closure* of size O(t²).  Queries combine one interval test with one link
table probe, i.e. constant time once the endpoints' link lists are bounded.

Query rule: ``s`` reaches ``t`` iff

* ``t`` is in ``s``'s subtree (interval test), or
* there are non-tree edges ``(u_i, v_i)`` and ``(u_j, v_j)`` such that ``s``
  tree-reaches ``u_i``, link ``i`` reaches link ``j`` in the link closure,
  and ``v_j`` tree-reaches ``t``.

Every path decomposes into tree segments joined by non-tree edges, so the
rule is exact.  The O(t²) closure is why the survey notes the approach
"works well only if the number of non-tree edges is very low" — the size
benchmark sweeps ``t`` to show exactly that.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase
from repro.plain.interval import forest_postorder_intervals, spanning_forest

__all__ = ["DualLabelingIndex"]


@register_plain
class DualLabelingIndex(ReachabilityIndex):
    """Spanning-forest intervals plus a transitive closure over non-tree links."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Dual labeling",
        framework="Tree cover",
        complete=True,
        input_kind="DAG",
        dynamic="no",
    )

    def __init__(
        self,
        graph: DiGraph,
        intervals: list[tuple[int, int]],
        links: list[tuple[int, int]],
        link_closure: list[int],
        out_links: list[list[int]],
        in_links: list[list[int]],
    ) -> None:
        super().__init__(graph)
        self._intervals = intervals
        self._links = links  # the non-tree edges (u_i, v_i)
        self._closure = link_closure  # closure[i] = bitset of links reachable from i
        self._out_links = out_links  # per vertex: links whose tail it tree-reaches
        self._in_links = in_links  # per vertex: links whose head tree-reaches it

    @classmethod
    def build(cls, graph: DiGraph) -> "DualLabelingIndex":
        with build_phase("spanning-forest-intervals"):
            order = topological_order(graph)
            parent = spanning_forest(graph, order)
            intervals = forest_postorder_intervals(graph, parent)

        def tree_reaches(s: int, t: int) -> bool:
            a, b = intervals[s]
            return a <= intervals[t][1] <= b

        links = [
            (u, v) for u, v in graph.edges() if parent[v] != u
        ]
        t = len(links)
        # direct link-to-link step: after taking link i we sit at v_i; we can
        # take link j next iff v_i tree-reaches u_j.
        with build_phase("link-closure", links=t):
            closure = [0] * t
            for i, (_u_i, v_i) in enumerate(links):
                row = 1 << i
                for j, (u_j, _v_j) in enumerate(links):
                    if tree_reaches(v_i, u_j):
                        row |= 1 << j
                closure[i] = row
            # Floyd-Warshall-style closure over the (small) link graph
            changed = True
            while changed:
                changed = False
                for i in range(t):
                    row = closure[i]
                    expanded = row
                    bits = row
                    while bits:
                        j = (bits & -bits).bit_length() - 1
                        bits &= bits - 1
                        expanded |= closure[j]
                    if expanded != row:
                        closure[i] = expanded
                        changed = True
        # per-vertex link incidence under tree reachability
        with build_phase("link-incidence"):
            out_links: list[list[int]] = [[] for _ in graph.vertices()]
            in_links: list[list[int]] = [[] for _ in graph.vertices()]
            for i, (u_i, v_i) in enumerate(links):
                for w in graph.vertices():
                    if tree_reaches(w, u_i):
                        out_links[w].append(i)
                    if tree_reaches(v_i, w):
                        in_links[w].append(i)
        return cls(graph, intervals, links, closure, out_links, in_links)

    def _lookup(self, source: int, target: int) -> TriState:
        a, b = self._intervals[source]
        if a <= self._intervals[target][1] <= b:
            return TriState.YES
        if self._links:
            target_mask = 0
            for j in self._in_links[target]:
                target_mask |= 1 << j
            if target_mask:
                for i in self._out_links[source]:
                    if self._closure[i] & target_mask:
                        return TriState.YES
        return TriState.NO

    def size_in_entries(self) -> int:
        """Intervals + link-closure bits + link incidence lists."""
        t = len(self._links)
        incidence = sum(len(lst) for lst in self._out_links)
        incidence += sum(len(lst) for lst in self._in_links)
        return self._graph.num_vertices + t * t + incidence
