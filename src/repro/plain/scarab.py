"""SCARAB-style reachability backbone (§3.4).

Jin et al.'s SCARAB scales reachability computation by extracting a
*backbone*: a vertex subset that every long path must cross, so an index
only needs to cover backbone-to-backbone reachability and queries route
through the endpoints' local neighbourhoods.  Like the §3.4 reductions it
is orthogonal to the indexing technique — any Table 1 index can sit on
the backbone.

This implementation uses the 1-hop backbone: ``S`` is the set of vertices
with both in- and out-edges.  Every internal vertex of every path lies in
``S`` by definition, so

* reachability *between* backbone vertices is closed inside the induced
  subgraph ``G[S]`` (no path between them needs an outside vertex), and
* ``Qr(s, t)`` holds iff ``s = t``, the edge ``(s, t)`` exists, or some
  out-neighbour ``b1 ∈ S`` of ``s`` reaches some in-neighbour
  ``b2 ∈ S`` of ``t`` within the backbone.

On source/sink-heavy graphs (citation networks, scale-free DAGs) the
backbone is much smaller than the graph, which is exactly the saving the
paper reports.  The original generalises to k-hop backbones; the 1-hop
instance keeps the routing exact with zero slack.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.condensed import build_plain
from repro.graphs.digraph import DiGraph
from repro.obs.build import build_phase

__all__ = ["ScarabBackboneIndex"]


class ScarabBackboneIndex(ReachabilityIndex):
    """Any plain index, built on the reachability backbone only.

    Not a Table 1 row of its own (SCARAB is preprocessing, §3.4), so this
    class is not registered in the taxonomy registry.
    """

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="SCARAB",
        framework="-",
        complete=True,
        input_kind="General",
        dynamic="no",
    )

    def __init__(
        self,
        graph: DiGraph,
        backbone_of: list[int],
        members: list[int],
        inner_index: ReachabilityIndex,
    ) -> None:
        super().__init__(graph)
        self._backbone_of = backbone_of  # vertex -> backbone id or -1
        self._members = members  # backbone id -> vertex
        self._inner = inner_index

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        inner: type[ReachabilityIndex] | None = None,
    ) -> "ScarabBackboneIndex":
        """Extract the backbone and build ``inner`` over ``G[S]``."""
        if inner is None:
            raise TypeError("ScarabBackboneIndex.build requires inner=<index class>")
        with build_phase("backbone-extraction") as phase:
            members = [
                v
                for v in graph.vertices()
                if graph.in_degree(v) > 0 and graph.out_degree(v) > 0
            ]
            backbone_of = [-1] * graph.num_vertices
            for backbone_id, v in enumerate(members):
                backbone_of[v] = backbone_id
            induced = DiGraph(len(members))
            for u in members:
                bu = backbone_of[u]
                for w in graph.out_neighbors(u):
                    if backbone_of[w] != -1:
                        induced.add_edge_if_absent(bu, backbone_of[w])
            phase.annotate(backbone=len(members), vertices=graph.num_vertices)
        return cls(graph, backbone_of, members, build_plain(inner, induced))

    @property
    def backbone_size(self) -> int:
        """Number of backbone vertices."""
        return len(self._members)

    @property
    def inner(self) -> ReachabilityIndex:
        """The index built over the backbone subgraph."""
        return self._inner

    def _backbone_query(self, b1: int, b2: int) -> bool:
        return self._inner.query(b1, b2)

    def _lookup(self, source: int, target: int) -> TriState:
        """Exact routing through the backbone (complete: YES or NO)."""
        if source == target:
            return TriState.YES
        graph = self._graph
        if graph.has_edge(source, target):
            return TriState.YES
        # candidate entry points: backbone out-neighbours of the source
        entries = [
            self._backbone_of[w]
            for w in graph.out_neighbors(source)
            if self._backbone_of[w] != -1
        ]
        if not entries:
            return TriState.NO
        exits = [
            self._backbone_of[u]
            for u in graph.in_neighbors(target)
            if self._backbone_of[u] != -1
        ]
        if not exits:
            return TriState.NO
        exit_set = set(exits)
        for b1 in entries:
            if b1 in exit_set:  # two-hop path s -> x -> t
                return TriState.YES
            for b2 in exit_set:
                if self._backbone_query(b1, b2):
                    return TriState.YES
        return TriState.NO

    def size_in_entries(self) -> int:
        """Inner entries plus the backbone membership map."""
        return self._inner.size_in_entries() + self._graph.num_vertices
