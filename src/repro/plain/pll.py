"""PLL and DL: pruned 2-hop labeling in degree order (§3.2).

Yano et al.'s *pruned landmark labeling* (PLL) and Jin & Wang's *distribution
labeling* (DL) both instantiate the TOL engine with a vertex-degree total
order — high-degree "landmark" vertices are labeled first, so their BFS
passes cover the bulk of reachable pairs and later passes prune almost
immediately.  The survey notes the two have been proven equivalent; we
register them as separate taxonomy rows (as Table 1 does) sharing the same
engine, differing only in the tie-breaking flavour of the order.

Both run directly on general graphs: the pruned BFS handles cycles.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.obs.build import build_phase
from repro.plain.pruned import (
    TwoHopProbeIndex,
    build_pruned_labels,
    degree_order,
    enumerate_covered,
)

__all__ = ["PLLIndex", "DLIndex"]


class _DegreeOrderedTwoHop(TwoHopProbeIndex):
    """Shared body of the degree-ordered complete 2-hop indexes."""

    @classmethod
    def build(cls, graph: DiGraph) -> "_DegreeOrderedTwoHop":
        with build_phase("landmark-order"):
            order = cls._order(graph)
        with build_phase("pruned-bfs-labeling") as phase:
            labels = build_pruned_labels(graph, order)
            phase.annotate(entries=labels.size_in_entries())
        return cls(graph, labels)

    @staticmethod
    def _order(graph: DiGraph) -> list[int]:
        return degree_order(graph)

    def _enumerate_fast(self, vertex: int, forward: bool):
        """Label-join enumeration through the inverted hub index."""
        return enumerate_covered(self._labels, vertex, forward)


@register_plain
class PLLIndex(_DegreeOrderedTwoHop):
    """Pruned landmark labeling: TOL engine + decreasing-degree order."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="PLL",
        framework="2-Hop",
        complete=True,
        input_kind="General",
        dynamic="no",
    )


@register_plain
class DLIndex(_DegreeOrderedTwoHop):
    """Distribution labeling — equivalent to PLL (§3.2), distinct Table 1 row.

    The tie-break prefers high *product* of in- and out-degree, the flavour
    of landmark quality DL's heuristics aim at; on most graphs the resulting
    labels match PLL's closely, which is the equivalence the survey cites.
    """

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="DL",
        framework="2-Hop",
        complete=True,
        input_kind="General",
        dynamic="no",
    )

    @staticmethod
    def _order(graph: DiGraph) -> list[int]:
        return sorted(
            graph.vertices(),
            key=lambda v: (
                -((graph.in_degree(v) + 1) * (graph.out_degree(v) + 1)),
                v,
            ),
        )
