"""HL: hierarchical labeling — a simple, fast, scalable oracle (§3.4).

Jin & Wang's "Simple, Fast, and Scalable Reachability Oracle" builds its
labels along a *hierarchy* of the DAG: vertices are peeled in rounds —
each round removes the vertices that dominate the remaining graph (we use
the classic degree-product criterion) so that early-peeled vertices act as
separators for everything below them.  The hierarchy's peel order then
drives a pruned label assignment; queries use the plain 2-hop rule.

The survey files HL outside the three big frameworks (its framework column
is "—") because the hierarchy, not a spanning structure or a total-order
BFS, is the primary object; the label algebra it ends with is nonetheless
2-hop, which this implementation makes explicit.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase
from repro.plain.pruned import TwoHopProbeIndex, build_pruned_labels

__all__ = ["HLIndex"]


def _hierarchy_order(graph: DiGraph) -> list[int]:
    """Peel vertices in rounds of decreasing dominance.

    Each round ranks the still-unpeeled vertices by the product of their
    remaining in/out degrees and peels the top fraction; the concatenated
    rounds form the hierarchy (level 0 = most dominant separators first).
    """
    n = graph.num_vertices
    in_deg = [graph.in_degree(v) for v in range(n)]
    out_deg = [graph.out_degree(v) for v in range(n)]
    peeled = bytearray(n)
    order: list[int] = []
    remaining = n
    while remaining:
        candidates = sorted(
            (v for v in range(n) if not peeled[v]),
            key=lambda v: (-(in_deg[v] + 1) * (out_deg[v] + 1), v),
        )
        take = max(1, len(candidates) // 4)
        for v in candidates[:take]:
            peeled[v] = 1
            order.append(v)
            remaining -= 1
            for w in graph.out_neighbors(v):
                if not peeled[w]:
                    in_deg[w] -= 1
            for u in graph.in_neighbors(v):
                if not peeled[u]:
                    out_deg[u] -= 1
    return order


@register_plain
class HLIndex(TwoHopProbeIndex):
    """HL: hierarchy-driven pruned labels with the 2-hop query rule."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="HL",
        framework="-",
        complete=True,
        input_kind="DAG",
        dynamic="no",
    )

    @classmethod
    def build(cls, graph: DiGraph) -> "HLIndex":
        topological_order(graph)  # enforce the DAG input contract
        with build_phase("hierarchy-peel"):
            order = _hierarchy_order(graph)
        with build_phase("pruned-labeling"):
            labels = build_pruned_labels(graph, order)
        return cls(graph, labels)
