"""TOL — total-order labeling with dynamic maintenance (§3.2).

Zhu et al.'s TOL is the general engine: a strict total order on vertices
drives pruned forward/backward BFS passes (see :mod:`repro.plain.pruned`),
and the same order powers maintenance under edge insertions and deletions.
TFL is the topological-order instantiation; U2-hop and HOPI (Ralf et al.)
are the earlier updatable 2-hop schemes the survey reports "cannot scale to
large graphs" — all four share this module's machinery.

Maintenance algorithms
----------------------
*Insertion* of ``(u, v)``: every hop that reaches ``u`` (``L_in(u) ∪ {u}``)
resumes its forward BFS from ``v``, and every hop reached from ``v``
(``L_out(v) ∪ {v}``) resumes its backward BFS from ``u``.  Labels only
grow, so soundness is immediate; coverage of the new pairs follows from
the resumed searches.

*Deletion* of ``(u, v)``: with ``A`` = ancestors of ``u`` and ``D`` =
descendants of ``v`` (computed before the deletion), every label entry
whose witness path could use the edge has its hop in
``H = A ∪ D ∪ {hops in L_in(w), w ∈ D} ∪ {hops in L_out(w), w ∈ A}``.
All entries of hops in ``H`` are removed and their labeling passes re-run
in rank order.

Both procedures prune exclusively against *lower-ranked* coverage
(:func:`repro.plain.pruned.covered_below`), which keeps the labels
canonical — hop ``h`` covers exactly the pairs whose minimum-rank path
vertex is ``h``.  Canonicity is what makes the two procedures compose
under arbitrary interleavings: a pass pruned by higher-ranked coverage
would leave entries missing that no later repair re-schedules.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_plain
from repro.errors import NotADAGError, UnsupportedOperationError
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order, topological_rank
from repro.obs.build import build_phase
from repro.plain.pruned import (
    TwoHopLabels,
    TwoHopProbeIndex,
    build_pruned_labels,
    degree_order,
    enumerate_covered,
    resume_backward,
    resume_forward,
)
from repro.traversal.online import ancestors as reach_ancestors
from repro.traversal.online import bfs_reachable
from repro.traversal.online import descendants as reach_descendants

__all__ = ["TOLIndex", "TFLIndex", "U2HopIndex", "HOPIIndex"]


class _DynamicTwoHop(TwoHopProbeIndex):
    """Complete 2-hop labels over a total order, with update support."""

    _requires_dag: ClassVar[bool] = True

    def __init__(self, graph: DiGraph, labels: TwoHopLabels, order: list[int]) -> None:
        super().__init__(graph, labels)
        self._order = order
        self._rank = {v: i for i, v in enumerate(order)}

    @classmethod
    def build(cls, graph: DiGraph) -> "_DynamicTwoHop":
        with build_phase("total-order"):
            order = cls._make_order(graph)
        with build_phase("pruned-bfs-labeling") as phase:
            labels = build_pruned_labels(graph, order)
            phase.annotate(entries=labels.size_in_entries())
        return cls(graph, labels, order)

    @staticmethod
    def _make_order(graph: DiGraph) -> list[int]:
        return degree_order(graph)

    @property
    def order(self) -> list[int]:
        """The total order the labeling was built with."""
        return list(self._order)

    def _enumerate_fast(self, vertex: int, forward: bool):
        """Label-join enumeration through the inverted hub index."""
        return enumerate_covered(self._labels, vertex, forward)

    # -- dynamic maintenance ------------------------------------------------
    def insert_edge(self, source: int, target: int) -> None:
        if self._requires_dag and bfs_reachable(self._graph, target, source):
            raise NotADAGError(
                f"inserting ({source}, {target}) would create a cycle"
            )
        self._graph.add_edge(source, target)
        # hops that reach `source` can now push their forward BFS through
        # the new edge; hops reached from `target` extend backward.
        forward_hops = sorted(
            self._labels.l_in[source] | {source}, key=self._rank.__getitem__
        )
        for hop in forward_hops:
            resume_forward(self._graph, self._labels, self._rank, hop, target)
        backward_hops = sorted(
            self._labels.l_out[target] | {target}, key=self._rank.__getitem__
        )
        for hop in backward_hops:
            resume_backward(self._graph, self._labels, self._rank, hop, source)

    def delete_edge(self, source: int, target: int) -> None:
        affected_up = reach_ancestors(self._graph, source)
        affected_down = reach_descendants(self._graph, target)
        self._graph.remove_edge(source, target)
        stale_hops: set[int] = set(affected_up) | set(affected_down)
        for w in affected_down:
            stale_hops |= self._labels.l_in[w]
        for w in affected_up:
            stale_hops |= self._labels.l_out[w]
        for hop in stale_hops:
            self._labels.remove_hop(hop)
        for hop in sorted(stale_hops, key=self._rank.__getitem__):
            resume_forward(self._graph, self._labels, self._rank, hop, hop)
            resume_backward(self._graph, self._labels, self._rank, hop, hop)


@register_plain
class TOLIndex(_DynamicTwoHop):
    """TOL: the total-order framework itself (default: degree order)."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="TOL",
        framework="2-Hop",
        complete=True,
        input_kind="DAG",
        dynamic="yes",
    )

    @classmethod
    def build(cls, graph: DiGraph, order: list[int] | None = None) -> "TOLIndex":
        """Build with an explicit total order, or the degree default.

        ``order`` lets benchmarks compare instantiations (topological =
        TFL, degree = DL/PLL, random) on the same engine, the comparison
        §3.2 describes.
        """
        topological_order(graph)  # raises NotADAGError on cyclic input
        with build_phase("total-order"):
            if order is None:
                order = cls._make_order(graph)
        with build_phase("pruned-bfs-labeling") as phase:
            labels = build_pruned_labels(graph, order)
            phase.annotate(entries=labels.size_in_entries())
        return cls(graph, labels, order)


@register_plain
class TFLIndex(_DynamicTwoHop):
    """TFL: the TOL engine instantiated with the DAG's topological order."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="TFL",
        framework="2-Hop",
        complete=True,
        input_kind="DAG",
        dynamic="no",
    )

    @staticmethod
    def _make_order(graph: DiGraph) -> list[int]:
        # topological-folding flavour: topological position, high degree first
        # within a level, which folds hub vertices to the front of their rank.
        rank = topological_rank(graph)
        return sorted(
            graph.vertices(),
            key=lambda v: (rank[v], -(graph.in_degree(v) + graph.out_degree(v))),
        )

    # TFL is the static instantiation in Table 1.
    def insert_edge(self, source: int, target: int) -> None:
        raise UnsupportedOperationError("TFL does not support edge insertion")

    def delete_edge(self, source: int, target: int) -> None:
        raise UnsupportedOperationError("TFL does not support edge deletion")


@register_plain
class U2HopIndex(_DynamicTwoHop):
    """U2-hop: incremental maintenance of 2-hop labels on DAGs (§3.2).

    Bramandia et al.'s scheme maintains a (non-minimal) 2-hop cover under
    updates; we realise the maintenance-capable core on the shared engine
    with an id order — deliberately weaker than TOL's degree order, which
    is the scalability gap the survey reports ("they cannot scale to large
    graphs").
    """

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="U2-hop",
        framework="2-Hop",
        complete=True,
        input_kind="DAG",
        dynamic="yes",
    )

    @staticmethod
    def _make_order(graph: DiGraph) -> list[int]:
        return list(graph.vertices())


@register_plain
class HOPIIndex(_DynamicTwoHop):
    """HOPI (Ralf Schenkel et al.): 2-hop with incremental maintenance (§3.2).

    Built for XML collections but defined on general graphs; the shared
    engine runs the pruned labeling directly on cyclic input and the same
    maintenance as TOL, without the DAG guard.
    """

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Ralf et al.",
        framework="2-Hop",
        complete=True,
        input_kind="General",
        dynamic="yes",
    )

    _requires_dag: ClassVar[bool] = False
