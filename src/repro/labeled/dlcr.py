"""DLCR: P2H+ labels maintained under edge insertions and deletions (§4.1.3).

Chen et al.'s DLCR keeps the pruned label-constrained 2-hop index of P2H+
correct on dynamic graphs.  The update procedures mirror the plain TOL
maintenance, lifted to (hop, mask) entries:

* **insertion** of ``u -(l)-> v``: every hop that reaches ``u`` (with any
  recorded mask ``m``) resumes its forward label-set search from ``v``
  seeded with ``m | {l}`` — only paths through the new edge are traversed,
  exactly the property the survey highlights.  Hops reached from ``v``
  resume backward searches symmetrically.  Newly redundant older entries
  are left in place (they stay sound; DLCR's redundancy removal is a space
  optimisation, not a correctness requirement).
* **deletion**: entries whose witness paths could use the edge all have
  hops inside ``A ∪ D ∪ {hops recorded at A/D}`` (``A`` = unconstrained
  ancestors of ``u``, ``D`` = descendants of ``v``).  Those hops' entries
  are removed and their passes re-run in rank order, re-inserting the
  entries that were once pruned as redundant but are now load-bearing —
  the RIE bookkeeping of the paper, realised by recomputation.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_labeled
from repro.graphs.labeled import LabeledDiGraph
from repro.obs.build import build_phase
from repro.labeled.p2h import (
    LabeledTwoHopLabels,
    P2HIndex,
    build_labeled_labels,
    labeled_degree_order,
    labeled_resume_backward,
    labeled_resume_forward,
)
from repro.traversal.online import ancestors, descendants

__all__ = ["DLCRIndex"]


@register_labeled
class DLCRIndex(P2HIndex):
    """DLCR: dynamic label-constrained reachability on P2H+ labels."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="DLCR",
        framework="2-Hop",
        complete=True,
        input_kind="General",
        dynamic="yes",
        constraint="Alternation",
    )

    @classmethod
    def build(cls, graph: LabeledDiGraph) -> "DLCRIndex":
        with build_phase("labeled-pruned-labeling"):
            labels, rank = build_labeled_labels(graph, labeled_degree_order(graph))
        return cls(graph, labels, rank)

    def insert_edge(self, source: int, target: int, label: object) -> None:
        """Insert a labeled edge and resume the affected searches."""
        label_id = self._graph.intern_label(label)
        self._graph.add_edge(source, target, label)
        edge_mask = 1 << label_id
        labels = self._labels
        # hops reaching `source`: masks in L_in(source)[hop]; plus source itself
        forward_work: list[tuple[int, list[tuple[int, int]]]] = []
        forward_work.append((source, [(target, edge_mask)]))
        for hop, masks in labels.l_in[source].items():
            seeds = [(target, m | edge_mask) for m in masks]
            forward_work.append((hop, seeds))
        for hop, seeds in sorted(forward_work, key=lambda it: self._rank[it[0]]):
            labeled_resume_forward(self._graph, labels, self._rank, hop, seeds)
        backward_work: list[tuple[int, list[tuple[int, int]]]] = []
        backward_work.append((target, [(source, edge_mask)]))
        for hop, masks in labels.l_out[target].items():
            seeds = [(source, m | edge_mask) for m in masks]
            backward_work.append((hop, seeds))
        for hop, seeds in sorted(backward_work, key=lambda it: self._rank[it[0]]):
            labeled_resume_backward(self._graph, labels, self._rank, hop, seeds)

    def add_vertex(self) -> int:
        """Extend the index with a fresh isolated vertex.

        New vertices get the worst rank (they never act as hops for older
        pairs); coverage for pairs involving them is established by the
        resumed searches of subsequent edge insertions.
        """
        vertex = self._graph.add_vertex()
        self._labels.l_in.append({})
        self._labels.l_out.append({})
        self._labels.cycles.append([])
        self._rank[vertex] = len(self._rank)
        return vertex

    def delete_edge(self, source: int, target: int, label: object) -> None:
        """Delete a labeled edge and rebuild the affected hops' passes."""
        plain = self._graph.to_plain()
        affected_up = ancestors(plain, source)
        affected_down = descendants(plain, target)
        self._graph.remove_edge(source, target, label)
        labels = self._labels
        stale: set[int] = set(affected_up) | set(affected_down)
        for w in affected_down:
            stale.update(labels.l_in[w])
        for w in affected_up:
            stale.update(labels.l_out[w])
        for hop in stale:
            labels.remove_hop(hop)
        for hop in sorted(stale, key=self._rank.__getitem__):
            forward_seeds = [
                (w, 1 << lid) for w, lid in self._graph.out_edges(hop)
            ]
            labeled_resume_forward(self._graph, labels, self._rank, hop, forward_seeds)
            backward_seeds = [
                (u, 1 << lid) for u, lid in self._graph.in_edges(hop)
            ]
            labeled_resume_backward(self._graph, labels, self._rank, hop, backward_seeds)

