"""P2H+: pruned 2-hop labeling for label-constrained reachability (§4.1.3).

Peng et al. extend the 2-hop framework with SPLSs: every label entry is a
``(hop, label-set mask)`` pair, and ``Qr(s, t, L')`` holds iff some hop
``h`` has masks ``m1 ∈ L_out(s)[h]`` and ``m2 ∈ L_in(t)[h]`` with
``m1 ∪ m2 ⊆ L'`` (or an endpoint is itself the hop).  Indexing runs
forward/backward label-set searches from vertices in decreasing-degree
order with two prunings:

* **rank pruning** — a search from hop ``h`` never expands through a
  vertex ranked before ``h`` (that vertex's own passes cover those paths);
* **coverage pruning** — a state ``(v, m)`` already answerable from the
  current labels is neither recorded nor expanded; within a pass this
  doubles as antichain dominance, which is how P2H+ guarantees a
  redundancy-free index.

States are expanded in order of distinct-label count, so recorded masks
are subset-minimal.  Self-cycle antichains per hop make ``(…)+``
queries with ``s == t`` answerable from the index alone.
"""

from __future__ import annotations

import heapq
from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_labeled
from repro.graphs.labeled import LabeledDiGraph
from repro.labeled.base import AlternationIndex
from repro.labeled.spls import add_to_antichain, antichain_matches
from repro.obs.build import build_phase

__all__ = ["P2HIndex", "LabeledTwoHopLabels"]


class LabeledTwoHopLabels:
    """Per-vertex hop → SPLS-antichain maps, plus per-hop cycle antichains."""

    __slots__ = ("l_in", "l_out", "cycles")

    def __init__(self, num_vertices: int) -> None:
        self.l_in: list[dict[int, list[int]]] = [{} for _ in range(num_vertices)]
        self.l_out: list[dict[int, list[int]]] = [{} for _ in range(num_vertices)]
        self.cycles: list[list[int]] = [[] for _ in range(num_vertices)]

    def covered(self, source: int, target: int, mask: int) -> bool:
        """The P2H+ query rule for a label-set mask."""
        l_out = self.l_out[source]
        l_in = self.l_in[target]
        direct = l_out.get(target)
        if direct is not None and antichain_matches(direct, mask):
            return True
        direct = l_in.get(source)
        if direct is not None and antichain_matches(direct, mask):
            return True
        for hop, out_masks in l_out.items():
            in_masks = l_in.get(hop)
            if in_masks is None:
                continue
            for m1 in out_masks:
                if m1 & ~mask:
                    continue
                for m2 in in_masks:
                    if (m1 | m2) & ~mask == 0:
                        return True
        return False

    def covered_below(
        self, rank: dict[int, int], source: int, target: int, mask: int, limit: int
    ) -> bool:
        """The query rule restricted to hops ranked before ``limit``.

        The labeling/maintenance passes prune against this restricted rule
        only — the labeled analogue of
        :func:`repro.plain.pruned.covered_below`, and for the same reason:
        higher-ranked coverage can disappear in a later deletion without
        the pruned hop being re-run.
        """
        l_out = self.l_out[source]
        l_in = self.l_in[target]
        direct = l_out.get(target)
        if direct is not None and rank[target] < limit and antichain_matches(
            direct, mask
        ):
            return True
        direct = l_in.get(source)
        if direct is not None and rank[source] < limit and antichain_matches(
            direct, mask
        ):
            return True
        for hop, out_masks in l_out.items():
            if rank[hop] >= limit:
                continue
            in_masks = l_in.get(hop)
            if in_masks is None:
                continue
            for m1 in out_masks:
                if m1 & ~mask:
                    continue
                for m2 in in_masks:
                    if (m1 | m2) & ~mask == 0:
                        return True
        return False

    def cycle_covered(self, vertex: int, mask: int) -> bool:
        """Whether a non-empty constrained cycle through ``vertex`` is indexed."""
        if antichain_matches(self.cycles[vertex], mask):
            return True
        for hop, out_masks in self.l_out[vertex].items():
            in_masks = self.l_in[vertex].get(hop)
            if in_masks is None:
                continue
            for m1 in out_masks:
                if m1 & ~mask:
                    continue
                for m2 in in_masks:
                    if (m1 | m2) & ~mask == 0:
                        return True
        return False

    def size_in_entries(self) -> int:
        """Total stored (hop, mask) pairs plus cycle masks."""
        total = sum(len(a) for d in self.l_in for a in d.values())
        total += sum(len(a) for d in self.l_out for a in d.values())
        total += sum(len(c) for c in self.cycles)
        return total

    def remove_hop(self, hop: int) -> None:
        """Strip every entry referring to ``hop`` (dynamic maintenance)."""
        for d in self.l_in:
            d.pop(hop, None)
        for d in self.l_out:
            d.pop(hop, None)
        self.cycles[hop] = []


def labeled_degree_order(graph: LabeledDiGraph) -> list[int]:
    """Vertices by decreasing total degree (ties by id)."""
    return sorted(
        graph.vertices(),
        key=lambda v: (-(graph.in_degree(v) + graph.out_degree(v)), v),
    )


def labeled_resume_forward(
    graph: LabeledDiGraph,
    labels: LabeledTwoHopLabels,
    rank: dict[int, int],
    hop: int,
    seeds: list[tuple[int, int]],
) -> None:
    """(Re)run hop's forward label-set search from ``seeds`` (vertex, mask)."""
    hop_rank = rank[hop]
    heap = [(mask.bit_count(), mask, v) for v, mask in seeds]
    heapq.heapify(heap)
    while heap:
        _, mask, v = heapq.heappop(heap)
        if v == hop:
            if not add_to_antichain(labels.cycles[hop], mask):
                continue
        else:
            if rank[v] < hop_rank:
                continue  # that vertex's own passes cover paths through it
            if labels.covered_below(rank, hop, v, mask, hop_rank):
                continue
            if not add_to_antichain(labels.l_in[v].setdefault(hop, []), mask):
                continue  # dominated by this pass's own earlier states
        for w, label_id in graph.out_edges(v):
            new_mask = mask | (1 << label_id)
            heapq.heappush(heap, (new_mask.bit_count(), new_mask, w))


def labeled_resume_backward(
    graph: LabeledDiGraph,
    labels: LabeledTwoHopLabels,
    rank: dict[int, int],
    hop: int,
    seeds: list[tuple[int, int]],
) -> None:
    """(Re)run hop's backward label-set search from ``seeds``."""
    hop_rank = rank[hop]
    heap = [(mask.bit_count(), mask, v) for v, mask in seeds]
    heapq.heapify(heap)
    while heap:
        _, mask, v = heapq.heappop(heap)
        if v == hop:
            if not add_to_antichain(labels.cycles[hop], mask):
                continue
        else:
            if rank[v] < hop_rank:
                continue
            if labels.covered_below(rank, v, hop, mask, hop_rank):
                continue
            if not add_to_antichain(labels.l_out[v].setdefault(hop, []), mask):
                continue
        for u, label_id in graph.in_edges(v):
            new_mask = mask | (1 << label_id)
            heapq.heappush(heap, (new_mask.bit_count(), new_mask, u))


def build_labeled_labels(
    graph: LabeledDiGraph, order: list[int]
) -> tuple[LabeledTwoHopLabels, dict[int, int]]:
    """Run the full P2H+ labeling over ``order``."""
    labels = LabeledTwoHopLabels(graph.num_vertices)
    rank = {v: i for i, v in enumerate(order)}
    for hop in order:
        forward_seeds = [(w, 1 << label_id) for w, label_id in graph.out_edges(hop)]
        labeled_resume_forward(graph, labels, rank, hop, forward_seeds)
        backward_seeds = [(u, 1 << label_id) for u, label_id in graph.in_edges(hop)]
        labeled_resume_backward(graph, labels, rank, hop, backward_seeds)
    return labels, rank


@register_labeled
class P2HIndex(AlternationIndex):
    """P2H+: complete pruned 2-hop labels with SPLS masks."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="P2H+",
        framework="2-Hop",
        complete=True,
        input_kind="General",
        dynamic="no",
        constraint="Alternation",
    )

    def __init__(
        self, graph: LabeledDiGraph, labels: LabeledTwoHopLabels, rank: dict[int, int]
    ) -> None:
        super().__init__(graph)
        self._labels = labels
        self._rank = rank

    @classmethod
    def build(cls, graph: LabeledDiGraph) -> "P2HIndex":
        with build_phase("labeled-pruned-labeling") as phase:
            labels, rank = build_labeled_labels(graph, labeled_degree_order(graph))
            phase.annotate(entries=labels.size_in_entries())
        return cls(graph, labels, rank)

    @property
    def labels(self) -> LabeledTwoHopLabels:
        """The underlying labeled 2-hop label sets."""
        return self._labels

    def query_mask(
        self, source: int, target: int, mask: int, require_cycle: bool
    ) -> bool:
        if require_cycle:
            return self._labels.cycle_covered(source, mask)
        return self._labels.covered(source, target, mask)

    def size_in_entries(self) -> int:
        return self._labels.size_in_entries()
