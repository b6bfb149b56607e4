"""The generalized transitive closure — GTC (§2.3, §4.1).

The GTC extends the transitive closure with edge-label information: for
every ordered vertex pair it stores the minimal antichain of sufficient
path-label sets.  Query processing is a lookup plus subset tests, but the
computation and storage costs are what the survey calls "infeasible in
practice" — this implementation is the completeness reference and the
baseline the size/build benchmarks measure everything else against.

The module also exports :func:`single_source_gtc`, the Dijkstra-like
single-source computation (expansion ordered by the number of distinct
labels, Zou et al.'s "shorter path first" rule) reused by the Zou,
landmark and Jin indexes.
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

__all__ = ["GTCIndex", "single_source_gtc"]


def single_source_gtc(
    graph: LabeledDiGraph, source: int
) -> tuple[dict[int, list[int]], list[int]]:
    """All SPLSs of paths from ``source``, Dijkstra-like.

    States ``(vertex, label-set mask)`` are expanded in order of the number
    of distinct labels in the mask — Zou et al.'s distance surrogate — so a
    state is only expanded if its mask is not dominated by an already
    recorded SPLS for that vertex.

    Returns ``(rows, cycles)``: ``rows[t]`` is the minimal antichain of
    SPLSs of non-empty ``source → t`` paths (``t != source``), and
    ``cycles`` the antichain for non-empty ``source → source`` cycles.
    """
    rows: dict[int, list[int]] = {}
    cycles: list[int] = []
    # heap of (popcount, mask, vertex); counter unneeded since ties are fine
    heap: list[tuple[int, int, int]] = []
    for w, label_id in graph.out_edges(source):
        mask = 1 << label_id
        heapq.heappush(heap, (1, mask, w))
    while heap:
        _, mask, v = heapq.heappop(heap)
        if v == source:
            if not add_to_antichain(cycles, mask):
                continue
        else:
            antichain = rows.setdefault(v, [])
            if not add_to_antichain(antichain, mask):
                continue
        for w, label_id in graph.out_edges(v):
            new_mask = mask | (1 << label_id)
            if w == source:
                dominated = any(kept & ~new_mask == 0 for kept in cycles)
            else:
                dominated = any(
                    kept & ~new_mask == 0 for kept in rows.get(w, ())
                )
            if not dominated:
                heapq.heappush(heap, (new_mask.bit_count(), new_mask, w))
    return rows, cycles


@register_labeled
class GTCIndex(AlternationIndex):
    """Fully materialised generalized transitive closure."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="GTC",
        framework="GTC",
        complete=True,
        input_kind="General",
        dynamic="no",
        constraint="Alternation",
    )

    def __init__(
        self,
        graph: LabeledDiGraph,
        rows: list[dict[int, list[int]]],
        cycles: list[list[int]],
    ) -> None:
        super().__init__(graph)
        self._rows = rows
        self._cycles = cycles

    @classmethod
    def build(cls, graph: LabeledDiGraph) -> "GTCIndex":
        with build_phase("single-source-sweeps", vertices=graph.num_vertices):
            rows: list[dict[int, list[int]]] = []
            cycles: list[list[int]] = []
            for source in graph.vertices():
                row, cycle = single_source_gtc(graph, source)
                rows.append(row)
                cycles.append(cycle)
        return cls(graph, rows, cycles)

    def spls(self, source: int, target: int) -> list[int]:
        """The recorded SPLS antichain for a pair (empty list if unreachable)."""
        if source == target:
            return list(self._cycles[source])
        return list(self._rows[source].get(target, ()))

    def query_mask(
        self, source: int, target: int, mask: int, require_cycle: bool
    ) -> bool:
        if require_cycle:
            return antichain_matches(self._cycles[source], mask)
        antichain = self._rows[source].get(target)
        if antichain is None:
            return False
        return antichain_matches(antichain, mask)

    def size_in_entries(self) -> int:
        """Total stored SPLS masks across all pairs."""
        pair_entries = sum(
            len(antichain) for row in self._rows for antichain in row.values()
        )
        return pair_entries + sum(len(c) for c in self._cycles)
