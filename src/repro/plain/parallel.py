"""Batch-synchronous (parallelisable) 2-hop labeling — the §5 challenge.

The survey closes §5 with "the parallel computation of indexes (e.g.,
parallel 2-hop indexing) is also worth exploring", citing Jin et al.'s
*Parallelizing Pruned Landmark Labeling*, whose core difficulty is the
sequential dependency of pruning on all earlier hops.  This module
implements that paper's resolution — batch-synchronous label
construction with commit-time validation:

1. the total order is cut into batches;
2. within a batch every hop runs its pruned BFS against a *snapshot* of
   the labels committed by earlier batches.  These searches share no
   state, so they can run concurrently — the snapshot just makes their
   pruning weaker, so each produces a **superset** of the entries the
   sequential algorithm would;
3. a sequential commit phase walks the batch in rank order and re-checks
   every candidate entry against the current labels, discarding the ones
   made redundant by same-batch predecessors.

The result is a sound and complete labeling whose size approaches the
sequential one as the batch size shrinks (batch size 1 *is* sequential
PLL).  Phase 1 runs as a plain loop here: the searches are pure Python,
so under CPython's GIL a thread pool only added overhead (raced in
docs/PERFORMANCE.md) — the algorithm is what this module demonstrates.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.graphs.digraph import DiGraph
from repro.obs.build import build_phase
from repro.plain.pruned import (
    TwoHopLabels,
    TwoHopProbeIndex,
    degree_order,
    enumerate_covered,
)

__all__ = ["batched_pruned_labels", "BatchedPLLIndex"]

_Candidates = tuple[list[tuple[int, int]], list[tuple[int, int]]]
# (forward candidates as (vertex, hop), backward candidates as (vertex, hop))


def _collect_candidates(
    graph: DiGraph, labels: TwoHopLabels, hop: int
) -> _Candidates:
    """Phase 1: one hop's pruned BFS against the committed snapshot."""
    forward: list[tuple[int, int]] = []
    queue: deque[int] = deque((hop,))
    visited = {hop}
    while queue:
        v = queue.popleft()
        for w in graph.out_neighbors(v):
            if w in visited or w == hop:
                continue
            visited.add(w)
            if labels.covered(hop, w):
                continue
            forward.append((w, hop))
            queue.append(w)
    backward: list[tuple[int, int]] = []
    queue = deque((hop,))
    visited = {hop}
    while queue:
        v = queue.popleft()
        for w in graph.in_neighbors(v):
            if w in visited or w == hop:
                continue
            visited.add(w)
            if labels.covered(w, hop):
                continue
            backward.append((w, hop))
            queue.append(w)
    return forward, backward


def batched_pruned_labels(
    graph: DiGraph,
    order: list[int],
    batch_size: int = 16,
) -> TwoHopLabels:
    """Build complete 2-hop labels with the batch-synchronous algorithm."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    labels = TwoHopLabels(graph.num_vertices)
    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        results = [_collect_candidates(graph, labels, hop) for hop in batch]
        # phase 2: sequential commit in rank order with re-validation
        labels.bump_version()
        for (forward, backward) in results:
            for vertex, hop in forward:
                if not labels.covered(hop, vertex):
                    labels.l_in[vertex].add(hop)
            for vertex, hop in backward:
                if not labels.covered(vertex, hop):
                    labels.l_out[vertex].add(hop)
    return labels


class BatchedPLLIndex(TwoHopProbeIndex):
    """PLL built with the batch-synchronous construction (§5 extension).

    Answers are identical to :class:`~repro.plain.pll.PLLIndex`; the
    labels may carry a small amount of batch-induced redundancy.  Not
    registered in the Table 1 registry — the paper's table predates the
    parallel construction.
    """

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Batched-PLL",
        framework="2-Hop",
        complete=True,
        input_kind="General",
        dynamic="no",
    )

    def __init__(self, graph: DiGraph, labels: TwoHopLabels, batch_size: int) -> None:
        super().__init__(graph, labels)
        self._batch_size = batch_size

    @classmethod
    def build(cls, graph: DiGraph, batch_size: int = 16) -> "BatchedPLLIndex":
        with build_phase("batched-pruned-labeling", batch_size=batch_size):
            labels = batched_pruned_labels(
                graph, degree_order(graph), batch_size=batch_size
            )
        return cls(graph, labels, batch_size)

    @property
    def batch_size(self) -> int:
        """Hops labeled per synchronisation round."""
        return self._batch_size

    def _enumerate_fast(self, vertex: int, forward: bool):
        """Label-join enumeration through the inverted hub index."""
        return enumerate_covered(self._labels, vertex, forward)
