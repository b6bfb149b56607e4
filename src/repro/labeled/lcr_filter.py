"""A partial LCR index *without false negatives* — the §5 proposal.

The survey's open-challenges section observes that the only partial
path-constrained index (the landmark index) has no false *positives*, so
negative queries — the common case in real workloads — can never stop
early, and calls for "a partial index without false negatives for
path-constrained reachability queries".  This module is that design,
built from the §3.3 approximate-TC toolkit:

* reachability under an alternation constraint ``L'`` is reachability in
  the label-induced subgraph ``G[L']``, and ``G[L'] ⊆ G[L'']`` whenever
  ``L' ⊆ L''`` — so any no-false-negative filter for a *superset*
  subgraph soundly rejects the constrained query;
* we build one Bloom-filter labeling (BFL-style) for the full graph and
  one for each subgraph ``G[L ∖ X]`` over every exclusion set ``X`` of up
  to ``max_exclude`` labels: a query with constraint ``L'`` consults each
  filter whose subgraph covers ``L'`` — all are upper bounds, so a NO
  from any certifies non-reachability.  Small exclusion sets keep the
  filter count polynomial (``Σ C(|L|, k)``) while the tightest applicable
  filter is often the exact complement of the constraint.

Lookups answer NO or MAYBE only (never YES); MAYBEs are resolved by a
constrained BFS that re-consults the filter at every frontier vertex —
the §5 frontier-pruning rule, now available for LCR queries.  Index size
is ``2(|L|+1)`` machine words per vertex, and construction is
``|L|+1`` linear sweeps.

This index is an *extension* (the survey calls for it; no published
system in Table 2 provides it), so it is intentionally not registered in
the Table 2 registry.
"""

from __future__ import annotations

import random
from collections import deque
from typing import ClassVar

from repro.core.base import IndexMetadata, TriState
from repro.graphs.labeled import LabeledDiGraph
from repro.graphs.scc import condense
from repro.graphs.topo import topological_order
from repro.labeled.base import AlternationIndex
from repro.obs.build import build_phase

__all__ = ["LCRFilterIndex"]


def _bloom_filters(
    graph: LabeledDiGraph, allowed_mask: int, signature: list[int]
) -> tuple[list[int], list[int]]:
    """BFL-style (out, in) filters over the subgraph of ``allowed_mask``.

    General graphs are handled by condensing the subgraph first and
    assigning every member of an SCC the component's filter.
    """
    from repro.graphs.digraph import DiGraph

    n = graph.num_vertices
    plain = DiGraph(n)
    for u in graph.vertices():
        for v, label_id in graph.out_edges(u):
            if (1 << label_id) & allowed_mask:
                plain.add_edge_if_absent(u, v)
    condensation = condense(plain)
    dag = condensation.dag
    comp_signature = [0] * dag.num_vertices
    for v in range(n):
        comp_signature[condensation.scc_of[v]] |= signature[v]
    order = topological_order(dag)
    comp_out = [0] * dag.num_vertices
    for c in reversed(order):
        mask = comp_signature[c]
        for d in dag.out_neighbors(c):
            mask |= comp_out[d]
        comp_out[c] = mask
    comp_in = [0] * dag.num_vertices
    for c in order:
        mask = comp_signature[c]
        for d in dag.in_neighbors(c):
            mask |= comp_in[d]
        comp_in[c] = mask
    out_filter = [comp_out[condensation.scc_of[v]] for v in range(n)]
    in_filter = [comp_in[condensation.scc_of[v]] for v in range(n)]
    return out_filter, in_filter


class LCRFilterIndex(AlternationIndex):
    """No-false-negative partial index for alternation constraints (§5)."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="LCR-Filter",
        framework="Approximate TC",
        complete=False,
        input_kind="General",
        dynamic="no",
        constraint="Alternation",
    )

    DEFAULT_BITS = 128
    DEFAULT_HASHES = 2
    DEFAULT_MAX_EXCLUDE = 2

    def __init__(
        self,
        graph: LabeledDiGraph,
        filters: dict[int, tuple[list[int], list[int]]],
    ) -> None:
        super().__init__(graph)
        # keyed by the allowed-label mask the filter was built over
        self._filters = filters

    @classmethod
    def build(
        cls,
        graph: LabeledDiGraph,
        bits: int = DEFAULT_BITS,
        num_hashes: int = DEFAULT_HASHES,
        max_exclude: int = DEFAULT_MAX_EXCLUDE,
        seed: int = 0,
    ) -> "LCRFilterIndex":
        from itertools import combinations

        with build_phase("hash-signatures", bits=bits, hashes=num_hashes):
            rng = random.Random(seed)
            signature = [0] * graph.num_vertices
            for v in graph.vertices():
                mask = 0
                for _ in range(num_hashes):
                    mask |= 1 << rng.randrange(bits)
                signature[v] = mask
        with build_phase("per-subset-filters", max_exclude=max_exclude) as phase:
            full_mask = (1 << graph.num_labels) - 1
            filters: dict[int, tuple[list[int], list[int]]] = {
                full_mask: _bloom_filters(graph, full_mask, signature)
            }
            label_ids = range(graph.num_labels)
            for exclude_count in range(1, max_exclude + 1):
                for excluded in combinations(label_ids, exclude_count):
                    allowed = full_mask
                    for label_id in excluded:
                        allowed &= ~(1 << label_id)
                    filters[allowed] = _bloom_filters(graph, allowed, signature)
            phase.annotate(filters=len(filters))
        return cls(graph, filters)

    def lookup_mask(self, source: int, target: int, mask: int) -> TriState:
        """NO when any superset filter separates the pair; else MAYBE."""
        if source == target:
            return TriState.MAYBE  # cycles are for the search to decide
        for allowed, (out_filter, in_filter) in self._filters.items():
            if mask & ~allowed:
                continue  # this filter's subgraph does not cover the constraint
            if out_filter[target] & ~out_filter[source]:
                return TriState.NO
            if in_filter[source] & ~in_filter[target]:
                return TriState.NO
        return TriState.MAYBE

    def query_mask(
        self, source: int, target: int, mask: int, require_cycle: bool
    ) -> bool:
        if not require_cycle and self.lookup_mask(source, target, mask) is TriState.NO:
            return False
        # filter-guided constrained BFS: the §5 frontier-pruning rule
        graph = self._graph
        seen = bytearray(graph.num_vertices)
        queue: deque[int] = deque((source,))
        if not require_cycle:
            seen[source] = 1
        while queue:
            v = queue.popleft()
            for w, label_id in graph.out_edges(v):
                if not (1 << label_id) & mask:
                    continue
                if w == target:
                    return True
                if seen[w]:
                    continue
                seen[w] = 1
                if self.lookup_mask(w, target, mask) is TriState.NO:
                    continue  # prune: nothing past w reaches target within mask
                queue.append(w)
        return False

    def size_in_entries(self) -> int:
        """Two words per vertex per filter (Σ C(|L|, k≤max_exclude) filters)."""
        return sum(
            len(out_filter) + len(in_filter)
            for out_filter, in_filter in self._filters.values()
        )
