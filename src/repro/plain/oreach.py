"""O'Reach: supporting vertices plus extended topological orders (§3.2).

Hanauer et al.'s O'Reach is a partial index that answers a large share of
queries in O(1) from two ingredients:

* **k supporting vertices**: for each supporting vertex ``x`` every vertex
  stores two bits — "reaches ``x``" and "reached by ``x``".  They yield
  both YES certificates (``s → x`` and ``x → t``) and NO certificates
  (``x → s`` but not ``x → t`` implies ``s`` cannot reach ``t``, since
  reachability would be transitive through ``s``; symmetrically for the
  reached-by side).
* **extended topological orders**: several topological ranks with
  different tie-breaking plus the min/max rank over each vertex's
  descendants.  ``s → t`` forces ``rank(s) < rank(t)`` in every
  topological order, so an inverted rank certifies NO.

Unresolved queries answer MAYBE and fall back to index-guided traversal —
O'Reach is explicitly a *both-sided* partial index, the design §5 singles
out as the template for future partial indexes.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_levels, topological_order
from repro.obs.build import build_phase
from repro.traversal.online import ancestors, descendants

__all__ = ["OReachIndex"]


@register_plain
class OReachIndex(ReachabilityIndex):
    """O'Reach: k supporting vertices + extended topological observations."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="O'Reach",
        framework="2-Hop",
        complete=False,
        input_kind="DAG",
        dynamic="no",
    )

    DEFAULT_K = 16

    def __init__(
        self,
        graph: DiGraph,
        supports: list[int],
        reaches_support: list[int],
        reached_by_support: list[int],
        rank_fwd: list[int],
        rank_alt: list[int],
        level: list[int],
    ) -> None:
        super().__init__(graph)
        self._supports = supports
        self._reaches = reaches_support  # mask: supports v reaches
        self._reached_by = reached_by_support  # mask: supports reaching v
        self._rank_fwd = rank_fwd
        self._rank_alt = rank_alt
        self._level = level

    @classmethod
    def build(cls, graph: DiGraph, k: int = DEFAULT_K) -> "OReachIndex":
        n = graph.num_vertices
        # supporting vertices: high-degree spread, the paper's main heuristic
        with build_phase("support-selection", supports=min(k, n)):
            by_degree = sorted(
                graph.vertices(),
                key=lambda v: (-(graph.in_degree(v) + graph.out_degree(v)), v),
            )
            supports = by_degree[: min(k, n)]
        with build_phase("support-traversals"):
            reaches = [0] * n
            reached_by = [0] * n
            for i, x in enumerate(supports):
                bit = 1 << i
                for w in ancestors(graph, x):
                    reaches[w] |= bit
                for w in descendants(graph, x):
                    reached_by[w] |= bit
        with build_phase("extended-topological-orders"):
            order = topological_order(graph)
            rank_fwd = [0] * n
            for position, v in enumerate(order):
                rank_fwd[v] = position
            # an alternative topological order: reverse-id tie-breaking via
            # relabeling; different orders disagree exactly where MAYBEs lurk.
            relabel = [n - 1 - v for v in range(n)]
            mirrored = DiGraph(n)
            for u, v in graph.edges():
                mirrored.add_edge(relabel[u], relabel[v])
            rank_alt = [0] * n
            for position, mv in enumerate(topological_order(mirrored)):
                rank_alt[relabel[mv]] = position
            level = topological_levels(graph)
        return cls(graph, supports, reaches, reached_by, rank_fwd, rank_alt, level)

    def _lookup(self, source: int, target: int) -> TriState:
        if source == target:
            return TriState.YES
        # topological observations: any inverted order certifies NO
        if self._rank_fwd[source] >= self._rank_fwd[target]:
            return TriState.NO
        if self._rank_alt[source] >= self._rank_alt[target]:
            return TriState.NO
        if self._level[source] >= self._level[target]:
            return TriState.NO
        # supporting vertices: YES through a common support
        if self._reaches[source] & self._reached_by[target]:
            return TriState.YES
        # NO by transitivity through a support on either side
        if self._reached_by[source] & ~self._reached_by[target]:
            # some support reaches s but not t; s -> t would contradict it
            return TriState.NO
        if self._reaches[target] & ~self._reaches[source]:
            return TriState.NO
        return TriState.MAYBE

    def _lookup_batch(self, pairs) -> list[TriState]:
        """Batched O'Reach observations with ranks and masks bound once."""
        rank_fwd, rank_alt, level = self._rank_fwd, self._rank_alt, self._level
        reaches, reached_by = self._reaches, self._reached_by
        yes, no, maybe = TriState.YES, TriState.NO, TriState.MAYBE
        results: list[TriState] = []
        append = results.append
        for s, t in pairs:
            if s == t:
                append(yes)
            elif rank_fwd[s] >= rank_fwd[t]:
                append(no)
            elif rank_alt[s] >= rank_alt[t]:
                append(no)
            elif level[s] >= level[t]:
                append(no)
            elif reaches[s] & reached_by[t]:
                append(yes)
            elif reached_by[s] & ~reached_by[t]:
                append(no)
            elif reaches[t] & ~reaches[s]:
                append(no)
            else:
                append(maybe)
        return results

    def size_in_entries(self) -> int:
        """Two support masks plus three ranks per vertex."""
        return 5 * self._graph.num_vertices

    @property
    def supports(self) -> list[int]:
        """The chosen supporting vertices."""
        return list(self._supports)
