"""FERRARI: flexible reachability ranges with an interval budget (§3.1).

Where GRAIL records *exactly* ``k`` intervals per vertex, Ferrari records
*at most* ``k``: the exact inherited interval list of the tree-cover index
is computed first, then — whenever a vertex exceeds the budget — the pair
of intervals with the smallest gap is merged even though they are not
adjacent.  Merged intervals are flagged *approximate*; exact intervals are
kept flagged *exact*.

Lookup semantics (both-sided partial):

* ``b_t`` inside an **exact** interval of ``s`` → YES (true containment);
* ``b_t`` inside no interval at all → NO (approximation only over-covers,
  so a miss certifies non-reachability — no false negatives);
* ``b_t`` inside only approximate intervals → MAYBE, resolved by guided
  traversal.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase
from repro.plain.interval import (
    forest_postorder_intervals,
    spanning_forest,
)

__all__ = ["FerrariIndex"]

# an interval is (a, b, exact_flag)
_Interval = tuple[int, int, bool]


def _merge_flagged(intervals: list[_Interval]) -> list[_Interval]:
    """Merge overlapping/adjacent flagged intervals.

    Merging an exact interval with anything it overlaps keeps exactness only
    if both are exact and they truly touch (the union is still the exact
    covered set).
    """
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for a, b, exact in intervals[1:]:
        last_a, last_b, last_exact = merged[-1]
        if a <= last_b + 1:
            merged[-1] = (last_a, max(b, last_b), exact and last_exact)
        else:
            merged.append((a, b, exact))
    return merged


def _enforce_budget(intervals: list[_Interval], k: int) -> list[_Interval]:
    """Merge smallest-gap neighbours until at most ``k`` intervals remain."""
    intervals = list(intervals)
    while len(intervals) > k:
        best_pos = 0
        best_gap = None
        for i in range(len(intervals) - 1):
            gap = intervals[i + 1][0] - intervals[i][1]
            if best_gap is None or gap < best_gap:
                best_gap = gap
                best_pos = i
        a1, _b1, _e1 = intervals[best_pos]
        _a2, b2, _e2 = intervals[best_pos + 1]
        # spanning a gap makes the result approximate by construction
        intervals[best_pos : best_pos + 2] = [(a1, b2, False)]
    return intervals


@register_plain
class FerrariIndex(ReachabilityIndex):
    """Ferrari: at most ``k`` (exact or approximate) intervals per vertex."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Ferrari",
        framework="Tree cover",
        complete=False,
        input_kind="DAG",
        dynamic="no",
    )

    DEFAULT_K = 4

    def __init__(
        self,
        graph: DiGraph,
        postorder: list[tuple[int, int]],
        interval_lists: list[list[_Interval]],
    ) -> None:
        super().__init__(graph)
        self._postorder = postorder
        self._intervals = interval_lists

    @classmethod
    def build(cls, graph: DiGraph, k: int = DEFAULT_K) -> "FerrariIndex":
        """Exact tree-cover inheritance with the per-vertex budget applied."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        with build_phase("tree-cover"):
            order = topological_order(graph)
            parent = spanning_forest(graph, order)
            tree_intervals = forest_postorder_intervals(graph, parent)
        with build_phase("interval-inheritance", budget=k) as phase:
            lists: list[list[_Interval]] = [[] for _ in graph.vertices()]
            for v in reversed(order):
                a, b = tree_intervals[v]
                collected: list[_Interval] = [(a, b, True)]
                for w in graph.out_neighbors(v):
                    collected.extend(lists[w])
                lists[v] = _enforce_budget(_merge_flagged(collected), k)
            phase.annotate(intervals=sum(len(lst) for lst in lists))
        return cls(graph, tree_intervals, lists)

    def _lookup(self, source: int, target: int) -> TriState:
        if source == target:
            return TriState.YES
        b_target = self._postorder[target][1]
        hit_approximate = False
        for a, b, exact in self._intervals[source]:
            if a <= b_target <= b:
                if exact:
                    return TriState.YES
                hit_approximate = True
        if hit_approximate:
            return TriState.MAYBE
        return TriState.NO

    def _lookup_batch(self, pairs) -> list[TriState]:
        """Batched interval probes with the interval lists bound once."""
        postorder = self._postorder
        intervals = self._intervals
        yes, no, maybe = TriState.YES, TriState.NO, TriState.MAYBE
        results: list[TriState] = []
        append = results.append
        for s, t in pairs:
            if s == t:
                append(yes)
                continue
            b_target = postorder[t][1]
            hit_approximate = False
            for a, b, exact in intervals[s]:
                if a <= b_target <= b:
                    if exact:
                        append(yes)
                        break
                    hit_approximate = True
            else:
                append(maybe if hit_approximate else no)
        return results

    def size_in_entries(self) -> int:
        """Total intervals stored (≤ k per vertex by construction)."""
        return sum(len(lst) for lst in self._intervals)
