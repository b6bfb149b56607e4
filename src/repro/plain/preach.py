"""PReaCH: pruning-based reachability with contraction-hierarchy ideas (§3.4).

Merz & Sanders port the pruning toolkit of contraction hierarchies to
reachability.  The index per vertex is a handful of numbers computed in
two DFS passes and one topological sweep:

* a forward DFS post-order interval ``[min_post, post]`` — if ``s``
  reaches ``t`` then ``t``'s interval nests inside ``s``'s (GRAIL-style NO
  test), and ``t`` inside ``s``'s *tree* interval is a YES certificate;
* the dual backward interval over the reversed graph;
* topological levels for both directions (NO when ``level(s) ≥ level(t)``).

Anything unresolved is MAYBE, answered by the pruned bidirectional search
the paper is named after — realised here as index-guided traversal.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_levels
from repro.obs.build import build_phase

__all__ = ["PReaCHIndex"]


def _dfs_numbers(graph: DiGraph) -> tuple[list[int], list[int], list[int]]:
    """(post, min_post_reachable, min_post_subtree) for a full DFS.

    ``min_post_reachable`` propagates through *all* out-edges (GRAIL-style
    containment); ``min_post_subtree`` only through tree edges, so
    ``[min_post_subtree, post]`` certifies YES.
    """
    n = graph.num_vertices
    post = [0] * n
    min_reach = [0] * n
    min_tree = [0] * n
    state = bytearray(n)  # 0 unvisited, 1 active, 2 done
    clock = 0
    for start in range(n):
        if state[start]:
            continue
        state[start] = 1
        stack: list[tuple[int, int, list[int]]] = [(start, 0, [])]
        while stack:
            v, cursor, tree_children = stack[-1]
            neighbors = graph.out_neighbors(v)
            advanced = False
            while cursor < len(neighbors):
                w = neighbors[cursor]
                cursor += 1
                if state[w] == 0:
                    state[w] = 1
                    tree_children.append(w)
                    stack[-1] = (v, cursor, tree_children)
                    stack.append((w, 0, []))
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            state[v] = 2
            clock += 1
            post[v] = clock
            reach_low = clock
            for w in graph.out_neighbors(v):
                if min_reach[w] < reach_low:
                    reach_low = min_reach[w]
            min_reach[v] = reach_low
            tree_low = clock
            for w in tree_children:
                if min_tree[w] < tree_low:
                    tree_low = min_tree[w]
            min_tree[v] = tree_low
    return post, min_reach, min_tree


@register_plain
class PReaCHIndex(ReachabilityIndex):
    """PReaCH: DFS number ranges + topological levels, both directions."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Preach",
        framework="-",
        complete=False,
        input_kind="DAG",
        dynamic="no",
    )

    def __init__(
        self,
        graph: DiGraph,
        fwd: tuple[list[int], list[int], list[int]],
        bwd: tuple[list[int], list[int], list[int]],
        level_fwd: list[int],
        level_bwd: list[int],
    ) -> None:
        super().__init__(graph)
        self._fwd_post, self._fwd_reach, self._fwd_tree = fwd
        self._bwd_post, self._bwd_reach, self._bwd_tree = bwd
        self._level_fwd = level_fwd
        self._level_bwd = level_bwd

    @classmethod
    def build(cls, graph: DiGraph) -> "PReaCHIndex":
        reverse = graph.reversed()
        with build_phase("forward-dfs-numbers"):
            fwd = _dfs_numbers(graph)
        with build_phase("backward-dfs-numbers"):
            bwd = _dfs_numbers(reverse)
        with build_phase("topological-levels"):
            level_fwd = topological_levels(graph)
            level_bwd = topological_levels(reverse)
        return cls(graph, fwd, bwd, level_fwd, level_bwd)

    def _lookup(self, source: int, target: int) -> TriState:
        if source == target:
            return TriState.YES
        # YES: target inside source's forward DFS *tree* interval,
        # or source inside target's backward tree interval.
        if self._fwd_tree[source] <= self._fwd_post[target] <= self._fwd_post[source]:
            return TriState.YES
        if self._bwd_tree[target] <= self._bwd_post[source] <= self._bwd_post[target]:
            return TriState.YES
        # NO: violated reachable-range containment in either direction
        # (if s reaches t, t's forward range nests in s's, and s's backward
        # range nests in t's).
        if not (
            self._fwd_reach[source] <= self._fwd_reach[target]
            and self._fwd_post[target] <= self._fwd_post[source]
        ):
            return TriState.NO
        if not (
            self._bwd_reach[target] <= self._bwd_reach[source]
            and self._bwd_post[source] <= self._bwd_post[target]
        ):
            return TriState.NO
        # NO: topological levels must strictly increase along paths.
        if self._level_fwd[source] >= self._level_fwd[target]:
            return TriState.NO
        if self._level_bwd[target] >= self._level_bwd[source]:
            return TriState.NO
        return TriState.MAYBE

    def _lookup_batch(self, pairs) -> list[TriState]:
        """Batched PReaCH observations with all eight arrays bound once."""
        fwd_post, fwd_reach, fwd_tree = self._fwd_post, self._fwd_reach, self._fwd_tree
        bwd_post, bwd_reach, bwd_tree = self._bwd_post, self._bwd_reach, self._bwd_tree
        level_fwd, level_bwd = self._level_fwd, self._level_bwd
        yes, no, maybe = TriState.YES, TriState.NO, TriState.MAYBE
        results: list[TriState] = []
        append = results.append
        for s, t in pairs:
            if s == t:
                append(yes)
            elif fwd_tree[s] <= fwd_post[t] <= fwd_post[s]:
                append(yes)
            elif bwd_tree[t] <= bwd_post[s] <= bwd_post[t]:
                append(yes)
            elif not (fwd_reach[s] <= fwd_reach[t] and fwd_post[t] <= fwd_post[s]):
                append(no)
            elif not (bwd_reach[t] <= bwd_reach[s] and bwd_post[s] <= bwd_post[t]):
                append(no)
            elif level_fwd[s] >= level_fwd[t]:
                append(no)
            elif level_bwd[t] >= level_bwd[s]:
                append(no)
            else:
                append(maybe)
        return results

    def size_in_entries(self) -> int:
        """Eight numbers per vertex."""
        return 8 * self._graph.num_vertices
