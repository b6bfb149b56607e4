"""Chen & Singh: LCR via recursive spanning-tree decomposition (§4.1.1).

The state-of-the-art tree-based LCR index classifies edges against a
spanning forest, answers the tree-like part with interval labeling
enriched by SPLSs, compresses the reachability carried by the remaining
(non-tree) edges into a *summary graph* over their endpoints — and then
**applies the same decomposition to the summary, recursively**, until the
summary stops shrinking or becomes trivial.  This module implements that
recursion:

* every level is a *mask-labeled* graph (level 0: the input with
  single-label masks; deeper levels: summaries whose edges carry the SPLS
  of a tree path or a crossing edge);
* each level stores a spanning forest with pre/post intervals and
  root-to-vertex **label counts**, so the SPLS of any descending tree
  path is an O(|L|) subtraction — the optimisation inherited from Jin et
  al. and kept valid for mask edges (a mask edge increments the count of
  each label it contains);
* the level's summary nodes are the tails and heads of its non-tree
  edges; summary edges are those non-tree edges plus ``head → tail``
  shortcuts labeled with the connecting tree path's mask;
* the final level (no further shrink, or below the size threshold)
  materialises full SPLS-closure rows, Dijkstra-style.

``Qr(s, t, L')`` at level *i* holds iff the tree path works, or some
non-tree edge ``(u, v)`` fits the budget with ``s`` tree-reaching ``u``
and the *recursive* query at level *i+1* connecting ``v`` to some head
``h`` that tree-reaches ``t``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_labeled
from repro.graphs.labeled import LabeledDiGraph
from repro.labeled.base import AlternationIndex
from repro.labeled.spls import add_to_antichain, antichain_matches
from repro.obs.build import build_phase

__all__ = ["ChenIndex"]

# a mask-labeled graph: adjacency[v] = list of (w, mask)
_MaskAdjacency = list[list[tuple[int, int]]]


@dataclass
class _Level:
    """One decomposition level: tree structures + summary wiring."""

    num_vertices: int
    intervals: list[tuple[int, int]]  # (pre, post) in the spanning forest
    root_counts: list[tuple[int, ...]]  # per-label occurrence counts from root
    non_tree: list[tuple[int, int, int]]  # (tail, head, mask)
    summary_id: dict[int, int]  # level vertex -> next-level vertex id
    heads: list[int]  # level vertices that are heads of non-tree edges
    closure: dict[int, dict[int, list[int]]] = field(default_factory=dict)
    # terminal levels only: vertex -> {vertex -> SPLS antichain}

    def in_subtree(self, a: int, d: int) -> bool:
        return (
            self.intervals[a][0] <= self.intervals[d][0]
            and self.intervals[d][1] <= self.intervals[a][1]
        )

    def tree_mask(self, a: int, d: int) -> int:
        mask = 0
        up, down = self.root_counts[a], self.root_counts[d]
        for label_id, (high, low) in enumerate(zip(down, up)):
            if high > low:
                mask |= 1 << label_id
        return mask

    def tree_descend(self, a: int, d: int, budget: int) -> bool:
        """Whether ``a`` tree-reaches ``d`` using labels within ``budget``."""
        if a == d:
            return True
        return self.in_subtree(a, d) and self.tree_mask(a, d) & ~budget == 0


def _spanning_structures(
    num_vertices: int, adjacency: _MaskAdjacency, num_labels: int
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """DFS spanning forest over a mask graph: (parent, parent_mask, intervals)."""
    parent = [-1] * num_vertices
    parent_mask = [0] * num_vertices
    pre = [0] * num_vertices
    post = [0] * num_vertices
    visited = bytearray(num_vertices)
    clock = 0
    for start in range(num_vertices):
        if visited[start]:
            continue
        visited[start] = 1
        clock += 1
        pre[start] = clock
        stack: list[tuple[int, int]] = [(start, 0)]
        while stack:
            v, cursor = stack[-1]
            edges = adjacency[v]
            advanced = False
            while cursor < len(edges):
                w, mask = edges[cursor]
                cursor += 1
                if not visited[w]:
                    visited[w] = 1
                    parent[w] = v
                    parent_mask[w] = mask
                    clock += 1
                    pre[w] = clock
                    stack[-1] = (v, cursor)
                    stack.append((w, 0))
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            clock += 1
            post[v] = clock
    return parent, parent_mask, list(zip(pre, post))


def _closure_rows(
    num_vertices: int, adjacency: _MaskAdjacency
) -> dict[int, dict[int, list[int]]]:
    """Full SPLS closure of a (small) mask graph, Dijkstra-style per source."""
    closure: dict[int, dict[int, list[int]]] = {}
    for source in range(num_vertices):
        rows: dict[int, list[int]] = {}
        heap: list[tuple[int, int, int]] = [
            (mask.bit_count(), mask, w) for w, mask in adjacency[source]
        ]
        heapq.heapify(heap)
        while heap:
            _, mask, v = heapq.heappop(heap)
            antichain = rows.setdefault(v, [])
            if not add_to_antichain(antichain, mask):
                continue
            for w, edge_mask in adjacency[v]:
                new_mask = mask | edge_mask
                kept = rows.get(w, ())
                if not any(k & ~new_mask == 0 for k in kept):
                    heapq.heappush(heap, (new_mask.bit_count(), new_mask, w))
        closure[source] = rows
    return closure


@register_labeled
class ChenIndex(AlternationIndex):
    """Recursive tree decomposition with SPLS-enriched interval labeling."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Chen et al.",
        framework="Tree cover",
        complete=True,
        input_kind="General",
        dynamic="no",
        constraint="Alternation",
    )

    TERMINAL_THRESHOLD = 8

    def __init__(self, graph: LabeledDiGraph, levels: list[_Level]) -> None:
        super().__init__(graph)
        self._levels = levels

    @classmethod
    def build(
        cls,
        graph: LabeledDiGraph,
        terminal_threshold: int = TERMINAL_THRESHOLD,
    ) -> "ChenIndex":
        num_labels = max(graph.num_labels, 1)
        adjacency: _MaskAdjacency = [
            [(w, 1 << label_id) for w, label_id in graph.out_edges(v)]
            for v in graph.vertices()
        ]
        levels: list[_Level] = []
        num_vertices = graph.num_vertices
        with build_phase("recursive-decomposition") as phase:
            while True:
                level, next_adjacency, next_n = cls._decompose(
                    num_vertices, adjacency, num_labels
                )
                levels.append(level)
                no_summary = next_n == 0
                no_shrink = next_n >= num_vertices
                if no_summary:
                    break
                if no_shrink or next_n <= terminal_threshold:
                    with build_phase("terminal-closure", vertices=next_n):
                        level.closure = _closure_rows(next_n, next_adjacency)
                    # re-express the closure over this level's own vertex ids
                    break
                adjacency = next_adjacency
                num_vertices = next_n
            phase.annotate(levels=len(levels))
        # the terminal closure (if any) lives on the ids of the *next*
        # level; record it on a sentinel terminal level for uniform access
        if levels and levels[-1].closure:
            terminal = levels[-1]
            levels.append(
                _Level(
                    num_vertices=len(terminal.summary_id),
                    intervals=[],
                    root_counts=[],
                    non_tree=[],
                    summary_id={},
                    heads=[],
                    closure=terminal.closure,
                )
            )
            terminal.closure = {}
        return cls(graph, levels)

    @staticmethod
    def _decompose(
        num_vertices: int, adjacency: _MaskAdjacency, num_labels: int
    ) -> tuple[_Level, _MaskAdjacency, int]:
        parent, parent_mask, intervals = _spanning_structures(
            num_vertices, adjacency, num_labels
        )
        # root-to-vertex label counts, parents first (pre-order)
        root_counts: list[tuple[int, ...]] = [()] * num_vertices
        for v in sorted(range(num_vertices), key=lambda x: intervals[x][0]):
            if parent[v] == -1:
                root_counts[v] = (0,) * num_labels
            else:
                counts = list(root_counts[parent[v]])
                mask = parent_mask[v]
                while mask:
                    label_id = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    counts[label_id] += 1
                root_counts[v] = tuple(counts)
        tree_pairs = {
            (parent[v], v, parent_mask[v]) for v in range(num_vertices) if parent[v] != -1
        }
        non_tree: list[tuple[int, int, int]] = []
        for u in range(num_vertices):
            for w, mask in adjacency[u]:
                if (u, w, mask) not in tree_pairs:
                    non_tree.append((u, w, mask))
                else:
                    # only the first occurrence is the tree edge
                    tree_pairs.discard((u, w, mask))
        summary_vertices = sorted(
            {u for u, _w, _m in non_tree} | {w for _u, w, _m in non_tree}
        )
        summary_id = {v: i for i, v in enumerate(summary_vertices)}
        heads = sorted({w for _u, w, _m in non_tree})

        def in_subtree(a: int, d: int) -> bool:
            return (
                intervals[a][0] <= intervals[d][0]
                and intervals[d][1] <= intervals[a][1]
            )

        def tree_mask(a: int, d: int) -> int:
            mask = 0
            up, down = root_counts[a], root_counts[d]
            for label_id in range(num_labels):
                if down[label_id] > up[label_id]:
                    mask |= 1 << label_id
            return mask

        next_adjacency: _MaskAdjacency = [[] for _ in summary_vertices]
        for u, w, mask in non_tree:
            next_adjacency[summary_id[u]].append((summary_id[w], mask))
        tails = sorted({u for u, _w, _m in non_tree})
        for h in heads:
            for u in tails:
                if h != u and in_subtree(h, u):
                    next_adjacency[summary_id[h]].append(
                        (summary_id[u], tree_mask(h, u))
                    )
        level = _Level(
            num_vertices=num_vertices,
            intervals=intervals,
            root_counts=root_counts,
            non_tree=non_tree,
            summary_id=summary_id,
            heads=heads,
        )
        return level, next_adjacency, len(summary_vertices)

    # -- querying ------------------------------------------------------------
    def _query_level(self, depth: int, source: int, target: int, mask: int) -> bool:
        level = self._levels[depth]
        if level.closure:
            # terminal closure level: direct row lookup (ids are its own)
            if source == target:
                return True
            antichain = level.closure.get(source, {}).get(target)
            return antichain is not None and antichain_matches(antichain, mask)
        if level.tree_descend(source, target, mask):
            return True
        next_depth = depth + 1
        has_next = next_depth < len(self._levels)
        exits = [
            h for h in level.heads if level.tree_descend(h, target, mask)
        ]
        if not exits:
            return False
        exit_ids = {level.summary_id[h] for h in exits}
        for u, v, edge_mask in level.non_tree:
            if edge_mask & ~mask:
                continue
            if not level.tree_descend(source, u, mask):
                continue
            v_id = level.summary_id[v]
            if v_id in exit_ids:
                return True
            if has_next:
                for h_id in exit_ids:
                    if self._query_level(next_depth, v_id, h_id, mask):
                        return True
        return False

    def query_mask(
        self, source: int, target: int, mask: int, require_cycle: bool
    ) -> bool:
        if require_cycle:
            # a non-empty cycle must cross at least one non-tree edge
            level = self._levels[0]
            for u, v, edge_mask in level.non_tree:
                if edge_mask & ~mask:
                    continue
                if not level.tree_descend(source, u, mask):
                    continue
                if v == source:
                    return True
                if self._query_level(0, v, source, mask):
                    return True
            return False
        return self._query_level(0, source, target, mask)

    @property
    def num_levels(self) -> int:
        """Decomposition depth (including any terminal closure level)."""
        return len(self._levels)

    def size_in_entries(self) -> int:
        """Intervals + label counts + non-tree lists + terminal closure masks."""
        total = 0
        for level in self._levels:
            total += level.num_vertices  # one interval per vertex
            total += sum(len(c) for c in level.root_counts)
            total += len(level.non_tree)
            total += sum(
                len(antichain)
                for rows in level.closure.values()
                for antichain in rows.values()
            )
        return total
