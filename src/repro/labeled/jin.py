"""Jin et al.: the first LCR index — spanning tree + partial GTC (§4.1.1).

Paths are split into two cases: (1) the path starts with a descending run
of spanning-tree edges, or (2) it immediately leaves the tree.  The index
stores:

* a spanning forest with **interval labeling** (the paper's first
  optimisation — O(1) "is ``t`` in ``s``'s subtree" tests);
* per-vertex **root-to-vertex label counts** (the second optimisation —
  the SPLS of a tree path ``s → t`` is the set of labels whose count
  strictly grows between ``s`` and ``t``);
* a **partial GTC**: a full single-source GTC row from the *head of every
  non-tree edge*, which is exactly the reachability information case (2)
  paths need.

``Qr(s, t, L')`` then holds iff the pure tree path works, or some non-tree
edge ``(u, v, l)`` exists with ``s`` tree-reaching ``u`` within ``L'``,
``l ∈ L'``, and the partial GTC certifying ``v → t`` within ``L'``.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_labeled
from repro.graphs.labeled import LabeledDiGraph
from repro.labeled.base import AlternationIndex
from repro.labeled.gtc import single_source_gtc
from repro.labeled.spls import antichain_matches
from repro.obs.build import build_phase

__all__ = ["JinIndex", "labeled_spanning_forest"]


def labeled_spanning_forest(
    graph: LabeledDiGraph,
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """A DFS spanning forest of a labeled graph.

    Returns ``(parent, parent_label, intervals)`` where ``intervals`` are
    pre/post numbers: ``t`` is in ``s``'s subtree iff
    ``pre[s] <= pre[t] and post[t] <= post[s]``.
    """
    n = graph.num_vertices
    parent = [-1] * n
    parent_label = [-1] * n
    pre = [0] * n
    post = [0] * n
    visited = bytearray(n)
    clock = 0
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = 1
        clock += 1
        pre[start] = clock
        stack: list[tuple[int, int]] = [(start, 0)]
        while stack:
            v, cursor = stack[-1]
            edges = graph.out_edges(v)
            advanced = False
            while cursor < len(edges):
                w, label_id = edges[cursor]
                cursor += 1
                if not visited[w]:
                    visited[w] = 1
                    parent[w] = v
                    parent_label[w] = label_id
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
    intervals = list(zip(pre, post))
    return parent, parent_label, intervals


@register_labeled
class JinIndex(AlternationIndex):
    """Tree-based LCR index with a partial GTC for non-tree paths."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Jin et al.",
        framework="Tree cover",
        complete=True,
        input_kind="General",
        dynamic="no",
        constraint="Alternation",
    )

    def __init__(
        self,
        graph: LabeledDiGraph,
        intervals: list[tuple[int, int]],
        root_counts: list[tuple[int, ...]],
        non_tree_edges: list[tuple[int, int, int]],
        partial_rows: dict[int, dict[int, list[int]]],
        partial_cycles: dict[int, list[int]],
    ) -> None:
        super().__init__(graph)
        self._intervals = intervals
        self._root_counts = root_counts
        self._non_tree = non_tree_edges
        self._rows = partial_rows
        self._cycles = partial_cycles

    @classmethod
    def build(cls, graph: LabeledDiGraph) -> "JinIndex":
        with build_phase("labeled-spanning-forest"):
            parent, parent_label, intervals = labeled_spanning_forest(graph)
        num_labels = max(graph.num_labels, 1)
        # root-to-vertex label occurrence counts (second optimisation)
        with build_phase("root-label-counts"):
            root_counts: list[tuple[int, ...]] = [()] * graph.num_vertices
            order = sorted(graph.vertices(), key=lambda v: intervals[v][0])
            for v in order:  # parents have smaller pre numbers, so they're done
                if parent[v] == -1:
                    root_counts[v] = (0,) * num_labels
                else:
                    counts = list(root_counts[parent[v]])
                    counts[parent_label[v]] += 1
                    root_counts[v] = tuple(counts)
        with build_phase("non-tree-closures") as phase:
            tree_pairs = {
                (u, v, label_id)
                for v in graph.vertices()
                if (u := parent[v]) != -1
                for label_id in (parent_label[v],)
            }
            non_tree = [
                (u, v, graph.label_id(label))
                for u, v, label in graph.edges()
                if (u, v, graph.label_id(label)) not in tree_pairs
            ]
            partial_rows: dict[int, dict[int, list[int]]] = {}
            partial_cycles: dict[int, list[int]] = {}
            for _u, head, _label in non_tree:
                if head not in partial_rows:
                    row, cycles = single_source_gtc(graph, head)
                    partial_rows[head] = row
                    partial_cycles[head] = cycles
            phase.annotate(non_tree=len(non_tree))
        return cls(graph, intervals, root_counts, non_tree, partial_rows, partial_cycles)

    # -- tree primitives --------------------------------------------------------
    def _in_subtree(self, ancestor: int, descendant: int) -> bool:
        pre_a, post_a = self._intervals[ancestor]
        pre_d, post_d = self._intervals[descendant]
        return pre_a <= pre_d and post_d <= post_a

    def _tree_path_mask(self, ancestor: int, descendant: int) -> int:
        """SPLS of the tree path (labels whose root counts strictly grow)."""
        mask = 0
        up = self._root_counts[ancestor]
        down = self._root_counts[descendant]
        for label_id, (a, d) in enumerate(zip(up, down)):
            if d > a:
                mask |= 1 << label_id
        return mask

    def query_mask(
        self, source: int, target: int, mask: int, require_cycle: bool
    ) -> bool:
        # case (1): the pure descending tree path
        if not require_cycle and self._in_subtree(source, target):
            if self._tree_path_mask(source, target) & ~mask == 0:
                return True
        # case (2): tree-descend to a non-tree edge tail, hop, then GTC
        for u, v, label_id in self._non_tree:
            if not (1 << label_id) & mask:
                continue
            if not (source == u or self._in_subtree(source, u)):
                continue
            if source != u and self._tree_path_mask(source, u) & ~mask != 0:
                continue
            if v == target:
                if not require_cycle or target == source:
                    return True
            if require_cycle:
                row = self._rows[v].get(target)
                if row is not None and antichain_matches(row, mask):
                    return True
                if v == target and antichain_matches(self._cycles[v], mask):
                    return True
            else:
                row = self._rows[v].get(target)
                if row is not None and antichain_matches(row, mask):
                    return True
        return False

    def size_in_entries(self) -> int:
        """Intervals + label counts + non-tree list + partial GTC masks."""
        counts = sum(len(c) for c in self._root_counts)
        gtc_entries = sum(
            len(antichain) for row in self._rows.values() for antichain in row.values()
        )
        gtc_entries += sum(len(c) for c in self._cycles.values())
        return self._graph.num_vertices + counts + len(self._non_tree) + gtc_entries
