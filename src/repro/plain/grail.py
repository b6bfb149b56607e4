"""GRAIL: scalable reachability via k random interval labelings (§3.1).

GRAIL records *exactly k* intervals per vertex, one per random depth-first
traversal of the DAG.  In traversal ``i``, vertex ``v`` gets
``L_i(v) = [a_i(v), b_i(v)]`` where ``b_i(v)`` is its post-order rank and
``a_i(v)`` the minimum rank over everything reachable from ``v``.  If ``s``
reaches ``t`` then ``L_i(t) ⊆ L_i(s)`` for every ``i`` — so a violated
containment certifies non-reachability (no false negatives) while full
containment only says MAYBE, resolved by index-guided traversal.

Build time and size are O(k·(|V|+|E|)): linear in the graph, the property
that (per the survey) first made reachability indexing feasible on graphs
with millions of vertices.
"""

from __future__ import annotations

import random
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.errors import NotADAGError
from repro.graphs.digraph import DiGraph
from repro.kernels import batch_reachable, csr_of
from repro.obs.build import build_phase

__all__ = ["GrailIndex", "random_postorder_labeling"]


def random_postorder_labeling(
    graph: DiGraph, rng: random.Random
) -> tuple[list[int], list[int]]:
    """One randomized DFS labeling: (min-rank ``a``, post-order rank ``b``).

    The DFS visits roots and children in random order.  ``a(v)`` is the
    minimum post-order rank over all vertices reachable from ``v`` (it
    propagates through *every* out-edge, not just tree edges), which is what
    gives the containment property on DAGs.
    """
    n = graph.num_vertices
    b = [0] * n
    a = [0] * n
    state = bytearray(n)  # 0 = unvisited, 1 = on stack, 2 = done
    counter = 0
    roots = [v for v in range(n) if graph.in_degree(v) == 0]
    if not roots:  # fully cyclic input would have no roots
        roots = list(range(n))
    rng.shuffle(roots)
    starts = roots + list(range(n))
    for start in starts:
        if state[start]:
            continue
        # frames hold (vertex, shuffled out-neighbours, cursor)
        first_children = list(graph.out_neighbors(start))
        rng.shuffle(first_children)
        stack: list[tuple[int, list[int], int]] = [(start, first_children, 0)]
        state[start] = 1
        while stack:
            v, children, cursor = stack[-1]
            if cursor < len(children):
                stack[-1] = (v, children, cursor + 1)
                w = children[cursor]
                if state[w] == 0:
                    state[w] = 1
                    grandchildren = list(graph.out_neighbors(w))
                    rng.shuffle(grandchildren)
                    stack.append((w, grandchildren, 0))
                elif state[w] == 1:
                    raise NotADAGError("GRAIL requires a DAG")
                continue
            stack.pop()
            state[v] = 2
            counter += 1
            b[v] = counter
            low = counter
            for w in graph.out_neighbors(v):
                if a[w] < low:
                    low = a[w]
            a[v] = low
    return a, b


@register_plain
class GrailIndex(ReachabilityIndex):
    """GRAIL: exactly ``k`` random-traversal intervals per vertex.

    ``build(..., exceptions=True)`` additionally materialises the original
    paper's *exception lists*: for each vertex, the false positives its
    intervals admit.  With exceptions the lookup is exact (YES/NO, no
    guided traversal needed) at the cost of a TC-flavoured construction
    pass — the trade-off the GRAIL paper reserves for smaller graphs.
    """

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="GRAIL",
        framework="Tree cover",
        complete=False,
        input_kind="DAG",
        dynamic="no",
    )

    DEFAULT_K = 3

    def __init__(
        self,
        graph: DiGraph,
        labelings: list[tuple[list[int], list[int]]],
        exceptions: list[set[int]] | None = None,
    ) -> None:
        super().__init__(graph)
        self._labelings = labelings
        self._exceptions = exceptions

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        k: int = DEFAULT_K,
        seed: int = 0,
        exceptions: bool = False,
    ) -> "GrailIndex":
        """Run ``k`` random DFS labelings (deterministic given ``seed``)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        rng = random.Random(seed)
        with build_phase("random-labelings", k=k):
            labelings = [random_postorder_labeling(graph, rng) for _ in range(k)]
        index = cls(graph, labelings)
        if exceptions:
            with build_phase("exception-lists") as phase:
                index._exceptions = index._compute_exceptions()
                phase.annotate(exceptions=sum(len(s) for s in index._exceptions))
        return index

    def _compute_exceptions(self) -> list[set[int]]:
        """Per-vertex interval false positives, from the closure kernel."""
        from repro.kernels import csr_of, descendant_bitsets

        n = self._graph.num_vertices
        reachable = descendant_bitsets(csr_of(self._graph))
        exceptions: list[set[int]] = [set() for _ in range(n)]
        for v in range(n):
            reach = reachable[v]
            for t in range(n):
                if t == v or (reach >> t) & 1:
                    continue
                if all(
                    a[v] <= a[t] and b[t] <= b[v] for a, b in self._labelings
                ):
                    exceptions[v].add(t)
        return exceptions

    @property
    def k(self) -> int:
        """Number of interval labelings."""
        return len(self._labelings)

    @property
    def has_exceptions(self) -> bool:
        """Whether exception lists were materialised (exact lookups)."""
        return self._exceptions is not None

    def _lookup(self, source: int, target: int) -> TriState:
        """NO on any violated containment; MAYBE otherwise (no false negatives).

        With exception lists, MAYBE is refined to an exact YES/NO.
        """
        if source == target:
            return TriState.YES
        for a, b in self._labelings:
            if not (a[source] <= a[target] and b[target] <= b[source]):
                return TriState.NO
        if self._exceptions is not None:
            if target in self._exceptions[source]:
                return TriState.NO
            return TriState.YES
        return TriState.MAYBE

    def _lookup_batch(self, pairs) -> list[TriState]:
        """Batched containment checks with the labelings bound once."""
        labelings = self._labelings
        exceptions = self._exceptions
        yes, no, maybe = TriState.YES, TriState.NO, TriState.MAYBE
        results: list[TriState] = []
        append = results.append
        for s, t in pairs:
            if s == t:
                append(yes)
                continue
            for a, b in labelings:
                if not (a[s] <= a[t] and b[t] <= b[s]):
                    append(no)
                    break
            else:
                if exceptions is None:
                    append(maybe)
                else:
                    append(no if t in exceptions[s] else yes)
        return results

    def _enumerate_fast(
        self, vertex: int, forward: bool
    ) -> tuple[frozenset[int], str, tuple[str, ...]]:
        """Subtree-interval scan: containment bounds the candidate set.

        No false negatives means the true answer is a subset of the
        vertices whose k containments all hold.  With exception lists
        the scan is already exact; without them the surviving candidates
        are confirmed by one shared bit-parallel kernel sweep.
        """
        labelings = self._labelings
        exceptions = self._exceptions
        n = self._graph.num_vertices
        if forward:
            candidates = [
                t for t in range(n)
                if t != vertex and all(
                    a[vertex] <= a[t] and b[t] <= b[vertex] for a, b in labelings
                )
            ]
        else:
            candidates = [
                s for s in range(n)
                if s != vertex and all(
                    a[s] <= a[vertex] and b[vertex] <= b[s] for a, b in labelings
                )
            ]
        if exceptions is not None:
            if forward:
                excluded = exceptions[vertex]
                members = [t for t in candidates if t not in excluded]
            else:
                members = [s for s in candidates if vertex not in exceptions[s]]
            return (
                frozenset(members) | {vertex},
                "enum_interval",
                (
                    f"interval scan over {self.k} labelings kept "
                    f"{len(candidates)} candidates; exception lists made "
                    f"the scan exact ({len(members) + 1} vertices)",
                ),
            )
        pairs = (
            [(vertex, t) for t in candidates]
            if forward
            else [(s, vertex) for s in candidates]
        )
        hits = batch_reachable(csr_of(self._graph), pairs)
        members = [c for c, hit in zip(candidates, hits) if hit]
        return (
            frozenset(members) | {vertex},
            "enum_interval",
            (
                f"interval scan over {self.k} labelings kept "
                f"{len(candidates)} candidates; kernel sweep confirmed "
                f"{len(members)}",
            ),
        )

    def size_in_entries(self) -> int:
        """k intervals per vertex, plus any exception entries."""
        total = self.k * self._graph.num_vertices
        if self._exceptions is not None:
            total += sum(len(s) for s in self._exceptions)
        return total
