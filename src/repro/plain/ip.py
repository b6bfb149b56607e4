"""IP: independent-permutation labeling — approximate TC (§3.3).

Wei et al. draw a random permutation ``r`` of the vertices and give every
vertex the **k smallest permutation values** among its descendant set
``Out(v)`` (and dually for ``In(v)``).  The k-min sketch preserves the
contrapositive the survey derives: if ``s`` reaches ``t`` then
``Out(t) ⊆ Out(s)``, so every element of ``t``'s sketch smaller than the
k-th smallest of ``s``'s sketch must also appear in ``s``'s sketch — a
violation certifies NO with *no false negatives*.  Matching sketches are
only MAYBE, resolved by index-guided traversal (the recursive pruning §3.3
describes).

Per Table 1 the IP index is dynamic; as §5 notes, its update path rides on
DAGGER-style relabeling.  Here insertion merges sketches monotonically up
the ancestor chain (sound: sketches stay supersets-in-sketch-form), and
deletion recomputes the sketches with the linear reverse-topological sweep.
"""

from __future__ import annotations

import random
from collections import deque
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.errors import NotADAGError
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase
from repro.traversal.online import bfs_reachable

__all__ = ["IPIndex"]


def _merge_kmin(a: tuple[int, ...], b: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Union two sorted k-min sketches, keeping the k smallest values."""
    merged: list[int] = []
    i = j = 0
    while len(merged) < k and (i < len(a) or j < len(b)):
        if j >= len(b) or (i < len(a) and a[i] <= b[j]):
            value = a[i]
            i += 1
        else:
            value = b[j]
            j += 1
        if not merged or merged[-1] != value:
            merged.append(value)
    return tuple(merged)


def _sketch_violates(small: tuple[int, ...], big: tuple[int, ...], k: int) -> bool:
    """True when ``small`` cannot be the sketch of a subset of ``big``'s set.

    If ``T ⊆ S`` then every element of ``kmin(T)`` below ``max(kmin(S))``
    (when ``S``'s sketch is saturated) — or *every* element (when not) —
    must appear in ``kmin(S)``.
    """
    big_set = set(big)
    threshold = big[-1] if len(big) == k else None
    for value in small:
        if threshold is not None and value > threshold:
            break
        if value not in big_set:
            return True
    return False


@register_plain
class IPIndex(ReachabilityIndex):
    """IP: k-min-wise permutation sketches of Out/In sets."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="IP",
        framework="Approximate TC",
        complete=False,
        input_kind="DAG",
        dynamic="yes",
    )

    DEFAULT_K = 4

    def __init__(
        self,
        graph: DiGraph,
        k: int,
        permutation: list[int],
        out_sketch: list[tuple[int, ...]],
        in_sketch: list[tuple[int, ...]],
    ) -> None:
        super().__init__(graph)
        self._k = k
        self._permutation = permutation
        self._out = out_sketch
        self._in = in_sketch

    @classmethod
    def build(cls, graph: DiGraph, k: int = DEFAULT_K, seed: int = 0) -> "IPIndex":
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n = graph.num_vertices
        with build_phase("random-permutation", vertices=n):
            rng = random.Random(seed)
            permutation = list(range(1, n + 1))
            rng.shuffle(permutation)
        with build_phase("kmin-sketch-sweep", k=k):
            out_sketch, in_sketch = cls._sweep(graph, k, permutation)
        return cls(graph, k, permutation, out_sketch, in_sketch)

    @staticmethod
    def _sweep(
        graph: DiGraph, k: int, permutation: list[int]
    ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        order = topological_order(graph)
        out_sketch: list[tuple[int, ...]] = [()] * graph.num_vertices
        for v in reversed(order):
            sketch = (permutation[v],)
            for w in graph.out_neighbors(v):
                sketch = _merge_kmin(sketch, out_sketch[w], k)
            out_sketch[v] = sketch
        in_sketch: list[tuple[int, ...]] = [()] * graph.num_vertices
        for v in order:
            sketch = (permutation[v],)
            for u in graph.in_neighbors(v):
                sketch = _merge_kmin(sketch, in_sketch[u], k)
            in_sketch[v] = sketch
        return out_sketch, in_sketch

    @property
    def k(self) -> int:
        """Sketch size."""
        return self._k

    def _lookup(self, source: int, target: int) -> TriState:
        if source == target:
            return TriState.YES
        if _sketch_violates(self._out[target], self._out[source], self._k):
            return TriState.NO
        if _sketch_violates(self._in[source], self._in[target], self._k):
            return TriState.NO
        return TriState.MAYBE

    def _lookup_batch(self, pairs) -> list[TriState]:
        """Batched k-min sketch comparisons with the sketch arrays bound once."""
        out, inn, k = self._out, self._in, self._k
        yes, no, maybe = TriState.YES, TriState.NO, TriState.MAYBE
        results: list[TriState] = []
        append = results.append
        for s, t in pairs:
            if s == t:
                append(yes)
            elif _sketch_violates(out[t], out[s], k):
                append(no)
            elif _sketch_violates(inn[s], inn[t], k):
                append(no)
            else:
                append(maybe)
        return results

    def size_in_entries(self) -> int:
        """Stored sketch values across both directions."""
        return sum(len(s) for s in self._out) + sum(len(s) for s in self._in)

    # -- dynamic maintenance --------------------------------------------------
    def insert_edge(self, source: int, target: int) -> None:
        """DAG-preserving insert; sketches merge monotonically upward."""
        if bfs_reachable(self._graph, target, source):
            raise NotADAGError(f"inserting ({source}, {target}) would create a cycle")
        self._graph.add_edge(source, target)
        queue: deque[int] = deque((source,))
        while queue:
            v = queue.popleft()
            merged = self._out[v]
            for w in self._graph.out_neighbors(v):
                merged = _merge_kmin(merged, self._out[w], self._k)
            if merged == self._out[v] and v != source:
                continue
            if merged != self._out[v]:
                self._out[v] = merged
                for u in self._graph.in_neighbors(v):
                    queue.append(u)
        queue = deque((target,))
        while queue:
            v = queue.popleft()
            merged = self._in[v]
            for u in self._graph.in_neighbors(v):
                merged = _merge_kmin(merged, self._in[u], self._k)
            if merged != self._in[v]:
                self._in[v] = merged
                for w in self._graph.out_neighbors(v):
                    queue.append(w)

    def delete_edge(self, source: int, target: int) -> None:
        """Delete and recompute the sketches (linear sweep)."""
        self._graph.remove_edge(source, target)
        self._out, self._in = self._sweep(self._graph, self._k, self._permutation)
