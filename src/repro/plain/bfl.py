"""BFL: Bloom-filter labeling — approximate TC (§3.3).

Su et al. replace IP's k-min sketch with a Bloom filter: every vertex is
hashed to a few bits, ``L_out(v)`` ORs the hashes of everything ``v``
reaches, ``L_in(v)`` the dual.  If ``s`` reaches ``t`` then
``Out(t) ⊆ Out(s)``, so ``L_out(t)`` must be a sub-mask of ``L_out(s)`` —
a violated sub-mask certifies NO with no false negatives.  The survey
calls BFL "one of the state-of-the-art techniques": the filters build in
one linear sweep and occupy a constant number of machine words per vertex,
which the build-scaling benchmark demonstrates.

MAYBE answers fall back to index-guided traversal with the recursive
pruning rule of §3.3 (a frontier vertex whose filter rules ``t`` out is
skipped together with its whole out-neighbourhood).
"""

from __future__ import annotations

import random
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase

__all__ = ["BFLIndex"]


@register_plain
class BFLIndex(ReachabilityIndex):
    """BFL: Bloom filters over descendant / ancestor sets."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="BFL",
        framework="Approximate TC",
        complete=False,
        input_kind="DAG",
        dynamic="no",
    )

    DEFAULT_BITS = 160
    DEFAULT_HASHES = 2

    def __init__(
        self, graph: DiGraph, bits: int, out_filter: list[int], in_filter: list[int]
    ) -> None:
        super().__init__(graph)
        self._bits = bits
        self._out = out_filter
        self._in = in_filter

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        bits: int = DEFAULT_BITS,
        num_hashes: int = DEFAULT_HASHES,
        seed: int = 0,
    ) -> "BFLIndex":
        if bits < 1 or num_hashes < 1:
            raise ValueError("bits and num_hashes must be >= 1")
        n = graph.num_vertices
        with build_phase("hash-signatures", bits=bits, hashes=num_hashes):
            rng = random.Random(seed)
            signature = [0] * n
            for v in range(n):
                mask = 0
                for _ in range(num_hashes):
                    mask |= 1 << rng.randrange(bits)
                signature[v] = mask
        with build_phase("filter-merge"):
            order = topological_order(graph)
            out_filter = [0] * n
            for v in reversed(order):
                mask = signature[v]
                for w in graph.out_neighbors(v):
                    mask |= out_filter[w]
                out_filter[v] = mask
            in_filter = [0] * n
            for v in order:
                mask = signature[v]
                for u in graph.in_neighbors(v):
                    mask |= in_filter[u]
                in_filter[v] = mask
        return cls(graph, bits, out_filter, in_filter)

    def _lookup(self, source: int, target: int) -> TriState:
        if source == target:
            return TriState.YES
        if self._out[target] & ~self._out[source]:
            return TriState.NO
        if self._in[source] & ~self._in[target]:
            return TriState.NO
        return TriState.MAYBE

    def size_in_entries(self) -> int:
        """Two filter words per vertex."""
        return 2 * self._graph.num_vertices

    @property
    def bits(self) -> int:
        """Filter width in bits."""
        return self._bits
