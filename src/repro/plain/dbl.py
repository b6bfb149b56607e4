"""DBL: dynamic reachability via dual labels, insertion-only (§3.2).

Lyu et al.'s DBL combines two complementary constant-size labels:

* **DL — landmark label**: a small set of high-degree *hub* vertices; every
  vertex stores bitmasks of the hubs it reaches and is reached by.  A
  common hub certifies YES.
* **BL — bit label**: every vertex gets a random hash code; ``BL_out(v)``
  ORs the codes of everything ``v`` reaches.  If ``s`` reaches ``t`` then
  ``Out(t) ⊆ Out(s)``, so ``BL_out(t)`` must be a sub-mask of
  ``BL_out(s)`` — a violated sub-mask (either direction) certifies NO.

Neither side resolves every query, so the residue is MAYBE, handled by
index-guided traversal.  Both labels are monotone under edge insertion —
new reachability only ORs more bits in — which is exactly why DBL supports
*insert-only* dynamic graphs: insertion propagates the unions backward
from the new edge's tail and forward from its head, and no recomputation
is ever needed.
"""

from __future__ import annotations

import random
from collections import deque
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.obs.build import build_phase
from repro.traversal.online import ancestors, descendants

__all__ = ["DBLIndex"]


@register_plain
class DBLIndex(ReachabilityIndex):
    """DBL: hub landmark masks + hash bit labels, insert-only dynamic."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="DBL",
        framework="2-Hop",
        complete=False,
        input_kind="General",
        dynamic="insert-only",
    )

    DEFAULT_NUM_HUBS = 16
    DEFAULT_BITS = 64

    def __init__(
        self,
        graph: DiGraph,
        hubs: list[int],
        hub_out: list[int],
        hub_in: list[int],
        bit_out: list[int],
        bit_in: list[int],
        hash_code: list[int],
    ) -> None:
        super().__init__(graph)
        self._hubs = hubs
        self._hub_out = hub_out  # mask of hubs v reaches
        self._hub_in = hub_in  # mask of hubs that reach v
        self._bit_out = bit_out
        self._bit_in = bit_in
        self._hash_code = hash_code

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        num_hubs: int = DEFAULT_NUM_HUBS,
        bits: int = DEFAULT_BITS,
        seed: int = 0,
    ) -> "DBLIndex":
        n = graph.num_vertices
        rng = random.Random(seed)
        hash_code = [1 << rng.randrange(bits) for _ in range(n)]
        with build_phase("hub-selection", hubs=min(num_hubs, n)):
            by_degree = sorted(
                graph.vertices(),
                key=lambda v: (-(graph.in_degree(v) + graph.out_degree(v)), v),
            )
            hubs = by_degree[: min(num_hubs, n)]
        with build_phase("hub-traversals"):
            hub_out = [0] * n
            hub_in = [0] * n
            for i, hub in enumerate(hubs):
                bit = 1 << i
                for w in descendants(graph, hub):
                    hub_in[w] |= bit
                for w in ancestors(graph, hub):
                    hub_out[w] |= bit
        # bit labels: union of hash codes over descendants/ancestors.
        # Computed by n sweeps to a fixpoint is wasteful; instead propagate
        # in reverse finishing order per SCC via simple iteration: for
        # general graphs we run a couple of passes until stable (each pass
        # is O(E); reachability unions converge in <= diameter passes, and
        # cycles stabilise because members share bits quickly).
        with build_phase("bit-label-fixpoint", bits=bits) as phase:
            bit_out = list(hash_code)
            bit_in = list(hash_code)
            passes = 0
            changed = True
            while changed:
                passes += 1
                changed = False
                for u, v in graph.edges():
                    merged = bit_out[u] | bit_out[v]
                    if merged != bit_out[u]:
                        bit_out[u] = merged
                        changed = True
                    merged = bit_in[v] | bit_in[u]
                    if merged != bit_in[v]:
                        bit_in[v] = merged
                        changed = True
            phase.annotate(passes=passes)
        return cls(graph, hubs, hub_out, hub_in, bit_out, bit_in, hash_code)

    @property
    def hubs(self) -> list[int]:
        """The landmark (hub) vertices of the DL side."""
        return list(self._hubs)

    def _lookup(self, source: int, target: int) -> TriState:
        if source == target:
            return TriState.YES
        # DL: shared hub, or endpoint is itself a hub seen by the other side
        if self._hub_out[source] & self._hub_in[target]:
            return TriState.YES
        # BL: violated sub-mask certifies non-reachability
        if self._bit_out[target] & ~self._bit_out[source]:
            return TriState.NO
        if self._bit_in[source] & ~self._bit_in[target]:
            return TriState.NO
        return TriState.MAYBE

    def size_in_entries(self) -> int:
        """Four fixed-size words per vertex (two hub masks, two bit labels)."""
        return 4 * self._graph.num_vertices

    # -- insert-only maintenance ---------------------------------------------
    def insert_edge(self, source: int, target: int) -> None:
        """Insert an edge; propagate the (monotone) label unions."""
        self._graph.add_edge(source, target)
        # backward: everything reaching `source` gains target's out-labels
        add_hub = self._hub_out[target]
        add_bit = self._bit_out[target]
        queue: deque[int] = deque((source,))
        while queue:
            v = queue.popleft()
            new_hub = self._hub_out[v] | add_hub
            new_bit = self._bit_out[v] | add_bit
            if new_hub == self._hub_out[v] and new_bit == self._bit_out[v]:
                continue
            self._hub_out[v] = new_hub
            self._bit_out[v] = new_bit
            for u in self._graph.in_neighbors(v):
                queue.append(u)
        # forward: everything reachable from `target` gains source's in-labels
        add_hub = self._hub_in[source]
        add_bit = self._bit_in[source]
        queue = deque((target,))
        while queue:
            v = queue.popleft()
            new_hub = self._hub_in[v] | add_hub
            new_bit = self._bit_in[v] | add_bit
            if new_hub == self._hub_in[v] and new_bit == self._bit_in[v]:
                continue
            self._hub_in[v] = new_hub
            self._bit_in[v] = new_bit
            for w in self._graph.out_neighbors(v):
                queue.append(w)
