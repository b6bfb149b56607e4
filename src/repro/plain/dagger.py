"""DAGGER: a dynamic interval index for evolving DAGs (§3.1).

Yildirim et al. extend GRAIL to graphs under edge insertions and
deletions.  The label is a *value interval*: every vertex draws a random
static value ``r(v)``; its interval is ``[min, max]`` of ``r`` over its
descendant set.  Reachability implies interval containment, so a violated
containment certifies NO (no false negatives) — the same partial-index
contract as GRAIL, but with labels that are cheap to maintain:

* **insertion** of ``(u, v)`` only *widens* intervals; the union
  propagates monotonically up the ancestors of ``u``, touching exactly the
  affected region;
* **deletion** leaves intervals over-wide, which is still *sound* for NO
  answers (stale width only converts NOs into MAYBEs, never the reverse).
  A counter triggers a linear re-sweep after configurable many deletions
  to restore precision — DAGGER's lazy-relabel trade-off.

Queries unresolved by the interval test fall back to index-guided
traversal, as for GRAIL.
"""

from __future__ import annotations

import copy
import random
from collections import deque
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.errors import EdgeError, NotADAGError
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.kernels import batch_reachable, csr_of
from repro.obs.build import build_phase
from repro.traversal.online import bfs_reachable

__all__ = ["DaggerIndex"]


@register_plain
class DaggerIndex(ReachabilityIndex):
    """DAGGER: maintainable min/max value intervals over descendants."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="DAGGER",
        framework="Tree cover",
        complete=False,
        input_kind="DAG",
        dynamic="yes",
    )

    DEFAULT_RESWEEP_AFTER = 32

    def __init__(
        self,
        graph: DiGraph,
        value: list[int],
        low: list[int],
        high: list[int],
        resweep_after: int,
    ) -> None:
        super().__init__(graph)
        self._value = value
        self._low = low
        self._high = high
        self._resweep_after = resweep_after
        self._deletions_since_sweep = 0

    def __deepcopy__(self, memo: dict[int, object]) -> "DaggerIndex":
        """Slice the three flat int lists; deep-copy the rest as usual.

        Kept because it beats the generic per-element walk by > 1.2x on
        the ledger graph (see docs/PERFORMANCE.md).
        """
        clone = memo[id(self)] = object.__new__(type(self))
        state = self.__getstate__()
        flat = {key: state.pop(key)[:] for key in ("_value", "_low", "_high")}
        clone.__dict__.update(copy.deepcopy(state, memo), **flat)
        return clone

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        seed: int = 0,
        resweep_after: int = DEFAULT_RESWEEP_AFTER,
    ) -> "DaggerIndex":
        n = graph.num_vertices
        with build_phase("random-values", vertices=n):
            rng = random.Random(seed)
            value = list(range(n))
            rng.shuffle(value)
            index = cls(graph, value, [0] * n, [0] * n, resweep_after)
        with build_phase("interval-sweep"):
            index._sweep()
        return index

    def _sweep(self) -> None:
        """Recompute exact [min, max] descendant values (linear)."""
        for v in reversed(topological_order(self._graph)):
            low = high = self._value[v]
            for w in self._graph.out_neighbors(v):
                if self._low[w] < low:
                    low = self._low[w]
                if self._high[w] > high:
                    high = self._high[w]
            self._low[v] = low
            self._high[v] = high
        self._deletions_since_sweep = 0

    def _lookup(self, source: int, target: int) -> TriState:
        if source == target:
            return TriState.YES
        if self._low[source] <= self._low[target] and self._high[target] <= self._high[source]:
            return TriState.MAYBE
        return TriState.NO

    def _enumerate_fast(
        self, vertex: int, forward: bool
    ) -> tuple[frozenset[int], str, tuple[str, ...]]:
        """Value-interval scan: containment bounds the candidate set.

        Stale-wide intervals only admit false positives, so the survivors
        of the containment scan are a superset of the truth and one shared
        bit-parallel kernel sweep makes the answer exact.
        """
        low, high = self._low, self._high
        n = self._graph.num_vertices
        if forward:
            candidates = [
                t for t in range(n)
                if t != vertex and low[vertex] <= low[t] and high[t] <= high[vertex]
            ]
            pairs = [(vertex, t) for t in candidates]
        else:
            candidates = [
                s for s in range(n)
                if s != vertex and low[s] <= low[vertex] and high[vertex] <= high[s]
            ]
            pairs = [(s, vertex) for s in candidates]
        hits = batch_reachable(csr_of(self._graph), pairs)
        members = [c for c, hit in zip(candidates, hits) if hit]
        return (
            frozenset(members) | {vertex},
            "enum_interval",
            (
                f"value-interval scan kept {len(candidates)} candidates; "
                f"kernel sweep confirmed {len(members)}",
            ),
        )

    def size_in_entries(self) -> int:
        """One interval (plus the static value) per vertex."""
        return 3 * self._graph.num_vertices

    # -- dynamic maintenance --------------------------------------------------
    def insert_edge(self, source: int, target: int) -> None:
        """DAG-preserving insert; widen intervals up the ancestor chain.

        Refused before anything is mutated when an endpoint is out of
        range, the edge is present, or it would close a cycle.  The cycle
        check asks the index first: the interval test is sound for NO
        even under stale-wide intervals, so ``target`` cannot reach
        ``source`` whenever it says so and the BFS runs only on MAYBE
        (about half the inserts of the ledger's stream).
        """
        graph = self._graph
        if graph.has_edge(source, target):  # range-checks both endpoints
            raise EdgeError(f"edge ({source}, {target}) already exists")
        if self._lookup(target, source) is not TriState.NO and bfs_reachable(
            graph, target, source
        ):
            raise NotADAGError(f"inserting ({source}, {target}) would create a cycle")
        graph.add_edge(source, target)
        queue: deque[int] = deque((source,))
        while queue:
            v = queue.popleft()
            low = min(self._low[v], self._low[target])
            high = max(self._high[v], self._high[target])
            if low == self._low[v] and high == self._high[v]:
                continue
            self._low[v] = low
            self._high[v] = high
            for u in self._graph.in_neighbors(v):
                queue.append(u)

    def delete_edge(self, source: int, target: int) -> None:
        """Delete lazily: stale-wide intervals stay sound; re-sweep periodically."""
        self._graph.remove_edge(source, target)
        self._deletions_since_sweep += 1
        if self._deletions_since_sweep >= self._resweep_after:
            self._sweep()
