"""The landmark index: partial GTC + accelerated online BFS (§4.1.2).

Valstar et al. index only the top-``k`` highest-degree vertices
("landmarks"): each landmark stores its full single-source GTC.  A query
``Qr(s, t, L')`` runs a label-constrained BFS from ``s``; whenever the
frontier hits a landmark ``v``:

* if ``v``'s GTC certifies ``v → t`` within ``L'``, the query answers
  true immediately (the index has **no false positives**);
* otherwise every vertex ``v`` reaches under ``L'`` is already settled —
  the whole constrained-reachable set of ``v`` is pruned from the
  remaining search.

As §5 discusses, the no-false-positive orientation means a *negative*
query cannot stop early — the asymmetry the paper's open-challenges
section builds its case for no-false-negative partial LCR indexes on.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_labeled
from repro.graphs.labeled import LabeledDiGraph
from repro.labeled.base import AlternationIndex
from repro.labeled.gtc import single_source_gtc
from repro.labeled.spls import antichain_matches
from repro.obs.build import build_phase

__all__ = ["LandmarkIndex"]


@register_labeled
class LandmarkIndex(AlternationIndex):
    """Partial GTC over top-degree landmarks with guided constrained BFS."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Landmark index",
        framework="GTC",
        complete=False,
        input_kind="General",
        dynamic="no",
        constraint="Alternation",
    )

    DEFAULT_K = 16
    DEFAULT_SHORTCUT_BUDGET = 4

    def __init__(
        self,
        graph: LabeledDiGraph,
        landmarks: list[int],
        rows: dict[int, dict[int, list[int]]],
        cycles: dict[int, list[int]],
        shortcuts: list[dict[int, list[int]]],
    ) -> None:
        super().__init__(graph)
        self._landmarks = landmarks
        self._landmark_set = set(landmarks)
        self._rows = rows
        self._cycles = cycles
        # §4.1.2's second refinement: per non-landmark vertex, the SPLSs of
        # paths to a bounded number of landmarks, checked before any BFS.
        self._shortcuts = shortcuts

    @classmethod
    def build(
        cls,
        graph: LabeledDiGraph,
        k: int = DEFAULT_K,
        shortcut_budget: int = DEFAULT_SHORTCUT_BUDGET,
    ) -> "LandmarkIndex":
        with build_phase("landmark-selection", landmarks=min(k, graph.num_vertices)):
            by_degree = sorted(
                graph.vertices(),
                key=lambda v: (-(graph.in_degree(v) + graph.out_degree(v)), v),
            )
            landmarks = by_degree[: min(k, graph.num_vertices)]
            landmark_set = set(landmarks)
        with build_phase("landmark-gtc-sweeps"):
            rows: dict[int, dict[int, list[int]]] = {}
            cycles: dict[int, list[int]] = {}
            for landmark in landmarks:
                rows[landmark], cycles[landmark] = single_source_gtc(graph, landmark)
        # vertex-to-landmark shortcuts, bounded by the predefined parameter:
        # a depth-bounded label-set exploration per vertex — sound SPLSs of
        # *short* paths into landmarks, cheap to build, used purely as a
        # YES accelerator (the guided BFS remains the exact fallback).
        with build_phase("bounded-shortcuts", budget=shortcut_budget):
            shortcuts: list[dict[int, list[int]]] = [{} for _ in graph.vertices()]
            if shortcut_budget > 0:
                for v in graph.vertices():
                    if v in landmark_set:
                        continue
                    shortcuts[v] = cls._bounded_shortcuts(
                        graph, v, landmark_set, shortcut_budget
                    )
        return cls(graph, landmarks, rows, cycles, shortcuts)

    @staticmethod
    def _bounded_shortcuts(
        graph: LabeledDiGraph,
        source: int,
        landmark_set: set[int],
        budget: int,
        max_depth: int = 3,
    ) -> dict[int, list[int]]:
        """SPLSs of paths of length <= max_depth from ``source`` to landmarks."""
        from repro.labeled.spls import add_to_antichain

        found: dict[int, list[int]] = {}
        frontier: list[tuple[int, int]] = [(source, 0)]
        for _depth in range(max_depth):
            next_frontier: list[tuple[int, int]] = []
            seen: set[tuple[int, int]] = set()
            for v, mask in frontier:
                for w, label_id in graph.out_edges(v):
                    new_mask = mask | (1 << label_id)
                    state = (w, new_mask)
                    if state in seen:
                        continue
                    seen.add(state)
                    if w in landmark_set:
                        if w not in found and len(found) >= budget:
                            continue  # budget reached: no new landmarks
                        add_to_antichain(found.setdefault(w, []), new_mask)
                    next_frontier.append(state)
            frontier = next_frontier
        return found

    @property
    def landmarks(self) -> list[int]:
        """The indexed landmark vertices."""
        return list(self._landmarks)

    def _landmark_certifies(self, landmark: int, target: int, mask: int) -> bool:
        if landmark == target:
            return True
        antichain = self._rows[landmark].get(target)
        return antichain is not None and antichain_matches(antichain, mask)

    def _landmark_reachable_set(self, landmark: int, mask: int) -> list[int]:
        """Vertices the landmark's GTC certifies within ``mask`` (for pruning)."""
        return [
            t
            for t, antichain in self._rows[landmark].items()
            if antichain_matches(antichain, mask)
        ]

    def query_mask(
        self, source: int, target: int, mask: int, require_cycle: bool
    ) -> bool:
        # the vertex-to-landmark shortcuts may answer YES with no search at
        # all: source -> landmark within mask, landmark -> target certified.
        for landmark, antichain in self._shortcuts[source].items():
            if not any(m & ~mask == 0 for m in antichain):
                continue
            if landmark == target and not require_cycle:
                return True
            if self._landmark_certifies(landmark, target, mask) and (
                landmark != target
            ):
                return True
        # constrained BFS from `source`, accelerated at landmarks.  The
        # target is never marked seen, so reaching it by an edge (always a
        # path of >= 1 edge) answers both the plain and the cycle case.
        n = self._graph.num_vertices
        seen = bytearray(n)
        queue: deque[int] = deque()

        def settle(v: int) -> bool:
            """Mark v visited and enqueue it; True if the query is answered."""
            seen[v] = 1
            if v in self._landmark_set:
                if self._landmark_certifies(v, target, mask) and not (
                    require_cycle and v == source
                ):
                    return True
                if require_cycle and v == source:
                    if antichain_matches(self._cycles[v], mask):
                        return True
                # prune: anything the landmark reaches within mask is settled
                # (if it could reach the target, the landmark could too).
                for w in self._landmark_reachable_set(v, mask):
                    if w != target:
                        seen[w] = 1
            queue.append(v)
            return False

        if require_cycle:
            # explore source's out-edges, but keep it unmarked so an edge
            # back into it is recognised as closing the cycle.
            queue.append(source)
        else:
            if source == target:
                return True
            if settle(source):
                return True
        while queue:
            v = queue.popleft()
            for w, label_id in self._graph.out_edges(v):
                if not (1 << label_id) & mask:
                    continue
                if w == target:
                    return True
                if not seen[w] and settle(w):
                    return True
        return False

    def size_in_entries(self) -> int:
        """Stored SPLS masks across all landmark rows."""
        entries = sum(
            len(antichain) for row in self._rows.values() for antichain in row.values()
        )
        return entries + sum(len(c) for c in self._cycles.values())
