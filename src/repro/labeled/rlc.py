"""The RLC index: 2-hop labels for recursive label-concatenated queries (§4.2).

Zhang et al.'s index is the only one supporting concatenation constraints
``(l1 · … · lk)*``.  It keeps the 2-hop skeleton — every vertex stores
``(hop, path-summary)`` entries — but where alternation indexes record
label *sets*, RLC entries record the *minimum-repeat structure* of the
path's label sequence, bounded by the concatenation length κ given at
build time (the paper's rule for taming infinitely many MRs on cyclic
graphs).

A pair ``(s, t)`` satisfies ``(ρ)*`` through hop ``h`` iff some first-leg
entry of ``s`` and second-leg entry of ``t`` under ``h`` agree on the
phase at which the legs meet (see :mod:`repro.labeled.kleene`).  MRs are
not transitive in general — the reason the paper splits indexing into a
compute-then-select two-phase process — which here surfaces as the
phase-agreement test replacing plain set union.

Indexing runs forward and backward summary searches from every vertex in
decreasing-degree order, pruned by vertex rank (paths through a
lower-ranked vertex are that vertex's responsibility), with per-vertex
summary deduplication bounding the state space.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar

from repro.core.base import IndexMetadata, LabelConstrainedIndex
from repro.core.registry import register_labeled
from repro.errors import UnsupportedConstraintError
from repro.graphs.labeled import LabeledDiGraph
from repro.obs.build import build_phase
from repro.labeled.kleene import (
    Entry,
    match_first_leg,
    match_second_leg,
    step_summary,
)
from repro.traversal.regex import (
    PlusNode,
    RegexNode,
    concatenation_sequence,
    parse_constraint,
    regex_to_string,
)

__all__ = ["RLCIndex"]


@register_labeled
class RLCIndex(LabelConstrainedIndex):
    """2-hop index over minimum-repeat path summaries."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="RLC",
        framework="2-Hop",
        complete=True,
        input_kind="General",
        dynamic="no",
        constraint="Concatenation",
    )

    DEFAULT_MAX_PERIOD = 3

    def __init__(
        self,
        graph: LabeledDiGraph,
        max_period: int,
        l_in: list[dict[int, set[Entry]]],
        l_out: list[dict[int, set[Entry]]],
        cycles: list[set[Entry]],
    ) -> None:
        super().__init__(graph)
        self._max_period = max_period
        self._l_in = l_in
        self._l_out = l_out
        self._cycles = cycles

    @classmethod
    def build(
        cls,
        graph: LabeledDiGraph,
        max_period: int = DEFAULT_MAX_PERIOD,
    ) -> "RLCIndex":
        if max_period < 1:
            raise ValueError(f"max_period must be >= 1, got {max_period}")
        n = graph.num_vertices
        with build_phase("degree-order"):
            order = sorted(
                graph.vertices(),
                key=lambda v: (-(graph.in_degree(v) + graph.out_degree(v)), v),
            )
            rank = {v: i for i, v in enumerate(order)}
        with build_phase("summary-searches", max_period=max_period):
            l_in: list[dict[int, set[Entry]]] = [{} for _ in range(n)]
            l_out: list[dict[int, set[Entry]]] = [{} for _ in range(n)]
            cycles: list[set[Entry]] = [set() for _ in range(n)]
            for hop in order:
                cls._explore(graph, hop, rank, max_period, l_in, cycles, forward=True)
                cls._explore(graph, hop, rank, max_period, l_out, cycles, forward=False)
        return cls(graph, max_period, l_in, l_out, cycles)

    @staticmethod
    def _explore(
        graph: LabeledDiGraph,
        hop: int,
        rank: dict[int, int],
        max_period: int,
        store: list[dict[int, set[Entry]]],
        cycles: list[set[Entry]],
        forward: bool,
    ) -> None:
        """One summary search from ``hop`` (forward = second legs)."""
        hop_rank = rank[hop]
        start: Entry = ("S", ())
        seen: set[tuple[int, Entry]] = {(hop, start)}
        queue: deque[tuple[int, Entry]] = deque(((hop, start),))
        while queue:
            v, entry = queue.popleft()
            edges = graph.out_edges(v) if forward else graph.in_edges(v)
            for w, label_id in edges:
                nxt = step_summary(entry, label_id, max_period)
                if nxt is None:
                    continue
                state = (w, nxt)
                if state in seen:
                    continue
                seen.add(state)
                if w == hop:
                    if forward:  # record constrained cycles once, forward only
                        cycles[hop].add(nxt)
                    queue.append(state)
                    continue
                if rank[w] < hop_rank:
                    continue  # w's own passes own the paths through it
                if forward or nxt[0] != "S":
                    recorded = nxt
                else:
                    # backward searches build the reversed sequence; explicit
                    # short entries are stored forward-oriented so the
                    # matchers read them uniformly (periodic summaries keep
                    # the reversed base — match_first_leg expects it).
                    recorded = ("S", tuple(reversed(nxt[1])))
                store[w].setdefault(hop, set()).add(recorded)
                queue.append(state)

    def query(self, source: int, target: int, constraint: str | RegexNode) -> bool:
        """Answer a concatenation-based query ``(l1·…·lk)*`` or ``+``.

        Parsed constraints are memoised per index, so repeated queries pay
        only a dictionary lookup.
        """
        self._check_query(source, target)
        cache = getattr(self, "_constraint_cache", None)
        if cache is None:
            cache = {}
            self._constraint_cache = cache
        text = (
            constraint
            if isinstance(constraint, str)
            else regex_to_string(constraint)
        )
        key = (text, self._graph.num_labels)
        cached = cache.get(key)
        if cached is None:
            node = parse_constraint(constraint)
            seq = concatenation_sequence(node)
            if seq is None:
                raise UnsupportedConstraintError(
                    f"RLC only supports concatenation constraints, got "
                    f"{regex_to_string(node)!r}"
                )
            if len(seq) > self._max_period:
                raise UnsupportedConstraintError(
                    f"constraint period {len(seq)} exceeds the index bound "
                    f"max_period={self._max_period}; rebuild with a larger bound"
                )
            try:
                rho = tuple(self._graph.label_id(label) for label in seq)
            except KeyError:
                rho = None  # a label absent from the graph has no edges
            cached = (rho, isinstance(node, PlusNode))
            if len(cache) < 4096:
                cache[key] = cached
        rho, require_nonempty = cached
        if source == target and not require_nonempty:
            return True
        if rho is None:
            return False
        if source == target:
            return self._cycle_query(source, rho)
        return self._pair_query(source, target, rho)

    def _pair_query(self, source: int, target: int, rho: tuple[int, ...]) -> bool:
        out_entries = self._l_out[source]
        in_entries = self._l_in[target]
        # hop == source: the first leg is empty (phase 0)
        direct = in_entries.get(source)
        if direct is not None and any(
            match_second_leg(e, rho) == 0 for e in direct
        ):
            return True
        # hop == target: the second leg is empty, first leg must end at 0
        direct = out_entries.get(target)
        if direct is not None and any(
            match_first_leg(e, rho) == 0 for e in direct
        ):
            return True
        for hop, first_entries in out_entries.items():
            second_entries = in_entries.get(hop)
            if not second_entries:
                continue
            ends = {match_first_leg(e, rho) for e in first_entries}
            ends.discard(None)
            if not ends:
                continue
            for e in second_entries:
                r = match_second_leg(e, rho)
                if r is not None and r in ends:
                    return True
        return False

    def _cycle_query(self, vertex: int, rho: tuple[int, ...]) -> bool:
        # a complete cycle recorded during the vertex's own pass
        if any(match_second_leg(e, rho) == 0 for e in self._cycles[vertex]):
            return True
        # or composed through another hop
        return self._pair_query(vertex, vertex, rho)

    def size_in_entries(self) -> int:
        """Total stored (hop, summary) entries plus cycle summaries."""
        total = sum(len(s) for d in self._l_in for s in d.values())
        total += sum(len(s) for d in self._l_out for s in d.values())
        total += sum(len(c) for c in self._cycles)
        return total

    @property
    def max_period(self) -> int:
        """The build-time bound on supported concatenation lengths."""
        return self._max_period
