"""3-hop: chains as the intermediate reachability structure (§3.2).

Jin et al.'s 3-hop replaces the single middle *vertex* of a 2-hop path
``s → w → t`` with a middle *chain segment*: the DAG is decomposed into
chains, each vertex keeps a small **contour** — the subset-minimal set of
(chain, position) entry points it can reach — and a per-chain-pair map
records how chains reach into each other.  ``Qr(s, t)`` succeeds iff some
contour entry of ``s`` reaches ``t``'s chain no later than ``t``'s
position, either directly (same chain) or through the chain-to-chain map.

The chain map is stored as monotone *breakpoint* lists — for chains
``c → c'`` only the positions where the earliest reachable position in
``c'`` changes — which is the compression over the full chain-cover matrix
that gives 3-hop its "high-compression" name.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase
from repro.plain.chains import ChainDecomposition, greedy_chain_decomposition

__all__ = ["ThreeHopIndex"]

_INF = float("inf")

# breakpoints[c][c'] = list of (position_in_c, earliest_position_in_c')
# sorted by position_in_c; the value applies to that position and earlier
# ones do not (positions later in c reach *no earlier* than recorded ones
# since reachability only shrinks along a chain suffix).
_Breakpoints = list[list[list[tuple[int, float]]]]


@register_plain
class ThreeHopIndex(ReachabilityIndex):
    """3-hop: per-vertex contours plus a chain-to-chain breakpoint map."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="3-Hop",
        framework="2-Hop",
        complete=True,
        input_kind="DAG",
        dynamic="no",
    )

    def __init__(
        self,
        graph: DiGraph,
        decomposition: ChainDecomposition,
        contours: list[list[tuple[int, int]]],
        breakpoints: _Breakpoints,
    ) -> None:
        super().__init__(graph)
        self._decomposition = decomposition
        self._contours = contours
        self._breakpoints = breakpoints

    @classmethod
    def build(cls, graph: DiGraph) -> "ThreeHopIndex":
        with build_phase("chain-decomposition") as phase:
            decomposition = greedy_chain_decomposition(graph)
            num_chains = decomposition.num_chains
            phase.annotate(chains=num_chains)
        # full chain-cover sweep (transient; only contours + breakpoints kept)
        with build_phase("chain-cover-sweep"):
            reach: list[list[float]] = [[_INF] * num_chains for _ in graph.vertices()]
            for v in reversed(topological_order(graph)):
                row = reach[v]
                row[decomposition.chain_of[v]] = decomposition.position_of[v]
                for w in graph.out_neighbors(v):
                    other = reach[w]
                    for c in range(num_chains):
                        if other[c] < row[c]:
                            row[c] = other[c]

        # chain-to-chain map: for each position p of chain c, the earliest
        # reachable position in c'; compressed to breakpoints where it changes.
        with build_phase("breakpoint-compression"):
            breakpoints: _Breakpoints = [
                [[] for _ in range(num_chains)] for _ in range(num_chains)
            ]
            for c, chain in enumerate(decomposition.chains):
                for c2 in range(num_chains):
                    previous: float | None = None
                    rows = breakpoints[c][c2]
                    for p, vertex in enumerate(chain):
                        value = reach[vertex][c2]
                        if value != previous:
                            rows.append((p, value))
                            previous = value

        # per-vertex contour: subset-minimal (chain, position) entry points.
        with build_phase("contour-minimisation"):
            contours: list[list[tuple[int, int]]] = []
            for v in graph.vertices():
                row = reach[v]
                entries = [
                    (c, int(p)) for c, p in enumerate(row) if p != _INF
                ]

                def implied(entry: tuple[int, int], others: list[tuple[int, int]]) -> bool:
                    c, p = entry
                    for c2, p2 in others:
                        if (c2, p2) == entry:
                            continue
                        head = decomposition.chains[c2][p2]
                        if reach[head][c] <= p:
                            return True
                    return False

                minimal = [e for e in entries if not implied(e, entries)]
                contours.append(minimal)
        return cls(graph, decomposition, contours, breakpoints)

    def _chain_reach(self, c: int, p: int, c2: int) -> float:
        """Earliest position in chain ``c2`` reachable from ``(c, p)``."""
        rows = self._breakpoints[c][c2]
        if not rows:
            return _INF
        # find the breakpoint at or after p: values for later positions in c
        # apply; the recorded value at the first breakpoint >= p is exact for
        # p because values are piecewise-constant between breakpoints.
        pos = bisect_left(rows, (p, -1.0))
        if pos < len(rows) and rows[pos][0] == p:
            return rows[pos][1]
        if pos == 0:
            return rows[0][1]
        return rows[pos - 1][1]

    def _lookup(self, source: int, target: int) -> TriState:
        target_chain = self._decomposition.chain_of[target]
        target_pos = self._decomposition.position_of[target]
        for c, p in self._contours[source]:
            if c == target_chain and p <= target_pos:
                return TriState.YES
            if self._chain_reach(c, p, target_chain) <= target_pos:
                return TriState.YES
        return TriState.NO

    def size_in_entries(self) -> int:
        """Contour entries plus chain-map breakpoints."""
        contour_entries = sum(len(entries) for entries in self._contours)
        map_entries = sum(
            len(rows) for per_chain in self._breakpoints for rows in per_chain
        )
        return contour_entries + map_entries

    @property
    def decomposition(self) -> ChainDecomposition:
        """The chain decomposition this index is built over."""
        return self._decomposition
