"""Zou et al.: efficiently computing the GTC bottom-up (§4.1.2).

Where the baseline :class:`~repro.labeled.gtc.GTCIndex` runs one
Dijkstra-like search per source, Zou et al. compute the same closure
bottom-up over the SCC DAG so single-source results are *shared*:

* the graph is condensed with Tarjan; SCCs are processed in reverse
  topological order, so when a vertex is processed every out-of-SCC
  successor already carries its final rows;
* within an SCC — where paths are not equivalent because of differing
  SPLSs — a label-set fixpoint iterates the §4.1 cross-product rule until
  the members' rows stabilise.  This realises the paper's in-portal /
  out-portal bipartite replacement implicitly: only the rows of members
  with edges crossing the SCC boundary feed the iteration from outside;
* expansion order inside the fixpoint follows the Dijkstra-like
  "fewest distinct labels first" rule.

The index is dynamic (Table 2): updates invalidate the rows of the
sources whose reachable region contains the touched edge, and invalidated
rows are recomputed lazily on the next query — the maintenance discussed
in the original paper, realised with coarse-grained invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_labeled
from repro.graphs.labeled import LabeledDiGraph
from repro.graphs.scc import condense
from repro.graphs.topo import topological_order
from repro.labeled.base import AlternationIndex
from repro.labeled.gtc import single_source_gtc
from repro.labeled.spls import add_to_antichain, antichain_matches
from repro.obs.build import build_phase
from repro.traversal.online import ancestors

__all__ = ["ZouIndex", "PortalDecomposition", "scc_portals"]

_Row = dict[int, list[int]]


@dataclass(frozen=True)
class PortalDecomposition:
    """The §4.1.2 SCC → bipartite portal transformation, made explicit.

    A vertex of an SCC is an *in-portal* iff it has an incoming edge from
    outside the SCC, and an *out-portal* symmetrically.  ``spls`` records,
    per SCC, the minimal SPLS antichains of paths from each in-portal to
    each out-portal *within the SCC* — the content of the bipartite
    replacement graph the paper substitutes for the SCC.
    """

    members: list[list[int]]
    in_portals: list[list[int]]
    out_portals: list[list[int]]
    spls: list[dict[tuple[int, int], list[int]]] = field(default_factory=list)


def scc_portals(graph: LabeledDiGraph) -> PortalDecomposition:
    """Compute the portal decomposition of a labeled graph's SCCs."""
    plain = graph.to_plain()
    condensation = condense(plain)
    members = condensation.members
    in_portals: list[list[int]] = []
    out_portals: list[list[int]] = []
    for comp_id, component in enumerate(members):
        component_set = set(component)
        ins = sorted(
            v
            for v in component
            if any(u not in component_set for u in plain.in_neighbors(v))
        )
        outs = sorted(
            v
            for v in component
            if any(w not in component_set for w in plain.out_neighbors(v))
        )
        in_portals.append(ins)
        out_portals.append(outs)
    # intra-SCC SPLSs between portals, via the Dijkstra-like search
    # restricted to the component
    spls: list[dict[tuple[int, int], list[int]]] = []
    for comp_id, component in enumerate(members):
        rows: dict[tuple[int, int], list[int]] = {}
        if len(component) > 1:
            component_set = set(component)
            sub = LabeledDiGraph(graph.num_vertices)
            for label in graph.labels():
                sub.intern_label(label)
            for v in component:
                for w, label_id in graph.out_edges(v):
                    if w in component_set:
                        sub.add_edge(v, w, graph.label_name(label_id))
            for source in in_portals[comp_id]:
                source_rows, cycles = single_source_gtc(sub, source)
                for target in out_portals[comp_id]:
                    if target == source:
                        if cycles:
                            rows[(source, target)] = list(cycles)
                        continue
                    antichain = source_rows.get(target)
                    if antichain:
                        rows[(source, target)] = list(antichain)
        spls.append(rows)
    return PortalDecomposition(
        members=members, in_portals=in_portals, out_portals=out_portals, spls=spls
    )


@register_labeled
class ZouIndex(AlternationIndex):
    """Bottom-up GTC over the SCC DAG, with lazy update maintenance."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Zou et al.",
        framework="GTC",
        complete=True,
        input_kind="General",
        dynamic="yes",
        constraint="Alternation",
    )

    def __init__(
        self,
        graph: LabeledDiGraph,
        rows: dict[int, _Row],
        cycles: dict[int, list[int]],
    ) -> None:
        super().__init__(graph)
        self._rows = rows
        self._cycles = cycles

    @classmethod
    def build(cls, graph: LabeledDiGraph) -> "ZouIndex":
        with build_phase("scc-condense") as phase:
            plain = graph.to_plain()
            condensation = condense(plain)
            phase.annotate(sccs=condensation.dag.num_vertices)
        rows: dict[int, _Row] = {v: {} for v in graph.vertices()}
        cycles: dict[int, list[int]] = {v: [] for v in graph.vertices()}

        def relax(source: int) -> bool:
            """One cross-product pass for ``source``; True if rows changed."""
            changed = False
            for w, label_id in graph.out_edges(source):
                edge_mask = 1 << label_id
                candidates = [(w, edge_mask)]
                for t, antichain in rows[w].items():
                    for mask in antichain:
                        candidates.append((t, edge_mask | mask))
                for c_mask in cycles[w]:
                    candidates.append((w, edge_mask | c_mask))
                for t, mask in candidates:
                    if t == source:
                        if add_to_antichain(cycles[source], mask):
                            changed = True
                    elif add_to_antichain(rows[source].setdefault(t, []), mask):
                        changed = True
            return changed

        with build_phase("bottom-up-relaxation"):
            order = topological_order(condensation.dag)
            for comp in reversed(order):
                members = condensation.members[comp]
                # out-of-SCC successors are final; iterate members to a fixpoint
                # (one pass suffices for singleton SCCs without self-loops).
                changed = True
                while changed:
                    changed = False
                    for v in members:
                        if relax(v):
                            changed = True
        return cls(graph, rows, cycles)

    # -- lazy recomputation ---------------------------------------------------
    def _row_for(self, source: int) -> tuple[_Row, list[int]]:
        row = self._rows.get(source)
        cycle = self._cycles.get(source)
        if row is None or cycle is None:
            row, cycle = single_source_gtc(self._graph, source)
            self._rows[source] = row
            self._cycles[source] = cycle
        return row, cycle

    def _invalidate_through(self, source: int) -> None:
        """Drop cached rows of every vertex that reaches ``source``."""
        plain = self._graph.to_plain()
        for v in ancestors(plain, source):
            self._rows.pop(v, None)
            self._cycles.pop(v, None)

    def query_mask(
        self, source: int, target: int, mask: int, require_cycle: bool
    ) -> bool:
        row, cycle = self._row_for(source)
        if require_cycle:
            return antichain_matches(cycle, mask)
        antichain = row.get(target)
        if antichain is None:
            return False
        return antichain_matches(antichain, mask)

    def size_in_entries(self) -> int:
        """Currently materialised SPLS masks."""
        pair_entries = sum(
            len(antichain) for row in self._rows.values() for antichain in row.values()
        )
        return pair_entries + sum(len(c) for c in self._cycles.values())

    # -- dynamic maintenance ----------------------------------------------------
    def insert_edge(self, source: int, target: int, label: object) -> None:
        """Insert a labeled edge; affected source rows recompute lazily."""
        self._graph.add_edge(source, target, label)
        self._invalidate_through(source)

    def delete_edge(self, source: int, target: int, label: object) -> None:
        """Delete a labeled edge; affected source rows recompute lazily."""
        self._invalidate_through(source)
        self._graph.remove_edge(source, target, label)
