"""Full transitive closure — the naive complete index (§2.3).

Stores, for every vertex, the bitset of all vertices it reaches.  Query
time is O(1); the index size is the number of reachable pairs, which is
why the survey calls TC materialisation "infeasible in practice" — the
size benchmarks demonstrate the quadratic blow-up against every other
index.

Works on general graphs: the closure is computed over the SCC condensation
in reverse topological order and then expanded through the SCC map lazily
at query time.

The closure is maintainable *over a fixed SCC partition* (the Zanzibar
reachability-index recipe: an insert "copies the reachability of the
target onto the source", widened up the ancestors the way DAGGER widens
intervals).  An update that would merge or split SCCs is refused before
anything is mutated, so a writer falls back to a rebuild.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from itertools import chain
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import register_plain
from repro.errors import EdgeError, UnsupportedOperationError
from repro.graphs.digraph import DiGraph
from repro.graphs.scc import condense
from repro.kernels import csr_of, descendant_bitsets
from repro import accel
from repro.obs.build import build_phase

__all__ = ["TransitiveClosureIndex"]

# set-bit positions per byte value, for decoding closure bitsets without
# repeated big-int arithmetic (isolating the lowest bit of an n-bit mask
# copies all n bits every iteration; walking bytes copies them once)
_BYTE_BITS = [tuple(b for b in range(8) if (byte >> b) & 1) for byte in range(256)]


def _bits_of(mask: int) -> list[int]:
    """Indices of the set bits in ``mask``, decoded one byte at a time."""
    if accel.use_for_graph(mask.bit_length()):
        from repro.accel.bitset import unpacked_indices

        return unpacked_indices(mask)
    positions: list[int] = []
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    extend = positions.extend
    for base in range(0, len(data) * 8, 8):
        byte = data[base >> 3]
        if byte:
            extend(base + b for b in _BYTE_BITS[byte])
    return positions


@register_plain
class TransitiveClosureIndex(ReachabilityIndex):
    """Materialised transitive closure over the SCC condensation."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="TC",
        framework="TC",
        complete=True,
        input_kind="General",
        dynamic="yes",
    )

    def __init__(self, graph: DiGraph, scc_of: list[int], closure: list[int]) -> None:
        super().__init__(graph)
        self._scc_of = scc_of
        self._closure = closure  # closure[c] = bitset of condensed vertices c reaches

    def __deepcopy__(self, memo: dict[int, object]) -> "TransitiveClosureIndex":
        """Slice the flat lists; deep-copy the rest (the graph) as usual.

        The SCC member lists ride along: maintenance never mutates a
        row, only appends one.  Kept because it beats the generic
        per-element walk by > 1.2x on the ledger namespace (see
        docs/PERFORMANCE.md).
        """
        clone = memo[id(self)] = object.__new__(type(self))
        state = super().__getstate__()
        flat = {
            key: state.pop(key)[:]
            for key in ("_scc_of", "_closure", "_members")
            if key in state
        }
        clone.__dict__.update(copy.deepcopy(state, memo), **flat)
        return clone

    @classmethod
    def build(cls, graph: DiGraph) -> "TransitiveClosureIndex":
        """Compute per-SCC descendant bitsets in reverse topological order.

        The sweep is the shared :func:`repro.kernels.descendant_bitsets`
        kernel over the condensation's CSR snapshot — one flat pass over
        the DAG's edges instead of per-vertex adjacency accessor calls.
        """
        with build_phase("scc-condense") as phase:
            condensation = condense(graph)
            phase.annotate(sccs=condensation.dag.num_vertices)
        with build_phase("closure-kernel"):
            closure = descendant_bitsets(csr_of(condensation.dag))
        return cls(graph, condensation.scc_of, closure)

    def _lookup(self, source: int, target: int) -> TriState:
        cs = self._scc_of[source]
        ct = self._scc_of[target]
        if (self._closure[cs] >> ct) & 1:
            return TriState.YES
        return TriState.NO

    def _lookup_batch(self, pairs: Sequence[tuple[int, int]]) -> list[TriState]:
        """Direct closure probes with the hot arrays bound once."""
        scc_of = self._scc_of
        closure = self._closure
        yes, no = TriState.YES, TriState.NO
        return [
            yes if (closure[scc_of[s]] >> scc_of[t]) & 1 else no for s, t in pairs
        ]

    def _scc_members(self) -> list[list[int]]:
        """Original vertices per condensed vertex, built lazily and cached."""
        members = self.__dict__.get("_members")
        if members is None:
            members = [[] for _ in range(len(self._closure))]
            for v, c in enumerate(self._scc_of):
                members[c].append(v)
            self._members = members
        return members

    def _enumerate_fast(
        self, vertex: int, forward: bool
    ) -> tuple[frozenset[int], str, tuple[str, ...]]:
        """Direct successor-set read: expand one closure bitset.

        Forward, the stored bitset of ``scc(vertex)`` *is* the answer
        over condensed vertices; backward, one linear pass collects the
        SCCs whose bitset has our bit.  Either way the SCC membership
        lists expand condensed ids to original vertices — no graph
        traversal at all.
        """
        closure = self._closure
        members = self._scc_members()
        cv = self._scc_of[vertex]
        if forward:
            sccs = _bits_of(closure[cv])
        else:
            bit = 1 << cv
            sccs = [c for c in range(len(closure)) if closure[c] & bit]
        result = frozenset(chain.from_iterable(map(members.__getitem__, sccs)))
        direction = "descendant" if forward else "ancestor"
        return (
            result,
            "enum_closure",
            (
                f"closure read: {len(sccs)} {direction} SCCs expanded to "
                f"{len(result)} vertices",
            ),
        )

    # -- dynamic maintenance, over the SCC partition of the build ----------
    def add_vertex(self) -> int:
        """Append an isolated vertex as its own singleton SCC."""
        vertex = self._graph.add_vertex()
        scc = len(self._closure)
        self._scc_of.append(scc)
        self._closure.append(1 << scc)
        members = self.__dict__.get("_members")
        if members is not None:
            members.append([vertex])
        return vertex

    def insert_edge(self, source: int, target: int) -> None:
        """OR the target SCC's row into the source's and up its ancestors.

        The walk prunes wherever a row already covers the gain — every
        ancestor of that SCC covers it too.  Refused before anything is
        mutated when the edge is present or an endpoint is out of range
        (:class:`~repro.errors.GraphError`) and when the edge would
        close a cycle through two SCCs, which would merge them.
        """
        graph = self._graph
        if graph.has_edge(source, target):
            raise EdgeError(f"edge ({source}, {target}) already exists")
        scc_of = self._scc_of
        closure = self._closure
        gain = closure[scc_of[target]]
        if scc_of[source] != scc_of[target] and (gain >> scc_of[source]) & 1:
            raise UnsupportedOperationError(
                f"TC: inserting ({source}, {target}) would merge SCCs"
            )
        graph.add_edge(source, target)
        members = self._scc_members()
        stack = [scc_of[source]]
        while stack:
            scc = stack.pop()
            row = closure[scc]
            if row | gain == row:
                continue
            closure[scc] = row | gain
            for v in members[scc]:
                stack.extend(scc_of[p] for p in graph.in_neighbors(v))

    def delete_edge(self, source: int, target: int) -> None:
        """Recompute the source SCC's row and, if it shrank, its ancestors'.

        An unchanged row means another path survives and nothing above
        it moves.  Otherwise the ancestors are recomputed children-first:
        on a DAG of SCCs ``a ⇝ b`` implies ``closure[a] ⊋ closure[b]``,
        so ascending stale ``bit_count()`` is a valid order.  Refused
        before anything is mutated when the edge is absent or an
        endpoint is out of range (:class:`~repro.errors.GraphError`) and
        when both endpoints share an SCC, which the delete could split.
        """
        graph = self._graph
        if not graph.has_edge(source, target):
            raise EdgeError(f"edge ({source}, {target}) does not exist")
        scc_of = self._scc_of
        closure = self._closure
        top = scc_of[source]
        if top == scc_of[target] and source != target:
            raise UnsupportedOperationError(
                f"TC: deleting ({source}, {target}) could split an SCC"
            )
        graph.remove_edge(source, target)
        row = self._row_from_successors(top)
        if row == closure[top]:
            return
        members = self._scc_members()
        ancestors: set[int] = set()
        stack = [top]
        while stack:
            for v in members[stack.pop()]:
                for p in graph.in_neighbors(v):
                    scc = scc_of[p]
                    if scc != top and scc not in ancestors:
                        ancestors.add(scc)
                        stack.append(scc)
        closure[top] = row
        for scc in sorted(ancestors, key=lambda c: closure[c].bit_count()):
            closure[scc] = self._row_from_successors(scc)

    def _row_from_successors(self, scc: int) -> int:
        """``scc``'s closure row, rebuilt from its out-neighbours' rows."""
        scc_of = self._scc_of
        closure = self._closure
        row = 1 << scc
        for v in self._scc_members()[scc]:
            for w in self._graph.out_neighbors(v):
                if scc_of[w] != scc:
                    row |= closure[scc_of[w]]
        return row

    def size_in_entries(self) -> int:
        """Number of stored reachable pairs (the TC's defining cost)."""
        return sum(bits.bit_count() for bits in self._closure)

    def __getstate__(self) -> dict[str, object]:
        """Persistable state: drop the lazy SCC-membership expansion."""
        state = super().__getstate__()
        state.pop("_members", None)
        return state
