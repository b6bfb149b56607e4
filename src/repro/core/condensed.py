"""Lifting DAG-only indexes to general graphs via SCC condensation.

§3.1 of the survey: "most plain reachability indexes in literature assume
DAGs as input since generalization is easy" — coarsen every strongly
connected component into one vertex (Tarjan), answer same-SCC queries
immediately, and delegate cross-SCC queries to the DAG index built over the
condensation.  :class:`CondensedIndex` implements exactly that wrapper for
*any* :class:`~repro.core.base.ReachabilityIndex`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import plain_index
from repro.graphs.digraph import DiGraph
from repro.graphs.scc import Condensation, condense
from repro.graphs.topo import is_dag
from repro.obs.build import build_phase

__all__ = ["CondensedIndex", "build_plain"]


class CondensedIndex(ReachabilityIndex):
    """A DAG-only index wrapped to accept general (possibly cyclic) graphs.

    ``CondensedIndex.build(graph, inner=SomeDagIndex, **params)`` condenses
    ``graph``, builds ``SomeDagIndex`` over the condensation DAG, and routes
    queries through the SCC map.
    """

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Condensed",
        framework="-",
        complete=True,
        input_kind="General",
        dynamic="no",
    )

    def __init__(
        self,
        graph: DiGraph,
        condensation: Condensation,
        inner_index: ReachabilityIndex,
    ) -> None:
        super().__init__(graph)
        self._condensation = condensation
        self._inner = inner_index
        # The taxonomy row of the wrapper: same technique, general input.
        self.metadata = dataclasses.replace(
            inner_index.metadata,
            name=f"{inner_index.metadata.name}+SCC",
            input_kind="General",
        )

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        inner: type[ReachabilityIndex] | None = None,
        **params: object,
    ) -> "CondensedIndex":
        """Condense ``graph`` and build ``inner`` over the resulting DAG."""
        if inner is None:
            raise TypeError("CondensedIndex.build requires inner=<DAG index class>")
        with build_phase("scc-condense") as phase:
            condensation = condense(graph)
            phase.annotate(
                vertices=graph.num_vertices,
                sccs=condensation.dag.num_vertices,
            )
        # The inner build is itself observed; it nests as a child phase.
        inner_index = inner.build(condensation.dag, **params)
        return cls(graph, condensation, inner_index)

    @property
    def inner(self) -> ReachabilityIndex:
        """The wrapped DAG index (built over the condensation)."""
        return self._inner

    @property
    def condensation(self) -> Condensation:
        """The SCC condensation of the original graph."""
        return self._condensation

    def _lookup(self, source: int, target: int) -> TriState:
        """Same-SCC queries answer YES; otherwise probe the DAG index."""
        cs = self._condensation.scc_of[source]
        ct = self._condensation.scc_of[target]
        if cs == ct:
            return TriState.YES
        return self._inner._lookup(cs, ct)

    def _lookup_batch(self, pairs: Sequence[tuple[int, int]]) -> list[TriState]:
        """Batch probes: same-SCC pairs answer YES, the rest batch inward."""
        scc_of = self._condensation.scc_of
        condensed = [(scc_of[s], scc_of[t]) for s, t in pairs]
        crossing = [(cs, ct) for cs, ct in condensed if cs != ct]
        inner = iter(self._inner._lookup_batch(crossing))
        yes = TriState.YES
        return [yes if cs == ct else next(inner) for cs, ct in condensed]

    def _routed_answer(
        self, source: int, target: int
    ) -> tuple[bool, str, TriState | None]:
        """Same-SCC pairs decide here; the rest is the inner DAG index's
        own evaluator over the condensation."""
        scc_of = self._condensation.scc_of
        cs, ct = scc_of[source], scc_of[target]
        if cs == ct:
            return True, "same_scc", TriState.YES
        return self._inner._routed_answer(cs, ct)

    def _route_details(
        self, source: int, target: int, route: str, probe: TriState | None
    ) -> tuple[str, ...]:
        scc_of = self._condensation.scc_of
        cs, ct = scc_of[source], scc_of[target]
        if route == "same_scc":
            return (f"both vertices collapse into SCC {cs}: mutually reachable",)
        return (
            f"condensed: scc({source})={cs}, scc({target})={ct}; delegated "
            f"to {self._inner.metadata.name} over the condensation DAG",
            *self._inner._route_details(cs, ct, route, probe),
        )

    def _query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """Batch queries through the SCC map, delegating cross-SCC pairs.

        The inner index sees one batched call over the condensation DAG,
        so its own amortised paths (bit-parallel fallback, label merges)
        apply to the whole batch at once.
        """
        scc_of = self._condensation.scc_of
        condensed = [(scc_of[s], scc_of[t]) for s, t in pairs]
        crossing = [(cs, ct) for cs, ct in condensed if cs != ct]
        inner = iter(self._inner._query_batch(crossing))
        return [True if cs == ct else next(inner) for cs, ct in condensed]

    def _enumerate_routed(
        self, vertex: int, forward: bool
    ) -> tuple[frozenset[int], str, tuple[str, ...]]:
        """Enumerate over the condensation and expand SCC members.

        The inner DAG index enumerates condensed vertices through its own
        fast path; each condensed vertex then expands to its SCC members,
        which always include ``vertex``'s own component.
        """
        cond = self._condensation
        cv = cond.scc_of[vertex]
        inner_set, route, details = self._inner._enumerate_routed(cv, forward)
        members: list[int] = []
        for c in inner_set:
            members.extend(cond.members[c])
        return (
            frozenset(members),
            route,
            (
                f"condensed: scc({vertex})={cv}; {len(inner_set)} condensed "
                f"vertices expanded to {len(members)} members",
                *details,
            ),
        )

    def size_in_entries(self) -> int:
        """Inner index entries plus one SCC-map entry per vertex."""
        return self._inner.size_in_entries() + self._graph.num_vertices


def build_plain(
    family: str | type[ReachabilityIndex], graph: DiGraph, /, **params: object
) -> ReachabilityIndex:
    """Build ``family`` (a registered name or an index class) over ``graph``.

    The one place the §3.1 lift is applied: a DAG-only family over a
    cyclic graph is built inside a :class:`CondensedIndex`; every other
    combination is the bare family.  ``params`` are the family's own
    build parameters either way (``family`` and ``graph`` are
    positional-only: ``Sharded`` declares a ``family`` parameter itself).
    """
    cls = plain_index(family) if isinstance(family, str) else family
    if cls.metadata.input_kind == "DAG" and not is_dag(graph):
        return CondensedIndex.build(graph, inner=cls, **params)
    return cls.build(graph, **params)
