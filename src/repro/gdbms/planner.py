"""Index planning and maintenance for the GDBMS layer (§5).

The planner owns the reachability indexes behind a :class:`GraphStore`
and embodies the integration trade-offs §5 discusses:

* plain reachability is the alternation query over *all* labels, so one
  maintained **DLCR** index serves both query classes — the consolidation
  a GDBMS wants (one structure to keep fresh instead of two).  The
  store's update log is folded into DLCR incrementally before each
  query;
* the **concatenation** class has no dynamic index in the literature
  (Table 2), so the RLC index is invalidated by updates and rebuilt
  lazily on the next concatenation query — rebuild-on-demand;
* every other constraint shape falls back to automaton-guided traversal
  (§5's coverage gap).

Every answered query is tallied per serving strategy, so callers can see
exactly where indexes helped — the observability §5 asks GDBMSs for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.registry import labeled_index
from repro.gdbms.store import GraphStore
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.traversal.regex import RegexNode, classify_constraint
from repro.traversal.rpq import rpq_reachable

__all__ = ["IndexPlanner", "PlannerStatistics"]


@dataclass
class PlannerStatistics:
    """Counters of how queries were served."""

    plain_index: int = 0
    alternation_index: int = 0
    concatenation_index: int = 0
    traversal: int = 0
    rebuilds: dict[str, int] = field(default_factory=dict)

    def total(self) -> int:
        """Total queries answered."""
        return (
            self.plain_index
            + self.alternation_index
            + self.concatenation_index
            + self.traversal
        )


class IndexPlanner:
    """Keeps the store's reachability indexes fresh and routes queries."""

    def __init__(
        self,
        store: GraphStore,
        rlc_max_period: int = 2,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._store = store
        self._rlc_max_period = rlc_max_period
        self._alternation = None
        self._concatenation = None
        self._concatenation_dirty = True
        self._stats = PlannerStatistics()
        self._metrics = global_registry() if metrics is None else metrics

    @property
    def statistics(self) -> PlannerStatistics:
        """Query-routing counters."""
        return self._stats

    # -- maintenance ----------------------------------------------------------
    def _synchronise(self) -> None:
        """Fold pending store updates into the maintained indexes.

        The index owns a *copy* of the store graph (vertex ids shared) and
        replays the update log against it; node additions grow the index
        through :meth:`DLCRIndex.add_vertex`.
        """
        if self._alternation is None:
            self._store.drain_log()  # a fresh build absorbs pending updates
            self._alternation = labeled_index("DLCR").build(
                self._store.graph.copy()
            )
            self._bump_rebuild("DLCR")
            self._concatenation_dirty = True
            return
        while self._alternation.graph.num_vertices < self._store.graph.num_vertices:
            self._alternation.add_vertex()
        log = self._store.drain_log()
        if not log:
            return
        self._concatenation_dirty = True
        for update in log:
            if update.kind == "insert":
                self._alternation.insert_edge(
                    update.source, update.target, update.label
                )
            else:
                self._alternation.delete_edge(
                    update.source, update.target, update.label
                )

    def _ensure_concatenation(self):
        if self._concatenation is None or self._concatenation_dirty:
            self._concatenation = labeled_index("RLC").build(
                self._store.graph.copy(), max_period=self._rlc_max_period
            )
            self._concatenation_dirty = False
            self._bump_rebuild("RLC")
        return self._concatenation

    def _bump_rebuild(self, name: str) -> None:
        self._stats.rebuilds[name] = self._stats.rebuilds.get(name, 0) + 1
        self._metrics.counter(f"gdbms.rebuilds.{name}").increment()

    def _bump_route(self, route: str) -> None:
        self._metrics.counter(f"gdbms.route.{route}").increment()

    # -- query routing ----------------------------------------------------------
    def reaches(self, source: int, target: int) -> bool:
        """Plain reachability — the all-labels alternation query."""
        self._synchronise()
        self._stats.plain_index += 1
        self._bump_route("plain_index")
        labels = [str(label) for label in self._store.graph.labels()]
        if not labels:
            return source == target
        constraint = "(" + "|".join(labels) + ")*"
        return self._alternation.query(source, target, constraint)

    def constrained_reaches(
        self, source: int, target: int, constraint: str | RegexNode
    ) -> bool:
        """Path-constrained reachability, routed by constraint class."""
        route, node = classify_constraint(constraint, max_period=self._rlc_max_period)
        if route == "alternation":
            self._synchronise()
            self._stats.alternation_index += 1
            self._bump_route("alternation_index")
            return self._alternation.query(source, target, node)
        if route == "concatenation":
            self._synchronise()
            index = self._ensure_concatenation()
            self._stats.concatenation_index += 1
            self._bump_route("concatenation_index")
            return index.query(source, target, node)
        self._stats.traversal += 1
        self._bump_route("traversal")
        return rpq_reachable(self._store.graph, source, target, node)
