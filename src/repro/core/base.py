"""The unified reachability-index API.

Every index the survey reviews is implemented against the abstractions in
this module:

* :class:`IndexMetadata` — the taxonomy row (framework, complete/partial,
  DAG/general input, dynamic support) as printed in Tables 1 and 2 of the
  paper.  The taxonomy benchmarks regenerate those tables from these
  objects, so each implementation *is* its own row.
* :class:`TriState` — the three-valued answer of an index lookup.  A
  complete index never answers MAYBE; a partial index without false
  negatives answers NO or MAYBE; one without false positives answers YES or
  MAYBE.
* :class:`ReachabilityIndex` — plain indexes (§3).  ``lookup`` is the raw
  index probe; ``query`` is always exact, falling back to *guided
  traversal* that recursively consults the index to prune (the §5 rules).
  That decision procedure is written once, in ``_routed_answer``:
  ``query`` returns its answer, ``explain`` formats its route.
* :class:`LabelConstrainedIndex` — path-constrained indexes (§4), same
  split between ``lookup`` and exact ``query``.
"""

from __future__ import annotations

import enum
import functools
import inspect
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import IndexBuildError, QueryError, UnsupportedOperationError
from repro.graphs.digraph import DiGraph
from repro.graphs.labeled import LabeledDiGraph
from repro.kernels import ancestors_set, batch_reachable, csr_of, descendants_set
from repro.obs.build import observe_build
from repro.obs.metrics import global_registry
from repro.obs.tracer import TRACER
from repro.resilience.deadline import CHECK_STRIDE, current_deadline
from repro.traversal.regex import RegexNode

__all__ = [
    "TriState",
    "IndexMetadata",
    "Explanation",
    "SetExplanation",
    "SizeReport",
    "ReachabilityIndex",
    "LabelConstrainedIndex",
    "guided_query",
    "guided_query_bidirectional",
]


class TriState(enum.Enum):
    """Three-valued result of an index probe."""

    YES = "yes"
    NO = "no"
    MAYBE = "maybe"


@dataclass(frozen=True)
class IndexMetadata:
    """One taxonomy row of Table 1 / Table 2 of the survey.

    Attributes
    ----------
    name:
        Short index name as used in the paper (e.g. ``"GRAIL"``).
    framework:
        ``"Tree cover"``, ``"2-Hop"``, ``"Approximate TC"``, ``"TC"``,
        ``"GTC"`` or ``"-"`` for the §3.4 one-off designs.
    complete:
        True for complete indexes (queries answered purely by lookups).
    input_kind:
        ``"DAG"`` or ``"General"`` — the graph class the technique assumes.
    dynamic:
        ``"no"``, ``"yes"``, or ``"insert-only"``.
    constraint:
        ``None`` for plain indexes; ``"Alternation"`` or ``"Concatenation"``
        for path-constrained ones.
    """

    name: str
    framework: str
    complete: bool
    input_kind: str
    dynamic: str
    constraint: str | None = None

    @property
    def index_type(self) -> str:
        """``"Complete"`` or ``"Partial"`` — the Table 1/2 column value."""
        return "Complete" if self.complete else "Partial"


@dataclass(frozen=True)
class Explanation:
    """The routed decision path of one exact reachability answer.

    Produced by :meth:`ReachabilityIndex.explain` — the §5 observability
    surface: *how* was this query answered, not just what the answer
    was.  ``route`` is one of

    * ``"trivial"`` — source equals target;
    * ``"label_probe"`` — a complete index answered from its labels;
    * ``"certain"`` — a partial index's YES/NO certificate sufficed;
    * ``"guided_traversal"`` — the partial probe said MAYBE and the
      index-guided BFS fallback decided;
    * ``"same_scc"`` — the SCC-condensation wrapper short-circuited;
    * ``"deadline_abort"`` / ``"degraded"`` — the serving tier gave up
      (deadline expiry or an open circuit breaker) and downgraded the
      answer to UNKNOWN (``answer is None``).
    """

    index: str
    source: int
    target: int
    answer: bool | None
    route: str
    probe: TriState | None
    details: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable plain data (the CLI/HTTP payload shape)."""
        return {
            "index": self.index,
            "source": self.source,
            "target": self.target,
            "answer": self.answer,
            "route": self.route,
            "probe": self.probe.value if self.probe is not None else None,
            "details": list(self.details),
        }

    def render_text(self) -> str:
        """A short human-readable decision path."""
        rendered = "unknown" if self.answer is None else str(self.answer).lower()
        lines = [
            f"Qr({self.source}, {self.target}) = "
            f"{rendered}  [{self.index}]",
            f"  route: {self.route}"
            + (f" (probe={self.probe.value})" if self.probe is not None else ""),
        ]
        lines.extend(f"  {detail}" for detail in self.details)
        return "\n".join(lines)


@dataclass(frozen=True)
class SetExplanation:
    """The routed decision path of one reachable-set enumeration.

    Produced by :meth:`ReachabilityIndex.explain_reachable_from` /
    :meth:`~ReachabilityIndex.explain_reaching_to` — the enumeration
    counterpart of :class:`Explanation`.  ``route`` is one of

    * ``"enum_traversal"`` — the default graph traversal enumerated the
      set (output-sensitive BFS over the CSR snapshot);
    * ``"enum_closure"`` — a transitive-closure bitset was expanded
      directly (TC);
    * ``"enum_label_join"`` — 2-hop labels were joined through an
      inverted hub index (PLL/DL/TOL/TFL/2-Hop);
    * ``"enum_interval"`` — a subtree-interval scan produced the set
      (tree cover exactly; GRAIL/DAGGER prune candidates by interval
      and confirm them with one shared kernel sweep);
    * ``"enum_compose"`` — per-shard enumerations composed through the
      boundary summary graph (Sharded).

    The SCC-condensation wrapper expands the inner DAG answer through
    the SCC map and reports the *inner* route, mirroring how its routed
    pair evaluator delegates cross-SCC queries.
    """

    index: str
    vertex: int
    direction: str  # "from" (descendants) or "to" (ancestors)
    count: int
    route: str
    details: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable plain data (the CLI/HTTP payload shape)."""
        return {
            "index": self.index,
            "vertex": self.vertex,
            "direction": self.direction,
            "count": self.count,
            "route": self.route,
            "details": list(self.details),
        }

    def render_text(self) -> str:
        """A short human-readable decision path."""
        name = "reachable_from" if self.direction == "from" else "reaching_to"
        lines = [
            f"{name}({self.vertex}) = {self.count} vertices  [{self.index}]",
            f"  route: {self.route}",
        ]
        lines.extend(f"  {detail}" for detail in self.details)
        return "\n".join(lines)


@dataclass(frozen=True)
class SizeReport:
    """Uniform size accounting of one built index.

    Every family reports size the same two ways: ``entries`` — the
    survey's abstract metric (labels / intervals / words, whatever the
    family counts) — and ``estimated_bytes`` — the serialized payload
    with the indexed graph subtracted out, the number a size *budget*
    is stated in.  The advisor's budget logic and the size benchmarks
    both consume this instead of reaching into per-family attributes.
    """

    index: str
    entries: int
    estimated_bytes: int
    graph_vertices: int
    graph_edges: int
    #: Kernel backend active when the report was taken ("python"/"numpy").
    backend: str = "python"

    @property
    def bytes_per_entry(self) -> float:
        """Average serialized bytes per entry (0.0 for empty indexes)."""
        return self.estimated_bytes / self.entries if self.entries else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable plain data (the BENCH_*.json shape)."""
        return {
            "index": self.index,
            "entries": self.entries,
            "estimated_bytes": self.estimated_bytes,
            "bytes_per_entry": self.bytes_per_entry,
            "graph_vertices": self.graph_vertices,
            "graph_edges": self.graph_edges,
            "backend": self.backend,
        }

    def render_text(self) -> str:
        """One human-readable size line for the CLI."""
        return (
            f"{self.index}: {self.entries:,} entries, "
            f"~{self.estimated_bytes:,} bytes "
            f"({self.bytes_per_entry:.1f} B/entry) over "
            f"|V|={self.graph_vertices:,} |E|={self.graph_edges:,}"
        )


def _instrumented_build(raw: classmethod) -> classmethod:
    """Wrap a subclass ``build`` with parameter checking and observation.

    Applied automatically by ``__init_subclass__`` wherever an index
    class defines its own ``build``, so every family's construction is
    observed — total time, the :func:`~repro.obs.build.build_phase`
    stages it marks, and final size — without per-family boilerplate.
    The report lands on the instance as ``build_report``.

    The family's signature is its parameter declaration: a keyword it
    does not name is an :class:`~repro.errors.IndexBuildError`, not a
    silently dropped setting.  The accepted names are read off the
    signature once, here; wrappers that forward ``**params`` to an inner
    family accept anything and let the inner build judge.
    """
    inner = raw.__func__
    declared = list(inspect.signature(inner).parameters.values())[2:]
    forwards = any(p.kind is p.VAR_KEYWORD for p in declared)
    accepted = frozenset(p.name for p in declared if p.kind is not p.VAR_KEYWORD)

    @functools.wraps(inner)
    def build(cls, graph, *args, **params):
        if params and not forwards and not accepted.issuperset(params):
            unknown = ", ".join(sorted(set(params) - accepted))
            raise IndexBuildError(
                f"{cls.metadata.name} has no build parameter {unknown}; "
                f"accepted: {', '.join(sorted(accepted)) or '(none)'}"
            )
        with observe_build(cls.metadata.name) as observation:
            index = inner(cls, graph, *args, **params)
        observation.attach(index, entries=index.size_in_entries())
        return index

    build._obs_wrapped = True
    return classmethod(build)


def _check_pair(num_vertices: int, source: int, target: int) -> None:
    """The public boundary's range check (negative ids would wrap)."""
    if not (0 <= source < num_vertices and 0 <= target < num_vertices):
        raise QueryError(
            f"query ({source}, {target}) out of range for |V|={num_vertices}"
        )


def guided_query(graph: DiGraph, index: "ReachabilityIndex", source: int, target: int) -> bool:
    """Exact reachability via index-guided BFS (the §5 pruning rules).

    Starting from ``source``, the frontier vertex ``v`` is resolved with an
    index probe ``lookup(v, target)``:

    * YES — the index certifies reachability: stop with True (rule for
      partial indexes *without false positives*);
    * NO — the index certifies non-reachability from ``v``: prune ``v``'s
      out-neighbours (rule for partial indexes *without false negatives*);
    * MAYBE — expand ``v`` normally.

    The pair is validated here, once; the walk itself touches only
    vertices that came out of ``graph``.
    """
    _check_pair(graph.num_vertices, source, target)
    first = index.lookup(source, target)
    if first is TriState.YES:
        return True
    if first is TriState.NO:
        return source == target
    if source == target:
        return True
    return _guided_walk(graph, index.lookup, source, target)


def _guided_walk(graph: DiGraph, probe_of, source: int, target: int) -> bool:
    """The BFS of :func:`guided_query` over a probe callable.

    For callers that validated the distinct pair and already saw its
    own probe answer MAYBE (the routed evaluator passes ``_lookup``).
    """
    yes, no = TriState.YES, TriState.NO
    deadline = current_deadline()
    expanded = 0
    out = graph._out
    seen = bytearray(len(out))
    seen[source] = 1
    queue: deque[int] = deque((source,))
    while queue:
        if deadline is not None:
            expanded += 1
            if not expanded % CHECK_STRIDE:
                deadline.check()
        for w in out[queue.popleft()]:
            if w == target:
                return True
            if seen[w]:
                continue
            seen[w] = 1
            probe = probe_of(w, target)
            if probe is yes:
                return True
            if probe is no:
                continue  # prune: nothing past w reaches target
            queue.append(w)
    return False


def guided_query_bidirectional(
    graph: DiGraph, index: "ReachabilityIndex", source: int, target: int
) -> bool:
    """Exact reachability via index-guided *bidirectional* BFS.

    The §5 pruning rules applied on both frontiers: the forward frontier
    prunes vertices the index certifies cannot reach ``target``; the
    backward frontier prunes vertices certified unreachable *from*
    ``source``.  A YES certificate on either side terminates.  Like plain
    BiBFS, the smaller frontier expands each round, which helps on graphs
    with fan-out in both directions.
    """
    _check_pair(graph.num_vertices, source, target)
    probe_of = index.lookup
    first = probe_of(source, target)
    if first is TriState.YES:
        return True
    if first is TriState.NO:
        return source == target
    if source == target:
        return True
    yes, no = TriState.YES, TriState.NO
    deadline = current_deadline()
    out, inn = graph._out, graph._in
    seen_fwd = bytearray(len(out))
    seen_bwd = bytearray(len(out))
    seen_fwd[source] = 1
    seen_bwd[target] = 1
    frontier_fwd = [source]
    frontier_bwd = [target]
    while frontier_fwd and frontier_bwd:
        if deadline is not None:
            deadline.check()
        if len(frontier_fwd) <= len(frontier_bwd):
            next_frontier: list[int] = []
            for v in frontier_fwd:
                for w in out[v]:
                    if seen_bwd[w]:
                        return True
                    if seen_fwd[w]:
                        continue
                    seen_fwd[w] = 1
                    probe = probe_of(w, target)
                    if probe is yes:
                        return True
                    if probe is no:
                        continue  # nothing past w reaches target
                    next_frontier.append(w)
            frontier_fwd = next_frontier
        else:
            next_frontier = []
            for v in frontier_bwd:
                for u in inn[v]:
                    if seen_fwd[u]:
                        return True
                    if seen_bwd[u]:
                        continue
                    seen_bwd[u] = 1
                    probe = probe_of(source, u)
                    if probe is yes:
                        return True
                    if probe is no:
                        continue  # source reaches nothing before u
                    next_frontier.append(u)
            frontier_bwd = next_frontier
    return False


class _IndexBase(ABC):
    """What plain and path-constrained indexes share verbatim.

    Build instrumentation, size accounting, pair validation and the
    concurrency-safe pickling state; the two public bases below add
    their own query surfaces on top.
    """

    metadata: ClassVar[IndexMetadata]

    def __init_subclass__(cls, **kwargs: object) -> None:
        """Check and observe every concrete ``build`` (see the wrapper)."""
        super().__init_subclass__(**kwargs)
        raw = cls.__dict__.get("build")
        if isinstance(raw, classmethod) and not getattr(
            raw.__func__, "_obs_wrapped", False
        ):
            cls.build = _instrumented_build(raw)

    @property
    def build_report(self):
        """The :class:`~repro.obs.build.BuildReport` of this build, or None.

        Attached by the automatic build instrumentation; absent only on
        instances constructed directly through ``__init__``.
        """
        return getattr(self, "_build_report", None)

    @abstractmethod
    def size_in_entries(self) -> int:
        """Index size in label/interval/word entries (the survey's metric)."""

    def estimated_bytes(self) -> int:
        """Serialized index payload in bytes, the indexed graph excluded.

        The concrete counterpart of :meth:`size_in_entries` — the number
        a size budget (FERRARI-style index-size restriction) is stated
        in.  Uniform across every family: measured from the pickled
        instance minus the graph's own representation.
        """
        from repro.persistence import serialized_size_bytes

        return serialized_size_bytes(self, include_graph=False)

    def size_report(self) -> SizeReport:
        """Both size metrics (entries and bytes) as one uniform report."""
        from repro import accel

        graph = self.graph
        return SizeReport(
            index=self.metadata.name,
            entries=self.size_in_entries(),
            estimated_bytes=self.estimated_bytes(),
            graph_vertices=graph.num_vertices,
            graph_edges=graph.num_edges,
            backend=accel.backend_name(),
        )

    def _check_query(self, source: int, target: int) -> None:
        # _check_pair, inline: this runs once per public scalar call.
        n = self._graph.num_vertices
        if not (0 <= source < n and 0 <= target < n):
            raise QueryError(
                f"query ({source}, {target}) out of range for |V|={n}"
            )

    def __getstate__(self) -> dict[str, object]:
        """State for pickling/deep-copying, safe under concurrent queries."""
        return _state_without_query_caches(self)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self._graph.num_vertices}, "
            f"entries={self.size_in_entries()})"
        )


class ReachabilityIndex(_IndexBase):
    """Abstract base for plain reachability indexes (§3).

    Subclasses set the class attribute :attr:`metadata` and implement
    :meth:`build`, :meth:`_lookup` and :meth:`size_in_entries`.  ``query`` is
    exact for every index: complete indexes answer from the probe alone,
    partial ones fall back to guided traversal.

    Validation belongs to the public boundary: ``lookup``,
    ``lookup_batch``, ``query``, ``query_batch`` and ``explain`` check
    their arguments once, here, and then call only the unchecked hooks
    (``_lookup``, ``_lookup_batch``, ``_routed_answer``,
    ``_query_batch``) a family or wrapper overrides.
    """

    #: Span/counter namespace of :meth:`query` (``index.query``,
    #: ``index.route.*``); the sharded composition keeps its own.
    _obs_namespace: ClassVar[str] = "index"

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph

    # -- construction ---------------------------------------------------
    @classmethod
    @abstractmethod
    def build(cls, graph: DiGraph, **params: object) -> "ReachabilityIndex":
        """Construct the index over ``graph``.

        DAG-only indexes raise :class:`repro.errors.NotADAGError` on cyclic
        input; :func:`repro.core.condensed.build_plain` lifts them to
        general graphs.
        """

    # -- probing --------------------------------------------------------
    @abstractmethod
    def _lookup(self, source: int, target: int) -> TriState:
        """The family's raw probe of one *validated* pair.

        MAYBE only for partial indexes.  This is the one method a family
        writes; every public surface below derives from it.
        """

    def _lookup_batch(self, pairs: Sequence[tuple[int, int]]) -> list[TriState]:
        """``_lookup`` over a validated batch, in input order.

        Families override it only where batching measurably amortises
        work (probe arrays bound once, memoised inner probes) — more
        than 1.2× over this loop on 256 uniform pairs.
        """
        lookup = self._lookup
        return [lookup(s, t) for s, t in pairs]

    def lookup(self, source: int, target: int) -> TriState:
        """Raw index probe; MAYBE only for partial indexes."""
        self._check_query(source, target)
        return self._lookup(source, target)

    def lookup_batch(self, pairs: Sequence[tuple[int, int]]) -> list[TriState]:
        """Raw index probes for a batch of ``(source, target)`` pairs.

        Semantically identical to ``[lookup(s, t) for s, t in pairs]``
        — answers come back in input order and duplicates are answered
        like any other pair — except that the whole batch is validated
        before any pair is probed.
        """
        self._check_pairs(pairs)
        return self._lookup_batch(pairs)

    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """Exact reachability answers for a batch of pairs.

        The batched counterpart of :meth:`query`: the whole batch is
        validated up front (a :class:`~repro.errors.QueryError` is
        raised before *any* pair is evaluated), answers return in input
        order, and empty batches return ``[]``.  Complete indexes answer
        from the batched probe alone.  Partial indexes trust their
        YES/NO certificates and resolve the remaining MAYBE pairs with
        one shared bit-parallel traversal — all targets of one source
        share a frontier, and distinct sources advance together — rather
        than one guided traversal per pair.
        """
        self._check_pairs(pairs)
        if not pairs:
            return []
        return self._query_batch(pairs)

    def _query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """:meth:`query_batch` over a validated, non-empty batch."""
        probes = self._lookup_batch(pairs)
        complete = self.metadata.complete
        yes, no = TriState.YES, TriState.NO
        answers: list[bool | None] = []
        unresolved: list[int] = []
        for position, ((source, target), probe) in enumerate(zip(pairs, probes)):
            if source == target:
                answers.append(True)
            elif probe is yes:
                answers.append(True)
            elif probe is no:
                answers.append(False)
            elif complete:
                raise QueryError(
                    f"{type(self).__name__} is complete but answered MAYBE"
                )
            else:
                answers.append(None)
                unresolved.append(position)
        if unresolved:
            with TRACER.span(
                "index.kernel_sweep",
                index=self.metadata.name,
                pairs=len(unresolved),
            ):
                resolved = batch_reachable(
                    csr_of(self._graph), [pairs[i] for i in unresolved]
                )
            for position, answer in zip(unresolved, resolved):
                answers[position] = answer
        if TRACER.enabled:
            self._record_batch_routes(len(pairs), len(unresolved))
        return answers

    def query(self, source: int, target: int) -> bool:
        """Exact reachability answer: the routed evaluator's, nothing else.

        With the tracer on, the evaluation is wrapped in one
        ``<namespace>.query`` span and bumps ``<namespace>.route.<route>``
        once; with it off, no span and no counter.
        """
        self._check_query(source, target)
        if not TRACER.enabled:
            return self._routed_answer(source, target)[0]
        namespace = self._obs_namespace
        with TRACER.span(
            f"{namespace}.query",
            index=self.metadata.name,
            source=source,
            target=target,
        ) as span:
            answer, route, _probe = self._routed_answer(source, target)
            span.annotate(route=route, answer=answer)
            global_registry().counter(f"{namespace}.route.{route}").increment()
            return answer

    # -- the routed evaluator ----------------------------------------------
    def _routed_answer(
        self, source: int, target: int
    ) -> tuple[bool, str, TriState | None]:
        """The one pair evaluator: ``(answer, route, probe)``.

        The survey's §5 decision procedure, written once: complete
        indexes answer from the probe alone, partial ones trust YES/NO
        certificates and fall back to index-guided traversal on MAYBE.
        :meth:`query` returns its answer and :meth:`explain` formats its
        result, so the two agree by construction.  Wrappers
        (condensation, sharding) override this and its formatter
        :meth:`_route_details`, never ``query``/``explain``; callers
        have validated the pair.
        """
        if source == target:
            return True, "trivial", None
        probe = self._lookup(source, target)
        if self.metadata.complete:
            if probe is TriState.MAYBE:
                raise QueryError(
                    f"{type(self).__name__} is complete but answered MAYBE"
                )
            return probe is TriState.YES, "label_probe", probe
        if probe is TriState.YES:
            return True, "certain", probe
        if probe is TriState.NO:
            return False, "certain", probe
        return (
            _guided_walk(self._graph, self._lookup, source, target),
            "guided_traversal",
            probe,
        )

    def _record_batch_routes(self, total: int, swept: int) -> None:
        """Attribute one ``query_batch`` call's pairs to their routes."""
        registry = global_registry()
        certain = total - swept
        if certain:
            route = "label_probe" if self.metadata.complete else "certain"
            registry.counter(f"index.route.{route}").increment(certain)
        if swept:
            registry.counter("index.route.kernel_sweep").increment(swept)

    def explain(self, source: int, target: int) -> Explanation:
        """The routed decision path of ``query(source, target)``.

        A formatter over the same :meth:`_routed_answer` result
        :meth:`query` returns; unlike ``query`` it emits no span and
        bumps no counter — explaining is an explicit request.
        """
        self._check_query(source, target)
        answer, route, probe = self._routed_answer(source, target)
        return Explanation(
            index=self.metadata.name,
            source=source,
            target=target,
            answer=answer,
            route=route,
            probe=probe,
            details=self._route_details(source, target, route, probe),
        )

    def _route_details(
        self, source: int, target: int, route: str, probe: TriState | None
    ) -> tuple[str, ...]:
        """Prose for the route that decided (``explain``'s formatter)."""
        meta = self.metadata
        if route == "trivial":
            return ("source equals target: reachable by the empty path",)
        if route == "label_probe":
            return (
                f"complete {meta.framework} index: answered "
                f"{probe.value} from one label probe",
            )
        if route == "certain":
            return (
                f"partial {meta.framework} index: the {probe.value} "
                "certificate is exact, no traversal needed",
            )
        return (
            "partial index answered MAYBE: resolved by index-guided BFS "
            "(probes prune the frontier)",
        )

    # -- set enumeration -------------------------------------------------
    def reachable_from(self, source: int) -> frozenset[int]:
        """Every vertex reachable from ``source`` (including itself).

        The single-source *enumeration* query — "list everything this
        vertex reaches" — answered exactly for every family.  The
        default walks the CSR snapshot (output-sensitive: only the
        answer set and its edges are touched); families with a better
        representation override :meth:`_enumerate_fast` — TC reads a
        closure bitset, 2-hop labelings join through an inverted hub
        index, interval indexes scan the postorder range.  All paths
        return the same frozen vertex-set type.
        """
        self._check_vertex(source)
        if not TRACER.enabled:
            return self._enumerate_routed(source, forward=True)[0]
        return self._enumerate_observed(source, forward=True)

    def reaching_to(self, target: int) -> frozenset[int]:
        """Every vertex that reaches ``target`` (including itself).

        The reverse enumeration — "list everything that reaches this
        vertex" — with the same routing contract as
        :meth:`reachable_from`.
        """
        self._check_vertex(target)
        if not TRACER.enabled:
            return self._enumerate_routed(target, forward=False)[0]
        return self._enumerate_observed(target, forward=False)

    def explain_reachable_from(self, source: int) -> SetExplanation:
        """The routed decision path of ``reachable_from(source)``.

        Always agrees with :meth:`reachable_from` (both call the same
        routed enumeration); like :meth:`explain` it works without the
        tracer and bumps no counters.
        """
        self._check_vertex(source)
        vertices, route, details = self._enumerate_routed(source, forward=True)
        return SetExplanation(
            index=self.metadata.name,
            vertex=source,
            direction="from",
            count=len(vertices),
            route=route,
            details=details,
        )

    def explain_reaching_to(self, target: int) -> SetExplanation:
        """The routed decision path of ``reaching_to(target)``."""
        self._check_vertex(target)
        vertices, route, details = self._enumerate_routed(target, forward=False)
        return SetExplanation(
            index=self.metadata.name,
            vertex=target,
            direction="to",
            count=len(vertices),
            route=route,
            details=details,
        )

    def _enumerate_observed(self, vertex: int, forward: bool) -> frozenset[int]:
        """The traced enumeration path (tracer enabled only)."""
        with TRACER.span(
            "index.enumerate",
            index=self.metadata.name,
            vertex=vertex,
            direction="from" if forward else "to",
        ) as span:
            vertices, route, _details = self._enumerate_routed(vertex, forward)
            span.annotate(route=route, count=len(vertices))
            global_registry().counter(f"index.route.{route}").increment()
            return vertices

    def _enumerate_routed(
        self, vertex: int, forward: bool
    ) -> tuple[frozenset[int], str, tuple[str, ...]]:
        """Set answer plus routing attribution; explain and the public
        enumeration share this, which guarantees their agreement."""
        fast = self._enumerate_fast(vertex, forward)
        if fast is not None:
            return fast
        csr = csr_of(self._graph)
        members = (
            descendants_set(csr, vertex) if forward else ancestors_set(csr, vertex)
        )
        kind = "descendant" if forward else "ancestor"
        return (
            frozenset(members),
            "enum_traversal",
            (
                f"default {kind} traversal over the CSR snapshot reached "
                f"{len(members)} vertices",
            ),
        )

    def _enumerate_fast(
        self, vertex: int, forward: bool
    ) -> tuple[frozenset[int], str, tuple[str, ...]] | None:
        """A family-specific enumeration fast path, or None to fall back.

        Overrides must return exactly the set the default traversal
        would (the differential matrix tests enforce this) together
        with their route name and human-readable details.
        """
        return None

    @property
    def graph(self) -> DiGraph:
        """The indexed graph (mutated in place by dynamic indexes)."""
        return self._graph

    # -- dynamic operations ----------------------------------------------
    def insert_edge(self, source: int, target: int) -> None:
        """Insert an edge and maintain the index (dynamic indexes only)."""
        raise UnsupportedOperationError(
            f"{self.metadata.name} does not support edge insertion"
        )

    def delete_edge(self, source: int, target: int) -> None:
        """Delete an edge and maintain the index (dynamic indexes only)."""
        raise UnsupportedOperationError(
            f"{self.metadata.name} does not support edge deletion"
        )

    def add_vertex(self) -> int:
        """Append an isolated vertex to the indexed graph; returns its id."""
        raise UnsupportedOperationError(
            f"{self.metadata.name} does not support vertex insertion"
        )

    # -- helpers ----------------------------------------------------------
    def _check_vertex(self, vertex: int) -> None:
        n = self._graph.num_vertices
        if not 0 <= vertex < n:
            raise QueryError(f"vertex {vertex} out of range for |V|={n}")

    def _check_pairs(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Validate a whole batch before evaluating any of it."""
        n = self._graph.num_vertices
        for source, target in pairs:
            if not (0 <= source < n and 0 <= target < n):
                raise QueryError(
                    f"query ({source}, {target}) out of range for |V|={n}"
                )


def _state_without_query_caches(index: object) -> dict[str, object]:
    """``__dict__`` minus transient query-time memoisation.

    Labeled indexes memoise parsed constraints on the instance while
    answering (``_constraint_cache``), so a pickle or deep copy taken
    while other threads are querying — the serving tier's incremental
    patch path — must not walk that dict mid-mutation.  The snapshot is
    retried because a concurrent first query can grow ``__dict__``
    itself during iteration.
    """
    for _attempt in range(64):
        try:
            state = dict(index.__dict__)
            break
        except RuntimeError:  # __dict__ grew under a concurrent reader
            continue
    else:  # pragma: no cover - needs a pathological scheduler
        raise RuntimeError(
            f"could not snapshot {type(index).__name__}.__dict__ under load"
        )
    state.pop("_constraint_cache", None)
    return state


class LabelConstrainedIndex(_IndexBase):
    """Abstract base for path-constrained reachability indexes (§4).

    ``query(s, t, constraint)`` takes the constraint as surface syntax or a
    parsed :class:`~repro.traversal.regex.RegexNode`.  Implementations
    declare which constraint family they support through
    ``metadata.constraint`` and raise
    :class:`~repro.errors.UnsupportedConstraintError` otherwise.
    """

    def __init__(self, graph: LabeledDiGraph) -> None:
        self._graph = graph

    @classmethod
    @abstractmethod
    def build(cls, graph: LabeledDiGraph, **params: object) -> "LabelConstrainedIndex":
        """Construct the index over the labeled graph."""

    @abstractmethod
    def query(self, source: int, target: int, constraint: str | RegexNode) -> bool:
        """Exact path-constrained reachability answer."""

    @property
    def graph(self) -> LabeledDiGraph:
        """The indexed graph."""
        return self._graph

    def insert_edge(self, source: int, target: int, label: object) -> None:
        """Insert a labeled edge and maintain the index (dynamic only)."""
        raise UnsupportedOperationError(
            f"{self.metadata.name} does not support edge insertion"
        )

    def delete_edge(self, source: int, target: int, label: object) -> None:
        """Delete a labeled edge and maintain the index (dynamic only)."""
        raise UnsupportedOperationError(
            f"{self.metadata.name} does not support edge deletion"
        )
