"""A concurrent reachability query service with snapshot isolation.

This is the serving half of the survey's §5 GDBMS vision: the indexes of
§3/§4 answer queries in microseconds, but a system that "serves heavy
traffic" must keep answering *while the graph changes*.  The engine
separates the two concerns with copy-on-write snapshots:

* **Readers** load the current :class:`Snapshot` — an immutable
  ``(graph, index, epoch)`` triple — with a single atomic attribute
  read and answer against it lock-free.  A reader keeps its snapshot
  for the duration of one query (or one batch), so its answers are
  exact with respect to a well-defined epoch even mid-update.
* **A single writer** applies a batch of edge updates from
  :mod:`repro.workloads.updates` to a *copy* of the current graph,
  produces a fresh index — rebuilt from scratch, or incrementally
  patched through the §3.2 dynamic maintenance API (DAGGER, TC, TOL,
  DLCR, …) on a deep copy — and atomically swaps the new snapshot in.
  Old snapshots survive as long as some reader holds them; garbage
  collection retires them.

In front of the index sits an epoch-tagged LRU result cache
(:mod:`repro.service.cache`) and an in-flight request coalescer
(:mod:`repro.service.batching`); every answer is tallied per route in a
:class:`~repro.obs.metrics.MetricsRegistry`.  Constraint routing
reuses :func:`repro.traversal.regex.classify_constraint` — the §5
dispatch decision the GDBMS planner makes is the service's routing brain.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, replace

from repro import accel
from repro.core.base import (
    Explanation,
    LabelConstrainedIndex,
    ReachabilityIndex,
    TriState,
)
from repro.core.condensed import build_plain
from repro.core.patch import AUDIT_PAIRS, patched_copy
from repro.core.registry import labeled_index as labeled_index_cls
from repro.core.registry import plain_index as plain_index_cls
from repro.errors import DeadlineExceeded, QueryError, ServiceError
from repro.graphs.digraph import DiGraph
from repro.graphs.labeled import LabeledDiGraph
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.tracer import TRACER
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import chaos_point
from repro.service.batching import QueryCoalescer, dedupe
from repro.service.cache import MISS, ResultCache
from repro.traversal.regex import classify_constraint
from repro.traversal.rpq import rpq_reachable
from repro.workloads.updates import EdgeOp, LabeledEdgeOp, apply_op_rows

__all__ = [
    "DEGRADED_ROUTES",
    "ROUTES",
    "QueryResult",
    "ReachabilityService",
    "Snapshot",
]

ROUTES = ("cache", "plain_index", "labeled_index", "traversal")

#: Routes a query lands on when the service gives up on an exact answer:
#: ``deadline_abort`` (the request's budget expired mid-evaluation) and
#: ``degraded`` (the index circuit breaker is open, or the index raised,
#: and only a bounded label probe was attempted).  Both carry a
#: three-valued answer — ``None`` means UNKNOWN, never a guessed bool.
DEGRADED_ROUTES = ("deadline_abort", "degraded")

#: Bucket bounds for the batch-size histogram (pairs per request).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                      512.0, 1024.0, 2048.0, 4096.0)


@dataclass(frozen=True)
class Snapshot:
    """One immutable epoch of the service: graph(s) plus built index(es).

    Nothing in a snapshot is mutated after the constructor returns; the
    writer always derives the next epoch from copies.
    """

    epoch: int
    graph: DiGraph
    plain: ReachabilityIndex
    labeled_graph: LabeledDiGraph | None = None
    labeled: LabelConstrainedIndex | None = None

    def __repr__(self) -> str:
        return (
            f"Snapshot(epoch={self.epoch}, |V|={self.graph.num_vertices}, "
            f"|E|={self.graph.num_edges})"
        )


@dataclass(frozen=True)
class QueryResult:
    """One answered query: the three-valued answer plus its provenance.

    ``answer`` is ``True`` / ``False`` for exact answers and ``None``
    for UNKNOWN — the service *never* downgrades to a guessed boolean.
    UNKNOWN appears only on the degraded routes (``deadline_abort``,
    ``degraded``); with no deadline set and a healthy index every
    answer is exact, same as before the resilience layer existed.
    """

    answer: bool | None
    epoch: int
    route: str  # ROUTES + DEGRADED_ROUTES
    shared: bool = False  # True when coalesced onto another thread's flight

    @property
    def status(self) -> str:
        """``"TRUE"`` / ``"FALSE"`` / ``"UNKNOWN"`` — the wire form."""
        if self.answer is None:
            return "UNKNOWN"
        return "TRUE" if self.answer else "FALSE"


class ReachabilityService:
    """Thread-safe reachability serving over any registered index.

    Construct over a :class:`DiGraph` (plain mode: :meth:`reach` only)
    or a :class:`LabeledDiGraph` (labeled mode: :meth:`reach` answers
    through a plain index over the label-forgetting projection,
    :meth:`lreach` routes alternation constraints to the labeled index
    and everything else to automaton-guided traversal).

    ``index_params`` forwards extra keyword arguments to the plain
    family's ``build`` on every (re)construction — e.g.
    ``index="Sharded", index_params={"num_shards": 4}`` serves a
    partitioned index with no other change.

    ``rebuild="always"`` forces full index reconstruction on every
    update batch; the default ``"auto"`` patches dynamic indexes
    incrementally on a deep copy and falls back to rebuilding when the
    index family does not support the operation (§3.2's Table 1
    "dynamic" column decides).
    """

    def __init__(
        self,
        graph: DiGraph | LabeledDiGraph,
        *,
        index: str = "PLL",
        index_params: dict[str, object] | None = None,
        labeled_index: str | None = "DLCR",
        cache_capacity: int | None = 4096,
        coalesce: bool = True,
        rebuild: str = "auto",
        metrics: MetricsRegistry | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 5.0,
        patch_audit_pairs: int = AUDIT_PAIRS,
    ) -> None:
        if rebuild not in ("auto", "always"):
            raise ServiceError(f"rebuild must be 'auto' or 'always', got {rebuild!r}")
        if patch_audit_pairs < 0:
            raise ServiceError(
                f"patch_audit_pairs must be >= 0, got {patch_audit_pairs}"
            )
        self._plain_name = index
        self._index_params = dict(index_params or {})
        self._labeled_name = labeled_index
        self._rebuild_policy = rebuild
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._cache = (
            ResultCache(cache_capacity) if cache_capacity else None
        )
        self._coalescer = QueryCoalescer() if coalesce else None
        self._writer_lock = threading.Lock()
        self._breaker = CircuitBreaker(
            name=f"index:{index}",
            failure_threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
        )
        self._auditor = None  # attach_auditor: shadow correctness sampling
        self._patch_audit_pairs = int(patch_audit_pairs)
        self._wal = None  # attach_wal: durable append-before-swap
        self._wal_applied_lsn: int | None = None
        routes = ROUTES + DEGRADED_ROUTES
        self._route_counters = {
            route: self._metrics.counter(f"service.queries.{route}")
            for route in routes
        }
        self._route_latency = {
            route: self._metrics.histogram(f"service.latency.{route}")
            for route in routes
        }
        self._metrics.counter("service.unknowns")
        self._batch_requests = self._metrics.counter("service.batch.requests")
        self._batch_pairs = self._metrics.counter("service.batch.pairs")
        self._batch_cache_hits = self._metrics.counter("service.batch.cache_hits")
        self._batch_computed = self._metrics.counter("service.batch.computed")
        self._batch_size = self._metrics.histogram(
            "service.batch.size", BATCH_SIZE_BUCKETS
        )
        self._batch_latency = self._metrics.histogram("service.batch.latency")
        self._metrics.counter("service.swaps")
        self._metrics.counter("service.updates_applied")
        self._metrics.counter("service.rebuilds")
        self._metrics.counter("service.patches")
        self._metrics.counter("service.patch_audit.passed")
        self._metrics.counter("service.patch_audit.failed")
        self._metrics.counter("service.advisor.ticks")
        self._metrics.counter("service.advisor.adoptions")
        self._metrics.counter("service.advisor.kept")
        self._metrics.counter("service.advisor.skipped")
        self._metrics.counter("service.advisor.stale_builds")
        self._metrics.counter("service.advisor.errors")
        if isinstance(graph, LabeledDiGraph):
            self._labeled_mode = True
            self._snapshot = self._labeled_snapshot(epoch=0, labeled=graph.copy())
        elif isinstance(graph, DiGraph):
            self._labeled_mode = False
            working = graph.copy()
            self._snapshot = Snapshot(
                epoch=0, graph=working, plain=self._build_plain(working)
            )
        else:
            raise ServiceError(
                f"service needs a DiGraph or LabeledDiGraph, got {type(graph).__name__}"
            )

    # -- snapshot construction -------------------------------------------
    def _build_plain(self, graph: DiGraph) -> ReachabilityIndex:
        """The configured family over ``graph`` (writer-owned)."""
        return build_plain(self._plain_name, graph, **self._index_params)

    def _labeled_snapshot(
        self,
        epoch: int,
        labeled: LabeledDiGraph,
        constrained: LabelConstrainedIndex | None = None,
    ) -> Snapshot:
        """A snapshot over ``labeled`` (writer-owned): the plain projection
        is rebuilt; the constrained index is ``constrained`` when the
        writer patched one, else built fresh."""
        plain_view = labeled.to_plain()
        if constrained is None and self._labeled_name is not None:
            constrained = labeled_index_cls(self._labeled_name).build(labeled)
        return Snapshot(
            epoch=epoch,
            graph=plain_view,
            plain=self._build_plain(plain_view),
            labeled_graph=labeled,
            labeled=constrained,
        )

    # -- reader API ------------------------------------------------------
    def acquire(self) -> Snapshot:
        """The current snapshot (atomic read; hold it as long as needed)."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        """Epoch of the current snapshot."""
        return self._snapshot.epoch

    @property
    def labeled_mode(self) -> bool:
        """True when constructed over a labeled graph."""
        return self._labeled_mode

    @property
    def index_name(self) -> str:
        """The plain index family currently serving (may change via
        :meth:`adopt_index`)."""
        return self._plain_name

    @property
    def index_params(self) -> dict[str, object]:
        """Build parameters of the serving plain family (a copy)."""
        return dict(self._index_params)

    @property
    def metrics(self) -> MetricsRegistry:
        """The service's metrics registry."""
        return self._metrics

    @property
    def breaker(self) -> CircuitBreaker:
        """The per-index circuit breaker guarding snapshot queries."""
        return self._breaker

    def attach_auditor(self, auditor) -> None:
        """Attach a shadow correctness auditor (``None`` detaches).

        The auditor's :meth:`~repro.slo.audit.ShadowAuditor.offer` is
        called with ``(snapshot, source, target, answer, route)`` for
        every exact plain answer served — cache hits included, since a
        poisoned cache is exactly the failure shadow auditing exists to
        catch.  Cost with no auditor attached: one attribute read.
        """
        self._auditor = auditor

    def attach_wal(self, wal) -> None:
        """Attach a :class:`~repro.wal.WriteAheadLog` (``None`` detaches).

        Once attached, every :meth:`apply_updates` batch and
        :meth:`adopt_index` swap appends a record *before* the epoch
        swap, gated by the log's bounded write admission — so an
        acknowledged epoch is always recoverable and an overloaded
        writer path sheds with a typed
        :class:`~repro.errors.WriteBacklogError` instead of queueing
        unboundedly.
        """
        self._wal = wal
        self._wal_applied_lsn = None

    def wal_status(self) -> dict[str, object] | None:
        """The attached WAL's gauge state, or ``None`` when detached."""
        wal = self._wal
        return None if wal is None else wal.status()

    def restore_epoch(self, epoch: int) -> int:
        """Re-stamp the current snapshot at a recovered epoch.

        Startup-recovery only: the service is constructed over the
        replayed graph at epoch 0, then restored to the exact pre-crash
        epoch so clients' epoch provenance (and zookie-style tokens
        above the engine) stay monotone across the restart.
        """
        epoch = int(epoch)
        with self._writer_lock:
            snap = self._snapshot
            if epoch < snap.epoch:
                raise ServiceError(
                    f"cannot restore epoch {epoch} below current {snap.epoch}"
                )
            if epoch != snap.epoch:
                self._snapshot = Snapshot(
                    epoch=epoch,
                    graph=snap.graph,
                    plain=snap.plain,
                    labeled_graph=snap.labeled_graph,
                    labeled=snap.labeled,
                )
                if self._cache is not None:
                    self._cache.invalidate_all()
            return epoch

    def checkpoint_state(self) -> dict[str, object]:
        """A consistent capture for the WAL checkpointer.

        Takes the writer lock only to read immutable references (the
        snapshot graph, the current epoch, the last appended LSN); the
        expensive serialisation happens on the checkpointer's thread.
        Because appends and swaps share this lock, the capture reflects
        every record this service has appended.
        """
        with self._writer_lock:
            snap = self._snapshot
            return {
                "epoch": snap.epoch,
                "labeled": self._labeled_mode,
                "index": self._plain_name,
                "params": dict(self._index_params),
                "graph": snap.labeled_graph if self._labeled_mode else snap.graph,
                "applied_lsn": self._wal_applied_lsn,
            }

    def reach(self, source: int, target: int) -> bool:
        """Plain reachability at the current epoch."""
        return self.reach_ex(source, target).answer

    def reach_ex(self, source: int, target: int) -> QueryResult:
        """Plain reachability with epoch/route provenance."""
        return self._serve((int(source), int(target), None))

    def lreach(self, source: int, target: int, constraint: str) -> bool:
        """Path-constrained reachability at the current epoch."""
        return self.lreach_ex(source, target, constraint).answer

    def lreach_ex(self, source: int, target: int, constraint: str) -> QueryResult:
        """Path-constrained reachability with epoch/route provenance."""
        if not self._labeled_mode:
            raise ServiceError(
                "constrained queries need a service built over a LabeledDiGraph"
            )
        return self._serve((int(source), int(target), str(constraint)))

    def reach_batch(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """Plain reachability for a batch of pairs at one epoch."""
        return [result.answer for result in self.execute_batch(pairs)]

    def execute_batch(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[QueryResult]:
        """Answer a batch of plain pairs against ONE snapshot, amortised.

        The batch is deduplicated, the result cache probed per distinct
        pair, and *all* remaining misses go to the index's
        ``query_batch`` in a single call, so the bit-parallel kernels
        (shared traversal frontiers, bound-once label merges) see the
        whole batch at once.  Every result carries the same epoch.
        """
        start = time.perf_counter()
        snap = self._snapshot
        epoch = snap.epoch
        with TRACER.span("service.batch", epoch=epoch, pairs=len(pairs)) as span:
            unique, back_refs = dedupe([(int(s), int(t), None) for s, t in pairs])
            results = [
                QueryResult(answer, epoch, route)
                for answer, route, _ in self._read(snap, unique, self._evaluate_batch)
            ]
            cache_hits = sum(results[slot].route == "cache" for slot in back_refs)
            computed = sum(result.route == "plain_index" for result in results)
            span.annotate(cache_hits=cache_hits, computed=computed)
            self._batch_requests.increment()
            self._batch_pairs.increment(len(pairs))
            self._batch_cache_hits.increment(cache_hits)
            self._batch_computed.increment(computed)
            self._batch_size.observe(float(len(pairs)))
            self._batch_latency.observe(time.perf_counter() - start)
        return [results[slot] for slot in back_refs]

    def explain(self, source: int, target: int) -> Explanation:
        """The routed decision path a plain query takes at this epoch.

        Runs the same guarded pipeline as :meth:`reach_ex` with the
        index's own :meth:`~repro.core.base.ReachabilityIndex.explain`
        as the evaluation step — so ``cache``, ``degraded`` and
        ``deadline_abort`` are reported exactly when ``reach_ex`` would
        take them — but populates no cache, bumps no route counter and
        offers nothing to the auditor.
        """
        snap = self._snapshot
        s, t = int(source), int(target)
        [(answer, route, inner)] = self._read(
            snap, ((s, t, None),), self._evaluate_explained, effects=False
        )
        served = f"served from snapshot epoch {snap.epoch}"
        if inner is not None:
            return replace(inner, details=(*inner.details, served))
        if route == "cache":
            details = (f"result cache hit at epoch {snap.epoch}",)
        elif route == "degraded":
            details = (
                f"index unavailable (circuit breaker {self._breaker.state}) — "
                "bounded label probe only, no traversal",
                served,
            )
        else:
            details = ("deadline expired mid-evaluation — answer UNKNOWN", served)
        return Explanation(
            index=snap.plain.metadata.name,
            source=s,
            target=t,
            answer=answer,
            route=route,
            probe=None,
            details=details,
        )

    # -- query evaluation ------------------------------------------------
    def _serve(self, key: tuple[int, int, str | None]) -> QueryResult:
        start = time.perf_counter()
        snap = self._snapshot
        if not TRACER.enabled:
            # Same steps as below minus the span: no kwargs dict, null
            # context manager or ``annotate`` call per request.
            [(answer, route, shared)] = self._read(
                snap, (key,), self._evaluate_coalesced
            )
            self._route_latency[route].observe(time.perf_counter() - start)
            return QueryResult(answer, snap.epoch, route, bool(shared))
        with TRACER.span(
            "service.query", epoch=snap.epoch, source=key[0], target=key[1]
        ) as span:
            [(answer, route, shared)] = self._read(
                snap, (key,), self._evaluate_coalesced
            )
            self._route_latency[route].observe(time.perf_counter() - start)
            span.annotate(route=route, answer=answer)
            return QueryResult(answer, snap.epoch, route, bool(shared))

    def _read(self, snap: Snapshot, keys, evaluate, effects: bool = True) -> list:
        """The one guarded read pipeline every read surface runs through.

        Key validation → cache probe → breaker gate →
        ``evaluate(snap, misses)`` →
        (deadline expiry → ``deadline_abort`` | index failure → breaker
        failure + bounded probe) → cache put / route counters / shadow
        audit.  ``keys`` are distinct ``(source, target, constraint)``
        triples; ``evaluate`` receives the cache misses and returns one
        ``(answer, route, extra)`` per miss; the pipeline returns one
        such outcome per key.

        ``effects=False`` (explain) leaves cache contents, counters and
        the auditor alone.  The breaker outcome is reported either way:
        ``allow`` may hand out the single half-open trial, and a trial
        that never reports back would wedge the breaker.
        """
        # Caller mistakes stay errors whatever the breaker state: checked
        # here, once, so the healthy, open-breaker and index-raises paths
        # agree and the degraded probe below may skip the check.
        n = snap.graph.num_vertices
        for source, target, _constraint in keys:
            if not (0 <= source < n and 0 <= target < n):
                raise QueryError(
                    f"query ({source}, {target}) out of range for |V|={n}"
                )
        epoch = snap.epoch
        cache = self._cache
        outcomes: list = []
        todo = keys
        if cache is not None:
            get = cache.get
            todo = []
            for key in keys:
                hit = get(key, epoch)
                if hit is MISS:
                    todo.append(key)
                    outcomes.append(None)  # filled from ``computed`` below
                else:
                    outcomes.append((bool(hit), "cache", None))
        if todo:
            computed = None  # stays None when the index is unavailable
            fresh = False
            breaker = self._breaker
            if breaker.allow():
                try:
                    computed = evaluate(snap, todo)
                except DeadlineExceeded:
                    # The request's own budget ran out; not an index-health
                    # signal, so the breaker is untouched.  Cache hits stand;
                    # every unanswered key is UNKNOWN, not a guess.
                    global_registry().counter("resilience.deadline.aborts").increment()
                    computed = [(None, "deadline_abort", None)] * len(todo)
                except (QueryError, ServiceError):
                    raise  # caller mistakes stay errors (bad vertex, bad mode)
                except Exception:
                    # The snapshot index misbehaved: count it against the
                    # breaker and degrade to bounded probes, not a traceback.
                    breaker.record_failure()
                else:
                    breaker.record_success()
                    fresh = effects and cache is not None
            if computed is None:
                computed = [
                    (self._degraded_probe(snap, key), "degraded", None)
                    for key in todo
                ]
            if len(todo) == len(keys):  # nothing was cached
                outcomes = computed
            else:
                filled = iter(computed)
                outcomes = [
                    next(filled) if outcome is None else outcome
                    for outcome in outcomes
                ]
            if fresh:
                put = cache.put
                for key, outcome in zip(todo, computed):
                    put(key, epoch, outcome[0])
        if effects:
            # Every exact plain answer is offered to the shadow auditor
            # whatever route served it — a poisoned cache or a lying
            # degraded certificate is what it exists to catch; UNKNOWNs
            # are counted, never offered.
            auditor = self._auditor
            counts: dict[str, int] = {}
            unknowns = 0
            for key, (answer, route, _extra) in zip(keys, outcomes):
                counts[route] = counts.get(route, 0) + 1
                if answer is None:
                    unknowns += 1
                elif auditor is not None and key[2] is None:
                    auditor.offer(snap, key[0], key[1], answer, route)
            for route, count in counts.items():
                self._route_counters[route].increment(count)
            if unknowns:
                self._metrics.counter("service.unknowns").increment(unknowns)
        return outcomes

    def _degraded_probe(self, snap: Snapshot, key: tuple[int, int, str | None]):
        """The three-valued lookup-only fallback: bool when a certificate
        exists, ``None`` (UNKNOWN) otherwise.

        Never escalates to traversal — the whole point of degrading is
        bounding work — so a partial index's MAYBE surfaces as UNKNOWN,
        and constrained queries (which have no cheap probe) are UNKNOWN
        outright.
        """
        source, target, constraint = key
        if source == target:
            return True
        if constraint is not None:
            return None
        try:
            probe = snap.plain._lookup(source, target)
        except Exception:
            return None
        if probe is TriState.YES:
            return True
        if probe is TriState.NO:
            return False
        return None

    # -- the evaluation steps the pipeline plugs in ------------------------
    def _evaluate_coalesced(self, snap: Snapshot, keys):
        """Scalar evaluation, identical in-flight keys sharing one flight."""
        outcomes = []
        for key in keys:
            if self._coalescer is not None:
                result, shared = self._coalescer.run(
                    (key, snap.epoch), lambda: self._evaluate(snap, key)
                )
            else:
                result, shared = self._evaluate(snap, key), False
            outcomes.append((*result, shared))
        return outcomes

    def _evaluate_batch(self, snap: Snapshot, keys):
        """One ``query_batch`` over all the (plain) keys."""
        answers = snap.plain.query_batch([(s, t) for s, t, _ in keys])
        return [(answer, "plain_index", None) for answer in answers]

    def _evaluate_explained(self, snap: Snapshot, keys):
        """The index's routed result, kept whole for the formatter."""
        explanations = [snap.plain.explain(s, t) for s, t, _ in keys]
        return [(inner.answer, inner.route, inner) for inner in explanations]

    def _evaluate(self, snap: Snapshot, key: tuple[int, int, str | None]) -> tuple[bool, str]:
        # Inside the timed region, so injected delays land in the
        # service.latency.* histograms the SLO tracker watches.
        chaos_point("service.query")
        source, target, constraint = key
        if constraint is None:
            return snap.plain.query(source, target), "plain_index"
        route, node = classify_constraint(constraint)
        if route == "alternation" and snap.labeled is not None:
            return snap.labeled.query(source, target, node), "labeled_index"
        # Concatenation (no RLC maintained here) and §5's uncovered
        # shapes both fall back to automaton-guided traversal.
        return rpq_reachable(snap.labeled_graph, source, target, node), "traversal"

    # -- writer API ------------------------------------------------------
    def apply_updates(self, ops: Sequence[EdgeOp | LabeledEdgeOp]) -> int:
        """Apply one update batch and swap in the next epoch.

        Accepts :class:`EdgeOp` streams in plain mode and
        :class:`LabeledEdgeOp` streams in labeled mode (the
        :mod:`repro.workloads.updates` generators).  Serialised across
        callers by an internal writer lock; returns the new epoch.
        """
        ops = list(ops)
        wal = self._wal
        gate = wal.admitted() if wal is not None else nullcontext()
        with gate, self._writer_lock:
            rows = self._op_rows(ops)
            new_snap = self._next_snapshot(self._snapshot, rows)
            if wal is not None:
                # Durability point: the record must be on the log before
                # the swap makes the epoch observable (and before the
                # caller can acknowledge it).  A failed append aborts the
                # whole batch — no swap, no ack, nothing to lose.
                self._wal_applied_lsn = wal.append(
                    "labeled_update" if self._labeled_mode else "update",
                    {"epoch": new_snap.epoch, "ops": rows},
                )
            self._snapshot = new_snap
            if self._cache is not None:
                self._cache.invalidate_all()
            self._metrics.counter("service.swaps").increment()
            self._metrics.counter("service.updates_applied").increment(len(ops))
            return new_snap.epoch

    def adopt_index(
        self,
        name: str,
        params: dict[str, object] | None = None,
        *,
        prebuilt: ReachabilityIndex | None = None,
        expected_epoch: int | None = None,
    ) -> int | None:
        """Swap the serving plain family live; returns the new epoch.

        The graph is untouched — only the index changes — so readers
        keep answering against the old snapshot until the atomic swap,
        and every in-flight query stays exact at its own epoch.

        ``prebuilt`` lets a caller (the advisor loop) build the new
        index *off* the writer lock over a snapshot's immutable graph
        and hand it in; ``expected_epoch`` then makes the swap
        conditional — if updates moved the epoch while the build ran,
        the stale index is rejected and ``None`` is returned so the
        caller can retry against the fresh snapshot.  With no
        ``prebuilt``, the index is built under the lock (small graphs,
        tests).
        """
        params = dict(params or {})
        plain_index_cls(name)  # validate the family name before locking
        with self._writer_lock:
            snap = self._snapshot
            if expected_epoch is not None and snap.epoch != expected_epoch:
                self._metrics.counter("service.advisor.stale_builds").increment()
                return None
            if prebuilt is not None and prebuilt.graph is not snap.graph:
                # Built over some other graph object: adopting it would
                # serve answers about a graph we are not serving.
                self._metrics.counter("service.advisor.stale_builds").increment()
                return None
            plain = (
                prebuilt
                if prebuilt is not None
                else build_plain(name, snap.graph, **params)
            )
            if self._wal is not None:
                self._wal_applied_lsn = self._wal.append(
                    "adopt",
                    {"epoch": snap.epoch + 1, "index": name, "params": params},
                )
            self._plain_name = name
            self._index_params = params
            self._snapshot = Snapshot(
                epoch=snap.epoch + 1,
                graph=snap.graph,
                plain=plain,
                labeled_graph=snap.labeled_graph,
                labeled=snap.labeled,
            )
            if self._cache is not None:
                self._cache.invalidate_all()
            self._metrics.counter("service.swaps").increment()
            self._metrics.counter("service.advisor.adoptions").increment()
            return self._snapshot.epoch

    def _op_rows(self, ops: list[EdgeOp | LabeledEdgeOp]) -> list[list]:
        """Type-check a batch against the service mode and flatten it to
        ``[kind, source, target]`` (plain) / ``[kind, source, target,
        label]`` (labeled) rows — the form the writer applies and the WAL
        stores (JSON arrays, unpacked positionally by
        :mod:`repro.wal.recovery`)."""
        expected = LabeledEdgeOp if self._labeled_mode else EdgeOp
        rows: list[list] = []
        for op in ops:
            if not isinstance(op, expected):
                raise ServiceError(
                    f"{'labeled' if self._labeled_mode else 'plain'}-mode service "
                    f"takes {expected.__name__} updates, got {type(op).__name__}"
                )
            row = [op.kind, op.source, op.target]
            if self._labeled_mode:
                row.append(op.label)
            rows.append(row)
        return rows

    def _next_snapshot(self, snap: Snapshot, rows: list[list]) -> Snapshot:
        """The next epoch: patch the dynamic index, else apply and rebuild."""
        patched = self._try_patch(snap, rows)
        if patched is not None:
            graph = patched.graph
            self._metrics.counter("service.patches").increment()
        else:
            served = snap.labeled_graph if self._labeled_mode else snap.graph
            graph = served.copy()
            apply_op_rows(rows, graph.add_edge, graph.remove_edge)
            self._metrics.counter("service.rebuilds").increment()
        if self._labeled_mode:
            return self._labeled_snapshot(snap.epoch + 1, graph, constrained=patched)
        plain = patched if patched is not None else self._build_plain(graph)
        return Snapshot(epoch=snap.epoch + 1, graph=graph, plain=plain)

    def _try_patch(self, snap: Snapshot, rows: list[list]):
        """Incrementally patch a deep copy of the dynamic index, or None.

        The patched index is the constrained one in labeled mode, the
        plain one otherwise; :func:`repro.core.patch.patched_copy` is
        the mechanism (cheap rejections, a ``copy.deepcopy`` whose graph
        is copy-on-write, the family's own refusals, the sampled oracle
        audit), shared with :class:`repro.authz.AuthzStore`.  ``None``
        sends the batch down the rebuild path, which raises the same
        :class:`~repro.errors.GraphError` a caller would have seen (or
        condenses).
        """
        if self._rebuild_policy == "always":
            return None
        patched, _reason = patched_copy(
            snap.labeled if self._labeled_mode else snap.plain,
            lambda index: apply_op_rows(rows, index.insert_edge, index.delete_edge),
            deletes=any(row[0] != "insert" for row in rows),
            epoch=snap.epoch + 1,
            metrics=self._metrics,
            prefix="service",
            audit_pairs=self._patch_audit_pairs,
            labeled=self._labeled_mode,
        )
        return patched

    # -- observability ---------------------------------------------------
    def metrics_dict(self) -> dict[str, object]:
        """Counters, histograms, cache and coalescer state as one dict.

        Route-attribution counters from the index core (``index.route.*``)
        and planner tallies (``gdbms.*``) live in the process-wide
        registry; they are merged in under their own top-level keys so
        one scrape shows the whole decision path.
        """
        root = self._metrics.as_dict()
        for key, value in global_registry().as_dict().items():
            root.setdefault(key, value)
        service = root.setdefault("service", {})
        assert isinstance(service, dict)
        service["epoch"] = self.epoch
        service["mode"] = "labeled" if self._labeled_mode else "plain"
        service["index"] = self._plain_name
        service["backend"] = accel.backend_name()
        if self._cache is not None:
            stats = self._cache.statistics()
            root["cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "invalidated_entries": stats.invalidated_entries,
                "invalidation_cycles": stats.invalidation_cycles,
                "size": stats.size,
                "capacity": stats.capacity,
                "hit_rate": stats.hit_rate(),
            }
        if self._coalescer is not None:
            root["coalescer"] = {
                "led": self._coalescer.led,
                "coalesced": self._coalescer.coalesced,
            }
        root["breaker"] = self._breaker.snapshot()
        return root

    def metrics_text(self) -> str:
        """Flat ``name value`` exposition of :meth:`metrics_dict`."""
        lines: list[str] = []

        def walk(prefix: str, node: object) -> None:
            if isinstance(node, dict):
                for key, value in sorted(node.items()):
                    walk(f"{prefix}_{key}" if prefix else str(key), value)
            elif isinstance(node, bool):
                lines.append(f"{prefix} {int(node)}")
            elif isinstance(node, float):
                lines.append(f"{prefix} {node:.9f}")
            elif isinstance(node, int):
                lines.append(f"{prefix} {node}")
            else:
                lines.append(f'{prefix} "{node}"')

        walk("", self.metrics_dict())
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        snap = self._snapshot
        return (
            f"ReachabilityService(epoch={snap.epoch}, index={self._plain_name!r}, "
            f"|V|={snap.graph.num_vertices}, |E|={snap.graph.num_edges}, "
            f"mode={'labeled' if self._labeled_mode else 'plain'})"
        )
