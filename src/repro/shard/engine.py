"""The two-level sharded reachability index.

``ShardedIndex`` bounds per-structure index size (the FERRARI lever the
survey's §6 scalability discussion points at) by splitting a DAG into
``k`` shards with :func:`repro.shard.partition.partition_dag`, building
any registered plain family *independently per shard*, and lifting the
endpoints of cut edges into a **boundary summary graph** whose
transitive structure gets its own index:

* the boundary graph's vertices are the cut-edge endpoints;
* its edges are the cut edges themselves plus, per shard, a closure edge
  ``b → b'`` for every pair of that shard's boundary vertices with
  ``b ⇝ b'`` inside the shard (computed by one bit-parallel
  :func:`~repro.kernels.reach_masks` sweep per shard).

A query then resolves in two levels.  ``s ⇝ t`` holds iff it holds
intra-shard (same shard, shard-local index answers YES) **or** some
out-border ``b`` of ``s`` reaches some in-border ``b'`` of ``t`` in the
boundary graph — because any path crossing shards enters the boundary at
its first cut edge and leaves it at its last, and every intra-shard hop
between boundary vertices is a closure edge.  Same-shard pairs whose
local index answers NO still fall through to the boundary composition: a
path may exit the shard and re-enter it.

Shard builds run one after another in the calling process, each retried
on transient failure; ``executor="process"`` hands them to a process
pool instead, which pays off once the shards are large enough to amortise
pickling them across (docs/SHARDING.md has the race).  Every shard's
:class:`~repro.obs.build.BuildReport` is aggregated into one
:class:`ShardBuildReport`.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

from repro.core.base import IndexMetadata, ReachabilityIndex, TriState
from repro.core.registry import plain_index, register_plain
from repro.errors import IndexBuildError
from repro.graphs.digraph import DiGraph
from repro.kernels import csr_of, reach_masks
from repro.obs.build import BuildReport, build_phase
from repro.obs.metrics import global_registry
from repro.obs.tracer import TRACER
from repro.resilience.chaos import chaos_point
from repro.resilience.deadline import current_deadline
from repro.resilience.retry import retry_call
from repro.shard.partition import Partition, partition_dag

__all__ = ["ShardBuildReport", "ShardedIndex"]

#: Boundary sources advanced per closure sweep (one big-int wave).
_CLOSURE_WAVE = 512


@dataclass(frozen=True)
class ShardBuildReport:
    """The aggregated construction breakdown of one sharded build.

    Per-shard :class:`~repro.obs.build.BuildReport` objects (produced by
    the standard build instrumentation inside each worker) are collected
    next to the partition/boundary stage timings, so one object answers
    both "where did the wall-clock go" and "what did each shard cost".
    """

    family: str
    num_shards: int
    executor: str
    workers: int
    partition_seconds: float
    shard_build_seconds: float
    boundary_seconds: float
    total_seconds: float
    shard_sizes: tuple[int, ...]
    cut_edges: int
    boundary_vertices: int
    boundary_edges: int
    shard_reports: tuple[BuildReport | None, ...]
    boundary_report: BuildReport | None
    #: Build attempts each shard needed (1 = first try; >1 = retried).
    shard_attempts: tuple[int, ...] = field(default=())

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable plain data (the BENCH_shard.json shape)."""
        return {
            "family": self.family,
            "num_shards": self.num_shards,
            "executor": self.executor,
            "workers": self.workers,
            "partition_seconds": self.partition_seconds,
            "shard_build_seconds": self.shard_build_seconds,
            "boundary_seconds": self.boundary_seconds,
            "total_seconds": self.total_seconds,
            "shard_sizes": list(self.shard_sizes),
            "cut_edges": self.cut_edges,
            "boundary_vertices": self.boundary_vertices,
            "boundary_edges": self.boundary_edges,
            "shard_reports": [
                report.as_dict() if report is not None else None
                for report in self.shard_reports
            ],
            "boundary_report": (
                self.boundary_report.as_dict()
                if self.boundary_report is not None
                else None
            ),
            "shard_attempts": list(self.shard_attempts),
        }

    def render_text(self) -> str:
        """An indented per-stage / per-shard breakdown for the CLI."""
        lines = [
            f"Sharded[{self.family} x{self.num_shards}] built in "
            f"{self.total_seconds * 1e3:.2f}ms ({self.executor}, "
            f"{self.workers} workers)",
            f"  partition: {self.partition_seconds * 1e3:.2f}ms  "
            f"[cut_edges={self.cut_edges} boundary={self.boundary_vertices}]",
            f"  shard builds: {self.shard_build_seconds * 1e3:.2f}ms",
        ]
        for number, report in enumerate(self.shard_reports):
            if report is None:
                continue
            size = self.shard_sizes[number] if number < len(self.shard_sizes) else "?"
            attempts = (
                self.shard_attempts[number]
                if number < len(self.shard_attempts)
                else 1
            )
            lines.append(
                f"    shard {number} (|V|={size}): "
                f"{report.total_seconds * 1e3:.2f}ms"
                + (
                    f", {report.entries:,} entries"
                    if report.entries is not None
                    else ""
                )
                + (f", {attempts} attempts" if attempts > 1 else "")
            )
        lines.append(
            f"  boundary: {self.boundary_seconds * 1e3:.2f}ms  "
            f"[edges={self.boundary_edges}]"
        )
        return "\n".join(lines)


#: Default per-shard build attempts (first try + retries with backoff).
_BUILD_ATTEMPTS = 3
#: Backoff bounds for shard-build retries (kept tiny: builds dominate).
_RETRY_BASE_DELAY_S = 0.005
_RETRY_MAX_DELAY_S = 0.1


def _build_one_shard(family: str, graph: DiGraph) -> ReachabilityIndex:
    """Build one shard's inner index (module-level: process-pool picklable).

    ``shard.build_worker`` is a chaos injection point: an installed
    policy can delay or kill this worker to exercise the retry path.
    """
    chaos_point("shard.build_worker")
    return plain_index(family).build(graph)


def _build_with_retry(
    family: str,
    graph: DiGraph,
    attempts: int,
    rng: random.Random,
) -> tuple[ReachabilityIndex, int]:
    """One shard build with seeded exponential-backoff retries.

    Returns ``(index, attempts_used)``.  The final failure propagates
    unchanged (a persistent fault must surface as a typed error, not a
    silent gap in the shard list).
    """
    return retry_call(
        lambda: _build_one_shard(family, graph),
        attempts=attempts,
        base_delay_s=_RETRY_BASE_DELAY_S,
        max_delay_s=_RETRY_MAX_DELAY_S,
        rng=rng,
        on_retry=lambda _attempt, _exc: global_registry()
        .counter("shard.build.retries")
        .increment(),
    )


def _run_builds(
    family: str,
    graphs: Sequence[DiGraph],
    executor: str,
    workers: int,
    attempts: int = _BUILD_ATTEMPTS,
    retry_seed: int = 0,
) -> tuple[list[ReachabilityIndex], list[int]]:
    """Build every shard's index; returns ``(indexes, attempt_counts)``.

    The process pool ships each shard subgraph to a worker and the built
    index back.  When it cannot run — no fork/semaphores, or a worker
    died mid-build (``BrokenExecutor``) — the whole wave is rebuilt by
    the in-process loop, so a one-off crash costs parallelism, never
    correctness.
    """
    if executor == "process" and len(graphs) > 1 and workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                indexes = list(
                    pool.map(_build_one_shard, [family] * len(graphs), graphs)
                )
            return indexes, [1] * len(graphs)
        except (OSError, ValueError, BrokenExecutor):
            global_registry().counter("shard.build.pool_fallbacks").increment()
    built = [
        _build_with_retry(
            family,
            graph,
            attempts,
            random.Random(f"shard-retry:{retry_seed}:{shard}"),
        )
        for shard, graph in enumerate(graphs)
    ]
    return [index for index, _ in built], [used for _, used in built]


@register_plain
class ShardedIndex(ReachabilityIndex):
    """Partitioned two-level reachability index over a DAG.

    ``build(graph, family="PLL", num_shards=4)`` conforms to the core
    index API — complete (never MAYBE), DAG input like the families it
    wraps (lift cyclic graphs with
    :class:`~repro.core.condensed.CondensedIndex` as usual).  ``family``
    names any registered plain index; each shard and the boundary graph
    get their own instance of it.
    """

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="Sharded",
        framework="-",
        complete=True,
        input_kind="DAG",
        dynamic="no",
    )
    # Scalar queries keep the ``shard.query`` / ``shard.route.*`` names.
    _obs_namespace: ClassVar[str] = "shard"

    def __init__(
        self,
        graph: DiGraph,
        partition: Partition,
        family: str,
        shard_graphs: list[DiGraph],
        shard_indexes: list[ReachabilityIndex],
        local_of: list[int],
        shard_globals: list[list[int]],
        boundary_graph: DiGraph | None,
        boundary_index: ReachabilityIndex | None,
        boundary_globals: list[int],
    ) -> None:
        super().__init__(graph)
        self._partition = partition
        self._family = family
        self._shard_graphs = shard_graphs
        self._shard_indexes = shard_indexes
        self._shard_of = list(partition.shard_of)
        self._local_of = local_of
        self._shard_globals = shard_globals
        self._boundary_graph = boundary_graph
        self._boundary_index = boundary_index
        self._boundary_globals = boundary_globals
        self._bid_of = {g: b for b, g in enumerate(boundary_globals)}
        borders: list[list[int]] = [[] for _ in range(partition.num_shards)]
        for g in boundary_globals:
            borders[self._shard_of[g]].append(g)
        self._shard_borders = borders
        # Per-vertex border memoisation (query-time only; dropped on pickle).
        self._out_cache: dict[int, tuple[int, ...]] = {}
        self._in_cache: dict[int, tuple[int, ...]] = {}
        self._pair_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
        self.shard_build_report: ShardBuildReport | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        family: str = "PLL",
        num_shards: int = 4,
        refine_passes: int = 2,
        executor: str = "serial",
        workers: int | None = None,
        build_attempts: int = _BUILD_ATTEMPTS,
        retry_seed: int = 0,
    ) -> "ShardedIndex":
        """Partition ``graph``, build ``family`` per shard, index the boundary.

        ``executor`` is ``"serial"`` (default: one shard after another,
        in this process) or ``"process"`` (a pool of ``workers``
        processes, default ``min(num_shards, cpu_count)``; shard graphs
        and built indexes cross the pickle boundary, so it only wins on
        large graphs).  Transient per-shard build failures in the loop
        retry up to ``build_attempts`` times with seeded exponential
        backoff (``retry_seed`` makes the schedule replayable);
        per-shard attempt counts land in the :class:`ShardBuildReport`.
        """
        if family == cls.metadata.name:
            raise IndexBuildError("a sharded index cannot shard itself")
        if executor not in ("serial", "process"):
            raise IndexBuildError(
                f"executor must be 'serial' or 'process', got {executor!r}"
            )
        plain_index(family)  # fail fast on unknown families
        t_start = time.perf_counter()
        with build_phase("partition") as ph:
            partition = partition_dag(graph, num_shards, refine_passes)
            ph.annotate(
                shards=partition.num_shards,
                cut_edges=len(partition.cut_edges),
                moves=partition.refinement_moves,
            )
        t_partition = time.perf_counter()
        k = partition.num_shards
        if workers is None:
            workers = max(1, min(k, os.cpu_count() or 1))
        with build_phase("shard-extract") as ph:
            shard_graphs, local_of, shard_globals = _extract_shards(
                graph, partition
            )
            ph.annotate(sizes=list(partition.shard_sizes))
        with build_phase("shard-builds") as ph:
            shard_indexes, shard_attempts = _run_builds(
                family,
                shard_graphs,
                executor,
                workers,
                attempts=build_attempts,
                retry_seed=retry_seed,
            )
            ph.annotate(
                family=family,
                shards=k,
                executor=executor,
                workers=workers,
            )
        t_builds = time.perf_counter()
        with build_phase("boundary-graph") as ph:
            boundary_graph, boundary_globals = _boundary_graph(
                graph, partition, shard_graphs, local_of, shard_globals
            )
            ph.annotate(
                vertices=boundary_graph.num_vertices,
                edges=boundary_graph.num_edges,
            )
        boundary_index: ReachabilityIndex | None = None
        if boundary_graph.num_vertices:
            # Observed as a nested build: shows up as a child phase.
            boundary_index = plain_index(family).build(boundary_graph)
        t_boundary = time.perf_counter()
        index = cls(
            graph,
            partition,
            family,
            shard_graphs,
            shard_indexes,
            local_of,
            shard_globals,
            boundary_graph if boundary_graph.num_vertices else None,
            boundary_index,
            boundary_globals,
        )
        index.shard_build_report = ShardBuildReport(
            family=family,
            num_shards=k,
            executor=executor,
            workers=workers,
            partition_seconds=t_partition - t_start,
            shard_build_seconds=t_builds - t_partition,
            boundary_seconds=t_boundary - t_builds,
            total_seconds=t_boundary - t_start,
            shard_sizes=partition.shard_sizes,
            cut_edges=len(partition.cut_edges),
            boundary_vertices=len(boundary_globals),
            boundary_edges=boundary_graph.num_edges,
            shard_reports=tuple(
                inner.build_report for inner in shard_indexes
            ),
            boundary_report=(
                boundary_index.build_report if boundary_index is not None else None
            ),
            shard_attempts=tuple(shard_attempts),
        )
        registry = global_registry()
        registry.counter("shard.build.builds").increment()
        registry.counter("shard.build.shards").increment(k)
        registry.counter("shard.build.cut_edges").increment(
            len(partition.cut_edges)
        )
        return index

    # -- introspection ----------------------------------------------------
    @property
    def partition(self) -> Partition:
        """The vertex→shard assignment this index was built over."""
        return self._partition

    @property
    def family(self) -> str:
        """The inner plain family built per shard and over the boundary."""
        return self._family

    @property
    def shards(self) -> tuple[ReachabilityIndex, ...]:
        """The per-shard inner indexes (local vertex ids)."""
        return tuple(self._shard_indexes)

    @property
    def boundary_index(self) -> ReachabilityIndex | None:
        """The index over the boundary summary graph (None without cuts)."""
        return self._boundary_index

    @property
    def boundary_graph(self) -> DiGraph | None:
        """The boundary summary graph (None without cut edges)."""
        return self._boundary_graph

    # -- probing ----------------------------------------------------------
    def _lookup(self, source: int, target: int) -> TriState:
        """Exact probe: the two-level composition never answers MAYBE."""
        return TriState.YES if self._routed_answer(source, target)[0] else TriState.NO

    def _query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """Batched two-level resolution.

        Same-shard pairs go through each shard index's own
        ``query_batch`` (one call per touched shard, so the PR 2 kernels
        see whole sub-batches); pairs the shard answers NO — plus all
        cross-shard pairs — resolve through one batched border
        composition against the boundary index.
        """
        answers: list[bool | None] = [None] * len(pairs)
        shard_of = self._shard_of
        local_of = self._local_of
        by_shard: dict[int, list[int]] = {}
        escalate: list[int] = []
        trivial = 0
        for position, (s, t) in enumerate(pairs):
            if s == t:
                answers[position] = True
                trivial += 1
            elif shard_of[s] == shard_of[t]:
                by_shard.setdefault(shard_of[s], []).append(position)
            else:
                escalate.append(position)
        deadline = current_deadline()
        intra_hits = 0
        for shard, positions in by_shard.items():
            if deadline is not None:
                deadline.check()
            local_pairs = [
                (local_of[pairs[i][0]], local_of[pairs[i][1]]) for i in positions
            ]
            local_answers = self._shard_indexes[shard].query_batch(local_pairs)
            for position, answer in zip(positions, local_answers):
                if answer:
                    answers[position] = True
                    intra_hits += 1
                elif self._boundary_index is None:
                    answers[position] = False  # no cuts: intra NO is final
                    intra_hits += 1
                else:
                    escalate.append(position)
        composed = 0
        cached = 0
        if escalate:
            composed, cached = self._compose_batch(pairs, escalate, answers)
        if TRACER.enabled:
            registry = global_registry()
            if trivial:
                registry.counter("shard.route.trivial").increment(trivial)
            if intra_hits:
                registry.counter("shard.route.intra_shard").increment(intra_hits)
            if composed:
                registry.counter("shard.route.cross_shard").increment(composed)
            if cached:
                registry.counter("shard.route.boundary_cache").increment(cached)
        return answers  # type: ignore[return-value]

    # -- resolution core ---------------------------------------------------
    def _routed_answer(
        self, source: int, target: int
    ) -> tuple[bool, str, TriState | None]:
        """The two-level evaluator: shard-local first, then the boundary.

        ``intra_shard`` when the shard-local index decided,
        ``cross_shard`` for a fresh boundary composition,
        ``boundary_cache`` when that composition was memoised for this
        border pair.
        """
        if source == target:
            return True, "trivial", None
        shard = self._shard_of[source]
        if shard == self._shard_of[target]:
            local = self._local_of
            if self._shard_indexes[shard].query(local[source], local[target]):
                return True, "intra_shard", TriState.YES
            if self._boundary_index is None:
                return False, "intra_shard", TriState.NO
        answer, route = self._compose(source, target)
        return answer, route, TriState.YES if answer else TriState.NO

    def _route_details(
        self, source: int, target: int, route: str, probe: TriState | None
    ) -> tuple[str, ...]:
        if route == "trivial":
            return super()._route_details(source, target, route, probe)
        shard_s = self._shard_of[source]
        shard_t = self._shard_of[target]
        if route == "intra_shard":
            if probe is TriState.YES:
                return (
                    f"shard {shard_s}: the shard-local {self._family} index "
                    "answered yes",
                )
            return (
                f"shard {shard_s}: shard-local no is final "
                "(no cut edges, paths cannot leave the shard)",
            )
        if shard_s == shard_t:
            head = (
                f"shard {shard_s}: shard-local probe answered no; "
                "checking exit-and-re-enter paths through the boundary"
            )
        else:
            head = f"cross-shard: shard({source})={shard_s}, shard({target})={shard_t}"
        if self._boundary_index is None:
            return head, "no cut edges: distinct shards are mutually unreachable"
        # Both border sets were memoised by the evaluation being explained.
        out = self._out_borders(source)
        into = self._in_borders(target)
        if not out or not into:
            side = "source has no out-borders" if not out else "target has no in-borders"
            return head, f"boundary composition: {side}"
        if route == "boundary_cache":
            return head, (
                "boundary composition memoised for this border pair "
                f"(|out|={len(out)}, |in|={len(into)})"
            )
        return head, (
            f"boundary composition over |out|={len(out)} x |in|={len(into)} "
            f"border pairs answered {probe.value}"
        )

    def _out_borders(self, source: int) -> tuple[int, ...]:
        """Boundary ids (in boundary-graph numbering) reachable from
        ``source`` without leaving its shard."""
        cached = self._out_cache.get(source)
        if cached is not None:
            return cached
        shard = self._shard_of[source]
        borders = self._shard_borders[shard]
        if not borders:
            result: tuple[int, ...] = ()
        else:
            local = self._local_of
            index = self._shard_indexes[shard]
            hits = index.query_batch(
                [(local[source], local[b]) for b in borders]
            )
            result = tuple(
                self._bid_of[b] for b, hit in zip(borders, hits) if hit
            )
        self._out_cache[source] = result
        return result

    def _in_borders(self, target: int) -> tuple[int, ...]:
        """Boundary ids that reach ``target`` without leaving its shard."""
        cached = self._in_cache.get(target)
        if cached is not None:
            return cached
        shard = self._shard_of[target]
        borders = self._shard_borders[shard]
        if not borders:
            result: tuple[int, ...] = ()
        else:
            local = self._local_of
            index = self._shard_indexes[shard]
            hits = index.query_batch(
                [(local[b], local[target]) for b in borders]
            )
            result = tuple(
                self._bid_of[b] for b, hit in zip(borders, hits) if hit
            )
        self._in_cache[target] = result
        return result

    def _compose(self, source: int, target: int) -> tuple[bool, str]:
        """The boundary composition: out-borders ⇝ in-borders, memoised."""
        if self._boundary_index is None:
            return False, "cross_shard"
        deadline = current_deadline()
        if deadline is not None:
            deadline.check()
        out = self._out_borders(source)
        into = self._in_borders(target)
        if not out or not into:
            return False, "cross_shard"
        key = (out, into)
        hit = self._pair_cache.get(key)
        if hit is not None:
            return hit, "boundary_cache"
        answer = any(
            self._boundary_index.query_batch(
                [(b_out, b_in) for b_out in out for b_in in into]
            )
        )
        self._pair_cache[key] = answer
        return answer, "cross_shard"

    def _compose_batch(
        self,
        pairs: Sequence[tuple[int, int]],
        positions: list[int],
        answers: list[bool | None],
    ) -> tuple[int, int]:
        """Resolve escalated positions via one batched border composition.

        Returns ``(composed, cache_hits)`` for route accounting.
        """
        boundary = self._boundary_index
        if boundary is None:
            for position in positions:
                answers[position] = False
            return len(positions), 0
        deadline = current_deadline()
        if deadline is not None:
            deadline.check()
        # Fill the per-vertex border caches with one shard-index batch per
        # touched shard (all sources of one shard share a call; same for
        # targets) instead of one call per vertex.
        self._fill_border_caches(
            {pairs[i][0] for i in positions if pairs[i][0] not in self._out_cache},
            outgoing=True,
        )
        self._fill_border_caches(
            {pairs[i][1] for i in positions if pairs[i][1] not in self._in_cache},
            outgoing=False,
        )
        cache_hits = 0
        need: list[int] = []
        boundary_pairs: set[tuple[int, int]] = set()
        for position in positions:
            s, t = pairs[position]
            out = self._out_cache[s]
            into = self._in_cache[t]
            if not out or not into:
                answers[position] = False
                continue
            hit = self._pair_cache.get((out, into))
            if hit is not None:
                answers[position] = hit
                cache_hits += 1
                continue
            need.append(position)
            boundary_pairs.update(
                (b_out, b_in) for b_out in out for b_in in into
            )
        if need:
            unique = sorted(boundary_pairs)
            verdicts = dict(zip(unique, boundary.query_batch(unique)))
            for position in need:
                s, t = pairs[position]
                out = self._out_cache[s]
                into = self._in_cache[t]
                answer = any(
                    verdicts[(b_out, b_in)] for b_out in out for b_in in into
                )
                self._pair_cache[(out, into)] = answer
                answers[position] = answer
        composed = len(positions) - cache_hits
        return composed, cache_hits

    def _fill_border_caches(self, vertices: set[int], outgoing: bool) -> None:
        """Batch-compute border sets for many vertices, grouped by shard."""
        if not vertices:
            return
        local_of = self._local_of
        by_shard: dict[int, list[int]] = {}
        for v in vertices:
            by_shard.setdefault(self._shard_of[v], []).append(v)
        cache = self._out_cache if outgoing else self._in_cache
        for shard, members in by_shard.items():
            borders = self._shard_borders[shard]
            if not borders:
                for v in members:
                    cache[v] = ()
                continue
            index = self._shard_indexes[shard]
            if outgoing:
                local_pairs = [
                    (local_of[v], local_of[b]) for v in members for b in borders
                ]
            else:
                local_pairs = [
                    (local_of[b], local_of[v]) for v in members for b in borders
                ]
            hits = index.query_batch(local_pairs)
            width = len(borders)
            for slot, v in enumerate(members):
                row = hits[slot * width : (slot + 1) * width]
                cache[v] = tuple(
                    self._bid_of[b] for b, hit in zip(borders, row) if hit
                )

    # -- set enumeration ---------------------------------------------------
    def _enumerate_routed(
        self, vertex: int, forward: bool
    ) -> tuple[frozenset[int], str, tuple[str, ...]]:
        """Per-shard enumeration composed through the boundary summary graph.

        Forward: the shard-local descendants of ``vertex``, plus — for
        every boundary vertex reachable (in the boundary graph) from one
        of ``vertex``'s out-borders — that border's own shard-local
        descendants.  Any cross-shard path decomposes at boundary
        vertices, and the boundary graph closes intra-shard segments, so
        the union is exact.  Backward is the mirror image over
        in-borders and boundary ancestors.
        """
        shard = self._shard_of[vertex]
        local_of = self._local_of
        shard_globals = self._shard_globals
        local_set, _route, _details = self._shard_indexes[shard]._enumerate_routed(
            local_of[vertex], forward
        )
        home_map = shard_globals[shard]
        members = {home_map[lv] for lv in local_set}
        seeds = self._out_borders(vertex) if forward else self._in_borders(vertex)
        boundary = self._boundary_index
        frontier: set[int] = set()
        if boundary is not None and seeds:
            for bid in seeds:
                bset, _r, _d = boundary._enumerate_routed(bid, forward)
                frontier |= bset
            by_shard: dict[int, list[int]] = {}
            for bid in frontier:
                g = self._boundary_globals[bid]
                by_shard.setdefault(self._shard_of[g], []).append(g)
            for other, globals_here in by_shard.items():
                index = self._shard_indexes[other]
                gmap = shard_globals[other]
                for g in globals_here:
                    bset, _r, _d = index._enumerate_routed(local_of[g], forward)
                    members.update(gmap[lv] for lv in bset)
        kind = "descendants" if forward else "ancestors"
        return (
            frozenset(members),
            "enum_compose",
            (
                f"shard {shard}: local enumeration reached {len(local_set)} "
                f"vertices; {len(seeds)} border seeds expanded through "
                f"{len(frontier)} boundary vertices to {len(members)} "
                f"{kind} overall",
            ),
        )

    # -- accounting --------------------------------------------------------
    def size_in_entries(self) -> int:
        """Shard indexes + boundary index + the partition map itself."""
        total = sum(inner.size_in_entries() for inner in self._shard_indexes)
        if self._boundary_index is not None:
            total += self._boundary_index.size_in_entries()
        return total + len(self._shard_of) + len(self._boundary_globals)

    def __getstate__(self) -> dict[str, object]:
        """Persistable state: drop the query-time border memoisation."""
        state = super().__getstate__()
        state["_out_cache"] = {}
        state["_in_cache"] = {}
        state["_pair_cache"] = {}
        return state

    def __repr__(self) -> str:
        return (
            f"ShardedIndex(family={self._family!r}, k={self._partition.num_shards}, "
            f"|V|={self._graph.num_vertices}, "
            f"cut={len(self._partition.cut_edges)}, "
            f"entries={self.size_in_entries()})"
        )


def _extract_shards(
    graph: DiGraph, partition: Partition
) -> tuple[list[DiGraph], list[int], list[list[int]]]:
    """Per-shard local-id subgraphs plus the global↔local vertex maps."""
    k = partition.num_shards
    shard_of = partition.shard_of
    local_of = [0] * graph.num_vertices
    shard_globals: list[list[int]] = [[] for _ in range(k)]
    for v in range(graph.num_vertices):
        shard = shard_of[v]
        local_of[v] = len(shard_globals[shard])
        shard_globals[shard].append(v)
    shard_graphs = [DiGraph(len(members)) for members in shard_globals]
    for u, v in graph.edges():
        if shard_of[u] == shard_of[v]:
            shard_graphs[shard_of[u]].add_edge(local_of[u], local_of[v])
    return shard_graphs, local_of, shard_globals


def _boundary_graph(
    graph: DiGraph,
    partition: Partition,
    shard_graphs: list[DiGraph],
    local_of: list[int],
    shard_globals: list[list[int]],
) -> tuple[DiGraph, list[int]]:
    """The boundary summary graph: cut edges + per-shard border closure.

    The closure uses one bit-parallel :func:`reach_masks` sweep per
    shard (borders batched :data:`_CLOSURE_WAVE` per wave): an edge
    ``b → b'`` is added whenever ``b`` reaches ``b'`` inside the shard,
    so multi-hop intra-shard segments of a cross-shard path collapse to
    one boundary edge.
    """
    boundary_globals = list(partition.boundary_vertices)
    bid_of = {g: b for b, g in enumerate(boundary_globals)}
    boundary = DiGraph(len(boundary_globals))
    for u, v in partition.cut_edges:
        boundary.add_edge_if_absent(bid_of[u], bid_of[v])
    shard_of = partition.shard_of
    borders_by_shard: list[list[int]] = [
        [] for _ in range(partition.num_shards)
    ]
    for g in boundary_globals:
        borders_by_shard[shard_of[g]].append(g)
    for shard, borders in enumerate(borders_by_shard):
        if len(borders) < 2:
            continue
        csr = csr_of(shard_graphs[shard])
        local_borders = [local_of[b] for b in borders]
        for base in range(0, len(borders), _CLOSURE_WAVE):
            wave = local_borders[base : base + _CLOSURE_WAVE]
            masks = reach_masks(csr, wave)
            for b_target, local_target in zip(borders, local_borders):
                mask = masks[local_target]
                while mask:
                    low = mask & -mask
                    slot = low.bit_length() - 1
                    mask ^= low
                    b_source = borders[base + slot]
                    if b_source != b_target:
                        boundary.add_edge_if_absent(
                            bid_of[b_source], bid_of[b_target]
                        )
    return boundary, boundary_globals
