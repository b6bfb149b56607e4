"""The measurement passes: timed calls into the layers' public functions.

One *round* runs every pass once, in a fixed order; a pass consumes a fixed
slice of the seeded request/op/write streams, so the sequence of operations
is identical on every run of a seed and only the clock readings differ.
Every answer is checked against the oracle right after the timed region.

End-to-end passes are the same in both run modes.  A traced run (``--trace
1``) additionally probes single layers, replays request ids boundary by
boundary under harness spans, and feeds every write to a WAL-less twin.
"""

from __future__ import annotations

import copy
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from repro import obs
from repro.authz import AuthzStore, compile_tuples
from repro.core.base import TriState
from repro.core.registry import plain_index
from repro.errors import ReproError
from repro.kernels import CSRGraph
from repro.obs import global_registry
from repro.persistence import load_index, save_index
from repro.service import ReachabilityService, ResultCache
from repro.wal import CheckpointManager, WriteAheadLog, recover_states

import httpclient
from calib import PLAIN, RATE, TIME, Loopback, SampleBook, percentile
from scenarios import (
    BATCH_PAIRS,
    HTTP_OPEN_RATE,
    NAMESPACE,
    STORE_FAMILY,
    ClosureOracle,
    Inputs,
    Scenario,
)
from spans import SpanLog
from stack import HERE, Stack

LADDER_RATES = (200, 400, 600, 800)
LADDER_LIMIT_P99_US = 10_000.0


class Cycle:
    """A cursor over a seeded stream that wraps around at its end."""

    def __init__(self, items: list) -> None:
        self._items = items
        self._at = 0

    def take(self, count: int) -> list:
        items, start = self._items, self._at
        self._at = (start + count) % len(items)
        return [items[(start + i) % len(items)] for i in range(count)]


class Run:
    """One workload run: the stack, the stream cursors, the oracles, the tally."""

    def __init__(
        self, scenario: Scenario, inputs: Inputs, stack: Stack, book: SampleBook,
        loopback: Loopback, workdir: Path, traced: bool,
    ) -> None:
        self.scenario = scenario
        self.inputs = inputs
        self.stack = stack
        self.book = book
        self.loopback = loopback
        self.workdir = workdir
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        #: What the read passes ask (in order, repeats and all), the distinct
        #: pairs behind it, the authz reads, and the write batches.
        self.requests = Cycle(inputs.requests)
        self.distinct = Cycle(inputs.distinct)
        self.authz_ops = Cycle(inputs.authz_ops)
        self.write_batches = Cycle(inputs.write_batches)
        self.writes_done = 0
        self._request_id = 0
        #: Answers on the dataset graph (what the never-written child serves,
        #: and what the service serves whenever the oracle is at seed state).
        self.seed_answers = {(q.source, q.target): q.reachable for q in inputs.distinct}
        self.graph_oracle = ClosureOracle(inputs.graph.edges())
        self.tuple_oracle = ClosureOracle((t.subject, t.object) for t in inputs.tuples)
        self.live_tuples = set(inputs.tuples)
        self.spans = SpanLog()
        self.index_file = workdir / "index.bin"
        self.cold_pairs_file = workdir / "cold-pairs.json"
        save_index(stack.service.acquire().plain, self.index_file)
        self.cold_queries = inputs.requests[:100]
        self.cold_pairs_file.write_text(
            json.dumps([[q.source, q.target] for q in self.cold_queries])
        )
        # Traced runs only: a second writer without a WAL, and (dynamic
        # families) a private index patched through the maintenance API.
        self.twin_service = self.twin_store = self.private_index = None
        if traced:
            if scenario.writer == "service":
                self.twin_service = ReachabilityService(inputs.graph, index=scenario.family)
                index = stack.service.acquire().plain
                if index.metadata.dynamic == "yes":
                    self.private_index = copy.deepcopy(index)
            else:
                self.twin_store = AuthzStore(STORE_FAMILY)
                self.twin_store.write(NAMESPACE, writes=inputs.tuples)

    def next_request_id(self, prefix: str) -> str:
        self._request_id += 1
        return f"{prefix}-{self._request_id}"

    # -- the tally ---------------------------------------------------------
    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def expected(self, q) -> bool:
        """The service's correct answer for ``q`` at the current epoch."""
        if self.graph_oracle.at_seed_state:
            return self.seed_answers[(q.source, q.target)]
        return self.graph_oracle.reaches(q.source, q.target)

    def check_results(self, queries: list, results: list) -> None:
        """Tally ``QueryResult``s: UNKNOWN or an answer ≠ oracle is a failure."""
        bad = sum(1 for q, r in zip(queries, results) if r.answer is not self.expected(q))
        self.tally(len(queries), bad)

    def check_http(self, queries: list, responses: list[httpclient.Response]) -> None:
        """Tally scalar HTTP bodies against the dataset graph the child serves."""
        bad = 0
        for q, response in zip(queries, responses):
            ok = response.status == 200
            if ok:
                ok = json.loads(response.body).get("reachable") is self.seed_answers[(q.source, q.target)]
            bad += not ok
        self.tally(len(queries), bad)

    # -- writes --------------------------------------------------------------
    def do_writes(self, count: int) -> list[tuple[float, int]]:
        """Apply the next ``count`` write batches; returns (seconds, ops) each.

        The timed call is the real writer (WAL attached).  A traced run
        also replays the same batch at the two inner boundaries — index
        maintenance alone, then a writer without a WAL — under spans.
        """
        scenario, stack = self.scenario, self.stack
        durations = []
        for batch in self.write_batches.take(count):
            self.writes_done += 1
            rid = self.next_request_id("w")
            # A traced run replays the batch at the inner boundaries as well;
            # whichever writer goes second finds the allocator warm, so the
            # replay goes first on odd writes and last on even ones.
            replay_first = self.traced and self.writes_done % 2 == 1
            if scenario.writer == "service":
                if replay_first:
                    self._replay_service_write(rid, batch)
                start = perf_counter()
                epoch = stack.service.apply_updates(batch)
                end = perf_counter()
                if self.traced and not replay_first:
                    self._replay_service_write(rid, batch)
                for op in batch:
                    (self.graph_oracle.add if op.kind == "insert" else self.graph_oracle.remove)(
                        op.source, op.target
                    )
                self.tally(1, 0 if epoch == self.writes_done else 1)
                outer = "service.write_wal"
            else:
                grants = [op.tuple() for op in batch if op.kind == "grant"]
                revokes = [op.tuple() for op in batch if op.kind == "revoke"]
                for t in grants:
                    if t not in self.live_tuples:
                        self.live_tuples.add(t)
                        self.tuple_oracle.add(t.subject, t.object)
                for t in revokes:
                    if t in self.live_tuples:
                        self.live_tuples.discard(t)
                        self.tuple_oracle.remove(t.subject, t.object)
                if replay_first:
                    self._replay_store_write(rid, grants, revokes)
                start = perf_counter()
                stack.zookie = stack.store.write(NAMESPACE, writes=grants, deletes=revokes)
                end = perf_counter()
                if self.traced and not replay_first:
                    self._replay_store_write(rid, grants, revokes)
                self.tally(1, 0 if stack.zookie.epoch == self.writes_done + 1 else 1)
                outer = "authz.write_wal"
            if self.traced:
                self.spans.record(rid, outer, None, start, end)
            durations.append((end - start, len(batch)))
        return durations

    def _replay_service_write(self, rid: str, batch: list) -> None:
        if self.private_index is not None:
            start = perf_counter()
            for op in batch:
                if op.kind == "insert":
                    self.private_index.insert_edge(op.source, op.target)
                else:
                    self.private_index.delete_edge(op.source, op.target)
            self.spans.record(rid, "plain.patch", "service.write_nowal", start, perf_counter())
        start = perf_counter()
        self.twin_service.apply_updates(batch)
        self.spans.record(rid, "service.write_nowal", "service.write_wal", start, perf_counter())

    def _replay_store_write(self, rid: str, grants: list, revokes: list) -> None:
        start = perf_counter()
        compile_namespace(self.live_tuples)
        self.spans.record(rid, "authz.compile", "authz.write_nowal", start, perf_counter())
        start = perf_counter()
        self.twin_store.write(NAMESPACE, writes=grants, deletes=revokes)
        self.spans.record(rid, "authz.write_nowal", "authz.write_wal", start, perf_counter())

    @staticmethod
    def write_stats(writes: list[tuple[float, int]]) -> dict:
        if not writes:
            return {}
        return {
            "write_p50_ms": (TIME, statistics.median(s for s, _ in writes) * 1e3),
            "write_ops_per_s": (RATE, sum(n for _, n in writes) / sum(s for s, _ in writes)),
        }


def compile_namespace(tuples) -> None:
    """What ``AuthzStore.write`` recomputes per write, through public calls."""
    labeled, _ids, _entities = compile_tuples(sorted(tuples))
    plain_index(STORE_FAMILY).build(labeled.to_plain())


# ---------------------------------------------------------------------------
# End-to-end passes (both modes)
# ---------------------------------------------------------------------------


BLOCKS = 20
SPAN_BLOCK = 25


def timed_blocks(call, pairs: list) -> tuple[list, float]:
    """Call ``call(s, t)`` over ``pairs`` in ~20 timed blocks; returns the
    answers and the *median* per-call time of a block (s).  The box stalls
    for tens of milliseconds at a time; a stall lands in one block and the
    median ignores it, where one mean over the whole loop would not."""
    size = max(1, len(pairs) // BLOCKS)
    answers: list = []
    per_call = []
    for at in range(0, len(pairs), size):
        block = pairs[at : at + size]
        start = perf_counter()
        answers += [call(s, t) for s, t in block]
        per_call.append((perf_counter() - start) / len(block))
    return answers, statistics.median(per_call)


def pass_probe(run: Run) -> dict:
    """Library user: a tight loop over ``index.query``."""
    index = run.stack.service.acquire().plain
    queries = run.distinct.take(run.scenario.probe_reads)
    pairs = [(q.source, q.target) for q in queries]
    answers, query_s = timed_blocks(index.query, pairs)
    stats = {"probe_us": (TIME, query_s * 1e6)}
    bad = sum(1 for q, a in zip(queries, answers) if a is not run.expected(q))
    run.tally(len(queries), bad)
    if run.traced:
        stats.update(_split_probe(index, pairs))
    return stats


def _split_probe(index, pairs: list) -> dict:
    """Split ``query`` into lookup, wrapper and guided traversal.

    ``query`` − ``lookup`` on pairs the lookup *decides* is the public
    wrapper alone (validation, dispatch); on MAYBE pairs it is wrapper plus
    guided traversal.  So guided time per query is the MAYBE share times
    the difference of the two — zero on a complete index by construction.
    """
    probes, lookup_s = timed_blocks(index.lookup, pairs)
    maybe = [pair for pair, p in zip(pairs, probes) if p is TriState.MAYBE]
    decided = [pair for pair, p in zip(pairs, probes) if p is not TriState.MAYBE]
    wrap_s = guided_s = 0.0
    if decided:
        wrap_s = timed_blocks(index.query, decided)[1] - timed_blocks(index.lookup, decided)[1]
    if maybe:
        extra = timed_blocks(index.query, maybe)[1] - timed_blocks(index.lookup, maybe)[1]
        guided_s = (extra - wrap_s) * len(maybe) / len(pairs)
    return {
        "plain.lookup_ns": (TIME, lookup_s * 1e9),
        "plain.maybe_frac": (PLAIN, len(maybe) / len(pairs)),
        "core.wrap_ns": (TIME, wrap_s * 1e9),
        "core.guided_us": (TIME, guided_s * 1e6),
    }


def pass_service(run: Run) -> dict:
    """``ReachabilityService.reach_ex`` per call, writes first where the
    workload writes through the service."""
    scenario, service = run.scenario, run.stack.service
    reach_ex = service.reach_ex
    latencies: list[float] = []
    post_swap: list[float] = []
    writes: list[tuple[float, int]] = []
    block_walls: dict[bool, list[float]] = {False: [], True: []}
    busy = 0.0
    for _ in range(scenario.svc_segments):
        writes += run.do_writes(scenario.svc_writes_per_segment)
        queries = run.requests.take(scenario.svc_reads_per_segment)
        results = []
        segment: list[float] = []
        record = run.spans.record
        segment_start = block_start = perf_counter()
        for at, q in enumerate(queries):
            # A traced run records a span for every other block of calls;
            # the wall time per call of the two kinds of block, side by
            # side, is what span recording costs.
            spanned = run.traced and (at // SPAN_BLOCK) % 2 == 1
            start = perf_counter()
            result = reach_ex(q.source, q.target)
            end = perf_counter()
            if spanned:
                record("svc", "service.reach_ex", None, start, end)
            segment.append(end - start)
            results.append(result)
            if run.traced and (at + 1) % SPAN_BLOCK == 0:
                block_walls[spanned].append((perf_counter() - block_start) / SPAN_BLOCK)
                block_start = perf_counter()
        busy += perf_counter() - segment_start
        run.check_results(queries, results)
        latencies += segment
        if scenario.svc_writes_per_segment:
            post_swap += segment[:20]
    latencies.sort()
    stats = {
        "svc_read_p50_us": (TIME, percentile(latencies, 0.5) * 1e6),
        "svc_read_qps": (RATE, len(latencies) / busy),
        "service.read_p99_us": (TIME, percentile(latencies, 0.99) * 1e6),
        "service.read_mean_us": (TIME, statistics.fmean(latencies) * 1e6),
    }
    if post_swap:
        stats["service.post_swap_read_us"] = (TIME, statistics.fmean(post_swap) * 1e6)
    if block_walls[True] and block_walls[False]:
        stats["trace.overhead_frac"] = (
            PLAIN,
            statistics.median(block_walls[True]) / statistics.median(block_walls[False]) - 1.0,
        )
    stats.update(run.write_stats(writes))
    return stats


def pass_batch(run: Run) -> dict:
    """``execute_batch`` in 256-pair batches; median batch, per pair."""
    service = run.stack.service
    totals, kernels = [], []
    for _ in range(run.scenario.batches):
        queries = run.requests.take(BATCH_PAIRS)
        pairs = [(q.source, q.target) for q in queries]
        if run.traced:
            index = service.acquire().plain
            start = perf_counter()
            raw = index.query_batch(pairs)
            kernels.append((perf_counter() - start) / len(pairs))
            run.tally(len(queries), sum(1 for q, a in zip(queries, raw) if a is not run.expected(q)))
        start = perf_counter()
        results = service.execute_batch(pairs)
        totals.append((perf_counter() - start) / len(pairs))
        run.check_results(queries, results)
    total = statistics.median(totals)
    stats = {"svc_batch_pair_us": (TIME, total * 1e6)}
    if run.traced:
        kernel = statistics.median(kernels)
        stats["kernels.batch_pair_us"] = (TIME, kernel * 1e6)
        stats["service.batch_self_us"] = (TIME, (total - kernel) * 1e6)
    return stats


def _reach_requests(queries: list) -> list[bytes]:
    return [
        httpclient.get_request(f"/reach?source={q.source}&target={q.target}")
        for q in queries
    ]


def pass_http_open(run: Run) -> dict:
    """``GET /reach``, open loop, latency from the intended send time."""
    scenario = run.scenario
    queries = run.requests.take(scenario.http_open_requests)
    responses, _connects = httpclient.open_loop(
        run.stack.child.port, _reach_requests(queries), HTTP_OPEN_RATE
    )
    run.check_http(queries, responses)
    latencies = sorted(r.latency for r in responses)
    lateness = sorted(r.late for r in responses)
    return {
        "http_read_p50_us": (TIME, percentile(latencies, 0.5) * 1e6),
        "server.gen_late_p99_us": (TIME, percentile(lateness, 0.99) * 1e6),
    }


def pass_http_closed(run: Run) -> dict:
    """``GET /reach``, closed loop, 2 connections."""
    connections = 2
    queries = run.requests.take(run.scenario.http_closed_requests)
    responses, connects = httpclient.closed_loop(
        run.stack.child.port, _reach_requests(queries), connections
    )
    run.check_http(queries, responses)
    latencies = sorted(r.latency for r in responses)
    # Throughput as the median rate over blocks of consecutive requests on
    # one connection, times the connections: a stall lands in one block.
    rates = []
    for slot in range(connections):
        done = [r.done for r in responses[slot::connections]]
        size = max(1, len(done) // 6)
        rates += [size / (done[k + size] - done[k]) for k in range(0, len(done) - size, size)]
    return {
        "http_read_rps": (RATE, connections * statistics.median(rates)),
        "server.closed_p50_us": (TIME, percentile(latencies, 0.5) * 1e6),
        "server.closed_p99_us": (TIME, percentile(latencies, 0.99) * 1e6),
        "server.connects_per_req": (PLAIN, connects / len(responses)),
        "server.resp_bytes": (PLAIN, statistics.fmean(r.size for r in responses)),
    }


def pass_http_batch(run: Run) -> dict:
    """``POST /reach/batch`` of 256 pairs, closed loop, 1 connection."""
    batches = [run.requests.take(BATCH_PAIRS) for _ in range(run.scenario.http_batches)]
    requests = [
        httpclient.post_request(
            "/reach/batch",
            json.dumps({"pairs": [[q.source, q.target] for q in batch]}).encode(),
        )
        for batch in batches
    ]
    responses, _connects = httpclient.closed_loop(run.stack.child.port, requests, connections=1)
    for batch, response in zip(batches, responses):
        results = json.loads(response.body).get("results", []) if response.status == 200 else []
        bad = len(batch) - sum(
            1
            for q, r in zip(batch, results)
            if r.get("reachable") is run.seed_answers[(q.source, q.target)]
        )
        run.tally(len(batch), bad)
    per_pair = statistics.median(r.latency / len(b) for r, b in zip(responses, batches))
    return {"http_batch_pair_us": (TIME, per_pair * 1e6)}


def pass_authz(run: Run) -> dict:
    """``AuthzStore`` reads carrying the latest zookie, one write first
    where the workload writes through the store."""
    scenario, store = run.scenario, run.stack.store
    writes = run.do_writes(scenario.authz_writes)
    ops = run.authz_ops.take(scenario.authz_reads)
    zookie = run.stack.zookie
    check, list_objects, list_subjects = store.check, store.list_objects, store.list_subjects
    timings: dict[str, list[float]] = {"check": [], "list_objects": [], "list_subjects": []}
    answers = []
    failures = stale = 0
    for op in ops:
        start = perf_counter()
        try:
            if op.kind == "check":
                answer = check(NAMESPACE, op.subject, op.object, at_least=zookie).allowed
            elif op.kind == "list_objects":
                answer = list_objects(NAMESPACE, op.subject, at_least=zookie).names
            else:
                answer = list_subjects(NAMESPACE, op.subject, at_least=zookie).names
        except ReproError as exc:
            answer = exc
            stale += getattr(exc, "http_status", 0) == 409
        timings[op.kind].append(perf_counter() - start)
        answers.append(answer)
    oracle = run.tuple_oracle
    sizes = []
    for op, answer in zip(ops, answers):
        if op.kind == "check":
            want = oracle.reaches(op.subject, op.object)
            failures += answer is not want
        else:
            members = oracle.closure(op.subject, forward=op.kind == "list_objects")
            want = tuple(sorted(members - {op.subject}))
            failures += answer != want
            sizes.append(len(want))
    run.tally(len(ops), failures)
    stats = run.write_stats(writes)
    if timings["check"]:
        stats["authz_check_p50_us"] = (TIME, statistics.median(timings["check"]) * 1e6)
        stats["authz.check_us"] = (TIME, statistics.fmean(timings["check"]) * 1e6)
    # The two enumerations differ several-fold in cost, so the median of the
    # pooled samples falls in the gap between them and jumps about; the mean
    # of the per-kind medians is the steady form of "pooled p50".
    list_medians = [
        statistics.median(timings[kind]) for kind in ("list_objects", "list_subjects") if timings[kind]
    ]
    if list_medians:
        stats["authz_list_p50_us"] = (TIME, statistics.fmean(list_medians) * 1e6)
    for kind in ("list_objects", "list_subjects"):
        if timings[kind]:
            stats[f"authz.{kind}_us"] = (TIME, statistics.fmean(timings[kind]) * 1e6)
    if sizes:
        stats["authz.enum_size_mean"] = (PLAIN, statistics.fmean(sizes))
    stats["authz.stale_zookie_frac"] = (PLAIN, stale / len(ops))
    return stats


def pass_cold_start(run: Run) -> dict:
    """Fresh interpreter: import, ``load_index(file)``, first 100 queries."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), str(run.index_file), str(run.cold_pairs_file)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = perf_counter() - start
    want = "".join("1" if q.reachable else "0" for q in run.cold_queries)
    got = done.stdout.strip() if done.returncode == 0 else ""
    bad = sum(1 for a, b in zip(want, got.ljust(len(want), "?")) if a != b)
    run.tally(len(want), bad)
    return {"cold_start_s": (TIME, elapsed)}


#: Passes whose numbers need two processes running side by side.
HTTP_PASSES = (pass_http_open, pass_http_closed, pass_http_batch)

END_TO_END_PASSES = (
    pass_probe,
    pass_service,
    pass_batch,
    pass_http_open,
    pass_http_closed,
    pass_http_batch,
    pass_authz,
    pass_cold_start,
)


# ---------------------------------------------------------------------------
# Traced-run passes
# ---------------------------------------------------------------------------


def pass_replay(run: Run) -> dict:
    """Replay each request id at every read boundary, under spans:
    ``index.lookup``, ``index.query``, ``service.reach_ex``, ``GET /reach``.
    A span's parent is the next-outer boundary of the same request.  Whichever
    boundary goes first pays the request's cache misses, so odd requests
    are replayed innermost-first and even ones outermost-first."""
    service = run.stack.service
    index = service.acquire().plain
    queries = run.requests.take(run.scenario.trace_requests)
    connection = httpclient.Connection(run.stack.child.port)
    results, responses = [], []
    for number, q in enumerate(queries):
        rid = run.next_request_id("r")
        s, t = q.source, q.target
        request = httpclient.get_request(f"/reach?source={s}&target={t}")
        boundaries = (
            ("plain.lookup", "core.query", lambda: index.lookup(s, t)),
            ("core.query", "service.reach_ex", lambda: index.query(s, t)),
            ("service.reach_ex", "server.get_reach", lambda: results.append(service.reach_ex(s, t))),
            ("server.get_reach", None, lambda: responses.append(connection.exchange(request))),
        )
        for name, parent, call in boundaries[:: 1 if number % 2 else -1]:
            start = perf_counter()
            call()
            run.spans.record(rid, name, parent, start, perf_counter())
    connection.close()
    run.check_results(queries, results)
    run.check_http(queries, [httpclient.Response(status, body, 0.0) for status, body, _size in responses])
    return {}


def pass_obs(run: Run) -> dict:
    """``reach_ex`` with the program's own tracer on, beside the same loop
    with it off (``repro.obs`` is off in every other pass)."""
    reach_ex = run.stack.service.reach_ex
    count = max(20, run.scenario.svc_reads_per_segment // 4)
    medians = []
    for enabled in (False, True):
        queries = run.requests.take(count)
        if enabled:
            obs.TRACER.clear()
            obs.enable_tracing(1.0)
        try:
            latencies, results = [], []
            for q in queries:
                start = perf_counter()
                result = reach_ex(q.source, q.target)
                latencies.append(perf_counter() - start)
                results.append(result)
        finally:
            obs.disable_tracing()
        run.check_results(queries, results)
        medians.append(statistics.median(latencies))
    roots = obs.TRACER.finished()
    spans = sum(_count_spans(root) for root in roots)
    obs.TRACER.clear()
    return {
        "obs.tracer_overhead_frac": (PLAIN, medians[1] / medians[0] - 1.0),
        "obs.spans_per_query": (PLAIN, spans / max(1, len(roots))),
    }


def _count_spans(span) -> int:
    return 1 + sum(_count_spans(child) for child in span.children)


TRACED_PASSES = END_TO_END_PASSES + (pass_replay, pass_obs)


def probe_layers(run: Run) -> None:
    """Single-layer costs, timed around one public call each (traced runs).

    Each is taken three times between spins, before the first round, so the
    medians are normalised like every other number.
    """
    scenario, inputs, book = run.scenario, run.inputs, run.book
    family = plain_index(scenario.family)
    index = run.stack.service.acquire().plain

    def build() -> dict:
        start = perf_counter()
        family.build(inputs.graph)
        return {"plain.build_s": (TIME, perf_counter() - start)}

    def csr() -> dict:
        start = perf_counter()
        CSRGraph.from_digraph(inputs.graph)
        return {"kernels.csr_build_ms": (TIME, (perf_counter() - start) * 1e3)}

    def persistence() -> dict:
        path = run.workdir / "probe-index.bin"
        start = perf_counter()
        save_index(index, path)
        saved = perf_counter()
        load_index(path)
        loaded = perf_counter()
        return {
            "persistence.save_s": (TIME, saved - start),
            "persistence.load_s": (TIME, loaded - saved),
            "persistence.file_bytes": (PLAIN, path.stat().st_size),
        }

    def deepcopy() -> dict:
        start = perf_counter()
        copy.deepcopy(index)
        return {"service.deepcopy_ms": (TIME, (perf_counter() - start) * 1e3)}

    def cache() -> dict:
        cache = ResultCache()
        keys = [(q.source, q.target, None) for q in inputs.requests[:2_000]]
        start = perf_counter()
        for key in keys:
            cache.put(key, 0, True)
        for key in keys:
            cache.get(key, 0)
        return {"service.cache_get_ns": (TIME, (perf_counter() - start) / (2 * len(keys)) * 1e9)}

    appended = [0]

    def wal_append() -> dict:
        appended[0] += 1
        log = WriteAheadLog(run.workdir / f"probe-wal-{appended[0]}", fsync="batch")
        log.recover()
        record = {"epoch": 1, "ops": [["insert", 1, 2], ["delete", 3, 4], ["insert", 5, 6], ["insert", 7, 8]]}
        start = perf_counter()
        for _ in range(64):
            log.append("update", record)
        elapsed = perf_counter() - start
        log.close()
        return {"wal.append_us": (TIME, elapsed / 64 * 1e6)}

    def compile_() -> dict:
        start = perf_counter()
        compile_namespace(inputs.tuples)
        return {"authz.compile_ms": (TIME, (perf_counter() - start) * 1e3)}

    for probe in (build, csr, persistence, deepcopy, cache, wal_append, compile_):
        for _ in range(3):
            book.measure(probe)
    book.add("plain.index_bytes", PLAIN, index.size_report().estimated_bytes)


def ladder(run: Run) -> None:
    """Open loop at each fixed rate once; the highest rate whose p99 (from
    the intended send time) meets the limit without a growing backlog."""
    scenario, book = run.scenario, run.book
    best = 0
    sent = shed = 0
    for rate in LADDER_RATES:
        queries = run.requests.take(2 * scenario.http_open_requests)
        responses: list[httpclient.Response] = []

        def step() -> dict:
            responses[:], _ = httpclient.open_loop(
                run.stack.child.port, _reach_requests(queries), rate
            )
            latencies = sorted(r.latency for r in responses)
            return {f"server.open_p99_us.r{rate}": (TIME, percentile(latencies, 0.99) * 1e6)}

        book.measure(step)
        run.check_http(queries, responses)
        sent += len(responses)
        shed += sum(1 for r in responses if r.status == 503)
        p99 = percentile(sorted(r.latency for r in responses), 0.99) * 1e6
        quarter = max(1, len(responses) // 4)
        early = statistics.fmean(r.late for r in responses[:quarter])
        final = statistics.fmean(r.late for r in responses[-quarter:])
        growing = final > max(2 * early, 0.005)
        if p99 <= LADDER_LIMIT_P99_US and not growing:
            best = rate
    book.add("server.max_rate_ok", PLAIN, best)
    book.add("server.shed_frac", PLAIN, shed / sent)


def durability(run: Run) -> dict[str, float]:
    """Close the log, then rebuild from its directory alone: the recovered
    epoch, edge set and zookies must equal the live ones.  A traced run
    checkpoints first, so recovery goes through the checkpoint too."""
    stack, scenario = run.stack, run.scenario
    out: dict[str, float] = {}
    if run.traced:
        manager = CheckpointManager(stack.wal, service=stack.service, authz=stack.store)
        start = perf_counter()
        manager.maybe_checkpoint(force=True)
        out["wal.checkpoint_s"] = perf_counter() - start
    stack.wal.close()
    log = WriteAheadLog(stack.wal_dir, fsync="batch")
    start = perf_counter()
    state = recover_states(log, run.inputs.graph)
    out["wal.recover_s"] = perf_counter() - start
    log.close()
    if scenario.writer == "service":
        live = stack.service.acquire()
        ok = (
            state.epoch == live.epoch
            and set(state.graph.edges()) == set(live.graph.edges()) == run.graph_oracle.edges()
        )
    else:
        snapshot = stack.store.snapshot(NAMESPACE)
        recovered = state.authz.get(NAMESPACE, {"epoch": -1, "tuples": []})
        restored = AuthzStore(STORE_FAMILY)
        restored.restore(state.authz)
        ok = (
            recovered["epoch"] == snapshot.epoch
            and set(recovered["tuples"]) == {str(t) for t in snapshot.tuples}
            and {str(t) for t in run.live_tuples} == set(recovered["tuples"])
            and restored.snapshot(NAMESPACE).zookie.encode() == stack.zookie.encode()
        )
    run.tally(1, 0 if ok else 1)
    return out


def peak_rss_mb(run: Run) -> float:
    """Peak resident memory of this worker plus its server child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + run.stack.child.peak_rss_mb()


def counters(run: Run) -> dict[str, float]:
    """The program's own counters, read through its public dicts."""
    served = run.stack.service.metrics_dict()
    written = (run.twin_service or run.stack.service).metrics_dict()["service"]
    wal = global_registry().as_dict().get("wal", {})  # empty until the first append
    status = run.stack.wal.status()
    return {
        "patches": written["patches"],
        "rebuilds": written["rebuilds"],
        "audit_failed": written["patch_audit"]["failed"],
        "invalidated": served["cache"]["invalidated_entries"],
        "hits": served["cache"]["hits"],
        "misses": served["cache"]["misses"],
        "led": served["coalescer"]["led"],
        "coalesced": served["coalescer"]["coalesced"],
        "fsyncs": wal.get("fsyncs", 0),
        "wal_bytes": status["active_segment_bytes"],
        "wal_records": status["last_lsn"],
    }
