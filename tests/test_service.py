"""Tests for the serving tier: engine, cache, coalescing, metrics.

The centrepiece is the hammer test: N reader threads assert
oracle-consistent answers *at their observed epoch* while a writer
applies update batches — snapshot isolation means no torn reads, no
exceptions, and a cache that never serves a stale epoch.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServiceError
from repro.graphs.generators import random_dag, random_labeled_digraph
from repro.service import (
    MISS,
    LatencyHistogram,
    MetricsRegistry,
    QueryCoalescer,
    ReachabilityService,
    ResultCache,
    dedupe,
)
from repro.traversal.online import bfs_reachable
from repro.traversal.rpq import rpq_reachable
from repro.workloads.updates import labeled_update_stream, update_stream


class TestMetrics:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_histogram_percentiles_bracket_samples(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.observe(1e-4)
        hist.observe(2.0)
        assert hist.count == 100
        # p50 lands in the 1e-4 bucket; p99's bucket must not exceed
        # the next bound above 2.0, and the bucket bound is an upper
        # estimate of the true sample.
        assert 1e-4 <= hist.percentile(50) < 2.5e-4
        assert hist.percentile(99.5) >= 2.0
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["max_s"] == 2.0

    def test_histogram_overflow_uses_observed_max(self):
        hist = LatencyHistogram(buckets=(0.001, 0.01))
        hist.observe(5.0)
        assert hist.percentile(99) == 5.0

    def test_registry_dict_and_text(self):
        registry = MetricsRegistry()
        registry.counter("service.queries.cache").increment(3)
        registry.histogram("service.latency.cache").observe(0.001)
        tree = registry.as_dict()
        assert tree["service"]["queries"]["cache"] == 3
        assert tree["service"]["latency"]["cache"]["count"] == 1
        text = registry.render_text()
        assert "service_queries_cache 3" in text
        assert "service_latency_cache_count 1" in text

    def test_name_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")
        registry.histogram("y")
        with pytest.raises(ValueError):
            registry.counter("y")

    def test_registry_lookup_hammer(self, fast_thread_switching, monkeypatch):
        """Lookups of existing names skip the registry lock: racing the
        creation of those names, every thread must still get the one
        object per name, and no increment may land on a lost duplicate."""
        import repro.obs.metrics as metrics_module

        def yielding(factory):
            def build(*args):
                time.sleep(0)  # widen the window between miss and insert
                return factory(*args)

            return build

        monkeypatch.setattr(metrics_module, "Counter", yielding(metrics_module.Counter))
        monkeypatch.setattr(
            metrics_module, "LatencyHistogram", yielding(LatencyHistogram)
        )
        registry = MetricsRegistry()
        threads_n, names = 8, 400
        start = threading.Barrier(threads_n)
        seen: list[dict[str, object]] = [{} for _ in range(threads_n)]

        def worker(slot: int) -> None:
            start.wait(30.0)
            for number in range(names):  # same order: every creation is raced
                name = f"hammer.{number}"
                if number % 2:
                    seen[slot][name] = registry.histogram(name)
                else:
                    seen[slot][name] = registry.counter(name)
                    seen[slot][name].increment()

        threads = [
            threading.Thread(target=worker, args=(slot,), daemon=True)
            for slot in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
        assert len(seen[0]) == names
        for name, metric in seen[0].items():
            assert all(view[name] is metric for view in seen)
        assert registry.counter_values() == {
            f"hammer.{number}": threads_n for number in range(0, names, 2)
        }
        with pytest.raises(ValueError):
            registry.counter("hammer.1")
        with pytest.raises(ValueError):
            registry.histogram("hammer.0")


class TestResultCache:
    def test_epoch_mismatch_is_a_miss(self):
        cache = ResultCache(capacity=8)
        cache.put(("k",), 0, True)
        assert cache.get(("k",), 0) is True
        assert cache.get(("k",), 1) is MISS  # stale entry dropped on sight
        assert cache.get(("k",), 0) is MISS  # ... and really gone
        stats = cache.statistics()
        assert stats.hits == 1 and stats.misses == 2
        assert stats.invalidated_entries == 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) == 1  # refresh a
        cache.put("c", 0, 3)  # evicts b
        assert cache.get("b", 0) is MISS
        assert cache.get("a", 0) == 1
        assert cache.statistics().evictions == 1

    def test_invalidate_all_counts_cycles(self):
        cache = ResultCache(capacity=8)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.invalidate_all() == 2
        stats = cache.statistics()
        assert stats.invalidation_cycles == 1
        assert stats.invalidated_entries == 2
        assert stats.size == 0


class TestBatching:
    def test_dedupe_fan_out(self):
        unique, refs = dedupe([("a",), ("b",), ("a",), ("a",)])
        assert unique == [("a",), ("b",)]
        assert refs == [0, 1, 0, 0]

    def test_coalescer_single_thread_leads(self):
        coalescer = QueryCoalescer()
        result, shared = coalescer.run("k", lambda: 42)
        assert result == 42 and shared is False
        assert coalescer.led == 1 and coalescer.coalesced == 0

    def test_coalescer_shares_inflight_result(self):
        coalescer = QueryCoalescer()
        release = threading.Event()
        entered = threading.Event()
        results = []

        def slow():
            entered.set()
            release.wait(5.0)
            return "answer"

        def leader():
            results.append(coalescer.run("k", slow))

        def follower():
            entered.wait(5.0)
            results.append(coalescer.run("k", lambda: "other"))

        threads = [threading.Thread(target=leader), threading.Thread(target=follower)]
        threads[0].start()
        entered.wait(5.0)
        threads[1].start()
        # Give the follower a moment to register on the in-flight entry.
        for _ in range(1000):
            if coalescer.coalesced:
                break
            threading.Event().wait(0.001)
        release.set()
        for thread in threads:
            thread.join(5.0)
        assert ("answer", False) in results
        assert ("answer", True) in results

    def test_coalescer_propagates_errors(self):
        coalescer = QueryCoalescer()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            coalescer.run("k", boom)
        # The failed flight is cleared; the key is usable again.
        assert coalescer.run("k", lambda: 1) == (1, False)

    def test_coalescer_uncontended_builds_no_event(self, monkeypatch):
        built = []
        real_event = threading.Event

        def counting_event():
            built.append(1)
            return real_event()

        monkeypatch.setattr(
            "repro.service.batching.threading.Event", counting_event
        )
        coalescer = QueryCoalescer()
        for call in range(100):
            assert coalescer.run(call % 3, lambda: call) == (call, False)
        assert built == []
        assert coalescer.led == 100 and coalescer.coalesced == 0
        assert not coalescer._inflight

    def test_coalescer_followers_receive_leader_error(self):
        coalescer = QueryCoalescer()
        entered = threading.Event()
        release = threading.Event()
        outcomes = []

        def boom():
            entered.set()
            release.wait(5.0)
            raise RuntimeError("nope")

        def call(evaluate):
            try:
                outcomes.append(coalescer.run("k", evaluate))
            except RuntimeError as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=call, args=(boom,))]
        threads[0].start()
        assert entered.wait(5.0)
        for _ in range(2):
            threads.append(threading.Thread(target=call, args=(lambda: "other",)))
            threads[-1].start()
        deadline = time.monotonic() + 5.0
        while coalescer.coalesced < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()
        # One flight, one exception object, delivered to all three callers.
        assert coalescer.led == 1 and coalescer.coalesced == 2
        assert len(outcomes) == 3
        assert isinstance(outcomes[0], RuntimeError)
        assert all(outcome is outcomes[0] for outcome in outcomes)
        assert coalescer.run("k", lambda: 1) == (1, False)

    def test_coalescer_hammer(self, fast_thread_switching):
        """8 threads x 2000 runs over 4 keys: a follower that found a flight
        is always woken, with a value evaluated for its own key."""
        coalescer = QueryCoalescer()
        threads_n, runs, keys = 8, 2000, 4
        evaluated = []  # list.append is atomic
        wrong: list = []

        def worker(offset: int) -> None:
            for call in range(runs):
                key = (offset + call) % keys

                def evaluate(key=key):
                    time.sleep(0)  # yield mid-flight so followers pile on
                    evaluated.append(key)
                    return key

                value, _shared = coalescer.run(key, evaluate)
                if value != key:
                    wrong.append((key, value))

        threads = [
            # daemon: a follower nobody wakes must fail the test, not hang it
            threading.Thread(target=worker, args=(offset,), daemon=True)
            for offset in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60.0
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive()
        assert wrong == []
        assert len(evaluated) == coalescer.led
        assert coalescer.led + coalescer.coalesced == threads_n * runs
        assert coalescer.coalesced > 0  # the hammer did contend
        assert not coalescer._inflight


class TestEngineBasics:
    def test_plain_answers_match_bfs(self):
        graph = random_dag(30, 70, seed=501)
        service = ReachabilityService(graph, index="GRAIL")
        for s in range(0, 30, 3):
            for t in range(30):
                assert service.reach(s, t) == bfs_reachable(graph, s, t)

    def test_second_lookup_hits_cache(self):
        graph = random_dag(20, 40, seed=502)
        service = ReachabilityService(graph)
        first = service.reach_ex(0, 10)
        second = service.reach_ex(0, 10)
        assert first.route == "plain_index"
        assert second.route == "cache"
        assert first.answer == second.answer
        assert service.metrics_dict()["cache"]["hits"] == 1

    def test_cache_disabled(self):
        graph = random_dag(20, 40, seed=503)
        service = ReachabilityService(graph, cache_capacity=None)
        service.reach(0, 10)
        result = service.reach_ex(0, 10)
        assert result.route == "plain_index"
        assert "cache" not in service.metrics_dict()

    def test_labeled_routing(self):
        graph = random_labeled_digraph(18, 45, ["a", "b"], seed=504)
        service = ReachabilityService(graph)
        alternation = service.lreach_ex(0, 5, "(a | b)*")
        assert alternation.route == "labeled_index"
        mixed = service.lreach_ex(0, 5, "a . (a | b)*")
        assert mixed.route == "traversal"
        assert alternation.answer == rpq_reachable(graph, 0, 5, "(a | b)*")
        assert mixed.answer == rpq_reachable(graph, 0, 5, "a . (a | b)*")

    def test_lreach_requires_labeled_mode(self):
        service = ReachabilityService(random_dag(10, 15, seed=505))
        with pytest.raises(ServiceError):
            service.lreach(0, 1, "(a)*")

    def test_updates_swap_epochs_and_clear_cache(self):
        graph = random_dag(25, 55, seed=507)
        service = ReachabilityService(graph, index="GRAIL")
        service.reach(0, 12)
        ops = update_stream(graph, 10, seed=508)
        assert service.apply_updates(ops) == 1
        working = graph.copy()
        for op in ops:
            if op.kind == "insert":
                working.add_edge(op.source, op.target)
            else:
                working.remove_edge(op.source, op.target)
        for s in range(0, 25, 5):
            for t in range(25):
                assert service.reach(s, t) == bfs_reachable(working, s, t)
        metrics = service.metrics_dict()
        assert metrics["service"]["epoch"] == 1
        assert metrics["service"]["swaps"] == 1
        assert metrics["cache"]["invalidation_cycles"] == 1

    def test_dynamic_plain_index_is_patched(self):
        graph = random_dag(25, 55, seed=509)
        service = ReachabilityService(graph, index="TOL")
        ops = update_stream(graph, 8, seed=510, keep_acyclic=True)
        service.apply_updates(ops)
        working = graph.copy()
        for op in ops:
            if op.kind == "insert":
                working.add_edge(op.source, op.target)
            else:
                working.remove_edge(op.source, op.target)
        for s in range(0, 25, 4):
            for t in range(25):
                assert service.reach(s, t) == bfs_reachable(working, s, t)
        metrics = service.metrics_dict()["service"]
        assert metrics["patches"] == 1
        assert metrics["rebuilds"] == 0

    def test_rebuild_always_policy(self):
        graph = random_dag(25, 55, seed=511)
        service = ReachabilityService(graph, index="TOL", rebuild="always")
        service.apply_updates(update_stream(graph, 8, seed=512, keep_acyclic=True))
        metrics = service.metrics_dict()["service"]
        assert metrics["patches"] == 0
        assert metrics["rebuilds"] == 1

    def test_wrong_op_type_rejected(self):
        graph = random_dag(10, 15, seed=513)
        service = ReachabilityService(graph)
        labeled = random_labeled_digraph(10, 15, ["a"], seed=514)
        ops = labeled_update_stream(labeled, 2, seed=515)
        with pytest.raises(ServiceError):
            service.apply_updates(ops)

    def test_metrics_text_renders(self):
        graph = random_dag(10, 15, seed=516)
        service = ReachabilityService(graph)
        service.reach(0, 5)
        text = service.metrics_text()
        assert "service_epoch 0" in text
        assert "cache_hits 0" in text


class TestExecuteBatch:
    PAIRS = [(0, 5), (3, 17), (17, 3), (6, 6), (0, 5), (12, 1), (0, 5)]

    def test_answers_match_oracle_at_one_epoch(self):
        graph = random_dag(20, 45, seed=601)
        service = ReachabilityService(graph, index="GRAIL")
        results = service.execute_batch(self.PAIRS)
        assert [r.answer for r in results] == [
            bfs_reachable(graph, s, t) for s, t in self.PAIRS
        ]
        assert {r.epoch for r in results} == {0}
        assert service.execute_batch([]) == []

    def test_metrics_reconcile_across_cold_and_warm_batches(self):
        graph = random_dag(20, 45, seed=602)
        service = ReachabilityService(graph, index="GRAIL")
        unique = len(set(self.PAIRS))
        cold = service.execute_batch(self.PAIRS)
        # cold: nothing cached — every pair misses, the unique ones compute
        assert all(r.route == "plain_index" for r in cold)
        warm = service.execute_batch(self.PAIRS)
        assert all(r.route == "cache" for r in warm)
        assert [r.answer for r in warm] == [r.answer for r in cold]
        batch = service.metrics_dict()["service"]["batch"]
        assert batch["requests"] == 2
        assert batch["pairs"] == 2 * len(self.PAIRS)
        assert batch["cache_hits"] == len(self.PAIRS)  # all of the warm batch
        assert batch["computed"] == unique  # dedupe collapsed the cold batch
        assert batch["size"]["count"] == 2
        assert batch["latency"]["count"] == 2

    def test_cache_disabled_computes_everything(self):
        graph = random_dag(20, 45, seed=603)
        service = ReachabilityService(graph, cache_capacity=None)
        for _ in range(2):
            results = service.execute_batch(self.PAIRS)
            assert all(r.route == "plain_index" for r in results)
        batch = service.metrics_dict()["service"]["batch"]
        assert batch["cache_hits"] == 0
        assert batch["computed"] == 2 * len(set(self.PAIRS))

    def test_labeled_mode_uses_plain_projection(self):
        graph = random_labeled_digraph(20, 50, ["a", "b"], seed=604)
        service = ReachabilityService(graph)
        plain = graph.to_plain()
        answers = service.reach_batch(self.PAIRS)
        assert answers == [bfs_reachable(plain, s, t) for s, t in self.PAIRS]

    def test_batch_sees_the_epoch_it_acquired(self):
        graph = random_dag(20, 45, seed=605)
        service = ReachabilityService(graph, index="GRAIL")
        service.apply_updates(update_stream(graph, 5, seed=606))
        results = service.execute_batch(self.PAIRS)
        assert {r.epoch for r in results} == {1}


def _run_hammer(service, epoch_graphs, readers, queries_per_reader, check):
    """Readers verify answers against the oracle of their observed epoch."""
    errors: list[BaseException] = []
    start = threading.Barrier(readers + 1)

    def reader(seed):
        import random

        rng = random.Random(seed)
        n = epoch_graphs[0].num_vertices
        try:
            start.wait(10.0)
            for _ in range(queries_per_reader):
                s = rng.randrange(n)
                t = rng.randrange(n)
                check(service, epoch_graphs, s, t)
        except BaseException as exc:  # noqa: BLE001 — surfaced in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(900 + i,)) for i in range(readers)
    ]
    for thread in threads:
        thread.start()
    start.wait(10.0)
    return threads, errors


def _model_reaches(edges, source, target) -> bool:
    """BFS over a plain set of ``(u, v)`` pairs — no graph object involved,
    so a row two graphs wrongly share cannot hide in the oracle too."""
    successors: dict = {}
    for u, v in edges:
        successors.setdefault(u, []).append(v)
    seen, stack = {source}, [source]
    while stack:
        for w in successors.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return target in seen


class TestPinnedEpochsSurviveLaterWrites:
    """Copy-on-write rows, seen from above: a snapshot pinned at epoch *e*
    — or captured by ``checkpoint_state()`` — shares rows with every later
    epoch and must keep answering for *e* however many patches follow."""

    @pytest.mark.parametrize("index", ["DAGGER", "TC"])
    def test_service_snapshots_and_checkpoint_capture(self, index):
        import pickle
        import random

        from repro.graphs.digraph import DiGraph
        from repro.wal.recovery import checkpoint_payload

        graph = random_dag(40, 90, seed=611)
        n = graph.num_vertices
        stream = update_stream(graph, 220, seed=612, keep_acyclic=True)
        rng = random.Random(613)
        sample = [(rng.randrange(n), rng.randrange(n)) for _ in range(80)]
        service = ReachabilityService(graph, index=index)
        model = set(graph.edges())
        pinned = [(service.acquire(), frozenset(model))]
        captured = None
        for epoch, op in enumerate(stream, start=1):
            service.apply_updates([op])
            edit = model.add if op.kind == "insert" else model.discard
            edit((op.source, op.target))
            if epoch % 10 == 0:
                pinned.append((service.acquire(), frozenset(model)))
            if epoch == len(stream) // 2:
                captured = (service.checkpoint_state(), frozenset(model))
        counters = service.metrics_dict()["service"]
        assert (counters["patches"], counters["rebuilds"]) == (len(stream), 0)
        assert counters["patch_audit"]["failed"] == 0
        for snap, edges in pinned:
            assert snap.plain.graph is snap.graph
            assert set(snap.graph.edges()) == edges
            assert snap.graph.num_edges == len(edges)
            for s, t in sample:
                expected = _model_reaches(edges, s, t)
                assert snap.plain.query(s, t) == expected, (snap.epoch, s, t)
        # The capture is pickled only now, 110 patches after it was taken.
        state, edges = captured
        restored = pickle.loads(checkpoint_payload(state, {}))["service"]
        assert restored["epoch"] == len(stream) // 2
        assert restored["graph"] == DiGraph(n, sorted(edges))
        assert restored["graph"].num_edges == len(edges)

    def test_authz_snapshots(self):
        from repro.authz import AuthzStore
        from repro.obs.metrics import global_registry
        from repro.workloads.authz import authz_tuples
        from repro.workloads.updates import tuple_churn_stream

        base = authz_tuples(30, 6, 30, seed=621)
        store = AuthzStore("TC")
        store.write("acme", writes=base)
        patches0 = global_registry().counter("authz.patches").value
        model = set(base)
        names = sorted({name for t in base for name in (t.subject, t.object)})
        sample = [(a, b) for a in names[::3] for b in names[1::4]]
        pinned = [(store.snapshot("acme"), frozenset(model))]
        for epoch, op in enumerate(tuple_churn_stream(base, 260, seed=622), start=2):
            store.apply_updates("acme", [op])
            edit = model.add if op.kind == "grant" else model.discard
            edit(op.tuple())
            if epoch % 10 == 0:
                pinned.append((store.snapshot("acme"), frozenset(model)))
        assert global_registry().counter("authz.patches").value - patches0 >= 200
        for snap, tuples in pinned:
            assert snap.tuples == tuples and snap.index.graph is snap.plain
            assert {
                (snap.entities[u], label, snap.entities[v])
                for u, v, label in snap.graph.edges()
            } == {(t.subject, t.relation, t.object) for t in tuples}
            edges = {(t.subject, t.object) for t in tuples}
            assert {
                (snap.entities[u], snap.entities[v]) for u, v in snap.plain.edges()
            } == edges
            ids = snap.entity_ids
            for a, b in sample:
                if a in ids and b in ids:
                    expected = _model_reaches(edges, a, b)
                    assert snap.index.query(ids[a], ids[b]) == expected, (snap.epoch, a, b)


class TestSnapshotIsolationHammer:
    """The ISSUE acceptance test: concurrent readers vs a batching writer."""

    # rebuild vs patch paths (DAGGER can only follow a DAG-preserving stream)
    @pytest.mark.parametrize("index", ["GRAIL", "TC", "DAGGER"])
    def test_plain_hammer(self, index):
        graph = random_dag(50, 120, seed=601)
        stream = update_stream(graph, 40, seed=602, keep_acyclic=index == "DAGGER")
        batches = [stream[i : i + 8] for i in range(0, 40, 8)]
        # Per-epoch oracle graphs: epoch e == first e batches applied.
        epoch_graphs = [graph.copy()]
        for batch in batches:
            working = epoch_graphs[-1].copy()
            for op in batch:
                if op.kind == "insert":
                    working.add_edge(op.source, op.target)
                else:
                    working.remove_edge(op.source, op.target)
            epoch_graphs.append(working)
        service = ReachabilityService(graph, index=index, cache_capacity=512)

        def check(svc, oracles, s, t):
            result = svc.reach_ex(s, t)
            assert 0 <= result.epoch < len(oracles)
            expected = bfs_reachable(oracles[result.epoch], s, t)
            assert result.answer == expected, (s, t, result)

        threads, errors = _run_hammer(
            service, epoch_graphs, readers=4, queries_per_reader=150, check=check
        )
        for batch in batches:
            service.apply_updates(batch)
        for thread in threads:
            thread.join(30.0)
        assert not errors, errors[:3]
        metrics = service.metrics_dict()
        assert metrics["service"]["epoch"] == len(batches)
        assert metrics["service"]["swaps"] == len(batches)
        assert metrics["cache"]["invalidation_cycles"] == len(batches)
        assert metrics["service"]["updates_applied"] == sum(len(b) for b in batches)
        if index == "DAGGER":
            assert metrics["service"]["patches"] == len(batches)

    def test_labeled_hammer(self):
        graph = random_labeled_digraph(30, 80, ["a", "b", "c"], seed=603)
        stream = labeled_update_stream(graph, 24, seed=604)
        batches = [stream[i : i + 6] for i in range(0, 24, 6)]
        epoch_graphs = [graph.copy()]
        for batch in batches:
            working = epoch_graphs[-1].copy()
            for op in batch:
                if op.kind == "insert":
                    working.add_edge(op.source, op.target, op.label)
                else:
                    working.remove_edge(op.source, op.target, op.label)
            epoch_graphs.append(working)
        service = ReachabilityService(graph, cache_capacity=512)

        def check(svc, oracles, s, t):
            result = svc.lreach_ex(s, t, "(a | b)*")
            expected = rpq_reachable(oracles[result.epoch], s, t, "(a | b)*")
            assert result.answer == expected, (s, t, result)

        threads, errors = _run_hammer(
            service, epoch_graphs, readers=3, queries_per_reader=60, check=check
        )
        for batch in batches:
            service.apply_updates(batch)
        for thread in threads:
            thread.join(60.0)
        assert not errors, errors[:3]
        metrics = service.metrics_dict()
        assert metrics["service"]["epoch"] == len(batches)
        assert metrics["service"]["swaps"] == len(batches)
        assert metrics["cache"]["invalidation_cycles"] == len(batches)
