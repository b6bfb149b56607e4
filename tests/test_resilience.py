"""Tests for the resilience layer: deadlines, breaker, retry, admission.

The chaos-matrix tests (every injected failure → typed outcome) live in
``test_chaos.py``; this file covers the primitives and their integration
with the engine and the HTTP front door.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import DeadlineExceeded, QueryError, ServiceOverloadedError
from repro.graphs.generators import random_dag
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    current_deadline,
    deadline_scope,
    remaining_ms,
    retry_call,
)
from repro.service import AdmissionController, ReachabilityService
from repro.service.server import serve
from repro.traversal.online import bfs_reachable


# -- deadline primitives -------------------------------------------------
class TestDeadline:
    def test_no_scope_no_deadline(self):
        assert current_deadline() is None
        assert remaining_ms() is None

    def test_none_timeout_is_passthrough(self):
        with deadline_scope(None) as deadline:
            assert deadline is None
            assert current_deadline() is None

    def test_scope_installs_and_restores(self):
        with deadline_scope(1000.0) as deadline:
            assert current_deadline() is deadline
            assert 0 < remaining_ms() <= 1000.0
        assert current_deadline() is None

    def test_expired_check_raises_typed(self):
        with deadline_scope(0.0) as deadline:
            with pytest.raises(DeadlineExceeded, match="budget 0.0ms"):
                deadline.check()

    def test_nested_scope_keeps_tighter(self):
        with deadline_scope(10_000.0) as outer:
            with deadline_scope(5.0) as inner:
                assert inner is not outer
                assert current_deadline() is inner
            # An inner scope never *extends* the outer budget.
            with deadline_scope(60_000.0) as widened:
                assert widened is outer
            assert current_deadline() is outer

    def test_deadline_is_thread_local(self):
        seen: list[object] = []

        def probe() -> None:
            seen.append(current_deadline())

        with deadline_scope(1000.0):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen == [None]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Deadline()
        with pytest.raises(ValueError):
            Deadline(timeout_ms=1, expires_at=1.0)
        with pytest.raises(ValueError):
            Deadline(timeout_ms=-1)


class TestDeadlineInTraversal:
    def test_bfs_aborts_on_expired_deadline(self):
        graph = random_dag(5000, 20000, seed=13)
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                bfs_reachable(graph, 0, 1)

    def test_no_deadline_answers_exactly(self):
        graph = random_dag(200, 600, seed=14)
        # Same call, no scope: must stay exact (strictly additive).
        assert bfs_reachable(graph, 0, 0) is True

    def test_kernel_batch_aborts(self):
        from repro.kernels.bitbfs import batch_reachable

        graph = random_dag(2000, 8000, seed=15)
        pairs = [(s, (s * 7) % 2000) for s in range(100)]
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                batch_reachable(graph, pairs)

    def test_sharded_query_batch_aborts(self):
        from repro.shard import ShardedIndex

        graph = random_dag(300, 900, seed=16)
        index = ShardedIndex.build(graph, family="PLL", num_shards=3)
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                index.query_batch([(0, 250), (1, 200)])

    def test_deadline_hammer_overshoot_bounded(self):
        """p100 overshoot past the budget stays bounded by the stride."""
        graph = random_dag(3000, 12000, seed=17)
        budget_ms = 2.0
        worst_overshoot = 0.0
        for trial in range(20):
            start = time.perf_counter()
            with deadline_scope(budget_ms):
                try:
                    for source in range(0, 3000, 100):
                        bfs_reachable(graph, source, (source + 1500) % 3000)
                except DeadlineExceeded:
                    pass
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            worst_overshoot = max(worst_overshoot, elapsed_ms - budget_ms)
        # The stride bounds overshoot to ~256 visits of pure-python BFS
        # plus scheduler noise; 250ms is far above that but far below an
        # unchecked full sweep.
        assert worst_overshoot < 250.0


# -- circuit breaker -----------------------------------------------------
class TestCircuitBreaker:
    def test_closed_allows(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=60.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_single_probe_then_close(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.0)
        breaker.record_failure()
        assert breaker.state == "open"
        # Cooldown of zero: next allow() becomes the half-open probe.
        assert breaker.allow()
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=5, cooldown_s=0.0)
        for _ in range(5):
            breaker.record_failure()
        assert breaker.allow()  # the probe
        breaker.record_failure()  # probe failed: straight back to open
        assert breaker.state == "open"

    def test_snapshot_shape(self):
        breaker = CircuitBreaker(name="idx", failure_threshold=4)
        snap = breaker.snapshot()
        assert snap["name"] == "idx"
        assert snap["state"] == "closed"
        assert snap["failure_threshold"] == 4

    def test_hammer_one_half_open_trial_in_flight(self, fast_thread_switching):
        """Never CLOSED, so every admission is a HALF_OPEN trial: at most
        one may be out at a time, and the unlocked CLOSED read must never
        admit a second."""
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.0)
        breaker.trip("hammer")
        guard = threading.Lock()
        in_flight = peak = trials = 0

        def worker() -> None:
            nonlocal in_flight, peak, trials
            for _ in range(2000):
                if not breaker.allow():
                    continue
                with guard:
                    in_flight += 1
                    trials += 1
                    peak = max(peak, in_flight)
                time.sleep(0)  # hold the trial across a thread switch
                with guard:
                    in_flight -= 1
                breaker.record_failure()  # re-opens; cooldown 0 re-arms

        threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
        assert trials > 8 and peak == 1
        assert breaker.state == "open"

    def test_hammer_trip_is_seen_by_every_later_allow(self, fast_thread_switching):
        """Readers spin on the lock-free CLOSED paths while failures and
        successes interleave; an ``allow()`` that starts after ``trip()``
        returned is refused until the cooldown, then exactly one trial."""
        cooldown = 0.25
        breaker = CircuitBreaker(failure_threshold=10**9, cooldown_s=cooldown)
        workers = 8
        allow_only = threading.Event()
        switched = threading.Barrier(workers + 1)
        tripped = threading.Event()
        stop = threading.Event()
        refused_while_closed = []
        admitted_after_trip = []  # time.monotonic() of each admission

        def worker(flaky: bool) -> None:
            while not allow_only.is_set():
                if not breaker.allow():
                    refused_while_closed.append(1)
                if flaky:
                    breaker.record_failure()  # far below the threshold
                breaker.record_success()
            switched.wait(30.0)
            while not stop.is_set():
                after_trip = tripped.is_set()
                if breaker.allow() and after_trip:
                    admitted_after_trip.append(time.monotonic())

        threads = [
            threading.Thread(target=worker, args=(slot % 2 == 0,), daemon=True)
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        allow_only.set()
        switched.wait(30.0)  # nobody reports an outcome from here on
        breaker.record_success()
        assert breaker.snapshot()["consecutive_failures"] == 0
        breaker.trip("hammer")
        tripped.set()
        time.sleep(cooldown + 0.25)
        stop.set()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
        assert refused_while_closed == []
        assert len(admitted_after_trip) == 1  # the single half-open trial
        assert admitted_after_trip[0] >= breaker._opened_at + cooldown
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()


# -- retry ---------------------------------------------------------------
class TestRetry:
    def test_first_try_success_is_one_attempt(self):
        result, attempts = retry_call(lambda: 42, attempts=3)
        assert (result, attempts) == (42, 1)

    def test_retries_transient_failures(self):
        calls = {"n": 0}

        def flaky() -> str:
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        result, attempts = retry_call(
            flaky, attempts=3, base_delay_s=0.0, rng=random.Random(1)
        )
        assert (result, attempts) == ("ok", 3)

    def test_exhausted_attempts_propagate_last_error(self):
        def always() -> None:
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            retry_call(always, attempts=2, base_delay_s=0.0, rng=random.Random(2))

    def test_retry_on_filters_exception_types(self):
        def wrong_kind() -> None:
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            retry_call(
                wrong_kind,
                attempts=5,
                base_delay_s=0.0,
                retry_on=(OSError,),
                rng=random.Random(3),
            )

    def test_on_retry_callback_sees_each_failure(self):
        seen: list[tuple[int, str]] = []

        def flaky() -> int:
            if len(seen) < 2:
                raise ValueError(f"boom{len(seen)}")
            return 7

        retry_call(
            flaky,
            attempts=3,
            base_delay_s=0.0,
            rng=random.Random(4),
            on_retry=lambda attempt, exc: seen.append((attempt, str(exc))),
        )
        assert seen == [(1, "boom0"), (2, "boom1")]


# -- shard build retry ---------------------------------------------------
class TestShardBuildRetry:
    def test_report_attempts_all_ones_without_faults(self):
        from repro.shard import ShardedIndex

        graph = random_dag(120, 360, seed=18)
        index = ShardedIndex.build(graph, family="PLL", num_shards=3)
        report = index.shard_build_report
        assert report.shard_attempts == (1,) * len(report.shard_sizes)
        assert "attempts" not in report.render_text()

    def test_transient_worker_death_retries(self):
        from repro.resilience import ChaosPolicy, Fault, chaos
        from repro.shard import ShardedIndex

        graph = random_dag(120, 360, seed=19)
        policy = ChaosPolicy(
            [Fault(point="shard.build_worker", kind="error", times=1)], seed=5
        )
        with chaos(policy):
            index = ShardedIndex.build(
                graph, family="PLL", num_shards=2, executor="serial"
            )
        attempts = index.shard_build_report.shard_attempts
        assert sorted(attempts) == [1, 2]  # one shard needed a second try
        assert "attempts" in index.shard_build_report.render_text()


# -- admission control ---------------------------------------------------
class TestAdmissionController:
    def test_admits_within_bounds(self):
        controller = AdmissionController(max_concurrent=2, queue_depth=0)
        with controller.admit():
            assert controller.in_flight == 1
        assert controller.in_flight == 0

    def test_sheds_when_saturated(self):
        controller = AdmissionController(
            max_concurrent=1, queue_depth=0, queue_timeout_s=0.0
        )
        held = controller.admit()
        with pytest.raises(ServiceOverloadedError) as info:
            controller.admit()
        assert info.value.retry_after_s > 0
        held.release()
        with controller.admit():  # capacity returns after release
            pass

    def test_queue_timeout_sheds(self):
        controller = AdmissionController(
            max_concurrent=1, queue_depth=4, queue_timeout_s=0.02
        )
        held = controller.admit()
        start = time.perf_counter()
        with pytest.raises(ServiceOverloadedError, match="no capacity"):
            controller.admit()
        assert time.perf_counter() - start < 1.0
        held.release()

    def test_queued_request_proceeds_when_slot_frees(self):
        controller = AdmissionController(
            max_concurrent=1, queue_depth=4, queue_timeout_s=2.0
        )
        held = controller.admit()
        outcome: list[str] = []

        def waiter() -> None:
            try:
                with controller.admit():
                    outcome.append("admitted")
            except ServiceOverloadedError:
                outcome.append("shed")

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        held.release()
        thread.join(timeout=5)
        assert outcome == ["admitted"]

    def test_draining_refuses_new_work(self):
        controller = AdmissionController(max_concurrent=4)
        controller.start_draining()
        with pytest.raises(ServiceOverloadedError, match="draining"):
            controller.admit()

    def test_wait_drained(self):
        controller = AdmissionController(max_concurrent=4)
        held = controller.admit()
        assert controller.wait_drained(timeout_s=0.02) is False
        held.release()
        assert controller.wait_drained(timeout_s=1.0) is True


# -- engine degradation --------------------------------------------------
class TestEngineDegradation:
    def test_deadline_abort_is_unknown_and_uncached(self):
        # A long chain: guided traversal must walk every vertex, so the
        # strided deadline check is guaranteed to fire.
        from repro.graphs.digraph import DiGraph

        graph = DiGraph(5000)
        for vertex in range(4999):
            graph.add_edge(vertex, vertex + 1)
        service = ReachabilityService(
            graph, index="GRAIL", cache_capacity=4096, coalesce=False
        )
        with deadline_scope(0.0):
            degraded = service.reach_ex(0, 4999)
        assert degraded.route == "deadline_abort"
        assert degraded.answer is None
        assert degraded.status == "UNKNOWN"
        # The UNKNOWN was not cached: the next exact answer is computed.
        exact = service.reach_ex(0, 4999)
        assert exact.route != "cache"
        assert exact.answer is True

    def test_batch_deadline_degrades_to_unknown(self):
        graph = random_dag(2000, 8000, seed=21)
        service = ReachabilityService(graph, index="BFL", cache_capacity=None)
        with deadline_scope(0.0):
            results = service.execute_batch([(0, 1999), (1, 1500)])
        assert [r.status for r in results] == ["UNKNOWN", "UNKNOWN"]
        assert {r.route for r in results} == {"deadline_abort"}

    def test_broken_index_trips_breaker_and_degrades(self):
        graph = random_dag(100, 300, seed=22)
        service = ReachabilityService(
            graph,
            index="PLL",
            cache_capacity=None,
            coalesce=False,
            breaker_threshold=2,
            breaker_cooldown_s=300.0,
        )
        snapshot = service.acquire()
        original = type(snapshot.plain).query
        type(snapshot.plain).query = lambda self, s, t: 1 / 0
        try:
            for _ in range(2):
                result = service.reach_ex(3, 70)
                assert result.route == "degraded"
            assert service.breaker.state == "open"
            # Breaker open: the broken query is no longer even invoked.
            result = service.reach_ex(3, 70)
            assert result.route == "degraded"
        finally:
            type(snapshot.plain).query = original

    def test_degraded_answer_uses_index_certificates(self):
        graph = random_dag(100, 300, seed=23)
        service = ReachabilityService(
            graph, index="PLL", cache_capacity=None, breaker_threshold=1,
            breaker_cooldown_s=300.0,
        )
        service.breaker.record_failure()  # force open
        assert service.breaker.state == "open"
        # PLL is complete: its lookup still yields exact TRUE/FALSE, so
        # degraded answers stay exact for a complete index.
        from repro.traversal.online import bfs_reachable as oracle

        for source, target in [(0, 50), (10, 90), (5, 5)]:
            result = service.reach_ex(source, target)
            assert result.route == "degraded"
            assert result.answer == oracle(graph, source, target)

    def test_explain_reports_degraded_route(self):
        graph = random_dag(50, 150, seed=24)
        service = ReachabilityService(
            graph, index="PLL", cache_capacity=None, breaker_threshold=1,
            breaker_cooldown_s=300.0,
        )
        service.breaker.record_failure()
        explanation = service.explain(0, 30)
        assert explanation.route == "degraded"
        assert "circuit breaker" in " ".join(explanation.details)

    @pytest.mark.parametrize(
        "fault", ["cache hit", "healthy", "breaker open", "index raises", "deadline expired"]
    )
    def test_explain_reach_and_batch_agree_under_faults(self, fault, monkeypatch):
        """One read pipeline: ``explain`` reports what ``reach_ex`` and
        ``execute_batch`` do — same answer, same serving-tier route — and
        every exact answer they serve is offered to the auditor."""
        from repro.graphs.digraph import DiGraph

        serving_routes = {"cache", "degraded", "deadline_abort"}
        if fault == "deadline expired":
            # A chain: GRAIL answers MAYBE and every evaluator must walk it,
            # so the strided deadline checks are guaranteed to fire.
            graph = DiGraph(2000)
            for vertex in range(1999):
                graph.add_edge(vertex, vertex + 1)
            family, pair, budget = "GRAIL", (0, 1999), 0.0
        else:
            graph = random_dag(60, 180, seed=26)
            family, pair, budget = "PLL", (3, 40), None
        service = ReachabilityService(
            graph,
            index=family,
            cache_capacity=16 if fault == "cache hit" else None,
            breaker_cooldown_s=300.0,
        )
        offered: list[tuple[bool, str]] = []

        class Recorder:
            def offer(self, snap, source, target, answer, route):
                offered.append((answer, route))

        if fault == "cache hit":
            service.reach_ex(*pair)
        elif fault == "breaker open":
            service.breaker.trip("test")
        elif fault == "index raises":
            index = service.acquire().plain

            def boom(*_args):
                raise RuntimeError("index fault")

            for method in ("query", "query_batch", "explain"):
                monkeypatch.setattr(index, method, boom)
        service.attach_auditor(Recorder())
        with deadline_scope(budget):
            explanation = service.explain(*pair)
            assert offered == []  # explain has no side effects
            scalar = service.reach_ex(*pair)
            [batched] = service.execute_batch([pair])
        expected = {
            "cache hit": "cache",
            "breaker open": "degraded",
            "index raises": "degraded",
            "deadline expired": "deadline_abort",
        }.get(fault)
        assert explanation.answer == scalar.answer == batched.answer
        if expected is None:
            routes = {explanation.route, scalar.route, batched.route}
            assert not routes & serving_routes
            assert scalar.answer == bfs_reachable(graph, *pair)
        else:
            assert explanation.route == scalar.route == batched.route == expected
        if fault == "deadline expired":
            assert scalar.answer is None and offered == []
        else:
            # PLL is complete, so even degraded certificates are exact —
            # and exact answers are audited whatever route served them.
            assert scalar.answer == bfs_reachable(graph, *pair)
            assert offered == [
                (scalar.answer, scalar.route),
                (batched.answer, batched.route),
            ]

    @pytest.mark.parametrize("breaker", ["healthy", "breaker open"])
    @pytest.mark.parametrize("surface", ["reach_ex", "execute_batch", "explain"])
    def test_caller_mistakes_stay_errors(self, surface, breaker):
        """An out-of-range vertex is the caller's error, not an index
        failure: it raises whatever the breaker state, never UNKNOWN."""
        graph = random_dag(30, 60, seed=79)
        service = ReachabilityService(
            graph, index="PLL", breaker_threshold=1, breaker_cooldown_s=300.0
        )
        if breaker == "breaker open":
            service.breaker.trip("test")
        ask = {
            "reach_ex": service.reach_ex,
            "execute_batch": lambda s, t: service.execute_batch([(0, 1), (s, t)]),
            "explain": service.explain,
        }[surface]
        for bad in [(10**6, 0), (-1, 0), (0, 30), (0, -1)]:
            with pytest.raises(QueryError):
                ask(*bad)
        # the mistakes neither tripped nor healed the breaker
        assert service.breaker.state == (
            "open" if breaker == "breaker open" else "closed"
        )

    def test_metrics_dict_has_breaker(self):
        graph = random_dag(30, 80, seed=25)
        service = ReachabilityService(graph, index="PLL")
        payload = service.metrics_dict()
        assert payload["breaker"]["state"] == "closed"
        assert payload["breaker"]["name"] == "index:PLL"


# -- HTTP front door -----------------------------------------------------
def _get(url: str, headers: dict[str, str] | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


@pytest.fixture
def http_service():
    graph = random_dag(60, 180, seed=26)
    service = ReachabilityService(graph, index="PLL")
    admission = AdmissionController(
        max_concurrent=2, queue_depth=0, queue_timeout_s=0.02
    )
    server = serve(service, port=0)
    server.admission = admission
    server.start_background()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", admission, server
    server.shutdown()
    server.server_close()


class TestHTTPResilience:
    def test_payload_has_status_field(self, http_service):
        base, _admission, _server = http_service
        _status, _headers, body = _get(f"{base}/reach?source=0&target=5")
        assert body["status"] in ("TRUE", "FALSE")
        assert body["reachable"] is not None

    def test_timeout_param_accepted(self, http_service):
        base, _admission, _server = http_service
        status, _headers, body = _get(
            f"{base}/reach?source=0&target=5&timeout_ms=5000"
        )
        assert status == 200

    def test_timeout_header_accepted(self, http_service):
        base, _admission, _server = http_service
        status, _headers, _body = _get(
            f"{base}/reach?source=0&target=5", headers={"X-Timeout-Ms": "5000"}
        )
        assert status == 200

    def test_bad_timeout_is_400(self, http_service):
        base, _admission, _server = http_service
        status, _headers, body = _get(f"{base}/reach?source=0&target=5&timeout_ms=x")
        assert status == 400
        assert "timeout_ms" in body["error"]

    def test_saturation_sheds_503_with_retry_after(self, http_service):
        base, admission, _server = http_service
        held = [admission.admit(), admission.admit()]
        try:
            status, headers, body = _get(f"{base}/reach?source=0&target=5")
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_s"] > 0
        finally:
            for slot in held:
                slot.release()

    def test_health_probes_bypass_admission(self, http_service):
        base, admission, _server = http_service
        held = [admission.admit(), admission.admit()]
        try:
            status, _headers, body = _get(f"{base}/healthz")
            assert status == 200
            assert body["status"] == "ok"
            status, _headers, body = _get(f"{base}/readyz")
            assert status == 200
            assert body["in_flight"] == 2
        finally:
            for slot in held:
                slot.release()

    def test_unexpected_error_is_json_500(self, http_service):
        base, _admission, server = http_service
        snapshot = server.service.acquire()
        original = type(snapshot.plain).lookup  # break below the engine's net
        original_query = type(snapshot.plain).query
        type(snapshot.plain).query = lambda self, s, t: 1 / 0
        type(snapshot.plain).lookup = lambda self, s, t: 1 / 0
        try:
            status, _headers, body = _get(f"{base}/explain?source=0&target=5")
            assert status in (200, 500)
            if status == 500:
                assert "error" in body  # JSON, never a raw traceback
        finally:
            type(snapshot.plain).lookup = original
            type(snapshot.plain).query = original_query


class TestDrain:
    def test_drain_stops_server_and_reports(self):
        graph = random_dag(30, 90, seed=27)
        service = ReachabilityService(graph, index="PLL")
        server = serve(service, port=0)
        server.start_background()
        host, port = server.server_address[:2]
        status, _headers, _body = _get(f"http://{host}:{port}/healthz")
        assert status == 200
        assert server.drain(timeout_s=2.0) is True
        # The listener is closed: connecting now fails fast.
        import socket

        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1).close()
