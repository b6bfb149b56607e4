"""The chaos matrix: every injected failure ends in a typed outcome.

Each test drives one seeded fault schedule through a real surface of the
stack — slow shard, dead build worker, corrupt index file, mid-query
delay, handler fault — and asserts the observable result is a typed
``repro`` error or a three-valued UNKNOWN.  Never a hang, never a wrong
boolean, never a raw traceback.  A final differential check pins the
happy path: with no policy installed the chaos layer is a no-op.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ChaosInjectedError, PersistenceError
from repro.graphs.generators import random_dag
from repro.resilience import (
    ChaosPolicy,
    Fault,
    chaos,
    chaos_active,
    chaos_point,
    deadline_scope,
    install_chaos,
    uninstall_chaos,
)
from repro.traversal.online import bfs_reachable


@pytest.fixture(autouse=True)
def _no_leaked_policy():
    """Every test starts and ends with chaos uninstalled."""
    uninstall_chaos()
    yield
    uninstall_chaos()


# -- Fault.parse ---------------------------------------------------------
class TestFaultParse:
    def test_error_kind(self):
        fault = Fault.parse("shard.build_worker=error")
        assert fault.point == "shard.build_worker"
        assert fault.kind == "error"
        assert fault.probability == 1.0

    def test_delay_with_probability_and_ms(self):
        fault = Fault.parse("kernels.sweep=delay:0.5:20")
        assert fault.kind == "delay"
        assert fault.probability == 0.5
        assert fault.delay_s == pytest.approx(0.020)

    def test_delay_defaults_to_nonzero(self):
        assert Fault.parse("kernels.sweep=delay").delay_s > 0

    @pytest.mark.parametrize(
        "spec", ["nope", "x=", "=error", "p=explode", "p=delay:x", "p=delay:1:y"]
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            Fault.parse(spec)

    def test_bad_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="kind"):
            Fault(point="x", kind="explode")


# -- deterministic schedules ---------------------------------------------
class TestDeterminism:
    def test_same_seed_same_decisions(self):
        def run(seed: int) -> list[int]:
            policy = ChaosPolicy(
                [Fault(point="p", kind="error", probability=0.5)], seed=seed
            )
            return [len(policy.decide("p")) for _ in range(50)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_after_skips_early_hits(self):
        policy = ChaosPolicy([Fault(point="p", kind="error", after=2)], seed=0)
        fired = [len(policy.decide("p")) for _ in range(4)]
        assert fired == [0, 0, 1, 1]

    def test_times_caps_injections(self):
        policy = ChaosPolicy([Fault(point="p", kind="error", times=2)], seed=0)
        fired = [len(policy.decide("p")) for _ in range(4)]
        assert fired == [1, 1, 0, 0]

    def test_wildcard_point_matches_prefix(self):
        policy = ChaosPolicy([Fault(point="shard.*", kind="error")], seed=0)
        assert policy.decide("shard.build_worker")
        assert not policy.decide("persistence.read")

    def test_corruption_is_deterministic(self):
        payload = bytes(range(256))

        def corrupt_once(seed: int) -> bytes:
            with chaos(ChaosPolicy([Fault(point="p", kind="corrupt")], seed=seed)):
                return chaos_point("p", payload)

        first, second = corrupt_once(3), corrupt_once(3)
        assert first == second
        assert first != payload


# -- the chaos matrix ----------------------------------------------------
class TestChaosMatrix:
    def test_slow_shard_build_still_succeeds(self):
        """Row 1: a slow shard delays the build but the result is exact."""
        from repro.shard import ShardedIndex

        graph = random_dag(120, 360, seed=601)
        policy = ChaosPolicy(
            [Fault(point="shard.build_worker", kind="delay", delay_s=0.05, times=1)],
            seed=1,
        )
        start = time.perf_counter()
        with chaos(policy):
            index = ShardedIndex.build(
                graph, family="PLL", num_shards=2, executor="serial"
            )
        assert time.perf_counter() - start >= 0.05
        assert policy.injected_counts()["shard.build_worker/delay"] == 1
        for source, target in [(0, 100), (5, 80), (110, 3)]:
            assert index.query(source, target) == bfs_reachable(graph, source, target)

    def test_dead_worker_retries_then_succeeds(self):
        """Row 2a: one worker death is absorbed by the retry budget."""
        from repro.shard import ShardedIndex

        graph = random_dag(120, 360, seed=602)
        with chaos(
            ChaosPolicy([Fault(point="shard.build_worker", kind="error", times=1)], seed=2)
        ):
            index = ShardedIndex.build(
                graph, family="PLL", num_shards=2, executor="serial"
            )
        assert max(index.shard_build_report.shard_attempts) == 2
        assert index.query(0, 100) == bfs_reachable(graph, 0, 100)

    def test_dead_worker_exhausting_retries_is_typed(self):
        """Row 2b: a permanently dead worker surfaces the typed error."""
        from repro.shard import ShardedIndex

        graph = random_dag(120, 360, seed=603)
        with chaos(
            ChaosPolicy([Fault(point="shard.build_worker", kind="error")], seed=3)
        ):
            with pytest.raises(ChaosInjectedError):
                ShardedIndex.build(
                    graph, family="PLL", num_shards=2, executor="serial"
                )

    def test_corrupt_index_file_is_typed(self, tmp_path):
        """Row 3: injected read corruption → checksum → PersistenceError."""
        from repro.core.registry import plain_index
        from repro.persistence import load_index, save_index

        graph = random_dag(40, 100, seed=604)
        index = plain_index("PLL").build(graph)
        path = tmp_path / "victim.repro"
        save_index(index, path)
        with chaos(ChaosPolicy([Fault(point="persistence.read", kind="corrupt")], seed=4)):
            with pytest.raises(PersistenceError, match="checksum mismatch"):
                load_index(path)
        # The file itself is intact: a clean read still works.
        assert load_index(path).query(0, 0)

    def test_mid_query_delay_with_deadline_is_unknown(self):
        """Row 4: a stalled kernel sweep under a deadline → UNKNOWN."""
        from repro.service import ReachabilityService

        graph = random_dag(400, 1200, seed=605)
        service = ReachabilityService(graph, index="GRAIL", cache_capacity=None)
        pairs = [(s, (s * 13 + 7) % 400) for s in range(40)]
        with chaos(
            ChaosPolicy(
                [Fault(point="kernels.sweep", kind="delay", delay_s=0.05)], seed=5
            )
        ):
            with deadline_scope(20.0):
                results = service.execute_batch(pairs)
        statuses = {result.status for result in results}
        # Every answer is typed: exact where the probe sufficed, UNKNOWN
        # where the stalled sweep ran out of budget.  Never a guess.
        assert statuses <= {"TRUE", "FALSE", "UNKNOWN"}
        assert "UNKNOWN" in statuses
        for result in results:
            if result.status == "UNKNOWN":
                assert result.route == "deadline_abort"

    def test_handler_fault_is_json_500_not_traceback(self):
        """Row 5: an injected handler fault is a JSON 500 on the wire."""
        from repro.service import ReachabilityService
        from repro.service.server import serve

        graph = random_dag(30, 90, seed=606)
        service = ReachabilityService(graph, index="PLL")
        server = serve(service, port=0)
        server.start_background()
        host, port = server.server_address[:2]
        try:
            with chaos(
                ChaosPolicy([Fault(point="service.handler", kind="error")], seed=6)
            ):
                try:
                    with urllib.request.urlopen(
                        f"http://{host}:{port}/reach?source=0&target=5", timeout=10
                    ) as response:
                        status, body = response.status, json.loads(response.read())
                except urllib.error.HTTPError as error:
                    status, body = error.code, json.loads(error.read())
            assert status == 500
            assert "injected fault" in body["error"]
            assert "Traceback" not in body["error"]
        finally:
            server.shutdown()
            server.server_close()

    def test_every_schedule_terminates_with_typed_outcome(self):
        """Sweep of seeds: chaos never produces an untyped escape."""
        from repro.core.registry import plain_index
        from repro.errors import ReproError
        from repro.persistence import load_index, save_index
        from repro.service import ReachabilityService

        graph = random_dag(80, 240, seed=607)
        for seed in range(5):
            policy = ChaosPolicy(
                [
                    Fault(point="persistence.read", kind="corrupt", probability=0.5),
                    Fault(point="kernels.sweep", kind="delay", delay_s=0.002,
                          probability=0.5),
                    Fault(point="service.handler", kind="error", probability=0.3),
                ],
                seed=seed,
            )
            with chaos(policy):
                service = ReachabilityService(graph, index="GRAIL",
                                              cache_capacity=None)
                with deadline_scope(50.0):
                    for result in service.execute_batch([(0, 70), (5, 60)]):
                        assert result.status in ("TRUE", "FALSE", "UNKNOWN")
                try:
                    import tempfile

                    with tempfile.TemporaryDirectory() as tmp:
                        path = f"{tmp}/x.repro"
                        save_index(plain_index("PLL").build(graph), path)
                        load_index(path)
                except ReproError:
                    pass  # typed: exactly what resilience promises


# -- happy-path differential ---------------------------------------------
class TestHappyPathUnchanged:
    def test_chaos_point_is_noop_without_policy(self):
        assert not chaos_active()
        payload = b"precious bytes"
        assert chaos_point("persistence.read", payload) is payload
        assert chaos_point("kernels.sweep") is None

    def test_install_uninstall_toggles(self):
        policy = ChaosPolicy([Fault(point="p", kind="error")], seed=0)
        install_chaos(policy)
        assert chaos_active()
        with pytest.raises(ChaosInjectedError):
            chaos_point("p")
        uninstall_chaos()
        assert not chaos_active()
        chaos_point("p")  # no-op again

    def test_differential_matrix_chaos_off_no_deadline(self):
        """With chaos off and no deadline, answers are byte-identical to
        the traversal oracle across the full vertex matrix."""
        from repro.service import ReachabilityService

        graph = random_dag(25, 70, seed=608)
        service = ReachabilityService(graph, index="GRAIL", cache_capacity=None)
        n = graph.num_vertices
        for source in range(n):
            for target in range(n):
                result = service.reach_ex(source, target)
                assert result.answer == bfs_reachable(graph, source, target)
                assert result.status in ("TRUE", "FALSE")
                assert result.route in ("plain_index", "cache")

    def test_counters_track_injections(self):
        from repro.obs.metrics import global_registry

        def injected_delays() -> int:
            tree = global_registry().as_dict()
            return tree.get("chaos", {}).get("injected", {}).get("delay", 0)

        before = injected_delays()
        with chaos(ChaosPolicy([Fault(point="p", kind="delay", delay_s=0.0)], seed=9)):
            chaos_point("p")
        assert injected_delays() == before + 1
