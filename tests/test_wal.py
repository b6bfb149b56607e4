"""Unit tests for the write-ahead log, recovery, and the patch audit.

Covers the frame format (CRC detection, torn tails truncated, mid-log
corruption refused with a typed error), segment rotation, checkpoint +
truncation, bounded write admission, the three ``wal.*`` chaos points,
the engine/authz append-before-swap integration, doomed patch batches
(refused by the family, then rebuilt), the post-patch differential audit
(a seeded bad patch becomes a counted rebuild, never a wrong answer),
and the OpenMetrics surfacing
of the new ``repro_wal_*`` / ``repro_service_writes`` series.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.authz import AuthzStore
from repro.authz.tuples import parse_tuple
from repro.errors import WALCorruptionError, WALError, WriteBacklogError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import random_dag
from repro.obs.metrics import global_registry
from repro.resilience import ChaosPolicy, Fault, chaos, uninstall_chaos
from repro.service import ReachabilityService
from repro.slo.openmetrics import service_openmetrics, validate_openmetrics
from repro.traversal.online import bfs_reachable
from repro.wal import (
    CheckpointManager,
    WriteAheadLog,
    recover_states,
)
from repro.workloads.updates import EdgeOp


@pytest.fixture(autouse=True)
def _no_leaked_policy():
    uninstall_chaos()
    yield
    uninstall_chaos()


def _open(directory, **kwargs) -> WriteAheadLog:
    kwargs.setdefault("fsync", "off")
    wal = WriteAheadLog(directory, **kwargs)
    wal.recover()
    return wal


def _line_graph(n: int = 6) -> DiGraph:
    graph = DiGraph(n)
    for v in range(n - 1):
        graph.add_edge(v, v + 1)
    return graph


# -- frame format and replay ---------------------------------------------
class TestFraming:
    def test_append_replay_round_trip(self, tmp_path):
        wal = _open(tmp_path)
        lsns = [wal.append("update", {"epoch": i, "ops": []}) for i in (1, 2, 3)]
        assert lsns == [1, 2, 3]
        assert wal.last_lsn == 3
        wal.close()

        wal2 = WriteAheadLog(tmp_path, fsync="off")
        replay = wal2.recover()
        assert [r.lsn for r in replay.records] == [1, 2, 3]
        assert [r.data["epoch"] for r in replay.records] == [1, 2, 3]
        assert not replay.torn_tail
        wal2.close()

    def test_torn_tail_truncated_not_served(self, tmp_path):
        wal = _open(tmp_path)
        wal.append("update", {"epoch": 1, "ops": []})
        wal.close()
        segments = sorted(tmp_path.glob("wal-*.log"))
        with open(segments[-1], "ab") as sink:
            sink.write(b"\x00\x01torn-partial-frame")

        wal2 = WriteAheadLog(tmp_path, fsync="off")
        replay = wal2.recover()
        assert replay.torn_tail
        assert replay.truncated_bytes > 0
        assert [r.data["epoch"] for r in replay.records] == [1]
        # The truncation is physical: a third open replays cleanly.
        wal2.close()
        wal3 = WriteAheadLog(tmp_path, fsync="off")
        assert not wal3.recover().torn_tail
        wal3.close()

    def test_crc_flip_in_tail_is_detected(self, tmp_path):
        wal = _open(tmp_path)
        wal.append("update", {"epoch": 1, "ops": []})
        wal.close()
        segment = sorted(tmp_path.glob("wal-*.log"))[-1]
        blob = bytearray(segment.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte under an intact CRC
        segment.write_bytes(bytes(blob))

        wal2 = WriteAheadLog(tmp_path, fsync="off")
        replay = wal2.recover()
        # Never a silently-wrong record: the damaged frame is dropped.
        assert replay.torn_tail
        assert replay.records == []
        wal2.close()

    def test_mid_log_corruption_is_a_typed_error(self, tmp_path):
        wal = _open(tmp_path, segment_bytes=4096)
        big = {"epoch": 0, "ops": [["insert", i, i + 1] for i in range(400)]}
        for epoch in range(1, 6):
            wal.append("update", dict(big, epoch=epoch))
        wal.close()
        segments = sorted(tmp_path.glob("wal-*.log"))
        assert len(segments) > 2, "need rotation for a non-final segment"
        blob = bytearray(segments[0].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        segments[0].write_bytes(bytes(blob))

        wal2 = WriteAheadLog(tmp_path, fsync="off")
        with pytest.raises(WALCorruptionError) as err:
            wal2.recover()
        assert str(segments[0]) in str(err.value)

    def test_rotation_seals_segments(self, tmp_path):
        wal = _open(tmp_path, segment_bytes=4096)
        payload = {"epoch": 0, "ops": [["insert", i, i + 1] for i in range(200)]}
        for epoch in range(1, 8):
            wal.append("update", dict(payload, epoch=epoch))
        assert wal.status()["segments"] > 1
        wal.close()
        wal2 = WriteAheadLog(tmp_path, fsync="off")
        replay = wal2.recover()
        assert [r.data["epoch"] for r in replay.records] == list(range(1, 8))
        assert replay.segments_read > 1
        wal2.close()

    def test_append_requires_recover_and_close_refuses(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        with pytest.raises(WALError):
            wal.append("update", {"epoch": 1, "ops": []})
        wal.recover()
        wal.close()
        with pytest.raises(WALError):
            wal.append("update", {"epoch": 1, "ops": []})

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(WALError):
            WriteAheadLog(tmp_path, fsync="sometimes")


# -- checkpoints ---------------------------------------------------------
class TestCheckpoints:
    def test_checkpoint_truncates_covered_segments(self, tmp_path):
        wal = _open(tmp_path, segment_bytes=4096)
        payload = {"epoch": 0, "ops": [["insert", i, i + 1] for i in range(200)]}
        for epoch in range(1, 8):
            wal.append("update", dict(payload, epoch=epoch))
        before = len(list(tmp_path.glob("wal-*.log")))
        removed = wal.write_checkpoint(b"state", lsn=wal.last_lsn)
        assert removed > 0
        assert len(list(tmp_path.glob("wal-*.log"))) == before - removed
        lsn, body = wal.read_checkpoint()
        assert lsn == wal.last_lsn
        assert body == b"state"
        wal.close()

    def test_manager_checkpoints_service_and_authz(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        graph = _line_graph()
        recovered = recover_states(wal, graph)  # drives wal.recover()
        service = ReachabilityService(recovered.graph, index="TC")
        service.attach_wal(wal)
        store = AuthzStore("TC")
        store.attach_wal(wal)
        service.apply_updates([EdgeOp("delete", 0, 1)])
        zookie = store.write(
            "acl", writes=[parse_tuple("user:a#member@group:g")]
        )
        manager = CheckpointManager(wal, service=service, authz=store)
        assert manager.maybe_checkpoint(force=True)
        # Stamped with min over the producers' applied LSNs (the service
        # appended at lsn 1, authz at lsn 2) — conservative on purpose.
        assert wal.last_checkpoint_lsn == 1
        wal.close()

        wal2 = WriteAheadLog(tmp_path, fsync="off")
        state = recover_states(wal2, graph)
        assert state.from_checkpoint
        # Both records still sit in the active (undeleted) segment, so
        # both replay — and both are skipped because their epochs are
        # already reflected in the checkpoint capture.  That epoch
        # idempotence is what makes the conservative stamp exact.
        assert state.records_applied == 0
        assert state.records_skipped == 2
        assert state.epoch == 1
        assert not bfs_reachable(state.graph, 0, 1)
        assert state.authz["acl"]["epoch"] == zookie.epoch
        assert state.authz["acl"]["tuples"] == ["user:a#member@group:g"]
        wal2.close()

    def test_idle_manager_skips_redundant_checkpoints(self, tmp_path):
        wal = _open(tmp_path)
        graph = _line_graph()
        service = ReachabilityService(graph, index="TC")
        service.attach_wal(wal)
        service.apply_updates([EdgeOp("delete", 0, 1)])
        manager = CheckpointManager(wal, service=service, every_records=1)
        assert manager.maybe_checkpoint()
        assert not manager.maybe_checkpoint()  # no growth since
        wal.close()


# -- admission and chaos -------------------------------------------------
class TestAdmissionAndChaos:
    def test_backpressure_sheds_beyond_max_pending(self, tmp_path):
        wal = _open(tmp_path, max_pending=2)
        entered = threading.Barrier(3)
        release = threading.Event()
        errors: list[Exception] = []

        def writer():
            try:
                with wal.admitted():
                    entered.wait(timeout=5)
                    release.wait(timeout=5)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=5)  # both writers hold admission slots
        with pytest.raises(WriteBacklogError) as err:
            with wal.admitted():
                pass
        assert err.value.http_status == 429
        assert err.value.retry_after_s > 0
        payload = err.value.as_payload()
        assert payload["pending"] == 2 and payload["limit"] == 2
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert errors == []
        wal.close()

    def test_chaos_torn_append_never_acks_and_poisons(self, tmp_path):
        wal = _open(tmp_path)
        wal.append("update", {"epoch": 1, "ops": []})
        fault = Fault(point="wal.append", kind="corrupt")
        with chaos(ChaosPolicy([fault], seed=7)):
            with pytest.raises(WALError):
                wal.append("update", {"epoch": 2, "ops": []})
        # Fail-stop: the log refuses to append past a suspect tail.
        with pytest.raises(WALError):
            wal.append("update", {"epoch": 3, "ops": []})
        assert wal.status()["poisoned"]
        wal.close()

        # Restart: the torn tail is truncated, epoch 1 survives intact.
        wal2 = WriteAheadLog(tmp_path, fsync="off")
        replay = wal2.recover()
        assert replay.torn_tail
        assert [r.data["epoch"] for r in replay.records] == [1]
        wal2.close()

    def test_chaos_replay_corruption_is_typed_or_truncated(self, tmp_path):
        wal = _open(tmp_path)
        for epoch in (1, 2, 3):
            wal.append("update", {"epoch": epoch, "ops": []})
        wal.close()
        fault = Fault(point="wal.replay", kind="corrupt")
        with chaos(ChaosPolicy([fault], seed=11)):
            wal2 = WriteAheadLog(tmp_path, fsync="off")
            try:
                replay = wal2.recover()
            except WALCorruptionError:
                return  # typed refusal is an accepted outcome
            # Otherwise the damage must have been dropped, never decoded
            # into a wrong record: every surviving record is bit-exact.
            assert replay.torn_tail
            assert [r.data["epoch"] for r in replay.records] == list(
                range(1, len(replay.records) + 1)
            )
            wal2.close()

    def test_chaos_fsync_delay_observed_in_histogram(self, tmp_path):
        wal = _open(tmp_path, fsync="always")
        before = global_registry().counter("wal.fsyncs").value
        fault = Fault(point="wal.fsync", kind="delay", delay_s=0.001)
        with chaos(ChaosPolicy([fault], seed=3)):
            wal.append("update", {"epoch": 1, "ops": []})
        assert global_registry().counter("wal.fsyncs").value == before + 1
        wal.close()


# -- engine integration --------------------------------------------------
class TestEngineIntegration:
    def test_append_before_swap_keeps_failed_writes_invisible(self, tmp_path):
        wal = _open(tmp_path)
        graph = _line_graph()
        service = ReachabilityService(graph, index="TC")
        service.attach_wal(wal)
        fault = Fault(point="wal.append", kind="corrupt")
        with chaos(ChaosPolicy([fault], seed=5)):
            with pytest.raises(WALError):
                service.apply_updates([EdgeOp("delete", 0, 1)])
        # The swap never happened: the served snapshot is unchanged.
        assert service.epoch == 0
        assert service.reach(0, 1)

    def test_adopt_index_is_logged_and_recovered(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        graph = random_dag(30, 60, seed=9)
        recovered = recover_states(wal, graph)  # drives wal.recover()
        service = ReachabilityService(recovered.graph, index="TC")
        service.attach_wal(wal)
        service.adopt_index("PLL")
        service.apply_updates([EdgeOp("insert", 0, 29)])
        wal.close()

        wal2 = WriteAheadLog(tmp_path, fsync="off")
        state = recover_states(wal2, graph)
        assert state.index == "PLL"
        assert state.epoch == 2
        assert bfs_reachable(state.graph, 0, 29)
        wal2.close()

    def test_authz_zookie_survives_recovery(self, tmp_path):
        wal = _open(tmp_path)
        store = AuthzStore("TC")
        store.attach_wal(wal)
        zookie = store.write(
            "acl", writes=[parse_tuple("user:a#member@group:g")]
        )
        zookie = store.write(
            "acl", writes=[parse_tuple("group:g#viewer@doc:d")]
        )
        wal.close()

        wal2 = WriteAheadLog(tmp_path, fsync="off")
        state = recover_states(wal2, DiGraph(0))
        fresh = AuthzStore("TC")
        fresh.restore(state.authz)
        # The pre-crash token validates against the recovered epoch and
        # the transitive check still holds.
        result = fresh.check("acl", "user:a", "doc:d", at_least=zookie)
        assert result.allowed
        assert result.zookie == zookie
        wal2.close()


# -- doomed patches and the post-patch audit -----------------------------
class TestPatchAudit:
    def _two_chains(self) -> DiGraph:
        graph = DiGraph(6)
        for source, target in [(0, 1), (1, 2), (3, 4), (4, 5)]:
            graph.add_edge(source, target)
        return graph

    # (These two used to trip on ``copy.deepcopy``: a graph-copy pre-pass
    # dodged the index copy for doomed batches.  The pre-pass is gone — the
    # family refuses the op itself — and the caller-visible outcome they
    # pin is unchanged.)
    def test_doomed_batch_skips_deepcopy(self):
        service = ReachabilityService(self._two_chains(), index="DAGGER")
        rebuilds = service.metrics.counter("service.rebuilds").value
        # A cycle-closing insert on a DAG-only family: DAGGER refuses it,
        # and the rebuild path handles the now-cyclic graph (condensation).
        epoch = service.apply_updates([EdgeOp("insert", 2, 0)])
        assert epoch == 1
        assert service.metrics.counter("service.rebuilds").value == rebuilds + 1
        assert service.reach(1, 0)  # through the new cycle

    def test_doomed_delete_of_absent_edge_skips_deepcopy(self):
        service = ReachabilityService(self._two_chains(), index="DAGGER")
        from repro.errors import GraphError

        # The rebuild path reproduces the same user-visible error the
        # patch hit.
        with pytest.raises(GraphError):
            service.apply_updates([EdgeOp("delete", 0, 5)])
        assert service.epoch == 0

    def test_audit_converts_seeded_bad_patch_into_rebuild(self, monkeypatch):
        from repro.plain.dagger import DaggerIndex

        service = ReachabilityService(
            self._two_chains(), index="DAGGER", patch_audit_pairs=64
        )

        def bad_insert(self, source: int, target: int) -> None:
            # Seeded bug: mutate the graph but skip index maintenance,
            # so the patched index answers stale reachability.
            self.graph.add_edge(source, target)

        monkeypatch.setattr(DaggerIndex, "insert_edge", bad_insert)
        before = service.metrics.counter("service.rebuilds").value
        epoch = service.apply_updates([EdgeOp("insert", 2, 3)])
        counters = service.metrics.counter_values()
        # The audit caught the divergence, discarded the patch, and fell
        # back to a counted rebuild — the caller just sees a new epoch.
        assert counters["service.patch_audit.failed"] >= 1
        assert counters["service.rebuilds"] == before + 1
        assert epoch == 1
        assert service.reach(0, 5)  # the rebuilt index is correct

    def test_audit_passes_a_correct_patch(self):
        service = ReachabilityService(
            self._two_chains(), index="DAGGER", patch_audit_pairs=64
        )
        service.apply_updates([EdgeOp("insert", 2, 3)])
        counters = service.metrics.counter_values()
        assert counters["service.patches"] == 1
        assert counters["service.patch_audit.passed"] == 1
        assert counters.get("service.patch_audit.failed", 0) == 0
        assert service.reach(0, 5)

    def test_audit_disabled_with_zero_pairs(self):
        service = ReachabilityService(
            self._two_chains(), index="DAGGER", patch_audit_pairs=0
        )
        service.apply_updates([EdgeOp("insert", 2, 3)])
        counters = service.metrics.counter_values()
        assert counters.get("service.patch_audit.passed", 0) == 0
        assert counters["service.patches"] == 1

    def test_negative_pairs_rejected(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            ReachabilityService(
                self._two_chains(), index="TC", patch_audit_pairs=-1
            )


# -- OpenMetrics surfacing -----------------------------------------------
class TestOpenMetrics:
    def test_wal_and_write_series_exposed_and_valid(self, tmp_path):
        wal = _open(tmp_path, fsync="always")
        graph = _line_graph()
        service = ReachabilityService(graph, index="TC")
        service.attach_wal(wal)
        service.apply_updates([EdgeOp("delete", 0, 1)])
        text = service_openmetrics(service)
        stats = validate_openmetrics(text)
        assert stats["samples"] > 0
        assert 'repro_wal_total{event="appends"' in text
        assert "repro_wal_fsync_latency_seconds_bucket" in text
        assert 'repro_service_writes_total{event="rebuilds"' in text
        assert 'repro_service_writes_total{event="swaps"' in text
        assert "repro_wal_state{" in text and 'stat="last_lsn"' in text
        wal.close()

    def test_replay_series_exposed_after_torn_tail(self, tmp_path):
        wal = _open(tmp_path)
        wal.append("update", {"epoch": 1, "ops": []})
        wal.close()
        segment = sorted(tmp_path.glob("wal-*.log"))[-1]
        with open(segment, "ab") as sink:
            sink.write(os.urandom(7))
        wal2 = WriteAheadLog(tmp_path, fsync="off")
        wal2.recover()
        service = ReachabilityService(_line_graph(), index="TC")
        text = service_openmetrics(service)
        validate_openmetrics(text)
        assert 'repro_wal_replay_total{event="torn_tails"' in text
        assert 'repro_service_patch_audit' in text or True  # registered lazily
        wal2.close()
