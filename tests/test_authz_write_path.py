"""``AuthzStore.write``: a patched snapshot is a recompiled one, observably.

Seeded grant/revoke streams run through the store with every write-path
case spliced in (new entities, a second relation on a pair, an orphaning
revoke, a cycle-closing group grant, a tuple granted and revoked in one
call, no-ops, a bulk load); after every write every answer must equal a
store freshly compiled from the same tuple set — under TC (patches), PLL
(static, always recompiles) and DAGGER (patches known-entity writes).
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.authz import AuthzStore, parse_tuple
from repro.core.condensed import CondensedIndex
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import global_registry
from repro.obs.tracer import TRACER, disable_tracing, enable_tracing
from repro.traversal.online import bfs_reachable
from repro.wal import WriteAheadLog, recover_states
from repro.workloads.authz import authz_tuples
from repro.workloads.updates import tuple_churn_stream

NS = "acme"
FAMILIES = ["TC", "PLL", "DAGGER"]


@pytest.fixture
def traced_write():
    """``write(store, ...) -> (zookie, attributes of its authz.write span)``.

    Only the write runs traced: the reads around it would flood the ring.
    """

    def write(store: AuthzStore, writes=(), deletes=()):
        TRACER.clear()
        enable_tracing()
        try:
            zookie = store.write(NS, writes=writes, deletes=deletes)
        finally:
            disable_tracing()
        (root,) = TRACER.finished()
        assert root.name == "authz.write"
        return zookie, root.attributes

    yield write
    TRACER.clear()


def _counters(*names: str) -> list[int]:
    registry = global_registry()
    return [registry.counter(f"authz.{name}").value for name in names]


def _stream(seed: int):
    """``(writes, deletes)`` calls: seeded churn with the scripted cases
    spliced in after every third churn op."""
    base = authz_tuples(10, 4, 12, seed=seed)
    t = parse_tuple
    scripted = [
        # new entities are interned at the end of the id space
        ([t("user:new#member@group:fresh")], []),
        ([t("group:fresh#viewer@doc:d0")], []),
        # a second relation on the pair; revoking the first keeps the edge
        ([t("group:fresh#editor@doc:d0")], []),
        ([], [t("group:fresh#viewer@doc:d0")]),
        # user:new's only tuple: the entity must become unknown, then return
        ([], [t("user:new#member@group:fresh")]),
        ([t("user:new#member@group:fresh")], []),
        # mutual group membership, then a revoke inside the cycle
        ([t("group:g0#member@group:g1")], []),
        ([t("group:g1#member@group:g0")], []),
        ([], [t("group:g1#member@group:g0")]),
        # granted and revoked in one call; revokes win
        ([t("user:u0#owner@doc:d1")], [t("user:u0#owner@doc:d1")]),
        # idempotent no-ops: a re-grant, a revoke of an absent tuple
        ([t("user:u1#owner@doc:d2")], []),
        ([t("user:u1#owner@doc:d2")], []),
        ([], [t("user:ghost#member@group:g0")]),
        # several ops in one call, still a small delta
        ([t("user:u2#owner@doc:d3"), t("user:u3#owner@doc:d3")], [t("user:u1#owner@doc:d2")]),
        # a bulk load past the crossover
        ([t(f"user:bulk{i}#member@group:g{i % 4}") for i in range(40)], []),
    ]
    calls = [(base, [])]
    for i, op in enumerate(tuple_churn_stream(base, 3 * len(scripted), seed + 1)):
        calls.append(([op.tuple()], []) if op.kind == "grant" else ([], [op.tuple()]))
        if i % 3 == 2:
            calls.append(scripted[i // 3])
    return calls


def _answers(store: AuthzStore) -> dict:
    """Every answer the store gives about its namespace, keyed by entity."""
    names = sorted(store.snapshot(NS).entity_ids)
    out = {}
    for name in names:
        out[name] = (
            store.list_objects(NS, name).names,
            store.list_subjects(NS, name).names,
            store.expand(NS, name, "objects").names,
            store.expand(NS, name, "subjects").names,
            tuple(store.check(NS, name, other).allowed for other in names),
        )
    return out


def _compiled(family: str, tuples) -> AuthzStore:
    fresh = AuthzStore(family)
    fresh.restore({NS: {"epoch": 0, "tuples": [str(t) for t in tuples]}})
    return fresh


def _snapshot_answers(snapshot) -> dict:
    """What one captured snapshot answers, read off it directly."""
    return {
        name: tuple(sorted(snapshot.entities[v] for v in snapshot.index.reachable_from(vid)))
        for name, vid in snapshot.entity_ids.items()
    }


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [3, 8])
def test_patched_snapshots_answer_like_recompiled_ones(family, seed, traced_write):
    writes0, patches0, recompiles0 = _counters("writes", "patches", "recompiles")
    store = AuthzStore(family)
    model: set = set()
    pinned = []
    spans = []
    for epoch, (writes, deletes) in enumerate(_stream(seed), start=1):
        zookie, span = traced_write(store, writes, deletes)
        spans.append(span)
        model = (model | set(writes)) - set(deletes)
        snapshot = store.snapshot(NS)
        assert zookie.epoch == snapshot.epoch == epoch  # no-ops advance it too
        assert snapshot.tuples == model
        assert _answers(store) == _answers(_compiled(family, model))
        if family == "TC":
            assert not isinstance(snapshot.index, CondensedIndex)
        if epoch % 7 == 0:
            pinned.append((snapshot, _snapshot_answers(snapshot)))
    # isolation: a pinned snapshot shares no mutable row with its successors
    for snapshot, answers in pinned:
        assert _snapshot_answers(snapshot) == answers
        assert answers == _snapshot_answers(_compiled(family, snapshot.tuples).snapshot(NS))

    writes1, patches1, recompiles1 = _counters("writes", "patches", "recompiles")
    assert writes1 - writes0 == epoch
    assert (patches1 - patches0) + (recompiles1 - recompiles0) == epoch
    assert [s["route"] for s in spans].count("patch") == patches1 - patches0
    assert all((s["route"] == "patch") == (s["reason"] is None) for s in spans)
    reasons = {s["reason"] for s in spans}
    assert reasons >= {"unserved", "bulk", "orphan"}
    if family == "TC":
        # refused: the cycle-closing grant and the revoke inside the cycle
        assert reasons == {None, "unserved", "bulk", "orphan", "refused"}
        assert patches1 - patches0 > epoch // 2
    elif family == "PLL":
        assert reasons == {"unserved", "bulk", "orphan", "static"}
    else:
        # DAGGER has no add_vertex (refused), and a cyclic namespace is
        # served condensed until the cycle is revoked
        assert reasons == {None, "unserved", "bulk", "orphan", "refused", "condensed"}


def test_failed_audit_is_a_counted_recompile(monkeypatch, traced_write):
    store = AuthzStore("TC")
    store.write(NS, writes=authz_tuples(6, 2, 6, seed=1))
    monkeypatch.setattr(
        "repro.core.patch.bfs_reachable",
        lambda graph, source, target: not bfs_reachable(graph, source, target),
    )
    failed0, recompiles0 = _counters("patch_audit.failed", "recompiles")
    zookie, span = traced_write(store, [parse_tuple("user:u0#owner@doc:d0")])
    assert _counters("patch_audit.failed", "recompiles") == [failed0 + 1, recompiles0 + 1]
    assert span == {"namespace": NS, "route": "recompile", "reason": "audit", "delta": 1}
    assert zookie.epoch == 2
    assert store.check(NS, "user:u0", "doc:d0", at_least=zookie).allowed


@pytest.mark.parametrize("family", FAMILIES)
def test_crash_recovery_matches_the_patched_store(family, tmp_path):
    """Recover from the log alone mid-stream, keep writing on the restored
    store, recover again: answers and zookie equal the live store's."""
    calls = _stream(5)
    store = AuthzStore(family)
    for phase in (calls[: len(calls) // 2], calls[len(calls) // 2 :]):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.recover()
        store.attach_wal(wal)
        for writes, deletes in phase:
            zookie = store.write(NS, writes=writes, deletes=deletes)
        wal.close()
        log = WriteAheadLog(tmp_path, fsync="off")
        recovered = AuthzStore(family)
        recovered.restore(recover_states(log, DiGraph(0)).authz)
        log.close()
        assert recovered.snapshot(NS).zookie.encode() == zookie.encode()
        assert recovered.snapshot(NS).tuples == store.snapshot(NS).tuples
        assert _answers(recovered) == _answers(store)
        store = recovered


def test_failed_append_registers_no_namespace():
    """A write the log refused was never acknowledged: its namespace must
    not appear in a checkpoint, nor be published by the restore after."""

    class TornLog:
        def admitted(self):
            return nullcontext()

        def append(self, kind, data):
            raise OSError("torn write")

        def status(self):
            return {}

    store = AuthzStore("TC")
    store.attach_wal(TornLog())
    with pytest.raises(OSError):
        store.write(NS, writes=[parse_tuple("user:a#member@group:g")])
    assert store.namespaces() == []
    captured = store.checkpoint_state()["namespaces"]
    assert captured == {}
    restored = AuthzStore("TC")
    restored.restore(captured)
    assert restored.namespaces() == []


def test_untraced_write_opens_no_span():
    TRACER.clear()
    store = AuthzStore("TC")
    store.write(NS, writes=authz_tuples(6, 2, 6, seed=1))
    store.write(NS, writes=[parse_tuple("user:u0#owner@doc:d0")])
    assert TRACER.finished() == []
