"""Rebuilding serving state from a checkpoint plus WAL replay.

The log carries four record kinds:

``update``
    A plain-mode edge batch: ``{"epoch": E, "ops": [[kind, s, t], …]}``.
``labeled_update``
    A labeled batch: ``{"epoch": E, "ops": [[kind, s, t, label], …]}``.
``adopt``
    A live index swap: ``{"epoch": E, "index": name, "params": {…}}``.
``authz``
    One tuple-store write: ``{"namespace": N, "epoch": E,
    "writes": ["s#rel@o", …], "deletes": […]}``.

Recovery is **epoch-idempotent**: a record is applied only when its
epoch exceeds the running epoch of its stream (the service snapshot, or
its namespace's tuple set), so replaying records the checkpoint already
covers — the checkpoint LSN is conservative by design — is exact, not
approximate.  The graph is materialised once and the index built once,
at the final recovered epoch, rather than per record.

Zookie guarantee: authz epochs are recovered to their exact pre-crash
values, and a :class:`~repro.authz.store.Zookie` digest depends only on
``(namespace, epoch)`` — so a token issued before the crash still
validates, and every post-restart write advances monotonically past it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.errors import GraphError, WALError
from repro.graphs.digraph import DiGraph
from repro.graphs.labeled import LabeledDiGraph
from repro.wal.log import WalRecord, WalReplay, WriteAheadLog
from repro.workloads.updates import apply_op_rows

__all__ = ["RecoveredState", "checkpoint_payload", "recover_states"]


@dataclass
class RecoveredState:
    """Everything a fresh process needs to resume at the pre-crash epoch."""

    graph: DiGraph | LabeledDiGraph
    epoch: int
    labeled: bool
    index: str | None  # adopted family, None = caller's default
    index_params: dict | None
    authz: dict[str, dict]  # namespace -> {"epoch": int, "tuples": [wire]}
    replay: WalReplay
    records_applied: int = 0
    records_skipped: int = 0
    from_checkpoint: bool = False

    def summary(self) -> str:
        parts = [
            f"epoch={self.epoch}",
            f"records applied={self.records_applied} skipped={self.records_skipped}",
            f"segments={self.replay.segments_read}",
        ]
        if self.from_checkpoint:
            parts.append(f"checkpoint lsn={self.replay.checkpoint_lsn}")
        if self.replay.torn_tail:
            parts.append(
                f"torn tail truncated ({self.replay.truncated_bytes} bytes)"
            )
        if self.authz:
            epochs = ",".join(
                f"{ns}@{st['epoch']}" for ns, st in sorted(self.authz.items())
            )
            parts.append(f"authz {epochs}")
        return "wal recovery: " + " · ".join(parts)


@dataclass
class _ServiceState:
    graph: DiGraph | LabeledDiGraph
    epoch: int = 0
    labeled: bool = False
    index: str | None = None
    index_params: dict | None = None


def checkpoint_payload(
    service_state: dict | None, authz_state: dict[str, dict]
) -> bytes:
    """Pickle one ``{"service": …, "authz": …}`` checkpoint blob."""
    return pickle.dumps(
        {"service": service_state, "authz": authz_state},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def recover_states(
    wal: WriteAheadLog, initial_graph: DiGraph | LabeledDiGraph
) -> RecoveredState:
    """Replay ``wal`` over its checkpoint (or ``initial_graph`` at epoch 0)
    and return the exact pre-crash serving state.

    ``initial_graph`` is the graph the service would have been built
    over on first boot (the CLI's edge list); it seeds recovery only
    when no checkpoint captured a later state.  Mode (plain vs labeled)
    is taken from the graph and must match the logged records.
    """
    replay = wal.recover()

    labeled = isinstance(initial_graph, LabeledDiGraph)
    state = _ServiceState(graph=initial_graph.copy(), labeled=labeled)
    authz: dict[str, dict] = {}
    from_checkpoint = False
    if replay.checkpoint_payload is not None:
        blob = pickle.loads(replay.checkpoint_payload)
        service_blob = blob.get("service")
        if service_blob is not None:
            ckpt_labeled = bool(service_blob["labeled"])
            if ckpt_labeled != labeled:
                raise WALError(
                    f"checkpoint is {'labeled' if ckpt_labeled else 'plain'} "
                    f"mode but the service is "
                    f"{'labeled' if labeled else 'plain'} — "
                    "serve with the matching --labeled setting"
                )
            state = _ServiceState(
                graph=service_blob["graph"],
                epoch=int(service_blob["epoch"]),
                labeled=ckpt_labeled,
                index=service_blob.get("index"),
                index_params=service_blob.get("params"),
            )
        authz = {
            ns: {"epoch": int(st["epoch"]), "tuples": list(st["tuples"])}
            for ns, st in (blob.get("authz") or {}).items()
        }
        from_checkpoint = True

    applied = skipped = 0
    for record in replay.records:
        if _apply(record, state, authz):
            applied += 1
        else:
            skipped += 1

    return RecoveredState(
        graph=state.graph,
        epoch=state.epoch,
        labeled=state.labeled,
        index=state.index,
        index_params=state.index_params,
        authz=authz,
        replay=replay,
        records_applied=applied,
        records_skipped=skipped,
        from_checkpoint=from_checkpoint,
    )


def _apply(
    record: WalRecord, state: _ServiceState, authz: dict[str, dict]
) -> bool:
    """Apply one record if its stream's epoch hasn't passed it; True if so."""
    data = record.data
    if record.kind == "authz":
        namespace = data["namespace"]
        ns_state = authz.setdefault(namespace, {"epoch": 0, "tuples": []})
        if data["epoch"] <= ns_state["epoch"]:
            return False
        tuples = set(ns_state["tuples"])
        tuples.update(data.get("writes", ()))
        tuples.difference_update(data.get("deletes", ()))
        ns_state["tuples"] = sorted(tuples)
        ns_state["epoch"] = data["epoch"]
        return True
    epoch = data["epoch"]
    if epoch <= state.epoch:
        return False
    if record.kind == "adopt":
        state.index = data["index"]
        state.index_params = dict(data.get("params") or {})
        state.epoch = epoch
        return True
    if record.kind not in ("update", "labeled_update"):
        raise WALError(f"unknown record kind {record.kind!r} at lsn {record.lsn}")
    if (record.kind == "labeled_update") != state.labeled:
        raise WALError(
            f"{'labeled' if state.labeled else 'plain'}-mode log holds a "
            f"{record.kind} record at lsn {record.lsn}"
        )
    graph = state.graph
    try:
        apply_op_rows(data["ops"], graph.add_edge, graph.remove_edge)
    except (GraphError, ValueError, TypeError) as exc:
        raise WALError(
            f"record at lsn {record.lsn} does not replay over the "
            f"recovered graph ({exc}) — log and checkpoint disagree"
        ) from exc
    state.epoch = epoch
    return True
