"""Multi-tenant tuple store with snapshot-epoch zookies.

The store follows Zanzibar's consistency recipe scaled to this library:
every namespace serves reads from an immutable *snapshot* — the compiled
labeled graph, its plain projection, and a reachability index built by a
registered family — and every write produces a fresh snapshot at the
next *epoch*: the served one patched by the write's delta when the
family can maintain it, the namespace recompiled otherwise
(:meth:`AuthzStore.write`).  A :class:`Zookie` is the causal token for
that epoch:
writes return one, reads accept one as ``at_least``, and a read whose
published snapshot is older than the token's epoch raises
:class:`~repro.errors.StaleZookieError` rather than silently serving
stale data (the "new enemy" problem).

Reads never take the writer lock: the snapshot dictionary swap is
atomic, so ``check``/``list_objects``/``list_subjects``/``expand`` race
against concurrent writes only by observing either the old or the new
epoch — never a torn state.
"""

from __future__ import annotations

import hashlib
import re
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.base import ReachabilityIndex
from repro.core.condensed import build_plain
from repro.core.patch import patched_copy
from repro.core.registry import plain_index
from repro.errors import (
    InvalidZookieError,
    StaleZookieError,
    UnknownEntityError,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.labeled import LabeledDiGraph
from repro.authz.tuples import RelationTuple, compile_tuples, parse_tuples
from repro.obs.metrics import global_registry
from repro.obs.tracer import TRACER

__all__ = [
    "Zookie",
    "AuthzSnapshot",
    "CheckResult",
    "ListResult",
    "ExpandResult",
    "AuthzStore",
]

_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9_\-]+$")
_ZOOKIE_SALT = b"repro-authz-zookie-v1"

#: A write whose effective delta exceeds this fraction of the namespace's
#: tuple count recompiles instead of patching: a patch pays ~20 µs per op
#: on top of the snapshot copies, a recompile ~10 µs per *tuple*, so a
#: 7k-tuple bulk load must not become 7k patches.  Measured crossover (with
#: the row-by-row graph copies of the time; copy-on-write rows since took
#: those — 3–4.5 ms at N = 7 351 — off every patch figure, which only
#: lowers these ratios), one
#: write of k mixed grants/revokes on ``authz_tuples`` namespaces of N
#: tuples under TC (patch ms / recompile ms, medians of 7): N = 7 351 —
#: 0.61 at k/N = 0.14, 0.69 at 0.28, 1.20 at 0.56; N = 436 — 0.98 at 0.29;
#: N = 1 829 — 0.74 at 0.28, 1.38 at 0.56; N = 14 739 — 1.01 at 0.28.  A
#: property of the input, not an option.
BULK_DELTA_FRACTION = 0.25


def _digest(namespace: str, epoch: int) -> str:
    h = hashlib.sha256(_ZOOKIE_SALT)
    h.update(namespace.encode())
    h.update(b"\x00")
    h.update(str(epoch).encode())
    return h.hexdigest()[:8]


@dataclass(frozen=True, order=True)
class Zookie:
    """A causal token: "my writes up to ``epoch`` in ``namespace``"."""

    namespace: str
    epoch: int

    def encode(self) -> str:
        """The wire form ``z1.<namespace>.<epoch>.<digest>``."""
        return f"z1.{self.namespace}.{self.epoch}.{_digest(self.namespace, self.epoch)}"

    @classmethod
    def decode(cls, text: str) -> "Zookie":
        """Parse and digest-check a wire-form zookie."""
        if not isinstance(text, str):
            raise InvalidZookieError(
                f"zookie must be a string, got {type(text).__name__}"
            )
        parts = text.split(".")
        if len(parts) != 4 or parts[0] != "z1":
            raise InvalidZookieError(f"malformed zookie {text!r}")
        _v, namespace, epoch_text, digest = parts
        if not _NAMESPACE_RE.match(namespace) or not epoch_text.isdigit():
            raise InvalidZookieError(f"malformed zookie {text!r}")
        epoch = int(epoch_text)
        if digest != _digest(namespace, epoch):
            raise InvalidZookieError(f"zookie {text!r} fails its digest check")
        return cls(namespace, epoch)


@dataclass(frozen=True)
class AuthzSnapshot:
    """One immutable serving state of a namespace."""

    namespace: str
    epoch: int
    tuples: frozenset[RelationTuple]
    graph: LabeledDiGraph
    plain: DiGraph
    index: ReachabilityIndex
    entity_ids: dict[str, int]
    entities: list[str]

    @property
    def zookie(self) -> Zookie:
        """The causal token for this snapshot."""
        return Zookie(self.namespace, self.epoch)


@dataclass(frozen=True)
class CheckResult:
    """``check``'s answer plus the snapshot token it was served at."""

    allowed: bool
    zookie: Zookie


@dataclass(frozen=True)
class ListResult:
    """An enumeration answer: entity names, token, and the index route."""

    names: tuple[str, ...]
    zookie: Zookie
    route: str


@dataclass(frozen=True)
class ExpandResult:
    """The full reachable set of one entity, with the route taken."""

    entity: str
    direction: str  # "objects" (forward) or "subjects" (backward)
    names: tuple[str, ...]
    zookie: Zookie
    route: str
    details: tuple[str, ...]


@dataclass
class _NamespaceState:
    tuples: set[RelationTuple] = field(default_factory=set)
    epoch: int = 0


def _joined(graph: LabeledDiGraph, source: int, target: int) -> bool:
    """Whether any relation joins the pair (one plain edge, however many)."""
    return any(v == target for v, _label in graph.out_edges(source))


class AuthzStore:
    """Per-namespace tuple sets compiled into reachability snapshots.

    ``family`` names any registered plain index family;
    :func:`~repro.core.condensed.build_plain` lifts DAG-only families
    whenever a namespace's relation graph is cyclic (mutual group
    membership).
    """

    def __init__(self, family: str = "TC") -> None:
        self._family_cls = plain_index(family)  # validates the name eagerly
        self.family = family
        self._lock = threading.Lock()
        self._states: dict[str, _NamespaceState] = {}
        self._snapshots: dict[str, AuthzSnapshot] = {}
        self._wal = None
        self._wal_applied_lsn: int | None = None

    # -- durability -------------------------------------------------------
    def attach_wal(self, wal) -> None:
        """Log every write to ``wal`` before publishing its snapshot.

        Duck-typed like the service engine's: anything with
        ``admitted()``, ``append(kind, data) -> lsn`` and ``status()``
        works (:class:`repro.wal.WriteAheadLog` in practice).
        """
        self._wal = wal
        self._wal_applied_lsn = None

    def checkpoint_state(self) -> dict[str, object]:
        """A consistent capture of every namespace for the checkpointer.

        Taken under the writer lock, so it reflects every record this
        store has appended — the invariant
        :class:`repro.wal.CheckpointManager` relies on when picking a
        truncation LSN.  Tuples go out in wire form (``s#rel@o``), the
        same encoding the WAL records use.
        """
        with self._lock:
            return {
                "namespaces": {
                    ns: {
                        "epoch": state.epoch,
                        "tuples": sorted(str(t) for t in state.tuples),
                    }
                    for ns, state in self._states.items()
                },
                "applied_lsn": self._wal_applied_lsn,
            }

    def restore(self, namespaces: dict[str, dict]) -> None:
        """Load recovered state (``{ns: {"epoch", "tuples": [wire]}}``).

        Each namespace is recompiled and published at its exact
        pre-crash epoch, so zookies issued before the crash still
        validate and post-restart writes advance monotonically past
        them.  Call before :meth:`attach_wal` re-arms logging.
        """
        with self._lock:
            for ns, blob in namespaces.items():
                self._check_namespace(ns)
                state = _NamespaceState(
                    tuples=set(parse_tuples(blob["tuples"])),
                    epoch=int(blob["epoch"]),
                )
                self._states[ns] = state
                self._snapshots[ns] = self._compile(ns, state)

    # -- writes -----------------------------------------------------------
    def write(
        self,
        namespace: str,
        writes: list[RelationTuple] = (),
        deletes: list[RelationTuple] = (),
    ) -> Zookie:
        """Apply grants and revokes atomically; returns the new epoch's zookie.

        Revoking an absent tuple and granting a present one are both
        idempotent no-ops; the epoch advances regardless, so the zookie
        always certifies "my request has been incorporated".

        The next snapshot is a *patch* of the served one whenever it can
        be (see :meth:`_patch`): copies of the served graph, index and
        interning maps take the effective delta through the family's
        maintenance API, at a cost that follows the delta, not the
        namespace.  The write recompiles the namespace from its tuple
        set instead — the fallback, and the only path for a static
        family — for exactly these reasons (the ``reason`` of the
        ``authz.write`` span, counted under ``authz.recompiles``):

        ``unserved``
            the namespace has no served snapshot to patch;
        ``bulk``
            the delta is large against the namespace
            (:data:`BULK_DELTA_FRACTION`);
        ``orphan``
            a revoke leaves an entity with no tuple: it must read as
            :class:`~repro.errors.UnknownEntityError`, which only a
            recompile's interning does;
        ``static`` / ``condensed``
            the family is not dynamic (or is insert-only and the delta
            revokes), or the served index is a
            :class:`~repro.core.condensed.CondensedIndex`;
        ``refused``
            the family refused an op (TC: a group grant that closes a
            cycle, a revoke inside one; DAGGER/TOL: a new entity);
        ``audit``
            the patched index disagreed with BFS on a sampled pair.

        With a WAL attached the write is staged, appended to the log,
        and only then published — a failed or torn append (including a
        chaos-injected one) leaves the served state untouched and the
        client unacknowledged, so no zookie ever certifies an epoch the
        log doesn't carry.
        """
        self._check_namespace(namespace)
        registry = global_registry()
        wal = self._wal
        gate = wal.admitted() if wal is not None else nullcontext()
        with gate, self._lock, TRACER.span("authz.write", namespace=namespace) as span:
            # Registered only at publish: a failed append must not leave
            # a namespace no client was acknowledged on.
            state = self._states.get(namespace) or _NamespaceState()
            revoked = set(deletes)
            added = set(writes) - revoked - state.tuples
            removed = revoked & state.tuples
            tuples = set(state.tuples)
            tuples.update(added)
            tuples.difference_update(removed)
            staged = _NamespaceState(tuples=tuples, epoch=state.epoch + 1)
            served = self._snapshots.get(namespace)
            delta = len(added) + len(removed)
            if served is None:
                snapshot, reason = None, "unserved"
            elif delta > BULK_DELTA_FRACTION * len(state.tuples):
                snapshot, reason = None, "bulk"
            else:
                snapshot, reason = self._patch(served, staged, added, removed)
            if snapshot is None:
                snapshot = self._compile(namespace, staged)
            span.annotate(
                route="recompile" if reason else "patch", reason=reason, delta=delta
            )
            if wal is not None:
                self._wal_applied_lsn = wal.append(
                    "authz",
                    {
                        "namespace": namespace,
                        "epoch": staged.epoch,
                        "writes": [str(t) for t in writes],
                        "deletes": [str(t) for t in deletes],
                    },
                )
            self._states[namespace] = staged
            self._snapshots[namespace] = snapshot
        registry.counter("authz.writes").increment()
        registry.counter("authz.recompiles" if reason else "authz.patches").increment()
        registry.counter("authz.tuples_applied").increment(
            len(writes) + len(deletes)
        )
        return snapshot.zookie

    def apply_updates(self, namespace: str, ops) -> list[Zookie]:
        """Drive a grant/revoke stream; one write (and epoch) per op.

        ``ops`` is any iterable of objects with ``kind`` ("grant" or
        "revoke"), ``subject``, ``relation`` and ``object`` fields —
        notably :class:`repro.workloads.updates.TupleOp`.
        """
        zookies: list[Zookie] = []
        for op in ops:
            t = RelationTuple(op.subject, op.relation, op.object)
            if op.kind == "grant":
                zookies.append(self.write(namespace, writes=[t]))
            elif op.kind == "revoke":
                zookies.append(self.write(namespace, deletes=[t]))
            else:
                raise ValueError(f"unknown tuple op kind {op.kind!r}")
        return zookies

    def _patch(
        self,
        served: AuthzSnapshot,
        staged: _NamespaceState,
        added: set[RelationTuple],
        removed: set[RelationTuple],
    ) -> tuple[AuthzSnapshot | None, str | None]:
        """``(served patched by the effective delta, None)`` or ``(None, reason)``.

        ``served`` is never touched — the next snapshot's graphs are
        copy-on-write clones that replace a row before first writing it,
        its other containers are copies — so readers stay lock-free.  A new
        entity is interned at the end of the id space, which is why a
        patched snapshot's vertex ids differ from a recompile's
        sorted-first-seen ones; ids are internal (answers are names).
        Two relations between one pair are one plain edge: the index
        sees an insert only when the pair had no edge, a delete only
        when no other relation still joins it.
        """
        graph = served.graph.copy()
        entity_ids = dict(served.entity_ids)
        entities = list(served.entities)
        inserts: list[tuple[int, int]] = []
        unlinks: list[tuple[int, int]] = []
        for t in removed:
            pair = (entity_ids[t.subject], entity_ids[t.object])
            graph.remove_edge(*pair, t.relation)
            if not _joined(graph, *pair):
                unlinks.append(pair)
        for t in added:
            for name in (t.subject, t.object):
                if name not in entity_ids:
                    entity_ids[name] = graph.add_vertex()
                    entities.append(name)
            pair = (entity_ids[t.subject], entity_ids[t.object])
            if not _joined(graph, *pair):
                inserts.append(pair)
            graph.add_edge(*pair, t.relation)
        if not all(
            graph.degree(entity_ids[name])
            for t in removed
            for name in (t.subject, t.object)
        ):
            return None, "orphan"

        def apply(index: ReachabilityIndex) -> None:
            for _ in range(len(entities) - len(served.entities)):
                index.add_vertex()
            for pair in unlinks:
                index.delete_edge(*pair)
            for pair in inserts:
                index.insert_edge(*pair)

        index, reason = patched_copy(
            served.index,
            apply,
            deletes=bool(unlinks),
            epoch=staged.epoch,
            metrics=global_registry(),
            prefix="authz",
        )
        if index is None:
            return None, reason
        return (
            AuthzSnapshot(
                namespace=served.namespace,
                epoch=staged.epoch,
                tuples=frozenset(staged.tuples),
                graph=graph,
                plain=index.graph,
                index=index,
                entity_ids=entity_ids,
                entities=entities,
            ),
            None,
        )

    def _compile(self, namespace: str, state: _NamespaceState) -> AuthzSnapshot:
        graph, entity_ids, entities = compile_tuples(sorted(state.tuples))
        plain = graph.to_plain()
        return AuthzSnapshot(
            namespace=namespace,
            epoch=state.epoch,
            tuples=frozenset(state.tuples),
            graph=graph,
            plain=plain,
            index=build_plain(self._family_cls, plain),
            entity_ids=entity_ids,
            entities=entities,
        )

    # -- reads ------------------------------------------------------------
    def check(
        self,
        namespace: str,
        subject: str,
        object: str,
        at_least: Zookie | None = None,
    ) -> CheckResult:
        """Whether ``subject`` reaches ``object`` in the namespace graph."""
        snapshot = self._snapshot(namespace, at_least)
        registry = global_registry()
        registry.counter("authz.checks").increment()
        sid = self._entity_id(snapshot, subject)
        oid = self._entity_id(snapshot, object)
        allowed = snapshot.index.query(sid, oid)
        if allowed:
            registry.counter("authz.checks_allowed").increment()
        return CheckResult(allowed=allowed, zookie=snapshot.zookie)

    def list_objects(
        self,
        namespace: str,
        subject: str,
        object_type: str | None = None,
        at_least: Zookie | None = None,
    ) -> ListResult:
        """Every entity ``subject`` can reach, via the enumeration API.

        ``object_type`` keeps only entities whose ``type:`` prefix
        matches (e.g. ``"doc"``); the subject itself is never listed.
        """
        snapshot = self._snapshot(namespace, at_least)
        global_registry().counter("authz.list_objects").increment()
        sid = self._entity_id(snapshot, subject)
        members, route = self._enumerate(snapshot, sid, forward=True)
        names = self._names(snapshot, members, exclude=sid, type_prefix=object_type)
        return ListResult(names=tuple(names), zookie=snapshot.zookie, route=route)

    def list_subjects(
        self,
        namespace: str,
        object: str,
        subject_type: str | None = None,
        at_least: Zookie | None = None,
    ) -> ListResult:
        """Every entity that reaches ``object`` (the inverse enumeration)."""
        snapshot = self._snapshot(namespace, at_least)
        global_registry().counter("authz.list_subjects").increment()
        oid = self._entity_id(snapshot, object)
        members, route = self._enumerate(snapshot, oid, forward=False)
        names = self._names(snapshot, members, exclude=oid, type_prefix=subject_type)
        return ListResult(names=tuple(names), zookie=snapshot.zookie, route=route)

    def expand(
        self,
        namespace: str,
        entity: str,
        direction: str = "objects",
        at_least: Zookie | None = None,
    ) -> ExpandResult:
        """The full reachable set of ``entity`` with the route explanation."""
        if direction not in ("objects", "subjects"):
            raise ValueError(
                f"direction must be 'objects' or 'subjects', got {direction!r}"
            )
        snapshot = self._snapshot(namespace, at_least)
        global_registry().counter("authz.expands").increment()
        vid = self._entity_id(snapshot, entity)
        members, route, details = snapshot.index._enumerate_routed(
            vid, direction == "objects"
        )
        if TRACER.enabled:
            global_registry().counter(f"index.route.{route}").increment()
        return ExpandResult(
            entity=entity,
            direction=direction,
            names=tuple(self._names(snapshot, members, exclude=vid)),
            zookie=snapshot.zookie,
            route=route,
            details=details,
        )

    # -- introspection ----------------------------------------------------
    def namespaces(self) -> list[str]:
        """Namespaces with at least one write, sorted."""
        return sorted(self._snapshots)

    def snapshot(self, namespace: str) -> AuthzSnapshot | None:
        """The currently served snapshot (None before the first write)."""
        return self._snapshots.get(namespace)

    # -- internals --------------------------------------------------------
    @staticmethod
    def _check_namespace(namespace: str) -> None:
        if not _NAMESPACE_RE.match(namespace):
            raise InvalidZookieError(
                f"invalid namespace {namespace!r}: must match [A-Za-z0-9_-]+"
            )

    def _snapshot(self, namespace: str, at_least: Zookie | None) -> AuthzSnapshot:
        self._check_namespace(namespace)
        if at_least is not None and at_least.namespace != namespace:
            raise InvalidZookieError(
                f"zookie for namespace {at_least.namespace!r} used against "
                f"namespace {namespace!r}"
            )
        snapshot = self._snapshots.get(namespace)
        epoch = snapshot.epoch if snapshot is not None else 0
        if at_least is not None and epoch < at_least.epoch:
            global_registry().counter("authz.stale_zookies").increment()
            raise StaleZookieError(namespace, at_least.epoch, epoch)
        if snapshot is None:
            # empty namespace at epoch 0: every entity is unknown
            snapshot = self._compile(namespace, _NamespaceState())
        return snapshot

    @staticmethod
    def _enumerate(
        snapshot: AuthzSnapshot, vertex: int, forward: bool
    ) -> tuple[frozenset[int], str]:
        """One routed enumeration, with route attribution under tracing."""
        members, route, _details = snapshot.index._enumerate_routed(vertex, forward)
        if TRACER.enabled:
            global_registry().counter(f"index.route.{route}").increment()
        return members, route

    @staticmethod
    def _entity_id(snapshot: AuthzSnapshot, entity: str) -> int:
        vid = snapshot.entity_ids.get(entity)
        if vid is None:
            raise UnknownEntityError(entity, snapshot.namespace)
        return vid

    @staticmethod
    def _names(
        snapshot: AuthzSnapshot,
        vertex_ids,
        exclude: int,
        type_prefix: str | None = None,
    ) -> list[str]:
        """Sorted entity names for ``vertex_ids``, in one filtered pass."""
        entities = snapshot.entities
        if type_prefix is None:
            return sorted(entities[v] for v in vertex_ids if v != exclude)
        prefix = type_prefix + ":"
        return sorted(
            name
            for v in vertex_ids
            if v != exclude and (name := entities[v]).startswith(prefix)
        )
