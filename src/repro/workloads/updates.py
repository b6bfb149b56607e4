"""Update-stream workloads for the dynamic indexes (§3.2, §5).

Seeded insert/delete streams with the invariants the dynamic indexes
need: DAG preservation for the Table 1 DAG-input techniques, insert-only
streams for DBL, and labeled streams for Zou/DLCR.  The generators
return the operations *without* applying them, so the same stream can be
replayed through an index's maintenance API and through a rebuild
baseline.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.authz.tuples import RelationTuple
from repro.graphs.digraph import DiGraph
from repro.graphs.labeled import LabeledDiGraph
from repro.traversal.online import bfs_reachable

__all__ = [
    "EdgeOp",
    "LabeledEdgeOp",
    "TupleOp",
    "apply_op_rows",
    "update_stream",
    "labeled_update_stream",
    "tuple_churn_stream",
]


@dataclass(frozen=True)
class EdgeOp:
    """One update of a plain-graph stream."""

    kind: str  # "insert" or "delete"
    source: int
    target: int


@dataclass(frozen=True)
class TupleOp:
    """One grant/revoke of a relation-tuple churn stream."""

    kind: str  # "grant" or "revoke"
    subject: str
    relation: str
    object: str

    def tuple(self) -> RelationTuple:
        """The relation tuple the op grants or revokes."""
        return RelationTuple(self.subject, self.relation, self.object)


@dataclass(frozen=True)
class LabeledEdgeOp:
    """One update of a labeled-graph stream."""

    kind: str
    source: int
    target: int
    label: str


def apply_op_rows(
    rows: Iterable[Sequence],
    insert: Callable[..., object],
    delete: Callable[..., object],
) -> None:
    """Replay ``(kind, *args)`` op rows: ``insert(*args)`` for an
    ``"insert"`` row, ``delete(*args)`` for any other.

    The one op-application loop of the write path — graphs replay
    through ``add_edge``/``remove_edge``, dynamic indexes through
    ``insert_edge``/``delete_edge``, and WAL recovery replays logged
    rows the same way.  ``args`` is ``(source, target)`` for plain ops
    and ``(source, target, label)`` for labeled ones.
    """
    for kind, *args in rows:
        if kind == "insert":
            insert(*args)
        else:
            delete(*args)


def update_stream(
    graph: DiGraph,
    num_ops: int,
    seed: int,
    delete_fraction: float = 0.4,
    keep_acyclic: bool = False,
) -> list[EdgeOp]:
    """A seeded stream of edge updates, generated against a working copy.

    ``keep_acyclic`` restricts inserts to DAG-preserving edges (and
    assumes the input is a DAG), which is what the Table 1 DAG-input
    dynamic indexes require.  Deletes always target existing edges at the
    time of the operation.
    """
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError(f"delete_fraction must be in [0, 1], got {delete_fraction}")
    rng = random.Random(seed)
    working = graph.copy()
    ops: list[EdgeOp] = []
    attempts_budget = 200
    while len(ops) < num_ops:
        do_delete = rng.random() < delete_fraction and working.num_edges > 0
        if do_delete:
            edges = list(working.edges())
            u, v = edges[rng.randrange(len(edges))]
            working.remove_edge(u, v)
            ops.append(EdgeOp("delete", u, v))
            continue
        placed = False
        for _attempt in range(attempts_budget):
            u = rng.randrange(working.num_vertices)
            v = rng.randrange(working.num_vertices)
            if u == v or working.has_edge(u, v):
                continue
            if keep_acyclic and bfs_reachable(working, v, u):
                continue
            working.add_edge(u, v)
            ops.append(EdgeOp("insert", u, v))
            placed = True
            break
        if not placed:
            # graph saturated for inserts: fall back to a delete if possible
            if working.num_edges == 0:
                break
            edges = list(working.edges())
            u, v = edges[rng.randrange(len(edges))]
            working.remove_edge(u, v)
            ops.append(EdgeOp("delete", u, v))
    return ops


def labeled_update_stream(
    graph: LabeledDiGraph,
    num_ops: int,
    seed: int,
    delete_fraction: float = 0.4,
) -> list[LabeledEdgeOp]:
    """A seeded stream of labeled edge updates (general graphs)."""
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError(f"delete_fraction must be in [0, 1], got {delete_fraction}")
    rng = random.Random(seed)
    working = graph.copy()
    labels = [str(label) for label in working.labels()]
    if not labels:
        raise ValueError("graph has no labels")
    ops: list[LabeledEdgeOp] = []
    while len(ops) < num_ops:
        do_delete = rng.random() < delete_fraction and working.num_edges > 0
        if do_delete:
            edges = list(working.edges())
            u, v, label = edges[rng.randrange(len(edges))]
            working.remove_edge(u, v, label)
            ops.append(LabeledEdgeOp("delete", u, v, str(label)))
            continue
        for _attempt in range(200):
            u = rng.randrange(working.num_vertices)
            v = rng.randrange(working.num_vertices)
            label = rng.choice(labels)
            if u != v and not working.has_edge(u, v, label):
                working.add_edge(u, v, label)
                ops.append(LabeledEdgeOp("insert", u, v, label))
                break
        else:
            break
    return ops


def tuple_churn_stream(
    initial: list[RelationTuple],
    num_ops: int,
    seed: int,
    revoke_fraction: float = 0.4,
) -> list[TupleOp]:
    """A seeded grant/revoke stream over an authz namespace's tuples.

    Generated against a working copy of ``initial`` so every revoke
    targets a tuple present at the time of the op and every grant is
    fresh; subjects, relations and objects are drawn from the pools the
    initial tuples establish.  Replay the stream through
    :meth:`repro.authz.store.AuthzStore.apply_updates` — each op becomes
    one write, so zookies advance monotonically with epochs.
    """
    if not initial:
        raise ValueError("tuple_churn_stream needs a non-empty initial tuple set")
    if not 0.0 <= revoke_fraction <= 1.0:
        raise ValueError(f"revoke_fraction must be in [0, 1], got {revoke_fraction}")
    rng = random.Random(seed)
    working = set(initial)
    subjects = sorted({t.subject for t in initial})
    relations = sorted({t.relation for t in initial})
    objects = sorted({t.object for t in initial})
    ops: list[TupleOp] = []
    while len(ops) < num_ops:
        do_revoke = rng.random() < revoke_fraction and working
        if do_revoke:
            victim = rng.choice(sorted(working))
            working.discard(victim)
            ops.append(TupleOp("revoke", victim.subject, victim.relation, victim.object))
            continue
        for _attempt in range(200):
            subject = rng.choice(subjects)
            obj = rng.choice(objects)
            if subject == obj:
                continue
            candidate = RelationTuple(subject, rng.choice(relations), obj)
            if candidate not in working:
                working.add(candidate)
                ops.append(
                    TupleOp(
                        "grant",
                        candidate.subject,
                        candidate.relation,
                        candidate.object,
                    )
                )
                break
        else:
            if not working:
                break
            victim = rng.choice(sorted(working))
            working.discard(victim)
            ops.append(TupleOp("revoke", victim.subject, victim.relation, victim.object))
    return ops
