"""The four ledger workloads: datasets, seeded traffic, and the oracles.

Every workload drives the *same* pipeline (see ``passes.py``) over one
relation graph served two ways — by a :class:`ReachabilityService` and by
an :class:`AuthzStore` — so every ledger metric exists on every workload.
What differs is the index family, the request mix and which side takes the
writes; those differences are the point, and each ``why`` below says what
they are meant to expose.

Everything here is generated inside the benchmark process; the program under
test sees only the generated graph, pairs, ops and tuples.  The relation
graph is the *dataset* — one fixed instance per workload, like a TPC scale
factor — and ``--seed`` draws the *traffic* over it: which pairs are asked,
the Zipf draws, the write stream, the authz ops and the tuple churn.  (With a
seed-drawn graph, GRAIL's and DAGGER's random labels make guided-query cost a
per-graph lottery: the same graph under ten label seeds spread ``probe_us`` by
30%, more than any regression bound could carry.)
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace

from repro.authz import RelationTuple, compile_tuples
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import random_dag
from repro.workloads import (
    AuthzOp,
    EdgeOp,
    PlainQuery,
    authz_tuples,
    authz_workload,
    plain_workload,
    tuple_churn_stream,
    update_stream,
)

#: Rounds are count-based (every pass consumes a fixed slice of the seeded
#: streams), so the non-repeatable write streams are generated for this many
#: rounds and a run never does more, however long ``--seconds`` is.
MAX_ROUNDS = 40

BATCH_PAIRS = 256
NAMESPACE = "ledger"
DATASET_SEED = 20230045
DELETE_FRACTION = 0.3  # of the edge-update stream
LIST_FRACTION = 0.3  # of the authz reads
HTTP_OPEN_RATE = 200  # req/s of the gated open-loop pass
#: Every workload's tuple store is ``AuthzStore("TC")``.  Under the partial
#: families a ``check`` is a guided traversal whose median latency differs by
#: 1.6x between two random graphs; the closure rows make it a steady number.
STORE_FAMILY = "TC"


@dataclass(frozen=True)
class Scenario:
    """One workload: data shape, request mix and per-round pass sizes."""

    name: str
    why: str
    family: str
    vertices: int = 3_000
    edges: int = 10_500
    universe: tuple[int, int, int] = (2_000, 200, 2_000)
    #: Length of the seeded reach-request sequence every read pass draws from.
    requests: int = 20_000
    positive_fraction: float = 0.5
    #: ``None`` — all requests distinct; else Zipf(1.2) draws from a fixed
    #: pool of this many pairs (a pool below 4096 fits the result cache).
    pool: int | None = None
    #: Which side takes the writes, and so which dataset it is: "service" —
    #: ``apply_updates`` of 4 edge ops on ``random_dag(vertices, edges)``;
    #: "authz" — ``AuthzStore.write`` of one tuple on the compiled
    #: ``authz_tuples(*universe)`` relation graph.
    writer: str = "service"
    #: True — every write batch is followed by its inverse, so the graph is
    #: back at its dataset state whenever reads run (static families rebuild
    #: per batch; churning them would make every precomputed answer stale).
    restore_writes: bool = False
    # -- per-round pass sizes (counts, never durations: counters repeat) --
    probe_reads: int = 10_000
    svc_segments: int = 1
    svc_writes_per_segment: int = 2
    svc_reads_per_segment: int = 1_250
    batches: int = 8
    http_open_requests: int = 50
    http_closed_requests: int = 160
    http_batches: int = 8
    authz_writes: int = 0
    authz_reads: int = 300
    trace_requests: int = 80
    setups: int = 5


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="probe_uniform",
            why="complete PLL index, 20k distinct pairs >> 4096-entry cache: "
            "time is wrapper, serialisation and transport, not traversal",
            family="PLL",
            restore_writes=True,
        ),
        Scenario(
            name="guided_positive",
            why="partial GRAIL index, 80% positive pairs: most lookups are MAYBE "
            "so guided traversal and the batch kernels do the work, wrappers do not",
            family="GRAIL",
            requests=12_000,
            positive_fraction=0.8,
            restore_writes=True,
            probe_reads=800,
            svc_reads_per_segment=600,
        ),
        Scenario(
            name="write_churn",
            why="dynamic DAGGER index patched in 4-op batches under a batch-fsync WAL, "
            "200 Zipf reads from a cache-sized pool after each swap: write cost beside re-warm",
            family="DAGGER",
            requests=8_000,
            pool=2_000,
            probe_reads=800,
            svc_segments=4,
            svc_writes_per_segment=1,
            svc_reads_per_segment=200,
        ),
        Scenario(
            name="authz_churn",
            why="TC tuple store: set enumeration instead of pair probes, reads carry the "
            "latest zookie, each write recompiles the namespace instead of patching",
            family="TC",
            requests=16_000,
            writer="authz",
            svc_writes_per_segment=0,
            svc_reads_per_segment=1_500,
            probe_reads=5_000,
            authz_writes=1,
        ),
    )
}


def smoke(scenario: Scenario) -> Scenario:
    """The same workload on a tiny graph with tiny passes (``--smoke``)."""
    return replace(
        scenario,
        vertices=300,
        edges=1_000,
        universe=(120, 12, 120),
        requests=400,
        pool=None if scenario.pool is None else 100,
        probe_reads=200,
        svc_reads_per_segment=min(scenario.svc_reads_per_segment, 100),
        batches=1,
        http_open_requests=10,
        http_closed_requests=20,
        http_batches=1,
        authz_reads=40,
        trace_requests=10,
        setups=1,
    )


@dataclass
class Inputs:
    """Everything one run feeds the stack: the dataset and the seeded traffic."""

    graph: DiGraph
    tuples: list[RelationTuple]
    #: Entity name of each vertex id in the authz view (``None``: the vertex
    #: has no tuple, so the store does not know it).
    names: list[str | None]
    requests: list[PlainQuery]
    #: The distinct pairs behind ``requests`` (the pool, where there is one):
    #: what the index-probe pass loops over, so its mean is over many pairs
    #: and not over whichever few a Zipf draw made hot.
    distinct: list[PlainQuery]
    authz_ops: list[AuthzOp]
    #: Write batches in the order the writer applies them.
    write_batches: list[list]


def dataset(scenario: Scenario) -> tuple[DiGraph, list[RelationTuple], list[str | None]]:
    """The workload's relation graph, its tuple form, and the id → name map.

    The server child calls this too, so parent and child serve identical
    vertex ids without an edge-list round trip.
    """
    if scenario.writer == "service":
        graph = random_dag(scenario.vertices, scenario.edges, seed=DATASET_SEED)
        tuples = [
            RelationTuple(f"node:{u}", "edge", f"node:{v}") for u, v in graph.edges()
        ]
        names: list[str | None] = [None] * graph.num_vertices
        for u, v in graph.edges():
            names[u] = f"node:{u}"
            names[v] = f"node:{v}"
        return graph, tuples, names
    tuples = authz_tuples(*scenario.universe, seed=DATASET_SEED)
    labeled, _ids, entities = compile_tuples(sorted(tuples))
    return labeled.to_plain(), tuples, list(entities)


def _zipf_sequence(pool: list, length: int, rng: random.Random, exponent: float = 1.2) -> list:
    """Zipf draws from ``pool``; the rank order is reshuffled every
    ``len(pool)`` draws.  Under Zipf(1.2) ten pairs take 60% of the draws, so
    with one fixed ranking a run measures those ten pairs' cost — a per-seed
    lottery.  Rotating the hot set keeps the skew (and the cache behaviour)
    and lets a run's median see many hot sets."""
    cumulative: list[float] = []
    total = 0.0
    for rank in range(len(pool)):
        total += (rank + 1) ** -exponent
        cumulative.append(total)
    sequence: list = []
    while len(sequence) < length:
        ranked = list(pool)
        rng.shuffle(ranked)
        sequence += [
            ranked[bisect_right(cumulative, rng.random() * total)] for _ in range(len(pool))
        ]
    return sequence[:length]


def make_inputs(scenario: Scenario, seed: int) -> Inputs:
    """The dataset plus the traffic ``seed`` draws over it: request
    sequence, authz ops and write stream."""
    graph, tuples, names = dataset(scenario)
    rng = random.Random(seed * 1_000_003 + 17)
    if scenario.writer == "service":
        distinct = plain_workload(
            graph, scenario.pool or scenario.requests, scenario.positive_fraction, seed + 1
        )
        requests = distinct if scenario.pool is None else _zipf_sequence(distinct, scenario.requests, rng)
        authz_ops = _authz_ops_from_requests(distinct, names, rng)
    else:
        authz_ops = authz_workload(
            tuples, scenario.requests, seed + 1, list_fraction=LIST_FRACTION
        )
        requests = distinct = _requests_from_checks(authz_ops, tuples, names)
    if scenario.writer == "service":
        if scenario.restore_writes:
            # Each forward batch is drawn against the dataset graph and undone
            # by the next write, so the list can be cycled indefinitely.
            write_batches = []
            for k in range(8):
                batch = update_stream(
                    graph, 4, seed + 2 + k,
                    delete_fraction=DELETE_FRACTION, keep_acyclic=True,
                )
                write_batches += [batch, _inverse(batch)]
        else:
            per_round = scenario.svc_segments * scenario.svc_writes_per_segment
            ops = update_stream(
                graph, 4 * per_round * MAX_ROUNDS, seed + 2,
                delete_fraction=DELETE_FRACTION, keep_acyclic=True,
            )
            write_batches = [ops[i : i + 4] for i in range(0, len(ops), 4)]
    else:
        write_batches = _tuple_writes(tuples, scenario.authz_writes * MAX_ROUNDS, seed + 2)
    return Inputs(graph, tuples, names, requests, distinct, authz_ops, write_batches)


def _tuple_writes(tuples: list[RelationTuple], count: int, seed: int) -> list[list]:
    """One-op grant/revoke writes that never orphan an entity.

    A revoke that removed an entity's last tuple would make every later
    read naming it an ``UnknownEntityError``; the ledger's workloads are
    ones on which no operation fails, so such revokes are dropped.
    """
    present = set(tuples)
    degree = Counter(name for t in present for name in (t.subject, t.object))
    writes: list[list] = []
    for op in tuple_churn_stream(tuples, 3 * count, seed):
        t = op.tuple()
        if op.kind == "grant":
            if t in present:
                continue  # re-grant of a revoke dropped below
            present.add(t)
            by = 1
        else:
            if min(degree[t.subject], degree[t.object]) < 2:
                continue
            present.discard(t)
            by = -1
        degree[t.subject] += by
        degree[t.object] += by
        writes.append([op])
        if len(writes) == count:
            break
    return writes


def _inverse(batch: list[EdgeOp]) -> list[EdgeOp]:
    flip = {"insert": "delete", "delete": "insert"}
    return [EdgeOp(flip[op.kind], op.source, op.target) for op in reversed(batch)]


def _authz_ops_from_requests(
    requests: list[PlainQuery], names: list[str | None], rng: random.Random
) -> list[AuthzOp]:
    """Ask the store the same questions as the service: ``check`` for the
    pair, or ``list_objects`` from its source.

    No ``list_subjects`` here: in a random DAG the ancestor-set size has
    p40/p50/p60 of roughly 50/600/1300 entities, so its median latency is a
    coin toss between a cheap and a dear call.  ``authz_churn`` covers it.
    """
    ops: list[AuthzOp] = []
    for q in requests:
        subject, obj = names[q.source], names[q.target]
        if subject is None or obj is None:
            continue  # an isolated vertex has no tuple: the store would 404 it
        if rng.random() < LIST_FRACTION:
            ops.append(AuthzOp("list_objects", subject))
        else:
            ops.append(AuthzOp("check", subject, obj))
    return ops


def _requests_from_checks(
    ops: list[AuthzOp], tuples: list[RelationTuple], names: list[str | None]
) -> list[PlainQuery]:
    """Ask the service the same questions as the store's ``check`` ops,
    each once (repeats would turn the service's numbers into a cache-hit
    lottery; this workload is about the store)."""
    ids = {name: vid for vid, name in enumerate(names)}
    oracle = ClosureOracle((t.subject, t.object) for t in tuples)
    pairs = dict.fromkeys((op.subject, op.object) for op in ops if op.kind == "check")
    return [PlainQuery(ids[s], ids[o], oracle.reaches(s, o)) for s, o in pairs]


class ClosureOracle:
    """Ground truth by BFS over the harness's own copy of the edge set.

    Independent of ``DiGraph`` and of every index: plain dict adjacency
    with edge multiplicities (two tuples may relate the same entities), a
    per-node memo of the reachable set, cleared on every mutation.
    """

    def __init__(self, edges) -> None:
        self._out: dict[object, dict[object, int]] = {}
        self._in: dict[object, dict[object, int]] = {}
        self._memo: dict[tuple[object, bool], frozenset] = {}
        #: Net edge changes since construction; empty means "dataset state",
        #: where the generators' precomputed answers are valid.
        self._delta: dict[tuple[object, object], int] = {}
        for u, v in edges:
            self._bump(u, v, +1)
        self._delta.clear()

    def _bump(self, u, v, by: int) -> None:
        for table, a, b in ((self._out, u, v), (self._in, v, u)):
            row = table.setdefault(a, {})
            count = row.get(b, 0) + by
            if count < 0:
                raise ValueError(f"oracle: removing absent edge {u!r}->{v!r}")
            if count:
                row[b] = count
            else:
                row.pop(b, None)
        net = self._delta.get((u, v), 0) + by
        if net:
            self._delta[(u, v)] = net
        else:
            self._delta.pop((u, v), None)
        self._memo.clear()

    def add(self, u, v) -> None:
        self._bump(u, v, +1)

    def remove(self, u, v) -> None:
        self._bump(u, v, -1)

    @property
    def at_seed_state(self) -> bool:
        return not self._delta

    def edges(self) -> set[tuple[object, object]]:
        return {(u, v) for u, row in self._out.items() for v in row}

    def closure(self, node, forward: bool = True) -> frozenset:
        """Every node reachable from (or reaching) ``node``, itself included."""
        key = (node, forward)
        hit = self._memo.get(key)
        if hit is None:
            table = self._out if forward else self._in
            seen = {node}
            frontier = [node]
            while frontier:
                nxt = []
                for a in frontier:
                    for b in table.get(a, ()):
                        if b not in seen:
                            seen.add(b)
                            nxt.append(b)
                frontier = nxt
            hit = self._memo[key] = frozenset(seen)
        return hit

    def reaches(self, u, v) -> bool:
        return v in self.closure(u)
