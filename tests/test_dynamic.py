"""Dynamic maintenance: every update-capable index stays exact.

Randomised insert/delete streams are applied through the index API and
the full reachability relation is re-checked against BFS after every
step — for plain (TOL, U2-hop, HOPI, Path-tree, IP, DAGGER, DBL, and TC
over a fixed SCC partition) and labeled (Zou, DLCR) dynamic indexes.
"""

from __future__ import annotations

import copy
import itertools
import random

import pytest

from repro.core.registry import all_labeled_indexes, all_plain_indexes
from repro.errors import GraphError, NotADAGError, UnsupportedOperationError
from repro.graphs.generators import gnp_digraph, random_dag, random_labeled_digraph
from repro.traversal.online import bfs_reachable
from repro.traversal.rpq import constrained_descendants

PLAIN = all_plain_indexes()
LABELED = all_labeled_indexes()

DYNAMIC_DAG = ["TOL", "U2-hop", "Path-tree", "IP", "DAGGER"]
DYNAMIC_GENERAL = ["Ralf et al."]


def _check_exact(index, graph):
    for s in range(graph.num_vertices):
        for t in range(graph.num_vertices):
            assert index.query(s, t) == bfs_reachable(graph, s, t), (s, t)


@pytest.mark.parametrize("seed", [0, 20, 24])  # 20/24 exposed a repair bug once
@pytest.mark.parametrize("name", DYNAMIC_DAG)
def test_dag_dynamic_indexes_track_update_stream(name, seed):
    rng = random.Random(seed)
    graph = random_dag(25, 50, seed=1)
    index = PLAIN[name].build(graph)
    g = index.graph
    for _step in range(25):
        edges = list(g.edges())
        if rng.random() < 0.5 and edges:
            u, v = edges[rng.randrange(len(edges))]
            index.delete_edge(u, v)
        else:
            for _attempt in range(80):
                u = rng.randrange(g.num_vertices)
                v = rng.randrange(g.num_vertices)
                if u != v and not g.has_edge(u, v) and not bfs_reachable(g, v, u):
                    index.insert_edge(u, v)
                    break
        _check_exact(index, g)


@pytest.mark.parametrize("name", DYNAMIC_GENERAL)
def test_general_dynamic_indexes_track_update_stream(name):
    rng = random.Random(99)
    graph = gnp_digraph(18, 0.08, seed=2)
    index = PLAIN[name].build(graph)
    g = index.graph
    for _step in range(25):
        edges = list(g.edges())
        if rng.random() < 0.4 and edges:
            u, v = edges[rng.randrange(len(edges))]
            index.delete_edge(u, v)
        else:
            for _attempt in range(80):
                u = rng.randrange(g.num_vertices)
                v = rng.randrange(g.num_vertices)
                if u != v and not g.has_edge(u, v):
                    index.insert_edge(u, v)
                    break
        _check_exact(index, g)


def test_dbl_supports_insertions_only():
    rng = random.Random(7)
    graph = gnp_digraph(18, 0.05, seed=3)
    index = PLAIN["DBL"].build(graph)
    g = index.graph
    for _step in range(25):
        for _attempt in range(80):
            u = rng.randrange(g.num_vertices)
            v = rng.randrange(g.num_vertices)
            if u != v and not g.has_edge(u, v):
                index.insert_edge(u, v)
                break
        _check_exact(index, g)
    with pytest.raises(UnsupportedOperationError):
        index.delete_edge(*next(iter(g.edges())))


def _tc_state(index):
    return sorted(index.graph.edges()), list(index._scc_of), list(index._closure)


def test_tc_tracks_general_graphs_and_refuses_without_mutating():
    """TC is dynamic over the SCC partition of its build: on random
    *general* graphs every accepted op keeps probes and both enumerations
    equal to BFS, and every refused one (partition-changing, duplicate,
    absent, out of range) leaves graph and index exactly as they were."""
    ops = refusals = 0
    for seed in range(20):
        rng = random.Random(seed)
        graph = gnp_digraph(rng.randint(3, 10), rng.choice([0.05, 0.15, 0.3]), seed=seed)
        index = PLAIN["TC"].build(graph)
        g = index.graph
        for _step in range(300):
            n = g.num_vertices
            before = _tc_state(index)
            roll = rng.random()
            edges = list(g.edges())
            try:
                if roll < 0.05 and n < 14:
                    assert index.add_vertex() == n
                elif roll < 0.55:
                    index.insert_edge(rng.randrange(-1, n + 1), rng.randrange(-1, n + 1))
                elif edges and rng.random() < 0.9:
                    index.delete_edge(*rng.choice(edges))
                else:
                    index.delete_edge(rng.randrange(-1, n + 1), rng.randrange(-1, n + 1))
            except (GraphError, UnsupportedOperationError):
                refusals += 1
                assert _tc_state(index) == before
            ops += 1
            n = g.num_vertices
            reach = [{t for t in range(n) if bfs_reachable(g, s, t)} for s in range(n)]
            for s in range(n):
                assert index.reachable_from(s) == reach[s], (seed, _step, s)
                assert index.reaching_to(s) == {t for t in range(n) if s in reach[t]}
                for t in range(n):
                    assert index.query(s, t) == (t in reach[s]), (seed, _step, s, t)
    assert ops >= 5000 and refusals > 500


def test_tc_deepcopy_carries_the_scc_members_without_sharing_growth():
    original = PLAIN["TC"].build(gnp_digraph(9, 0.2, seed=3))
    original.reachable_from(0)  # materialises the lazy SCC member lists
    before = _tc_state(original), [list(row) for row in original._scc_members()]
    clone = copy.deepcopy(original)
    assert "_members" in clone.__dict__
    fresh = clone.add_vertex()
    clone.insert_edge(fresh, 0)
    assert clone.reachable_from(fresh) == original.reachable_from(0) | {fresh}
    assert (_tc_state(original), original._scc_members()) == before


@pytest.mark.parametrize("name", ["TOL", "IP", "DAGGER", "Path-tree"])
def test_cycle_creating_insert_rejected(name):
    graph = random_dag(6, 8, seed=4)
    index = PLAIN[name].build(graph)
    u, v = next(iter(graph.edges()))
    with pytest.raises(NotADAGError):
        index.insert_edge(v, u)


@pytest.mark.parametrize(
    "name", sorted(n for n, c in PLAIN.items() if c.metadata.dynamic == "no")
)
def test_static_indexes_reject_updates(name):
    graph = random_dag(8, 12, seed=5)
    index = PLAIN[name].build(graph)
    with pytest.raises(UnsupportedOperationError):
        index.insert_edge(0, 7)
    with pytest.raises(UnsupportedOperationError):
        index.delete_edge(*next(iter(graph.edges())))


@pytest.mark.parametrize("name", ["Zou et al.", "DLCR"])
def test_labeled_dynamic_indexes_track_update_stream(name):
    labels = ["a", "b", "c"]
    constraints = []
    for r in (1, 2, 3):
        for combo in itertools.combinations(labels, r):
            constraints.append("(" + "|".join(combo) + ")*")
    rng = random.Random(11)
    graph = random_labeled_digraph(12, 28, labels, seed=6)
    index = LABELED[name].build(graph)
    g = index.graph
    for _step in range(12):
        edges = list(g.edges())
        if rng.random() < 0.5 and edges:
            u, v, label = edges[rng.randrange(len(edges))]
            index.delete_edge(u, v, label)
        else:
            for _attempt in range(80):
                u = rng.randrange(g.num_vertices)
                v = rng.randrange(g.num_vertices)
                label = rng.choice(labels)
                if u != v and not g.has_edge(u, v, label):
                    index.insert_edge(u, v, label)
                    break
        for constraint in constraints:
            for s in range(g.num_vertices):
                reach = constrained_descendants(g, s, constraint)
                for t in range(g.num_vertices):
                    expected = t in reach or s == t  # star accepts empty paths
                    assert index.query(s, t, constraint) == expected


def test_dagger_resweep_restores_precision():
    from repro.core.base import TriState

    graph = random_dag(20, 60, seed=8)
    index = PLAIN["DAGGER"].build(graph, resweep_after=1)
    u, v = next(iter(graph.edges()))
    index.delete_edge(u, v)  # resweep_after=1 forces an immediate re-sweep
    # after the sweep, intervals are exact again: NO whenever unreachable
    # and containment violated — count that the filter still fires
    fires = sum(
        1
        for s in range(graph.num_vertices)
        for t in range(graph.num_vertices)
        if index.lookup(s, t) is TriState.NO
    )
    assert fires > 0


# -- invalid ops: the family refuses, the service rebuilds or re-raises ------
# The service's write path has no validity pre-pass: a dynamic family must
# refuse a bad op itself with a GraphError (or UnsupportedOperationError),
# which the writer turns into the rebuild path — a counted rebuild when the
# op is legal on the graph (a cycle under a DAG-only family condenses), the
# graph's own GraphError otherwise.
_DYNAMIC_PLAIN = sorted(n for n, c in PLAIN.items() if c.metadata.dynamic != "no")
_DYNAMIC_LABELED = sorted(n for n, c in LABELED.items() if c.metadata.dynamic != "no")
_LABELS = ["a", "b"]


def _plain_graph():
    return random_dag(20, 40, seed=7)


def _labeled_graph():
    return random_labeled_digraph(14, 30, _LABELS, seed=9)


def _invalid_op(graph, case, labeled):
    """``(kind, source, target[, label])`` for one invalid-op case."""
    n = graph.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    u, v, *label = next(iter(graph.edges()))

    def present(s, t):
        if labeled:
            return any(graph.has_edge(s, t, x) for x in _LABELS)
        return graph.has_edge(s, t)

    if case == "cycle":
        s, t = next(
            (t, s) for s, t in pairs if bfs_reachable(graph, s, t) and not present(t, s)
        )
        op = ("insert", s, t)
    elif case == "duplicate":
        op = ("insert", u, v)
    elif case == "absent":
        op = ("delete", *next((s, t) for s, t in pairs if not present(s, t)))
    else:
        op = ("insert", 0, n + 3)
    return op + ((label[0],) if labeled else ())


def _invalid_cases():
    for name in _DYNAMIC_PLAIN:
        dag_only = PLAIN[name].metadata.input_kind == "DAG"
        for case in ("cycle", "duplicate", "absent", "range"):
            if case != "cycle" or dag_only:
                yield pytest.param(False, name, case, id=f"{name}-{case}")
    for name in _DYNAMIC_LABELED:
        for case in ("duplicate", "absent", "range"):
            yield pytest.param(True, name, case, id=f"{name}-{case}")


@pytest.mark.parametrize("labeled, name, case", _invalid_cases())
def test_invalid_op_is_refused_by_the_family_and_survived_by_the_service(
    labeled, name, case
):
    from repro.core.condensed import CondensedIndex
    from repro.errors import EdgeError, GraphError, VertexError
    from repro.service import ReachabilityService
    from repro.workloads.updates import EdgeOp, LabeledEdgeOp

    make = _labeled_graph if labeled else _plain_graph
    kind, *args = _invalid_op(make(), case, labeled)
    index = (LABELED if labeled else PLAIN)[name].build(make())
    apply = index.insert_edge if kind == "insert" else index.delete_edge
    with pytest.raises((GraphError, UnsupportedOperationError)):
        apply(*args)

    if labeled:
        service = ReachabilityService(make(), labeled_index=name)
        op = LabeledEdgeOp(kind, *args)
    else:
        service = ReachabilityService(make(), index=name)
        op = EdgeOp(kind, *args)
    if case == "cycle":
        assert service.apply_updates([op]) == 1
        counters = service.metrics_dict()["service"]
        assert (counters["patches"], counters["rebuilds"]) == (0, 1)
        snap = service.acquire()
        assert isinstance(snap.plain, CondensedIndex)
        assert snap.plain.query(args[1], args[0]) and snap.plain.query(args[0], args[1])
        return
    with pytest.raises(VertexError if case == "range" else EdgeError):
        service.apply_updates([op])
    counters = service.metrics_dict()["service"]
    assert (counters["patches"], counters["rebuilds"], service.epoch) == (0, 0, 0)


def test_tc_service_patches_within_the_partition_and_rebuilds_across_it():
    """TC takes General input, so a cycle is legal on the graph; the family
    refuses only because the op changes its SCC partition, and the service
    turns that into a counted rebuild of a bare (uncondensed) TC."""
    from repro.core.condensed import CondensedIndex
    from repro.service import ReachabilityService
    from repro.workloads.updates import EdgeOp

    graph = _plain_graph()
    _kind, s, t = _invalid_op(graph, "cycle", labeled=False)
    u, v = next(iter(graph.edges()))
    service = ReachabilityService(graph, index="TC")

    def routes():
        counters = service.metrics_dict()["service"]
        return counters["patches"], counters["rebuilds"]

    service.apply_updates([EdgeOp("delete", u, v)])
    service.apply_updates([EdgeOp("insert", u, v)])
    assert routes() == (2, 0)
    service.apply_updates([EdgeOp("insert", s, t)])  # merges SCCs
    assert routes() == (2, 1)
    assert service.reach(s, t) and service.reach(t, s)
    service.apply_updates([EdgeOp("delete", s, t)])  # inside one: could split it
    assert routes() == (2, 2)
    snap = service.acquire()
    assert not isinstance(snap.plain, CondensedIndex)
    _check_exact(snap.plain, snap.graph)
    assert sorted(snap.graph.edges()) == sorted(_plain_graph().edges())


# -- patched copies: what the service's writer does on every batch -----------
# ``_try_patch`` deep-copies the served index and patches the copy while
# readers keep querying the original, so the copy must be exact on *its*
# graph and must share no mutable state with the original.
def _random_step(rng, index, labeled, insert_only, dag_only):
    """One seeded insert or delete through the index's maintenance API."""
    g = index.graph
    edges = list(g.edges())
    if not insert_only and edges and rng.random() < 0.4:
        index.delete_edge(*edges[rng.randrange(len(edges))])
        return
    for _attempt in range(80):
        u, v = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
        extra = (rng.choice(_LABELS),) if labeled else ()
        if u == v or g.has_edge(u, v, *extra):
            continue
        if dag_only and bfs_reachable(g, v, u):
            continue
        index.insert_edge(u, v, *extra)
        return


def _accepted_step(rng, index, labeled, **kinds):
    """:func:`_random_step`, drawn again while the family refuses.

    A family may refuse a legal op it cannot maintain (TC: one that
    changes the SCC partition); the refusal must leave the index exact.
    """
    for _attempt in range(80):
        edges = list(index.graph.edges())
        try:
            return _random_step(rng, index, labeled, **kinds)
        except UnsupportedOperationError:
            assert list(index.graph.edges()) == edges
            _assert_exact(index, index.graph, labeled)


def _assert_exact(index, graph, labeled):
    n = graph.num_vertices
    if not labeled:
        _check_exact(index, graph)
        return
    for constraint in ("(a)*", "(b)*", "(a|b)*"):
        for s in range(n):
            reach = constrained_descendants(graph, s, constraint)
            for t in range(n):
                assert index.query(s, t, constraint) == (t in reach or s == t)


@pytest.mark.parametrize(
    "labeled, name",
    [(False, n) for n in _DYNAMIC_PLAIN] + [(True, n) for n in _DYNAMIC_LABELED],
)
def test_patched_deepcopy_is_exact_and_leaves_the_original_untouched(labeled, name):
    make = _labeled_graph if labeled else _plain_graph
    meta = (LABELED if labeled else PLAIN)[name].metadata
    original = (LABELED if labeled else PLAIN)[name].build(make())
    clone = copy.deepcopy(original)
    assert clone.graph is not original.graph
    rng = random.Random(16)
    for _step in range(12):
        _accepted_step(
            rng,
            clone,
            labeled,
            insert_only=meta.dynamic == "insert-only",
            dag_only=meta.input_kind == "DAG",
        )
    untouched = make()
    assert sorted(original.graph.edges()) == sorted(untouched.edges())
    assert sorted(clone.graph.edges()) != sorted(untouched.edges())
    _assert_exact(clone, clone.graph, labeled)
    _assert_exact(original, untouched, labeled)
