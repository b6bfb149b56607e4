"""One build: declared parameters only, and one §3.1 lift for every surface.

Two contracts.  A build keyword the family does not declare is a typed
``IndexBuildError`` naming the accepted ones — at the family itself and
through every surface that forwards user input.  And every surface that
builds a plain index goes through ``build_plain``, so a DAG-only family
is wrapped in a ``CondensedIndex`` exactly when the graph is cyclic.
"""

from __future__ import annotations

import inspect
from concurrent.futures import BrokenExecutor

import pytest

from repro.advisor import estimate_costs, graph_features, priors
from repro.authz import AuthzStore, RelationTuple
from repro.bench.harness import build_index
from repro.cli import main
from repro.core.condensed import CondensedIndex, build_plain
from repro.core.oracle import PlainReachabilityOracle
from repro.core.registry import all_labeled_indexes, all_plain_indexes, plain_index
from repro.errors import IndexBuildError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import random_dag, random_labeled_digraph
from repro.graphs.io import write_edge_list
from repro.obs.metrics import global_registry
from repro.persistence import load_index
from repro.service import ReachabilityService
from repro.shard import ShardedIndex
from repro.traversal.online import bfs_reachable

PLAIN = all_plain_indexes()
LABELED = all_labeled_indexes()


def _dag() -> DiGraph:
    return random_dag(24, 50, seed=1401)


def _cyclic() -> DiGraph:
    graph = random_dag(24, 50, seed=1402)
    graph.add_edge(23, 0)  # random_dag edges go low -> high: this closes cycles
    return graph


def _assert_exact(index, graph: DiGraph) -> None:
    for s in graph.vertices():
        for t in graph.vertices():
            assert index.query(s, t) == bfs_reachable(graph, s, t), (s, t)


# -- a misspelt build parameter is an error --------------------------------
def _assert_names_accepted(message: str, cls) -> None:
    declared = list(inspect.signature(cls.build).parameters)[1:]
    assert "no build parameter" in message
    for name in declared:
        assert name in message.split("accepted:")[1]


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_plain_family_rejects_unknown_parameter(name):
    with pytest.raises(IndexBuildError) as caught:
        PLAIN[name].build(_dag(), no_such_param=1)
    assert "no_such_param" in str(caught.value)
    _assert_names_accepted(str(caught.value), PLAIN[name])


@pytest.mark.parametrize("name", sorted(LABELED))
def test_labeled_family_rejects_unknown_parameter(name):
    graph = random_labeled_digraph(12, 24, ["a", "b"], seed=1403)
    with pytest.raises(IndexBuildError) as caught:
        LABELED[name].build(graph, no_such_param=1)
    assert "no_such_param" in str(caught.value)
    _assert_names_accepted(str(caught.value), LABELED[name])


def test_declared_parameters_still_apply():
    index = plain_index("GRAIL").build(_dag(), k=5)
    assert index.size_in_entries() > plain_index("GRAIL").build(_dag(), k=2).size_in_entries()


class TestSurfacesRejectUnknownParameters:
    def test_condensed_forwards_the_check_to_the_inner_family(self):
        with pytest.raises(IndexBuildError, match="accepted: exceptions, k, seed"):
            CondensedIndex.build(_cyclic(), inner=plain_index("GRAIL"), K=9)

    def test_build_plain(self):
        for graph in (_dag(), _cyclic()):
            with pytest.raises(IndexBuildError, match="K"):
                build_plain("GRAIL", graph, K=9)

    def test_service_constructor(self):
        with pytest.raises(IndexBuildError, match="K"):
            ReachabilityService(_dag(), index="GRAIL", index_params={"K": 9})

    def test_adopt_index_leaves_the_served_index_alone(self):
        service = ReachabilityService(_dag(), index="PLL")
        with pytest.raises(IndexBuildError, match="K"):
            service.adopt_index("GRAIL", {"K": 9})
        assert service.epoch == 0
        assert service.acquire().plain.metadata.name == "PLL"
        assert service.adopt_index("GRAIL", {"k": 4}) == 1

    def test_serve_exits_2_before_binding(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(_dag(), path)
        code = main(
            ["serve", str(path), "--index", "GRAIL", "--index-param", "K=9", "--port", "0"]
        )
        assert code == 2
        assert "accepted: exceptions, k, seed" in capsys.readouterr().err

    def test_advisor_probes_are_unaffected(self):
        # Every prior's index_params are declared names: no probe may be
        # dropped from the ranking (and from GET /advise) by the check.
        graph = _cyclic()
        features = graph_features(graph)
        for estimate in estimate_costs(graph, features, priors(features)):
            if estimate.probe is not None:
                assert estimate.probe.ok, estimate.probe.error


# -- one lift, every surface ----------------------------------------------
DAG_ONLY = "GRAIL"


def _authz_store(cyclic: bool) -> tuple[AuthzStore, str]:
    store = AuthzStore(family=DAG_ONLY)
    tuples = [
        RelationTuple("user:ann", "member", "group:eng"),
        RelationTuple("group:eng", "viewer", "doc:spec"),
    ]
    if cyclic:
        tuples.append(RelationTuple("doc:spec", "parent", "user:ann"))
    store.write("tenant", writes=tuples)
    return store, "tenant"


def _built_by(surface: str, graph: DiGraph, tmp_path):
    if surface == "build_plain":
        return build_plain(DAG_ONLY, graph)
    if surface == "service":
        return ReachabilityService(graph, index=DAG_ONLY).acquire().plain
    if surface == "adopt_index":
        service = ReachabilityService(graph, index="TC")
        service.adopt_index(DAG_ONLY)
        return service.acquire().plain
    if surface == "oracle":
        return PlainReachabilityOracle(graph, DAG_ONLY).index
    if surface == "harness":
        return build_index(plain_index(DAG_ONLY), graph).index
    assert surface == "cli"
    edges, saved = tmp_path / "g.txt", tmp_path / "g.idx"
    write_edge_list(graph, edges)
    assert main(["build", str(edges), "--index", DAG_ONLY, "--save", str(saved)]) == 0
    return load_index(saved)


@pytest.mark.parametrize(
    "surface", ["build_plain", "service", "adopt_index", "oracle", "harness", "cli"]
)
def test_dag_only_family_is_lifted_iff_the_graph_is_cyclic(surface, tmp_path):
    assert plain_index(DAG_ONLY).metadata.input_kind == "DAG"
    dag, cyclic = _dag(), _cyclic()
    bare = _built_by(surface, dag, tmp_path)
    assert type(bare) is plain_index(DAG_ONLY)
    lifted = _built_by(surface, cyclic, tmp_path)
    assert isinstance(lifted, CondensedIndex)
    assert type(lifted.inner) is plain_index(DAG_ONLY)
    # (.graph, not dag/cyclic: the CLI interns vertex names in file order)
    assert bare.graph.num_edges == dag.num_edges
    _assert_exact(bare, bare.graph)
    assert lifted.graph.num_edges == cyclic.num_edges
    _assert_exact(lifted, lifted.graph)


def test_authz_store_lifts_per_namespace_graph():
    acyclic, ns = _authz_store(cyclic=False)
    snapshot = acyclic._snapshot(ns, None)
    assert type(snapshot.index) is plain_index(DAG_ONLY)
    assert acyclic.check(ns, "user:ann", "doc:spec").allowed
    assert not acyclic.check(ns, "doc:spec", "user:ann").allowed

    cyclic, ns = _authz_store(cyclic=True)
    snapshot = cyclic._snapshot(ns, None)
    assert isinstance(snapshot.index, CondensedIndex)
    assert cyclic.check(ns, "doc:spec", "group:eng").allowed
    _assert_exact(snapshot.index, snapshot.plain)

    # An unwritten namespace compiles the same way: empty graph, bare family.
    empty = cyclic._snapshot("never-written", None)
    assert empty.epoch == 0 and not empty.tuples
    assert type(empty.index) is plain_index(DAG_ONLY)


# -- shard builds: the loop by default, the pool on request -----------------
def test_sharded_default_is_the_in_process_loop():
    graph = random_dag(60, 150, seed=1404)
    report = ShardedIndex.build(graph, num_shards=3).shard_build_report
    assert report.executor == "serial"
    assert report.shard_attempts == (1, 1, 1)


def test_broken_pool_falls_back_to_the_retried_loop(monkeypatch):
    class DeadPool:
        def __init__(self, max_workers):
            raise BrokenExecutor("worker died")

    monkeypatch.setattr("repro.shard.engine.ProcessPoolExecutor", DeadPool)
    counter = global_registry().counter("shard.build.pool_fallbacks")
    before = counter.value
    graph = random_dag(60, 150, seed=1405)
    index = ShardedIndex.build(
        graph, family="TC", num_shards=3, executor="process", workers=2
    )
    assert counter.value == before + 1
    assert index.shard_build_report.shard_attempts == (1, 1, 1)
    _assert_exact(index, graph)
