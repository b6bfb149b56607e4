"""Every plain index answers exactly like BFS, on DAGs and general graphs.

This is the central correctness suite: all 25 Table 1 indexes are built on
seeded random DAGs (and, via SCC condensation where needed, on cyclic
graphs) and checked pair-by-pair against online traversal.
"""

from __future__ import annotations

import pytest

from repro.core.condensed import CondensedIndex
from repro.core.registry import all_plain_indexes
from repro.errors import NotADAGError
from repro.graphs.generators import cyclic_communities, random_dag, tree_with_shortcuts
from repro.traversal.online import bfs_reachable

PLAIN = all_plain_indexes()
DAG_ONLY = sorted(n for n, c in PLAIN.items() if c.metadata.input_kind == "DAG")
GENERAL = sorted(n for n, c in PLAIN.items() if c.metadata.input_kind == "General")


def _assert_matches_bfs(index, graph, pairs):
    for s, t in pairs:
        expected = bfs_reachable(graph, s, t)
        assert index.query(s, t) == expected, (s, t, expected)


def _all_pairs(graph, stride=1):
    n = graph.num_vertices
    return [(s, t) for s in range(n) for t in range(0, n, stride)]


@pytest.mark.parametrize("name", sorted(PLAIN))
class TestOnRandomDag:
    def test_exact_on_dag(self, name):
        graph = random_dag(45, 110, seed=3)
        index = PLAIN[name].build(graph)
        _assert_matches_bfs(index, graph, _all_pairs(graph))

    def test_exact_on_sparse_tree_like_dag(self, name):
        graph = tree_with_shortcuts(40, 8, seed=4)
        index = PLAIN[name].build(graph)
        _assert_matches_bfs(index, graph, _all_pairs(graph))

    def test_self_queries_true(self, name):
        graph = random_dag(20, 40, seed=5)
        index = PLAIN[name].build(graph)
        for v in graph.vertices():
            assert index.query(v, v)

    def test_empty_graph(self, name):
        from repro.graphs.digraph import DiGraph

        graph = DiGraph(3)
        index = PLAIN[name].build(graph)
        assert index.query(0, 0)
        assert not index.query(0, 2)


@pytest.mark.parametrize("name", GENERAL)
def test_general_indexes_on_cyclic_graphs(name):
    graph = cyclic_communities(5, 4, 10, seed=6)
    index = PLAIN[name].build(graph)
    _assert_matches_bfs(index, graph, _all_pairs(graph))


@pytest.mark.parametrize("name", DAG_ONLY)
def test_dag_indexes_via_condensation(name):
    graph = cyclic_communities(5, 4, 10, seed=7)
    index = CondensedIndex.build(graph, inner=PLAIN[name])
    _assert_matches_bfs(index, graph, _all_pairs(graph))
    assert index.metadata.input_kind == "General"
    assert index.metadata.name.endswith("+SCC")


@pytest.mark.parametrize(
    "name", ["GRAIL", "Tree cover", "TOL", "TFL", "3-Hop", "Path-tree"]
)
def test_dag_only_indexes_reject_cycles(name):
    from repro.graphs.digraph import DiGraph

    cyclic = DiGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(NotADAGError):
        PLAIN[name].build(cyclic)


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_out_of_range_query_raises(name):
    from repro.errors import QueryError

    graph = random_dag(10, 15, seed=8)
    index = PLAIN[name].build(graph)
    with pytest.raises(QueryError):
        index.query(0, 99)
    with pytest.raises(QueryError):
        index.query(-1, 0)
    for bad in [(-1, 0), (0, -1), (0, 10)]:
        for surface in (index.lookup, index.query, index.explain):
            with pytest.raises(QueryError):
                surface(*bad)


def test_families_implement_only_the_unchecked_probe():
    """One probe, validated once: ``core/base.py`` alone defines the
    public ``lookup``/``lookup_batch``; families write ``_lookup`` (and
    optionally ``_lookup_batch``) and never validate."""
    import importlib
    import inspect
    import pathlib
    import pkgutil

    import repro.plain
    from repro.core.base import ReachabilityIndex
    from repro.core.condensed import CondensedIndex
    from repro.shard.engine import ShardedIndex

    for info in pkgutil.iter_modules(repro.plain.__path__):
        module = importlib.import_module(f"repro.plain.{info.name}")
        source = pathlib.Path(module.__file__).read_text()
        assert "_check_query(" not in source, info.name
        assert "_check_pairs(" not in source, info.name
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                assert "lookup" not in vars(cls), cls
                assert "lookup_batch" not in vars(cls), cls
    for cls in [*PLAIN.values(), CondensedIndex, ShardedIndex]:
        assert cls.lookup is ReachabilityIndex.lookup, cls
        assert cls.lookup_batch is ReachabilityIndex.lookup_batch, cls
        assert cls.query_batch is ReachabilityIndex.query_batch, cls


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_size_in_entries_nonnegative(name):
    graph = random_dag(25, 60, seed=9)
    index = PLAIN[name].build(graph)
    assert index.size_in_entries() >= 0
    assert str(index.size_in_entries()) in repr(index) or True  # repr smoke
