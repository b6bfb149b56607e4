"""Differential batch matrix: ``lookup_batch``/``query_batch`` vs scalar.

Every registered plain family must answer a batch exactly as the
equivalent scalar loop would — same TriStates from ``lookup_batch``,
same booleans from ``query_batch`` — on a DAG and (condensed) on a
cyclic graph, including empty batches, duplicate pairs and self-pairs.
"""

from __future__ import annotations

import pytest

from repro.core.base import TriState
from repro.core.condensed import CondensedIndex
from repro.core.registry import all_plain_indexes
from repro.errors import QueryError
from repro.graphs.generators import gnp_digraph, random_dag
from repro.graphs.topo import is_dag
from repro.shard.engine import ShardedIndex

PLAIN = all_plain_indexes()

GRAPHS = {
    "dag": lambda: random_dag(30, 70, seed=811),
    "cyclic": lambda: gnp_digraph(24, 0.08, seed=812),
}


def _build(name, graph):
    cls = PLAIN[name]
    if cls.metadata.input_kind == "DAG" and not is_dag(graph):
        return CondensedIndex.build(graph, inner=cls)
    return cls.build(graph)


def _pairs(graph):
    n = graph.num_vertices
    pairs = [(s, t) for s in range(0, n, 3) for t in range(0, n, 2)]
    pairs += [(v, v) for v in range(0, n, 5)]  # self-pairs
    pairs += pairs[:7]  # duplicates
    return pairs


@pytest.mark.parametrize("shape", sorted(GRAPHS))
@pytest.mark.parametrize("name", sorted(PLAIN))
def test_lookup_batch_matches_scalar(name, shape):
    graph = GRAPHS[shape]()
    index = _build(name, graph)
    pairs = _pairs(graph)
    batched = index.lookup_batch(pairs)
    scalar = [index.lookup(s, t) for s, t in pairs]
    assert batched == scalar, (name, shape)
    assert all(isinstance(probe, TriState) for probe in batched)


@pytest.mark.parametrize("shape", sorted(GRAPHS))
@pytest.mark.parametrize("name", sorted(PLAIN))
def test_query_batch_matches_scalar(name, shape):
    graph = GRAPHS[shape]()
    index = _build(name, graph)
    pairs = _pairs(graph)
    batched = index.query_batch(pairs)
    scalar = [index.query(s, t) for s, t in pairs]
    assert batched == scalar, (name, shape)
    assert all(isinstance(answer, bool) for answer in batched)


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_empty_batch(name):
    index = _build(name, GRAPHS["dag"]())
    assert index.lookup_batch([]) == []
    assert index.query_batch([]) == []


def _boundary_index(name):
    """Every registered family over the DAG, plus both wrappers in the
    shape that exercises them."""
    if name == "Condensed(cyclic)":
        graph = GRAPHS["cyclic"]()
        assert not is_dag(graph)
        return CondensedIndex.build(graph, inner=PLAIN["GRAIL"])
    if name == "Sharded(k=2)":
        return ShardedIndex.build(GRAPHS["dag"](), num_shards=2, family="PLL")
    return _build(name, GRAPHS["dag"]())


@pytest.mark.parametrize(
    "name", sorted(PLAIN) + ["Condensed(cyclic)", "Sharded(k=2)"]
)
def test_out_of_range_pair_rejected(name):
    index = _boundary_index(name)
    with pytest.raises(QueryError):
        index.query_batch([(0, 1), (0, 999)])
    with pytest.raises(QueryError):
        index.lookup_batch([(-1, 0)])
    # The boundary is airtight: every public surface rejects every bad
    # pair — negative ids would otherwise wrap an unchecked list index —
    # and a batch whose *last* pair is bad evaluates nothing first.
    n = index.graph.num_vertices

    def unreachable(*_args):
        raise AssertionError("an unchecked hook ran before validation")

    for hook in ("_lookup", "_lookup_batch", "_routed_answer", "_query_batch"):
        setattr(index, hook, unreachable)
    for bad in [(-1, 0), (0, -1), (0, n)]:
        for scalar in (index.lookup, index.query, index.explain):
            with pytest.raises(QueryError):
                scalar(*bad)
        for batched in (index.lookup_batch, index.query_batch):
            with pytest.raises(QueryError):
                batched([(0, 1), (2, 3), bad])
