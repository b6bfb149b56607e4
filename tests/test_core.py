"""Tests for the core abstractions: TriState, metadata, guided traversal."""

from __future__ import annotations

import pytest

from repro.core.base import IndexMetadata, TriState, guided_query
from repro.core.condensed import CondensedIndex
from repro.core.registry import plain_index
from repro.errors import QueryError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import cyclic_communities, random_dag
from repro.traversal.online import bfs_reachable


class TestIndexMetadata:
    def test_index_type_property(self):
        complete = IndexMetadata("X", "2-Hop", True, "DAG", "no")
        partial = IndexMetadata("Y", "2-Hop", False, "DAG", "no")
        assert complete.index_type == "Complete"
        assert partial.index_type == "Partial"

    def test_frozen(self):
        meta = IndexMetadata("X", "2-Hop", True, "DAG", "no")
        with pytest.raises(AttributeError):
            meta.name = "Z"


class _OnlyNoIndex:
    """A stub partial index that can only certify specific negatives."""

    def __init__(self, no_pairs):
        self._no_pairs = no_pairs

    def lookup(self, s, t):
        if (s, t) in self._no_pairs:
            return TriState.NO
        return TriState.MAYBE


class _OnlyYesIndex:
    """A stub partial index that can only certify specific positives."""

    def __init__(self, yes_pairs):
        self._yes_pairs = yes_pairs

    def lookup(self, s, t):
        if (s, t) in self._yes_pairs:
            return TriState.YES
        return TriState.MAYBE


class TestGuidedQuery:
    def test_pure_traversal_when_index_is_useless(self, small_dag):
        index = _OnlyNoIndex(set())
        for s in small_dag.vertices():
            for t in small_dag.vertices():
                assert guided_query(small_dag, index, s, t) == bfs_reachable(
                    small_dag, s, t
                )

    def test_no_certificate_prunes_but_stays_exact(self, small_dag):
        # claim NO for everything unreachable from 2 towards 5
        no_pairs = {
            (v, 5)
            for v in small_dag.vertices()
            if not bfs_reachable(small_dag, v, 5)
        }
        index = _OnlyNoIndex(no_pairs)
        for s in small_dag.vertices():
            assert guided_query(small_dag, index, s, 5) == bfs_reachable(
                small_dag, s, 5
            )

    def test_yes_certificate_short_circuits(self, small_dag):
        index = _OnlyYesIndex({(0, 6)})
        assert guided_query(small_dag, index, 0, 6)

    def test_immediate_no_on_source(self, small_dag):
        index = _OnlyNoIndex({(5, 0)})
        assert not guided_query(small_dag, index, 5, 0)
        # the immediate-NO path still answers s == s correctly
        index_self = _OnlyNoIndex({(3, 3)})
        assert guided_query(small_dag, index_self, 3, 3)


    @pytest.mark.parametrize("bad", [(-1, 0), (0, -1), (8, 0), (0, 8)])
    def test_out_of_range_endpoints_raise_not_wrap(self, small_dag, bad):
        """Public entry points validate once; a ``lookup``-only stub
        never sees an id that an unchecked list index would wrap."""
        from repro.core.base import guided_query_bidirectional

        assert small_dag.num_vertices == 8
        index = _OnlyNoIndex(set())
        for entry in (guided_query, guided_query_bidirectional):
            with pytest.raises(QueryError):
                entry(small_dag, index, *bad)


class TestCondensedIndex:
    def test_requires_inner(self):
        with pytest.raises(TypeError):
            CondensedIndex.build(DiGraph(2))

    def test_wraps_and_answers(self):
        graph = cyclic_communities(4, 4, 8, seed=12)
        index = CondensedIndex.build(graph, inner=plain_index("GRAIL"), k=2)
        for s in range(graph.num_vertices):
            for t in range(graph.num_vertices):
                assert index.query(s, t) == bfs_reachable(graph, s, t)

    def test_same_scc_is_yes_lookup(self):
        graph = DiGraph(3, [(0, 1), (1, 0), (1, 2)])
        index = CondensedIndex.build(graph, inner=plain_index("Tree cover"))
        assert index.lookup(0, 1) is TriState.YES
        assert index.lookup(2, 0) is TriState.NO

    def test_metadata_reflects_wrapping(self):
        graph = DiGraph(2, [(0, 1)])
        index = CondensedIndex.build(graph, inner=plain_index("GRAIL"))
        assert index.metadata.input_kind == "General"
        assert index.metadata.name == "GRAIL+SCC"
        assert index.inner.metadata.name == "GRAIL"

    def test_size_includes_scc_map(self):
        graph = random_dag(10, 20, seed=13)
        index = CondensedIndex.build(graph, inner=plain_index("Tree cover"))
        assert index.size_in_entries() >= graph.num_vertices


class TestQueryValidation:
    def test_complete_index_query_bounds(self):
        graph = random_dag(5, 6, seed=14)
        index = plain_index("PLL").build(graph)
        with pytest.raises(QueryError):
            index.query(0, 5)

    def test_labeled_index_query_bounds(self, labeled_graph):
        from repro.core.registry import labeled_index

        index = labeled_index("P2H+").build(labeled_graph)
        with pytest.raises(QueryError):
            index.query(0, 10_000, "(a)*")
