"""Unit tests for index-internal structures: intervals, chains, 2-hop labels."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import random_dag
from repro.graphs.topo import topological_order
from repro.plain.chains import greedy_chain_decomposition
from repro.plain.interval import (
    forest_postorder_intervals,
    interval_list_contains,
    merge_intervals,
    spanning_forest,
)
from repro.plain.pruned import TwoHopLabels, build_pruned_labels, degree_order
from repro.traversal.online import bfs_reachable


class TestMergeIntervals:
    def test_adjacent_merge_example(self):
        """The paper's example: [1,6] and [7,8] merge to [1,8]."""
        assert merge_intervals([(1, 6), (7, 8)]) == [(1, 8)]

    def test_disjoint_kept(self):
        assert merge_intervals([(1, 2), (5, 6)]) == [(1, 2), (5, 6)]

    def test_overlap_merged(self):
        assert merge_intervals([(1, 5), (3, 9)]) == [(1, 9)]

    def test_empty(self):
        assert merge_intervals([]) == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
                lambda t: (min(t), max(t))
            ),
            max_size=15,
        )
    )
    def test_merge_preserves_membership(self, intervals):
        merged = merge_intervals(intervals)
        # sorted and disjoint with gaps > 1
        for (a1, b1), (a2, b2) in zip(merged, merged[1:]):
            assert b1 + 1 < a2
        for point in range(0, 41):
            direct = any(a <= point <= b for a, b in intervals)
            assert direct == interval_list_contains(merged, point) or direct is False
            if direct:
                assert interval_list_contains(merged, point)


class TestSpanningForest:
    def test_parents_precede_children(self):
        graph = random_dag(30, 70, seed=91)
        order = topological_order(graph)
        parent = spanning_forest(graph, order)
        position = {v: i for i, v in enumerate(order)}
        for v, p in enumerate(parent):
            if p != -1:
                assert graph.has_edge(p, v)
                assert position[p] < position[v]

    def test_subtree_membership_matches_intervals(self):
        graph = random_dag(25, 50, seed=92)
        order = topological_order(graph)
        parent = spanning_forest(graph, order)
        intervals = forest_postorder_intervals(graph, parent)

        def tree_descendants(root):
            result = {root}
            frontier = [root]
            while frontier:
                v = frontier.pop()
                for w, p in enumerate(parent):
                    if p == v:
                        result.add(w)
                        frontier.append(w)
            return result

        for s in graph.vertices():
            subtree = tree_descendants(s)
            a, b = intervals[s]
            for t in graph.vertices():
                assert (a <= intervals[t][1] <= b) == (t in subtree)


class TestChainDecomposition:
    def test_chains_are_graph_paths(self):
        graph = random_dag(40, 90, seed=93)
        decomposition = greedy_chain_decomposition(graph)
        for chain in decomposition.chains:
            for u, v in zip(chain, chain[1:]):
                assert graph.has_edge(u, v)

    def test_partition(self):
        graph = random_dag(40, 90, seed=94)
        decomposition = greedy_chain_decomposition(graph)
        seen = sorted(v for chain in decomposition.chains for v in chain)
        assert seen == list(graph.vertices())
        for chain_id, chain in enumerate(decomposition.chains):
            for pos, v in enumerate(chain):
                assert decomposition.chain_of[v] == chain_id
                assert decomposition.position_of[v] == pos


class TestPrunedLabels:
    def test_every_entry_is_sound(self):
        graph = random_dag(35, 80, seed=95)
        labels = build_pruned_labels(graph, degree_order(graph))
        for v in graph.vertices():
            for hop in labels.l_in[v]:
                assert bfs_reachable(graph, hop, v)
            for hop in labels.l_out[v]:
                assert bfs_reachable(graph, v, hop)

    def test_coverage_is_complete(self):
        graph = random_dag(35, 80, seed=96)
        labels = build_pruned_labels(graph, degree_order(graph))
        for s in graph.vertices():
            for t in graph.vertices():
                assert labels.covered(s, t) == bfs_reachable(graph, s, t)

    def test_size_metric(self):
        labels = TwoHopLabels(3)
        labels.l_in[0].add(1)
        labels.l_out[2].update({0, 1})
        assert labels.size_in_entries() == 3
        labels.remove_hop(1)
        assert labels.size_in_entries() == 1

    @pytest.mark.parametrize("clone_of", [TwoHopLabels.copy, copy.deepcopy])
    def test_copy_contract(self, clone_of):
        """Equal sets, none shared, inverted-hub cache dropped."""
        graph = random_dag(12, 25, seed=97)
        labels = build_pruned_labels(graph, degree_order(graph))
        reach_from_0 = labels.enumerate_from(0)  # fills the cache
        clone = clone_of(labels)
        assert clone.l_in == labels.l_in and clone.l_out == labels.l_out
        assert clone._inverted is None and labels._inverted is not None
        for mine, theirs in zip(clone.l_in + clone.l_out, labels.l_in + labels.l_out):
            assert mine is not theirs
        for hop in range(12):
            clone.remove_hop(hop)
        assert clone.size_in_entries() == 0 and clone.enumerate_from(0) == {0}
        assert labels.enumerate_from(0) == reach_from_0

    def test_deepcopy_keeps_one_label_set_per_object_graph(self):
        labels = TwoHopLabels(2)
        first, second = copy.deepcopy([labels, labels])
        assert first is second and first is not labels

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 400))
    def test_pruned_labels_random_dags(self, seed):
        graph = random_dag(20, 45, seed=seed)
        labels = build_pruned_labels(graph, degree_order(graph))
        for s in range(20):
            for t in range(20):
                assert labels.covered(s, t) == bfs_reachable(graph, s, t)
