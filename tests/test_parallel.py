"""Tests for the batch-synchronous (parallelisable) labeling (§5 extension)."""

from __future__ import annotations

import pytest

from repro.graphs.generators import cyclic_communities, random_dag
from repro.plain.parallel import BatchedPLLIndex, batched_pruned_labels
from repro.plain.pll import PLLIndex
from repro.plain.pruned import degree_order
from repro.traversal.online import bfs_reachable


@pytest.mark.parametrize("batch_size", [1, 4, 16, 1000])
def test_batched_labels_are_exact(batch_size):
    graph = random_dag(40, 100, seed=31)
    labels = batched_pruned_labels(graph, degree_order(graph), batch_size=batch_size)
    for s in graph.vertices():
        for t in graph.vertices():
            assert labels.covered(s, t) == bfs_reachable(graph, s, t)


def test_batch_size_one_matches_sequential_pll_exactly():
    graph = random_dag(40, 100, seed=32)
    sequential = PLLIndex.build(graph)
    batched = batched_pruned_labels(graph, degree_order(graph), batch_size=1)
    assert batched.l_in == sequential.labels.l_in
    assert batched.l_out == sequential.labels.l_out


def test_larger_batches_only_add_redundancy():
    """Bigger batches may add entries, never lose coverage."""
    graph = random_dag(60, 160, seed=33)
    order = degree_order(graph)
    sequential_size = batched_pruned_labels(graph, order, batch_size=1).size_in_entries()
    sizes = [
        batched_pruned_labels(graph, order, batch_size=b).size_in_entries()
        for b in (4, 16, 60)
    ]
    assert all(size >= sequential_size for size in sizes)
    # redundancy stays modest: the commit-phase validation does its job
    assert max(sizes) <= 2 * sequential_size


def test_batched_index_class():
    graph = cyclic_communities(4, 4, 8, seed=35)
    index = BatchedPLLIndex.build(graph, batch_size=8)
    assert index.batch_size == 8
    assert index.metadata.complete
    for s in graph.vertices():
        for t in graph.vertices():
            assert index.query(s, t) == bfs_reachable(graph, s, t)


def test_not_registered_in_table1():
    from repro.core.registry import all_plain_indexes

    assert "Batched-PLL" not in all_plain_indexes()


def test_invalid_batch_size_rejected():
    graph = random_dag(5, 6, seed=36)
    with pytest.raises(ValueError):
        batched_pruned_labels(graph, degree_order(graph), batch_size=0)
