"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys

import pytest

from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    cyclic_communities,
    random_dag,
    random_labeled_digraph,
)


@pytest.fixture
def fast_thread_switching():
    """Preempt threads every microsecond so races surface; restored after."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture
def small_dag() -> DiGraph:
    """A fixed 8-vertex DAG with a diamond, a chain, and an isolate.

    Layout::

        0 -> 1 -> 3 -> 5
        0 -> 2 -> 3
        2 -> 4 -> 6
        7 (isolated)
    """
    return DiGraph(8, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (2, 4), (4, 6)])


@pytest.fixture
def cyclic_graph() -> DiGraph:
    """A fixed graph with one 3-cycle feeding a 2-cycle plus a tail.

    SCCs: {0,1,2}, {3,4}, {5}.
    """
    return DiGraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)])


@pytest.fixture
def medium_dag() -> DiGraph:
    """A seeded 60-vertex random DAG."""
    return random_dag(60, 150, seed=42)


@pytest.fixture
def medium_cyclic() -> DiGraph:
    """A seeded cyclic graph: ring communities wired forward."""
    return cyclic_communities(6, 5, 12, seed=42)


@pytest.fixture
def labeled_graph():
    """A seeded 20-vertex labeled digraph over three labels."""
    return random_labeled_digraph(20, 50, ["a", "b", "c"], seed=42)
