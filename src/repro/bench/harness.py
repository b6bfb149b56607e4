"""Timing and measurement helpers shared by the benchmark suite.

pytest-benchmark handles the statistically careful per-operation timing;
this module covers the coarser measurements the experiment tables need —
build times, index sizes, workload throughput, false-positive rates — in
a form both the ``benchmarks/`` suite and the CLI reuse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.base import ReachabilityIndex, TriState
from repro.core.condensed import build_plain
from repro.graphs.digraph import DiGraph
from repro.obs.build import BuildReport
from repro.workloads.queries import PlainQuery

__all__ = [
    "BuildResult",
    "WorkloadResult",
    "build_index",
    "time_workload",
    "lookup_statistics",
]


@dataclass(frozen=True)
class BuildResult:
    """Outcome of building one index."""

    name: str
    build_seconds: float
    entries: int
    index: ReachabilityIndex
    report: BuildReport | None = None


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of running a workload against one query function."""

    name: str
    total_seconds: float
    num_queries: int
    wrong_answers: int

    @property
    def per_query_seconds(self) -> float:
        """Mean seconds per query."""
        return self.total_seconds / max(1, self.num_queries)


def build_index(
    cls: type[ReachabilityIndex], graph: DiGraph, **params: object
) -> BuildResult:
    """Build an index, wrapping DAG-only techniques on cyclic input."""
    start = time.perf_counter()
    index = build_plain(cls, graph, **params)
    elapsed = time.perf_counter() - start
    return BuildResult(
        name=cls.metadata.name,
        build_seconds=elapsed,
        entries=index.size_in_entries(),
        index=index,
        report=getattr(index, "build_report", None),
    )


def time_workload(
    name: str,
    answer: "callable",
    workload: list[PlainQuery],
) -> WorkloadResult:
    """Run every query through ``answer(s, t)`` and check the ground truth."""
    wrong = 0
    start = time.perf_counter()
    for query in workload:
        if answer(query.source, query.target) != query.reachable:
            wrong += 1
    elapsed = time.perf_counter() - start
    return WorkloadResult(
        name=name,
        total_seconds=elapsed,
        num_queries=len(workload),
        wrong_answers=wrong,
    )


def lookup_statistics(
    index: ReachabilityIndex, workload: list[PlainQuery]
) -> dict[str, int]:
    """Classify raw index probes against ground truth.

    Returns counts of true/false positives/negatives and MAYBEs — the raw
    material for the §3.3 false-positive-rate experiment (partial indexes
    must show zero ``false_negative``).
    """
    counts = {
        "yes_correct": 0,
        "yes_wrong": 0,  # false positives at the lookup level
        "no_correct": 0,
        "no_wrong": 0,  # false negatives: must stay zero for §3.3 indexes
        "maybe_reachable": 0,
        "maybe_unreachable": 0,
    }
    for query in workload:
        probe = index.lookup(query.source, query.target)
        if probe is TriState.YES:
            counts["yes_correct" if query.reachable else "yes_wrong"] += 1
        elif probe is TriState.NO:
            counts["no_correct" if not query.reachable else "no_wrong"] += 1
        else:
            key = "maybe_reachable" if query.reachable else "maybe_unreachable"
            counts[key] += 1
    return counts
