"""The original 2-hop index of Cohen et al. (§3.2).

Computing the *minimum* 2-hop cover is NP-hard; the original work settles
for the greedy set-cover approximation: repeatedly pick the hop vertex
``w`` whose "center graph" ``In(w) × Out(w)`` covers the most uncovered
reachable pairs per label entry spent, add ``w`` to ``L_out`` of its
ancestors and ``L_in`` of its descendants, and stop when the transitive
closure is covered.

The approximation has ~O(n⁴) behaviour — the very reason the survey calls
it "infeasible for large graphs" and why TFL/DL/PLL/TOL exist.  This
implementation is meant for the small-graph regime (hundreds of vertices)
where the build-time benchmarks demonstrate exactly that infeasibility
against the pruned-labeling family.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import IndexMetadata
from repro.core.registry import register_plain
from repro.graphs.digraph import DiGraph
from repro.graphs.scc import condense
from repro.graphs.topo import topological_order
from repro.obs.build import build_phase
from repro.plain.pruned import TwoHopLabels, TwoHopProbeIndex, enumerate_covered

__all__ = ["TwoHopIndex"]


def _vertex_closures(graph: DiGraph) -> tuple[list[int], list[int]]:
    """Per-vertex descendant and ancestor bitsets (via the condensation)."""
    condensation = condense(graph)
    dag = condensation.dag
    comp_out = [0] * dag.num_vertices
    for c in reversed(topological_order(dag)):
        reach = 1 << c
        for d in dag.out_neighbors(c):
            reach |= comp_out[d]
        comp_out[c] = reach
    # expand component closures to vertex-level bitsets
    comp_members_mask = [0] * dag.num_vertices
    for v in graph.vertices():
        comp_members_mask[condensation.scc_of[v]] |= 1 << v
    out_sets = [0] * graph.num_vertices
    comp_vertex_out = [0] * dag.num_vertices
    for c in range(dag.num_vertices):
        mask = 0
        bits = comp_out[c]
        while bits:
            d = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            mask |= comp_members_mask[d]
        comp_vertex_out[c] = mask
    for v in graph.vertices():
        out_sets[v] = comp_vertex_out[condensation.scc_of[v]]
    in_sets = [0] * graph.num_vertices
    for v in graph.vertices():
        bits = out_sets[v]
        while bits:
            w = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            in_sets[w] |= 1 << v
    return out_sets, in_sets


@register_plain
class TwoHopIndex(TwoHopProbeIndex):
    """Cohen et al.'s greedy 2-hop cover (small-graph regime)."""

    metadata: ClassVar[IndexMetadata] = IndexMetadata(
        name="2-Hop",
        framework="2-Hop",
        complete=True,
        input_kind="General",
        dynamic="no",
    )

    @classmethod
    def build(cls, graph: DiGraph) -> "TwoHopIndex":
        n = graph.num_vertices
        with build_phase("vertex-closures"):
            out_sets, in_sets = _vertex_closures(graph)
        # uncovered[s] = bitset of targets t != s with s -> t not yet covered
        uncovered = [out_sets[s] & ~(1 << s) for s in range(n)]
        remaining = sum(bits.bit_count() for bits in uncovered)
        labels = TwoHopLabels(n)
        with build_phase("greedy-set-cover", pairs=remaining) as phase:
            rounds = 0
            while remaining:
                rounds += 1
                best_hop = -1
                best_ratio = -1.0
                best_gain = 0
                for w in range(n):
                    gain = 0
                    sources = in_sets[w]
                    targets = out_sets[w]
                    bits = sources
                    while bits:
                        s = (bits & -bits).bit_length() - 1
                        bits &= bits - 1
                        gain += (uncovered[s] & targets).bit_count()
                    if gain == 0:
                        continue
                    cost = sources.bit_count() + targets.bit_count()
                    ratio = gain / cost
                    if ratio > best_ratio:
                        best_ratio = ratio
                        best_hop = w
                        best_gain = gain
                if best_hop == -1:  # defensive: should not happen
                    break
                w = best_hop
                targets = out_sets[w]
                bits = in_sets[w]
                while bits:
                    s = (bits & -bits).bit_length() - 1
                    bits &= bits - 1
                    if s != w:
                        labels.l_out[s].add(w)
                    uncovered[s] &= ~targets
                bits = targets
                while bits:
                    t = (bits & -bits).bit_length() - 1
                    bits &= bits - 1
                    if t != w:
                        labels.l_in[t].add(w)
                remaining = sum(bits.bit_count() for bits in uncovered)
            phase.annotate(rounds=rounds)
        return cls(graph, labels)

    def _enumerate_fast(self, vertex: int, forward: bool):
        """Label-join enumeration through the inverted hub index."""
        return enumerate_covered(self._labels, vertex, forward)
