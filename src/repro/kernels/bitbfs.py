"""Bit-parallel multi-source reachability kernels.

The core representation: one Python big int per vertex, bit ``i`` set
iff batched source ``i`` reaches that vertex.  Advancing a frontier then
ORs whole source-sets through each edge — W sources move per big-int
word operation instead of W separate traversals.

Two sweep strategies share that representation:

* **DAG one-pass sweep** — when the snapshot has a topological order,
  every vertex is processed exactly once in that order, pushing its
  accumulated source mask through its out-edges.  Total work is one
  O(|V| + |E|) pass regardless of how many sources are batched.
* **Frontier-synchronous BFS** — on cyclic graphs, vertices whose mask
  grew re-enter the frontier; each round moves only the *newly arrived*
  bits, so propagation terminates once masks reach their fixpoint.

:func:`descendant_bitsets` is the transposed trick — one big int per
vertex over *vertices* rather than sources, computed in reverse
topological order — generalising the sweep
``TransitiveClosureIndex.build`` has always used so other builds
(GRAIL exception lists, 2-hop seeding) can share it.

When the optional :mod:`repro.accel` layer is enabled and the snapshot
is large enough, :func:`batch_reachable` routes to its packed ``uint64``
numpy twin, which reads pair answers straight out of the packed matrix.
The mask-returning kernels stay pure Python: converting packed rows
back to big ints cost more than the numpy sweep saved at every size
measured (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import accel as _accel
from repro.errors import NotADAGError
from repro.kernels.csr import CSRGraph
from repro.resilience.chaos import chaos_point
from repro.resilience.deadline import current_deadline

__all__ = [
    "WORD_BITS",
    "reach_masks",
    "reverse_reach_masks",
    "descendant_bitsets",
    "descendants_set",
    "ancestors_set",
    "batch_reachable",
]

#: Sources advanced per wave.  Python ints are arbitrary-precision so a
#: single wave *could* carry any batch, but bounding the word keeps the
#: per-vertex masks dense and the OR cost per edge predictable.
WORD_BITS = 1024

#: Vertices swept between deadline checkpoints.  One loop serves both
#: cases: the clock read (deadline installed) and the ``is None`` test
#: (none installed) each amortise to noise at this stride.
_SWEEP_STRIDE = 4096


def _propagate(
    n: int,
    indptr: list[int],
    indices: list[int],
    topo: list[int] | None,
    sources: Sequence[int],
) -> list[int]:
    """Shared body of the forward/backward mask sweeps.

    Cooperative cancellation: when an ambient deadline is installed the
    DAG sweep checkpoints every :data:`_SWEEP_STRIDE` vertices and the
    frontier sweep once per round.
    """
    deadline = current_deadline()
    masks = [0] * n
    for slot, s in enumerate(sources):
        masks[s] |= 1 << slot
    if topo is not None:
        for base in range(0, len(topo), _SWEEP_STRIDE):
            if deadline is not None:
                deadline.check()
            for v in topo[base : base + _SWEEP_STRIDE]:
                m = masks[v]
                if m:
                    for w in indices[indptr[v] : indptr[v + 1]]:
                        masks[w] |= m
        return masks
    frontier: dict[int, int] = {}
    for slot, s in enumerate(sources):
        frontier[s] = frontier.get(s, 0) | (1 << slot)
    while frontier:
        if deadline is not None:
            deadline.check()
        advanced: dict[int, int] = {}
        get = advanced.get
        for v, bits in frontier.items():
            for w in indices[indptr[v] : indptr[v + 1]]:
                new = bits & ~masks[w]
                if new:
                    masks[w] |= new
                    advanced[w] = get(w, 0) | new
        frontier = advanced
    return masks


def reach_masks(csr: CSRGraph, sources: Sequence[int]) -> list[int]:
    """Per-vertex source masks: bit ``i`` of ``masks[v]`` iff ``sources[i] ⇝ v``.

    Every source reaches itself.  One call answers reachability from all
    batched sources to *every* vertex — the multi-source generalisation
    of a single BFS sweep.
    """
    return _propagate(
        csr.num_vertices, csr.out_indptr, csr.out_indices, csr.topo_order, sources
    )


def reverse_reach_masks(csr: CSRGraph, targets: Sequence[int]) -> list[int]:
    """Per-vertex target masks: bit ``i`` of ``masks[v]`` iff ``v ⇝ targets[i]``."""
    topo = csr.topo_order
    return _propagate(
        csr.num_vertices,
        csr.in_indptr,
        csr.in_indices,
        topo[::-1] if topo is not None else None,
        targets,
    )


def descendant_bitsets(csr: CSRGraph) -> list[int]:
    """Per-vertex descendant bitsets over *vertices*, by reverse-topo sweep.

    ``bitsets[v]`` has bit ``t`` set iff ``v ⇝ t`` (including ``v``
    itself) — the materialised transitive closure.  DAG-only: the sweep
    needs a topological order.
    """
    topo = csr.topo_order
    if topo is None:
        raise NotADAGError("descendant_bitsets requires a DAG")
    deadline = current_deadline()
    indptr = csr.out_indptr
    indices = csr.out_indices
    bitsets = [0] * csr.num_vertices
    swept = 0
    for v in reversed(topo):
        if deadline is not None:
            swept += 1
            if not swept % _SWEEP_STRIDE:
                deadline.check()
        reach = 1 << v
        for w in indices[indptr[v] : indptr[v + 1]]:
            reach |= bitsets[w]
        bitsets[v] = reach
    return bitsets


def _sweep_set(indptr: list[int], indices: list[int], n: int, start: int) -> set[int]:
    seen = bytearray(n)
    seen[start] = 1
    result = {start}
    add = result.add
    stack = [start]
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        for w in indices[indptr[v] : indptr[v + 1]]:
            if not seen[w]:
                seen[w] = 1
                add(w)
                push(w)
    return result


def descendants_set(csr: CSRGraph, source: int) -> set[int]:
    """All vertices reachable from ``source`` (including itself)."""
    return _sweep_set(csr.out_indptr, csr.out_indices, csr.num_vertices, source)


def ancestors_set(csr: CSRGraph, target: int) -> set[int]:
    """All vertices that reach ``target`` (including itself)."""
    return _sweep_set(csr.in_indptr, csr.in_indices, csr.num_vertices, target)


def batch_reachable(
    csr: CSRGraph,
    pairs: Sequence[tuple[int, int]],
    word_bits: int = WORD_BITS,
) -> list[bool]:
    """Exact reachability for every ``(source, target)`` pair, batched.

    Pairs are grouped by source, distinct sources packed ``word_bits``
    per wave, and each wave answered by one :func:`reach_masks` sweep —
    so all targets of one source (and all sources of one wave) share a
    single traversal.  Answers come back in input order; duplicate pairs
    are answered once and fanned out.

    ``kernels.sweep`` is a chaos injection point (mid-query delays and
    errors land here), and each wave honours the ambient deadline.
    """
    chaos_point("kernels.sweep")
    if pairs and isinstance(csr, CSRGraph) and _accel.use_for_graph(
        csr.num_vertices
    ):
        from repro.accel.arrays import arrays_of
        from repro.accel.bitset import packed_batch_reachable

        return packed_batch_reachable(arrays_of(csr), pairs, word_bits)
    deadline = current_deadline()
    targets_of: dict[int, set[int]] = {}
    for s, t in pairs:
        targets_of.setdefault(s, set()).add(t)
    answers: dict[tuple[int, int], bool] = {}
    sources = list(targets_of)
    for base in range(0, len(sources), word_bits):
        if deadline is not None:
            deadline.check()
        wave = sources[base : base + word_bits]
        masks = reach_masks(csr, wave)
        for slot, s in enumerate(wave):
            bit = 1 << slot
            for t in targets_of[s]:
                answers[(s, t)] = bool(masks[t] & bit)
    return [answers[(s, t)] for s, t in pairs]
