"""Numpy CSR arrays with a cached DAG level schedule.

:class:`CSRArrays` freezes a :class:`~repro.kernels.csr.CSRGraph` (or
anything with the same attribute shape) into contiguous ``int64``
offset/index arrays — the layout the packed bitset kernels gather and
scatter over — plus a lazily built *level schedule*: topological levels
with each level's predecessor lists pre-concatenated, so a DAG sweep
becomes one fancy-indexed gather + one ``reduceat`` per level instead of
one Python iteration per vertex.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

try:
    import numpy as np
except ImportError:  # the pure-Python fallback never imports this module
    np = None

if TYPE_CHECKING:
    from repro.kernels.csr import CSRGraph

__all__ = ["CSRArrays", "arrays_of", "gather_ranges"]


def gather_ranges(indptr, indices, verts):
    """Concatenate ``indices[indptr[v]:indptr[v+1]]`` for every ``v`` in order.

    The classic vectorized multi-range gather: one ``repeat`` + one
    ``arange`` instead of a Python loop over vertices.
    """
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
    return indices[flat]


class CSRArrays:
    """Contiguous ``int64`` CSR arrays with a cached level schedule."""

    __slots__ = (
        "num_vertices",
        "num_edges",
        "out_indptr",
        "out_indices",
        "in_indptr",
        "in_indices",
        "_fwd_schedule",
        "_bwd_schedule",
    )

    def __init__(
        self,
        num_vertices: int,
        out_indptr,
        out_indices,
        in_indptr,
        in_indices,
    ) -> None:
        self.num_vertices = num_vertices
        self.num_edges = int(len(out_indices))
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.in_indptr = in_indptr
        self.in_indices = in_indices
        self._fwd_schedule: tuple | None | bool = False  # False = not computed
        self._bwd_schedule: tuple | None | bool = False

    @classmethod
    def from_csr(cls, csr: "CSRGraph") -> "CSRArrays":
        """Freeze a CSR snapshot's Python lists into numpy arrays."""
        return cls(
            csr.num_vertices,
            np.asarray(csr.out_indptr, dtype=np.int64),
            np.asarray(csr.out_indices, dtype=np.int64),
            np.asarray(csr.in_indptr, dtype=np.int64),
            np.asarray(csr.in_indices, dtype=np.int64),
        )

    # -- level schedule ---------------------------------------------------
    def schedule(self, forward: bool):
        """The DAG level schedule for one sweep direction, or None if cyclic.

        ``forward=True`` orders vertices by longest-path-from-source
        levels with in-neighbour gathers (the :func:`reach_masks`
        sweep); ``forward=False`` mirrors it for the reverse direction.
        Each entry is ``(verts, preds, starts)``: the level's vertices,
        their predecessor ids concatenated, and the per-vertex segment
        starts for ``np.bitwise_or.reduceat``.
        """
        cached = self._fwd_schedule if forward else self._bwd_schedule
        if cached is not False:
            return cached
        if forward:
            schedule = _level_schedule(
                self.num_vertices,
                self.in_indptr,
                self.in_indices,
                self.out_indptr,
                self.out_indices,
            )
            self._fwd_schedule = schedule
        else:
            schedule = _level_schedule(
                self.num_vertices,
                self.out_indptr,
                self.out_indices,
                self.in_indptr,
                self.in_indices,
            )
            self._bwd_schedule = schedule
        return schedule

    def __repr__(self) -> str:
        return f"CSRArrays(|V|={self.num_vertices}, |E|={self.num_edges})"


def _level_schedule(n, pred_indptr, pred_indices, succ_indptr, succ_indices):
    """Topological levels via vectorized Kahn, or None on a cycle.

    Returns a list of ``(verts, preds, starts)`` triples, one per level
    past the first (level-0 vertices have no predecessors to merge).
    Self-loops keep their vertex's indegree positive forever, so they
    register as cycles — matching the pure-Python topo semantics.
    """
    indegree = (pred_indptr[1:] - pred_indptr[:-1]).copy()
    frontier = np.flatnonzero(indegree == 0)
    ordered = 0
    levels: list = []
    while frontier.size:
        levels.append(frontier)
        ordered += int(frontier.size)
        successors = gather_ranges(succ_indptr, succ_indices, frontier)
        if successors.size:
            np.subtract.at(indegree, successors, 1)
            frontier = np.unique(successors[indegree[successors] == 0])
        else:
            frontier = np.empty(0, dtype=np.int64)
    if ordered != n:
        return None
    schedule = []
    for verts in levels[1:]:
        counts = pred_indptr[verts + 1] - pred_indptr[verts]
        keep = counts > 0
        verts = verts[keep]
        counts = counts[keep]
        if not verts.size:
            continue
        preds = gather_ranges(pred_indptr, pred_indices, verts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        schedule.append((verts, preds, starts))
    return schedule


def arrays_of(csr: "CSRGraph") -> CSRArrays:
    """The :class:`CSRArrays` twin of a CSR snapshot, cached on it.

    Snapshots are immutable, so the cache never invalidates — a fresh
    graph version means a fresh :class:`~repro.kernels.csr.CSRGraph`,
    which starts with an empty slot.
    """
    cached = csr._arrays_cache
    if isinstance(cached, CSRArrays):
        return cached
    arrays = CSRArrays.from_csr(csr)
    csr._arrays_cache = arrays
    return arrays
