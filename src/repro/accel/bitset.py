"""Packed ``uint64`` bitset kernels over :class:`CSRArrays`.

The representation mirrors the pure-Python kernels bit for bit: row
``v`` of a ``uint64[n_vertices, n_words]`` matrix is vertex ``v``'s
source mask, with batched source ``i`` occupying bit ``i & 63`` of word
``i >> 6``.  Answers are read straight out of the packed matrix; no
big int is ever materialised (converting rows back cost more than the
sweep saved, so the mask-returning twins were retired).

Two sweep strategies, same as the Python layer:

* **Level-synchronous DAG sweep** — vertices grouped by topological
  level; each level resolves with one fancy-indexed gather of its
  predecessors' rows and one ``np.bitwise_or.reduceat``, so the Python
  interpreter runs once per *level*, not once per vertex or edge.
* **Frontier-synchronous BFS** — on cyclic snapshots, rows that grew
  re-enter the frontier; propagation is an unbuffered
  ``np.bitwise_or.at`` scatter per round.
"""

from __future__ import annotations

from collections.abc import Sequence

try:
    import numpy as np
except ImportError:  # the pure-Python fallback never imports this module
    np = None

from repro.accel.arrays import CSRArrays, gather_ranges
from repro.resilience.deadline import current_deadline

__all__ = [
    "packed_batch_reachable",
    "packed_reach_masks",
    "unpacked_indices",
]

_ONE = None
_SIX3 = None


def _consts():
    global _ONE, _SIX3
    if _ONE is None:
        _ONE = np.uint64(1)
        _SIX3 = np.uint64(63)
    return _ONE, _SIX3


def _seed(num_vertices: int, sources: Sequence[int], n_words: int):
    """A zero matrix with each source's own bit set (duplicates OR in)."""
    one, six3 = _consts()
    masks = np.zeros((num_vertices, n_words), dtype=np.uint64)
    src = np.asarray(sources, dtype=np.int64)
    slots = np.arange(len(sources), dtype=np.uint64)
    np.bitwise_or.at(
        masks, (src, (slots >> np.uint64(6)).astype(np.int64)), one << (slots & six3)
    )
    return masks


def _sweep_levels(masks, schedule) -> None:
    """Run the level-synchronous DAG sweep in place."""
    deadline = current_deadline()
    for verts, preds, starts in schedule:
        if deadline is not None:
            deadline.check()
        merged = np.bitwise_or.reduceat(masks[preds], starts, axis=0)
        masks[verts] |= merged


def _sweep_frontier(masks, indptr, indices) -> None:
    """Run the frontier-synchronous BFS to fixpoint in place."""
    deadline = current_deadline()
    frontier = np.flatnonzero(masks.any(axis=1))
    while frontier.size:
        if deadline is not None:
            deadline.check()
        counts = indptr[frontier + 1] - indptr[frontier]
        frontier = frontier[counts > 0]
        if not frontier.size:
            return
        targets = gather_ranges(indptr, indices, frontier)
        rows = masks[np.repeat(frontier, counts[counts > 0])]
        touched = np.unique(targets)
        before = masks[touched].copy()
        np.bitwise_or.at(masks, targets, rows)
        frontier = touched[(masks[touched] != before).any(axis=1)]


def packed_reach_masks(
    arrays: CSRArrays, sources: Sequence[int], forward: bool = True
):
    """Per-vertex packed source masks — the :func:`reach_masks` twin.

    Bit ``i`` of row ``v`` is set iff ``sources[i]`` reaches ``v``
    (``forward=True``) or ``v`` reaches ``sources[i]`` (``forward=False``).
    """
    n_words = (len(sources) + 63) >> 6
    masks = _seed(arrays.num_vertices, sources, n_words)
    schedule = arrays.schedule(forward)
    if schedule is not None:
        _sweep_levels(masks, schedule)
    elif forward:
        _sweep_frontier(masks, arrays.out_indptr, arrays.out_indices)
    else:
        _sweep_frontier(masks, arrays.in_indptr, arrays.in_indices)
    return masks


def unpacked_indices(mask: int) -> list[int]:
    """Set-bit positions of one big-int bitset, via a single unpackbits.

    Enumeration fast paths hold a closure row as a big int and need
    its members as indices.
    """
    if not mask:
        return []
    data = np.frombuffer(
        mask.to_bytes((mask.bit_length() + 7) >> 3, "little"), dtype=np.uint8
    )
    return np.flatnonzero(np.unpackbits(data, bitorder="little")).tolist()


def packed_batch_reachable(
    arrays: CSRArrays, pairs: Sequence[tuple[int, int]], word_bits: int
) -> list[bool]:
    """Exact batched pair reachability — the :func:`batch_reachable` twin.

    Same wave decomposition as the Python kernel (distinct sources
    grouped, ``word_bits`` per sweep) but answers are extracted straight
    from the packed matrix with one vectorized word/bit gather per wave
    — no big ints are ever materialised.
    """
    deadline = current_deadline()
    one, six3 = _consts()
    targets_of: dict[int, set[int]] = {}
    for s, t in pairs:
        targets_of.setdefault(s, set()).add(t)
    answers: dict[tuple[int, int], bool] = {}
    sources = list(targets_of)
    for base in range(0, len(sources), word_bits):
        if deadline is not None:
            deadline.check()
        wave = sources[base : base + word_bits]
        masks = packed_reach_masks(arrays, wave)
        wave_targets: list[int] = []
        wave_slots: list[int] = []
        for slot, s in enumerate(wave):
            for t in targets_of[s]:
                wave_targets.append(t)
                wave_slots.append(slot)
        slots = np.asarray(wave_slots, dtype=np.uint64)
        words = masks[
            np.asarray(wave_targets, dtype=np.int64),
            (slots >> np.uint64(6)).astype(np.int64),
        ]
        hits = ((words >> (slots & six3)) & one).astype(bool)
        cursor = 0
        for slot, s in enumerate(wave):
            for t in targets_of[s]:
                answers[(s, t)] = bool(hits[cursor])
                cursor += 1
    return [answers[(s, t)] for s, t in pairs]
