"""Request coalescing and batch deduplication.

Under skewed concurrent traffic, many threads ask the same ``(source,
target, constraint)`` at the same time.  Evaluating each copy wastes
index probes; the coalescer lets the first arrival (the *leader*)
evaluate while identical in-flight requests (*followers*) block on an
event and share the leader's result.  Because every result carries the
epoch of the snapshot it was computed against, sharing is safe under
snapshot isolation: followers receive an answer that was exact at a
well-defined epoch.

The event exists only once someone waits on it: the first follower of a
flight creates it, so a flight nobody joins — every flight, under
uncontended traffic — costs two lock round-trips and one slotted object.

The same idea applies within one explicit batch: `dedupe` collapses a
request list to its unique keys so a batch is evaluated once per
distinct query against a single snapshot acquisition.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from typing import TypeVar

__all__ = ["QueryCoalescer", "dedupe"]

T = TypeVar("T")
K = TypeVar("K")


class _InFlight:
    __slots__ = ("done", "error", "result")

    def __init__(self) -> None:
        # Created by the first follower, under the coalescer lock, while
        # this entry is still registered; the leader reads it under the
        # same lock as it unregisters the entry.  So every follower that
        # found the entry waits on an event the leader will set, and a
        # flight without followers never builds one.
        self.done: threading.Event | None = None
        self.result: object = None
        self.error: BaseException | None = None


class QueryCoalescer:
    """Deduplicate identical in-flight evaluations across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[object, _InFlight] = {}
        self._coalesced = 0
        self._led = 0

    def run(self, key: object, evaluate: Callable[[], T]) -> tuple[T, bool]:
        """Evaluate ``key`` once across concurrent callers.

        Returns ``(result, shared)`` where ``shared`` is True when this
        caller piggybacked on another thread's in-flight evaluation.  A
        leader's exception propagates to every follower of that flight.
        """
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                self._coalesced += 1
                done = entry.done
                if done is None:  # first follower of this flight
                    done = entry.done = threading.Event()
            else:
                entry = self._inflight[key] = _InFlight()
                self._led += 1
                done = None
        if done is not None:  # follower: wait for the leader's result
            done.wait()
            if entry.error is not None:
                raise entry.error
            return entry.result, True  # type: ignore[return-value]
        try:
            entry.result = evaluate()
        except BaseException as exc:
            entry.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                done = entry.done
            if done is not None:
                done.set()
        return entry.result, False

    @property
    def coalesced(self) -> int:
        """How many requests were answered by piggybacking."""
        return self._coalesced

    @property
    def led(self) -> int:
        """How many requests were evaluated as flight leaders."""
        return self._led

    def __repr__(self) -> str:
        return f"QueryCoalescer(led={self._led}, coalesced={self._coalesced})"


def dedupe(keys: Sequence[K]) -> tuple[list[K], list[int]]:
    """Collapse a batch to unique keys.

    Returns ``(unique, back_refs)`` where ``unique`` preserves first-seen
    order and ``back_refs[i]`` is the position in ``unique`` answering
    ``keys[i]`` — evaluate ``unique`` once, then fan results back out.
    """
    unique: list[K] = []
    positions: dict[K, int] = {}
    back_refs: list[int] = []
    for key in keys:
        slot = positions.get(key)
        if slot is None:
            slot = len(unique)
            positions[key] = slot
            unique.append(key)
        back_refs.append(slot)
    return unique, back_refs
