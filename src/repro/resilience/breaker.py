"""A circuit breaker keyed on consecutive failures.

DAGGER and the index-size-restricted designs treat degraded operating
conditions as first-class; the serving tier does the same with a
classic three-state breaker per protected dependency (here: the snapshot
index).  CLOSED passes everything through; :data:`failure_threshold`
*consecutive* failures trip it OPEN, where calls are refused for
``cooldown_s``; after the cooldown one trial call probes HALF_OPEN —
success closes the breaker, failure re-opens it.

The engine consults :meth:`CircuitBreaker.allow` before querying the
index and serves a degraded (lookup-only, three-valued) answer while the
breaker is open, so a persistently broken index turns into bounded
UNKNOWNs instead of an error storm.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import global_registry

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Thread-safe consecutive-failure circuit breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        name: str = "default",
        failure_threshold: int = 5,
        cooldown_s: float = 5.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._trip_reason = ""

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open`` (open flips to half_open
        lazily, on the first :meth:`allow` after the cooldown)."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now?

        OPEN refuses until ``cooldown_s`` has passed, then admits exactly
        one HALF_OPEN trial at a time; its outcome (reported through
        :meth:`record_success` / :meth:`record_failure`) decides whether
        the breaker closes or re-opens.

        A CLOSED breaker answers from one unlocked read of ``_state``:
        the locked body would return True on that value without writing
        anything, so the call is serialised at the instant of the read.
        Every transition out of CLOSED is written under the lock before
        its caller (``trip``, ``record_failure``) returns, so an
        ``allow`` that starts afterwards sees it.
        """
        if self._state == self.CLOSED:
            return True
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if time.monotonic() - self._opened_at < self.cooldown_s:
                    return False
                self._state = self.HALF_OPEN
                self._probe_in_flight = False
            # HALF_OPEN: one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            global_registry().counter("resilience.breaker.probes").increment()
            return True

    def record_success(self) -> None:
        """A protected call completed: reset failures, close the breaker.

        Returns on one unlocked read of a zero failure count.  Whenever
        the lock is free, zero failures implies CLOSED, no probe in
        flight and no trip reason (``trip`` and ``record_failure`` leave
        the count >= 1; only this method zeroes it, and it resets the
        rest with it), so the locked body would write nothing: the call
        is serialised where that zero was current.
        """
        if not self._consecutive_failures:
            return
        with self._lock:
            if self._state != self.CLOSED:
                self._state = self.CLOSED
                global_registry().counter("resilience.breaker.closes").increment()
            self._consecutive_failures = 0
            self._probe_in_flight = False
            self._trip_reason = ""

    def record_failure(self) -> None:
        """A protected call failed; trip OPEN at the consecutive threshold."""
        with self._lock:
            self._consecutive_failures += 1
            tripped = (
                self._state == self.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            )
            if tripped and self._state != self.OPEN:
                self._state = self.OPEN
                self._opened_at = time.monotonic()
                global_registry().counter("resilience.breaker.trips").increment()
            self._probe_in_flight = False

    def trip(self, reason: str = "") -> None:
        """Force the breaker OPEN now, regardless of failure counts.

        The pre-emptive path: the SLO tracker calls this when burn rates
        breach, so the engine starts serving bounded degraded answers
        *before* queries fail outright.  The normal recovery machinery
        is untouched — after ``cooldown_s`` one HALF_OPEN probe runs and
        a success closes the breaker (the tracker re-trips while the
        burn persists).
        """
        with self._lock:
            if self._state != self.OPEN:
                global_registry().counter("resilience.breaker.trips").increment()
                global_registry().counter(
                    "resilience.breaker.preemptive_trips"
                ).increment()
            self._state = self.OPEN
            self._opened_at = time.monotonic()
            self._consecutive_failures = max(
                self._consecutive_failures, self.failure_threshold
            )
            self._probe_in_flight = False
            self._trip_reason = reason

    def snapshot(self) -> dict[str, object]:
        """State + counters as plain data (metrics/debug payloads)."""
        with self._lock:
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
                "trip_reason": self._trip_reason,
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name!r}, state={self.state})"
