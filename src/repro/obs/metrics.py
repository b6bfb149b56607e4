"""Counters and fixed-bucket latency histograms for every layer.

The survey's §5 asks GDBMSs for *observability* — which index family
served which query, and at what cost.  The planner tallies routing
counts, the serving tier records per-route latency distributions, and
the index core attributes every query to its answering route; all of them
meter through the primitives here.

The histogram uses **fixed log-spaced buckets** (1-2.5-5 per decade,
1 µs … 10 s), so recording is one bisect plus a few integer increments
under a lock and percentiles are read without storing samples — the
classic monitoring-system design (and the reason p50/p95/p99 here are
bucket *upper bounds*, not exact order statistics).  Internally each
histogram is a :class:`~repro.obs.sketch.WindowedQuantileSketch`:
cumulative totals preserve the original API exactly, while a
bounded-memory ring of time slices adds :meth:`LatencyHistogram.window`
/ :meth:`LatencyHistogram.window_summary` — sliding-window quantiles
the SLO burn-rate tracker in :mod:`repro.slo` evaluates — and
:meth:`LatencyHistogram.merge` for cross-instance aggregation.

Lives in the cross-cutting ``repro.obs`` layer so the index core and
the GDBMS planner can meter without importing the serving tier.  Alongside per-instance registries
(each :class:`~repro.service.engine.ReachabilityService` owns one),
:func:`global_registry` is the process-wide registry the index core's
route-attribution counters and the planner's routing tallies land in.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.obs.sketch import WindowedQuantileSketch, WindowTotals

__all__ = [
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "default_latency_buckets",
    "global_registry",
]


def default_latency_buckets() -> tuple[float, ...]:
    """Log-spaced bucket upper bounds in seconds: 1 µs to 10 s, 1-2.5-5."""
    bounds: list[float] = []
    for exponent in range(-6, 1):  # 1e-6 … 1e0
        for mantissa in (1.0, 2.5, 5.0):
            bounds.append(mantissa * 10.0**exponent)
    bounds.append(10.0)
    return tuple(bounds)


_DEFAULT_BUCKETS = default_latency_buckets()


class Counter:
    """A thread-safe monotone counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counters are monotone, got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self._value})"


class LatencyHistogram:
    """Fixed-bucket latency histogram with approximate percentiles.

    ``observe`` files a sample into the first bucket whose upper bound
    is >= the sample; samples beyond the last bound land in an overflow
    bucket.  ``percentile(p)`` returns the upper bound of the bucket
    where the cumulative count crosses ``p`` — an upper estimate whose
    error is bounded by the bucket width (≤ 2.5× at these bounds).

    Backed by a :class:`~repro.obs.sketch.WindowedQuantileSketch`, so
    alongside the cumulative view it answers *windowed* quantiles
    (:meth:`window`, :meth:`window_summary`) from a bounded ring of
    ``num_slices`` time slices covering the last ``window_s`` seconds,
    and merges with geometry-identical histograms (:meth:`merge`).  All
    access is serialised on one lock; ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        buckets: tuple[float, ...] = _DEFAULT_BUCKETS,
        *,
        window_s: float = 3600.0,
        num_slices: int = 120,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # 120 slices over one hour = 30 s granularity: both the SLO
        # tracker's fast (5 m) and slow (1 h) windows read from one ring.
        self._sketch = WindowedQuantileSketch(
            tuple(buckets) if not isinstance(buckets, tuple) else buckets,
            window_s=window_s,
            num_slices=num_slices,
            clock=clock,
        )
        self._bounds = self._sketch.bounds
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one latency sample (seconds)."""
        with self._lock:
            self._sketch.observe(seconds)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._sketch.total_count

    @property
    def total_seconds(self) -> float:
        """Sum of all samples."""
        return self._sketch.total_sum

    def mean(self) -> float:
        """Mean latency (0.0 when empty)."""
        with self._lock:
            count = self._sketch.total_count
            return self._sketch.total_sum / count if count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (``p`` in (0, 100])."""
        with self._lock:
            return self._sketch.totals().quantile(p)

    def summary(self) -> dict[str, float | int]:
        """count / mean / p50 / p95 / p99 / max as a plain dict.

        Computed under **one** lock acquisition so the fields are
        mutually consistent — a ``/metrics`` scrape racing ``observe``
        never sees a count from one instant and percentiles from
        another (or a torn unlocked ``_max`` read).
        """
        with self._lock:
            totals = self._sketch.totals()
        count = totals.count
        return {
            "count": count,
            "mean_s": totals.sum_s / count if count else 0.0,
            "p50_s": totals.quantile(50),
            "p95_s": totals.quantile(95),
            "p99_s": totals.quantile(99),
            "max_s": totals.max_s,
        }

    def window(self, lookback_s: float | None = None) -> WindowTotals:
        """Aggregate of the last ``lookback_s`` seconds (≤ ``window_s``).

        The returned :class:`~repro.obs.sketch.WindowTotals` is a
        consistent copy — safe to merge with other routes' windows and
        read quantiles from without further locking.
        """
        with self._lock:
            return self._sketch.window(lookback_s)

    def window_summary(
        self, lookback_s: float | None = None
    ) -> dict[str, float | int]:
        """Windowed count / rate / mean / p50 / p95 / p99 / max dict."""
        return self.window(lookback_s).summary()

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s totals and live window into self; returns self.

        Lock order is self-then-other; concurrent symmetric merges are
        the caller's deadlock to avoid (aggregation runs one-way here:
        scratch accumulator ← per-route histograms).
        """
        with self._lock:
            with other._lock:
                self._sketch.merge(other._sketch)
        return self

    def bucket_counts(self) -> tuple[tuple[float, ...], list[int], int, float, float]:
        """``(bounds, counts_with_overflow, count, sum_s, max_s)`` snapshot.

        One consistent read for exposition formats that need the raw
        cumulative buckets (OpenMetrics ``_bucket{le=...}`` series).
        """
        with self._lock:
            return (
                self._bounds,
                list(self._sketch.total_counts),
                self._sketch.total_count,
                self._sketch.total_sum,
                self._sketch.total_max,
            )

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self._sketch.total_count}, "
            f"mean={self.mean():.2e}s)"
        )


class MetricsRegistry:
    """Named counters and histograms behind one get-or-create front door.

    Names are dotted paths (``"service.queries.cache"``); ``as_dict``
    nests them so callers can read ``metrics["service"]["queries"]...``
    without knowing the flat names, and ``render_text`` emits one
    ``name value`` line per sample in the flat exposition format
    monitoring scrapers expect.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use.

        An existing name is returned from one unlocked ``dict.get``:
        names are never removed or re-typed, so the locked body would
        return that same object whenever it ran.  Creation, and the
        counter-vs-histogram check a new name needs, stay locked.
        """
        found = self._counters.get(name)
        if found is not None:
            return found
        with self._lock:
            if name in self._histograms:
                raise ValueError(f"{name!r} is already a histogram")
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def histogram(
        self, name: str, buckets: tuple[float, ...] = _DEFAULT_BUCKETS
    ) -> LatencyHistogram:
        """The histogram called ``name``, created on first use (an existing
        name skips the lock, as in :meth:`counter`)."""
        found = self._histograms.get(name)
        if found is not None:
            return found
        with self._lock:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            if name not in self._histograms:
                self._histograms[name] = LatencyHistogram(buckets)
            return self._histograms[name]

    def counter_values(self) -> dict[str, int]:
        """Flat ``{dotted_name: value}`` snapshot of every counter."""
        with self._lock:
            counters = dict(self._counters)
        return {name: counter.value for name, counter in counters.items()}

    def histograms(self) -> dict[str, LatencyHistogram]:
        """Shallow ``{dotted_name: histogram}`` snapshot (live objects).

        The histogram objects are themselves thread-safe; callers read
        windows/summaries from them without holding the registry lock.
        """
        with self._lock:
            return dict(self._histograms)

    def as_dict(self) -> dict[str, object]:
        """All metrics as a nested plain dict (JSON-serialisable)."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        root: dict[str, object] = {}
        for name, counter in counters.items():
            _nest(root, name, counter.value)
        for name, histogram in histograms.items():
            _nest(root, name, histogram.summary())
        return root

    def render_text(self) -> str:
        """Flat ``name value`` exposition (one line per sample)."""
        with self._lock:
            counters = sorted(self._counters.items())
            histograms = sorted(self._histograms.items())
        lines: list[str] = []
        for name, counter in counters:
            lines.append(f"{_flat(name)} {counter.value}")
        for name, histogram in histograms:
            for key, value in histogram.summary().items():
                if isinstance(value, float):
                    lines.append(f"{_flat(name)}_{key} {value:.9f}")
                else:
                    lines.append(f"{_flat(name)}_{key} {value}")
        return "\n".join(lines) + "\n"


_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (index route attribution, gdbms routing)."""
    return _GLOBAL_REGISTRY


def _flat(name: str) -> str:
    """A dotted metric name as one exposition-format token.

    Metric names can embed index family names (``index.O'Reach.route``),
    which carry quotes, ``+`` and spaces — anything outside
    ``[A-Za-z0-9_]`` becomes ``_`` so every line stays two
    whitespace-separated tokens.
    """
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _nest(root: dict[str, object], dotted: str, value: object) -> None:
    parts = dotted.split(".")
    node = root
    for part in parts[:-1]:
        child = node.setdefault(part, {})
        if not isinstance(child, dict):  # a leaf already claimed this path
            node[part] = child = {"": child}
        node = child
    node[parts[-1]] = value
