"""The serving tier: concurrent queries over snapshot-isolated indexes.

:class:`ReachabilityService` answers plain and path-constrained
reachability from many threads while a writer applies update batches —
readers see immutable epoch-tagged snapshots, never torn state.  The
supporting cast: an epoch-tagged LRU result cache, an in-flight request
coalescer, fixed-bucket latency metrics, and a stdlib JSON-over-HTTP
server (:mod:`repro.service.server`).

Resilience (:mod:`repro.resilience` integration): queries carry
three-valued answers (``QueryResult.status`` is TRUE/FALSE/UNKNOWN),
an :class:`AdmissionController` bounds concurrent requests and sheds
the overflow with 503 + ``Retry-After``, and per-request deadlines
degrade to typed UNKNOWNs instead of hanging.

Online re-optimization (:mod:`repro.advisor` integration): an
:class:`AdvisorLoop` watches the service's telemetry, re-runs the index
advisor when the workload or graph drifts, and swaps the recommended
index in live via epoch-conditional adoption.

Production telemetry (:mod:`repro.slo` integration): an
:class:`~repro.slo.SLOTracker` turns the per-route latency sketches and
counters into burn-rate objectives that trip the breaker pre-emptively
and feed the advisor; a :class:`~repro.slo.ShadowAuditor` attached via
:meth:`ReachabilityService.attach_auditor` replays sampled answers
against the BFS oracle; ``/metrics?format=openmetrics`` and ``/slo``
expose it all.
"""

from repro.obs.metrics import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    default_latency_buckets,
)
from repro.service.admission import AdmissionController
from repro.service.advisor import AdvisorLoop
from repro.service.batching import QueryCoalescer, dedupe
from repro.service.cache import MISS, CacheStatistics, ResultCache
from repro.service.engine import (
    DEGRADED_ROUTES,
    ROUTES,
    QueryResult,
    ReachabilityService,
    Snapshot,
)

__all__ = [
    "AdmissionController",
    "AdvisorLoop",
    "DEGRADED_ROUTES",
    "ROUTES",
    "QueryCoalescer",
    "dedupe",
    "MISS",
    "CacheStatistics",
    "ResultCache",
    "QueryResult",
    "ReachabilityService",
    "Snapshot",
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "default_latency_buckets",
]
