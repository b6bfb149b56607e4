"""The advisor's cost model: micro-probes calibrate the analytic priors.

A :class:`Prior` ranks families on asymptotics; this module turns that
ranking into *predicted seconds and bytes* by actually building each
viable candidate on a probe graph and timing a handful of queries
against it.  Two regimes keep probing time-boxed without ever killing a
build mid-flight (pure-Python builds cannot be safely interrupted):

* small graphs (≤ :data:`PROBE_MAX_VERTICES` vertices) are probed
  whole — measured bytes and build time are exact;
* larger graphs are probed on a random induced subgraph of that size,
  and bytes/build time are extrapolated through each family's
  ``size_exponent`` (``bytes ≈ probe_bytes · (n/probe_n)^exponent`` —
  quadratic for the closure, near-linear for per-vertex labels).

The final score is the quantity the service actually pays per query:

    score = predicted_query_seconds + predicted_build_seconds / amortize_queries

so build cost matters exactly as much as the expected query volume says
it should.  Budget filtering uses predicted bytes from the same probe.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro import accel
from repro.advisor.features import GraphFeatures
from repro.advisor.rules import Prior
from repro.core.condensed import build_plain
from repro.graphs.digraph import DiGraph

__all__ = [
    "PROBE_MAX_VERTICES",
    "CostEstimate",
    "ProbeResult",
    "estimate_costs",
    "micro_probe",
    "probe_graph",
]

# Probe builds stay under this many vertices so even the quadratic
# families finish in milliseconds — the time-box is enforced by input
# size, not by interrupting threads.
PROBE_MAX_VERTICES = 400

# Default amortisation horizon: the advisor assumes the index will
# serve about a million queries before the graph changes shape enough
# to re-advise, so one second of build time is worth one microsecond
# of per-query latency.
DEFAULT_AMORTIZE_QUERIES = 1_000_000


@dataclass(frozen=True)
class ProbeResult:
    """Measured numbers from one micro-probe build."""

    family: str
    probe_vertices: int
    probe_edges: int
    build_seconds: float
    estimated_bytes: int
    entries: int
    query_p50_seconds: float
    sampled: bool  # True when probed on an induced subgraph
    error: str | None = None
    #: Kernel backend active during the probe ("python" or "numpy").
    backend: str = "python"

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict[str, object]:
        return {
            "family": self.family,
            "probe_vertices": self.probe_vertices,
            "probe_edges": self.probe_edges,
            "build_seconds": self.build_seconds,
            "estimated_bytes": self.estimated_bytes,
            "entries": self.entries,
            "query_p50_seconds": self.query_p50_seconds,
            "sampled": self.sampled,
            "error": self.error,
            "backend": self.backend,
        }


@dataclass(frozen=True)
class CostEstimate:
    """One family's predicted costs, analytic prior + optional probe."""

    prior: Prior
    probe: ProbeResult | None
    predicted_build_seconds: float
    predicted_bytes: int
    predicted_query_seconds: float
    score: float
    fits_budget: bool

    @property
    def family(self) -> str:
        return self.prior.family

    def as_dict(self) -> dict[str, object]:
        return {
            "family": self.family,
            "predicted_build_seconds": self.predicted_build_seconds,
            "predicted_bytes": self.predicted_bytes,
            "predicted_query_seconds": self.predicted_query_seconds,
            "score": self.score,
            "fits_budget": self.fits_budget,
            "probe": self.probe.as_dict() if self.probe else None,
            "prior": self.prior.as_dict(),
        }


def probe_graph(
    graph: DiGraph, max_vertices: int = PROBE_MAX_VERTICES, seed: int = 0
) -> tuple[DiGraph, bool]:
    """The graph micro-probes build on: the input itself when small,
    otherwise a random induced subgraph of ``max_vertices`` vertices."""
    n = graph.num_vertices
    if n <= max_vertices:
        return graph, False
    rng = random.Random(seed)
    keep = sorted(rng.sample(range(n), max_vertices))
    remap = {v: i for i, v in enumerate(keep)}
    kept = set(keep)
    edges = [
        (remap[u], remap[v])
        for u in keep
        for v in graph.out_neighbors(u)
        if v in kept
    ]
    return DiGraph(max_vertices, edges), True


def _probe_pairs(graph: DiGraph, count: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    n = graph.num_vertices
    if n == 0:
        return []
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def micro_probe(
    prior: Prior,
    graph: DiGraph,
    sampled: bool,
    pairs: list[tuple[int, int]],
) -> ProbeResult:
    """Build one family on the probe graph and measure it.

    Never raises: a family that fails to build on the probe (bad
    params, unexpected input shape) comes back with ``error`` set and
    is dropped from the ranking rather than sinking the whole advise
    call.
    """
    try:
        start = time.perf_counter()
        index = build_plain(prior.family, graph, **prior.index_params)
        build_seconds = time.perf_counter() - start
        for s, t in pairs:  # warm-up pass: JIT-less, but caches/branches settle
            index.query(s, t)
        samples = []
        for s, t in pairs:
            tick = time.perf_counter_ns()
            index.query(s, t)
            samples.append(time.perf_counter_ns() - tick)
        samples.sort()
        p50 = samples[len(samples) // 2] / 1e9 if samples else 0.0
        return ProbeResult(
            family=prior.family,
            probe_vertices=graph.num_vertices,
            probe_edges=graph.num_edges,
            build_seconds=build_seconds,
            estimated_bytes=index.estimated_bytes(),
            entries=index.size_in_entries(),
            query_p50_seconds=p50,
            sampled=sampled,
            backend=accel.backend_name(),
        )
    except Exception as exc:  # noqa: BLE001 - probe failures must not sink advise()
        return ProbeResult(
            family=prior.family,
            probe_vertices=graph.num_vertices,
            probe_edges=graph.num_edges,
            build_seconds=0.0,
            estimated_bytes=0,
            entries=0,
            query_p50_seconds=0.0,
            sampled=sampled,
            error=f"{type(exc).__name__}: {exc}",
            backend=accel.backend_name(),
        )


# When no probe ran, analytic units are converted to seconds/bytes at
# these deliberately rough rates (pure-Python edge visit, pickled label
# entry) so scores stay comparable across probed and unprobed paths.
_SECONDS_PER_BUILD_UNIT = 2e-7
_SECONDS_PER_QUERY_UNIT = 1.5e-6
_BYTES_PER_ENTRY = 40


def _from_probe(
    prior: Prior, probe: ProbeResult, full: GraphFeatures
) -> tuple[float, int, float]:
    """Extrapolate probe measurements to the full graph."""
    if not probe.sampled:
        return probe.build_seconds, probe.estimated_bytes, probe.query_p50_seconds
    scale = max(1.0, full.num_vertices / max(1, probe.probe_vertices))
    size_scale = scale**prior.size_exponent
    # Build work tracks index size plus a linear pass over the edges.
    build = probe.build_seconds * max(
        size_scale, full.num_edges / max(1, probe.probe_edges)
    )
    # Per-query cost grows with label size per vertex, which the size
    # exponent already captures relative to n.
    query = probe.query_p50_seconds * scale ** max(0.0, prior.size_exponent - 1.0)
    return build, int(probe.estimated_bytes * size_scale), query


def estimate_costs(
    graph: DiGraph,
    features: GraphFeatures,
    ranked_priors: list[Prior],
    budget_bytes: int | None = None,
    probe: bool = True,
    probe_pairs: int = 64,
    amortize_queries: int = DEFAULT_AMORTIZE_QUERIES,
    seed: int = 0,
) -> list[CostEstimate]:
    """Score every viable prior, best (lowest score) first.

    With ``probe=True`` each family is built once on the shared probe
    graph and its measured numbers replace the analytic ones; families
    whose probe fails are dropped.  Excluded priors (e.g. TC past the
    materialisation cap) are never built but still appear in the
    returned list — last, with infinite score — so the rationale can
    name them.
    """
    pg, sampled = (probe_graph(graph, seed=seed) if probe else (graph, False))
    pairs = _probe_pairs(pg, probe_pairs, seed) if probe else []
    estimates: list[CostEstimate] = []
    for prior in ranked_priors:
        if not prior.viable:
            estimates.append(
                CostEstimate(
                    prior=prior,
                    probe=None,
                    predicted_build_seconds=float("inf"),
                    predicted_bytes=0,
                    predicted_query_seconds=float("inf"),
                    score=float("inf"),
                    fits_budget=False,
                )
            )
            continue
        result: ProbeResult | None = None
        if probe:
            result = micro_probe(prior, pg, sampled, pairs)
            if not result.ok:
                estimates.append(
                    CostEstimate(
                        prior=prior,
                        probe=result,
                        predicted_build_seconds=float("inf"),
                        predicted_bytes=0,
                        predicted_query_seconds=float("inf"),
                        score=float("inf"),
                        fits_budget=False,
                    )
                )
                continue
            build, size_bytes, query = _from_probe(prior, result, features)
        else:
            build = prior.build_units * _SECONDS_PER_BUILD_UNIT
            size_bytes = int(prior.size_entries * _BYTES_PER_ENTRY)
            query = prior.query_units * _SECONDS_PER_QUERY_UNIT
        fits = budget_bytes is None or size_bytes <= budget_bytes
        score = query + build / max(1, amortize_queries)
        estimates.append(
            CostEstimate(
                prior=prior,
                probe=result,
                predicted_build_seconds=build,
                predicted_bytes=size_bytes,
                predicted_query_seconds=query,
                score=score,
                fits_budget=fits,
            )
        )
    estimates.sort(key=lambda e: (not e.fits_budget, e.score))
    return estimates
