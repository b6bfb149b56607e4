"""``advise()`` — the advisor's public entry point.

Ties the three layers together: :mod:`repro.advisor.features` profiles
the graph and workload, :mod:`repro.advisor.rules` turns the profile
into analytic priors, :mod:`repro.advisor.cost` calibrates them with
micro-probes, and this module packages the ranked result as an
:class:`Advice` — the recommended family with exact ``index_params``,
ranked alternatives, a human-readable rationale, and the same
provenance envelope the ``BENCH_*.json`` artifacts carry, so a stored
recommendation records which code produced it.

Under a byte budget no complete family fits, the advisor degrades
deliberately rather than failing: it recommends the best-scoring
no-false-negative partial family that *does* fit and attaches a
``hybrid`` plan — filter answers certain-NO instantly, a guided BFS
resolves MAYBE exactly, and a hot-pair cache (sized from workload
skew) absorbs the repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.advisor.cost import (
    DEFAULT_AMORTIZE_QUERIES,
    CostEstimate,
    estimate_costs,
)
from repro.advisor.features import (
    GraphFeatures,
    WorkloadFeatures,
    graph_features,
    workload_features,
)
from repro.advisor.rules import NO_FALSE_NEGATIVE, priors
from repro.bench.jsonout import provenance
from repro.core.base import ReachabilityIndex
from repro.core.condensed import build_plain
from repro.core.registry import plain_index
from repro.errors import ReproError
from repro.graphs.digraph import DiGraph
from repro.graphs.labeled import LabeledDiGraph

__all__ = ["Advice", "Recommendation", "advise"]


@dataclass(frozen=True)
class Recommendation:
    """One ranked candidate: the family, its params, and why."""

    family: str
    index_params: dict[str, object]
    complete: bool
    fits_budget: bool
    predicted_build_seconds: float
    predicted_bytes: int
    predicted_query_seconds: float
    score: float
    rationale: tuple[str, ...]
    probed: bool

    def build(self, graph: DiGraph) -> ReachabilityIndex:
        """Instantiate this recommendation on ``graph``."""
        return build_plain(self.family, graph, **self.index_params)

    def as_dict(self) -> dict[str, object]:
        return {
            "family": self.family,
            "index_params": dict(self.index_params),
            "complete": self.complete,
            "fits_budget": self.fits_budget,
            "predicted_build_seconds": self.predicted_build_seconds,
            "predicted_bytes": self.predicted_bytes,
            "predicted_query_seconds": self.predicted_query_seconds,
            "score": self.score,
            "rationale": list(self.rationale),
            "probed": self.probed,
        }


@dataclass(frozen=True)
class Advice:
    """The advisor's full answer: pick, alternatives, and evidence."""

    recommended: Recommendation
    alternatives: tuple[Recommendation, ...]
    features: GraphFeatures
    workload: WorkloadFeatures | None
    budget_bytes: int | None
    hybrid: dict[str, object] | None
    provenance: dict[str, str]

    def as_dict(self) -> dict[str, object]:
        return {
            "recommended": self.recommended.as_dict(),
            "alternatives": [alt.as_dict() for alt in self.alternatives],
            "features": self.features.as_dict(),
            "workload": self.workload.as_dict() if self.workload else None,
            "budget_bytes": self.budget_bytes,
            "hybrid": dict(self.hybrid) if self.hybrid else None,
            "provenance": dict(self.provenance),
        }

    def render_text(self) -> str:
        """The ``repro advise`` terminal report."""
        lines = [
            f"recommended: {self.recommended.family}"
            + (f" {self.recommended.index_params}" if self.recommended.index_params else ""),
            f"  predicted query p50: {self.recommended.predicted_query_seconds * 1e6:.1f} us"
            f"   build: {self.recommended.predicted_build_seconds:.3f} s"
            f"   size: ~{self.recommended.predicted_bytes:,} bytes",
        ]
        if self.budget_bytes is not None:
            verdict = "fits" if self.recommended.fits_budget else "EXCEEDS"
            lines.append(f"  budget: {self.budget_bytes:,} bytes ({verdict})")
        for note in self.recommended.rationale:
            lines.append(f"  - {note}")
        if self.hybrid:
            lines.append("hybrid plan (no complete index fits the budget):")
            for key, value in self.hybrid.items():
                lines.append(f"  {key}: {value}")
        if self.alternatives:
            lines.append("alternatives:")
            for alt in self.alternatives:
                mark = "" if alt.fits_budget else "  [over budget]"
                lines.append(
                    f"  {alt.family:12} score {alt.score * 1e6:9.1f}"
                    f"  ~{alt.predicted_bytes:,} bytes{mark}"
                )
        shape = (
            f"graph: {self.features.num_vertices} vertices, "
            f"{self.features.num_edges} edges, "
            f"{'DAG' if self.features.is_dag else f'{self.features.num_sccs} SCCs'}, "
            f"depth {self.features.dag_depth} x width {self.features.dag_width}"
        )
        lines.append(shape)
        return "\n".join(lines)


def _recommendation(estimate: CostEstimate, extra_notes: tuple[str, ...] = ()) -> Recommendation:
    cls = plain_index(estimate.family)
    return Recommendation(
        family=estimate.family,
        index_params=dict(estimate.prior.index_params),
        complete=cls.metadata.complete,
        fits_budget=estimate.fits_budget,
        predicted_build_seconds=estimate.predicted_build_seconds,
        predicted_bytes=estimate.predicted_bytes,
        predicted_query_seconds=estimate.predicted_query_seconds,
        score=estimate.score,
        rationale=tuple(estimate.prior.notes) + extra_notes,
        probed=estimate.probe is not None and estimate.probe.ok,
    )


def _cache_capacity(workload: WorkloadFeatures | None) -> int:
    """Hot-pair cache size for the hybrid plan, from workload skew."""
    if workload is None or workload.num_queries == 0:
        return 4096
    hot = int(workload.num_queries * max(0.1, workload.hot_pair_fraction))
    return max(1024, min(hot, 65536))


def advise(
    graph: DiGraph | LabeledDiGraph,
    workload: Sequence[object] | None = None,
    budget_bytes: int | None = None,
    *,
    metrics: Mapping[str, object] | None = None,
    candidates: Sequence[str] | None = None,
    probe: bool = True,
    probe_pairs: int = 64,
    amortize_queries: int = DEFAULT_AMORTIZE_QUERIES,
    seed: int = 0,
) -> Advice:
    """Recommend a reachability index for ``graph`` under ``workload``.

    ``workload`` is an optional query sample (``PlainQuery`` objects or
    raw ``(s, t)`` pairs); ``metrics`` optionally supplies live service
    telemetry; ``budget_bytes`` caps the index's serialized size.
    Probing builds each candidate on a ≤400-vertex probe graph — pass
    ``probe=False`` for a purely analytic (instant) answer.
    """
    features = graph_features(graph, seed=seed)
    if isinstance(graph, LabeledDiGraph):
        graph = graph.to_plain()
    if features.num_vertices == 0:
        raise ReproError("cannot advise on an empty graph")
    wl = workload_features(workload, metrics)
    ranked = priors(features, wl, tuple(candidates) if candidates else None)
    estimates = estimate_costs(
        graph,
        features,
        ranked,
        budget_bytes=budget_bytes,
        probe=probe,
        probe_pairs=probe_pairs,
        amortize_queries=amortize_queries,
        seed=seed,
    )
    usable = [e for e in estimates if e.score != float("inf")]
    if not usable:
        raise ReproError(
            "no candidate family could be scored; tried: "
            + ", ".join(p.family for p in ranked)
        )
    fitting = [e for e in usable if e.fits_budget]
    hybrid: dict[str, object] | None = None
    extra: tuple[str, ...] = ()
    if fitting:
        complete_fits = any(
            plain_index(e.family).metadata.complete for e in fitting
        )
        pick = fitting[0]
        if not complete_fits and budget_bytes is not None:
            # Only partial families fit: prefer one whose MAYBE is safe
            # to resolve with a BFS fallback, and say how to run it.
            safe = [e for e in fitting if e.family in NO_FALSE_NEGATIVE]
            pick = safe[0] if safe else fitting[0]
            hybrid = {
                "strategy": "partial index + guided-BFS fallback",
                "filter": pick.family,
                "cache_capacity": _cache_capacity(wl),
                "note": (
                    "no complete index fits the budget; the filter answers "
                    "certain-NO in O(1) and positives fall back to a guided "
                    "search, with a hot-pair cache absorbing repeats"
                ),
            }
            extra = (
                f"chosen as hybrid filter under the {budget_bytes:,}-byte budget",
            )
    else:
        # Nothing fits at all: recommend the smallest candidate and be
        # explicit that the budget is below any index's floor.
        pick = min(usable, key=lambda e: e.predicted_bytes)
        extra = (
            f"smallest candidate at ~{pick.predicted_bytes:,} bytes still "
            f"exceeds the {budget_bytes:,}-byte budget; raise the budget or "
            "fall back to online BFS",
        )
    recommended = _recommendation(pick, extra)
    alternatives = tuple(
        _recommendation(e)
        for e in estimates
        if e is not pick and e.score != float("inf")
    )
    return Advice(
        recommended=recommended,
        alternatives=alternatives[:5],
        features=features,
        workload=wl,
        budget_bytes=budget_bytes,
        hybrid=hybrid,
        provenance=provenance(),
    )
