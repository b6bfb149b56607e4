"""repro.advisor — workload-adaptive index selection (survey §6 applied).

The survey's conclusion is that no reachability index dominates: the
winner depends on graph shape and workload mix.  This package operationalises
that finding as an *advisor*: profile the graph and the query log
(:mod:`~repro.advisor.features`), rank the registered families with
taxonomy-derived priors (:mod:`~repro.advisor.rules`), calibrate the
ranking with time-boxed micro-probe builds (:mod:`~repro.advisor.cost`),
and return a ranked, budget-aware :class:`~repro.advisor.advise.Advice`
(:func:`~repro.advisor.advise.advise`).  The service layer re-runs the
same pipeline online (:mod:`repro.service.advisor`) to swap indexes as
telemetry drifts.
"""

from repro.advisor.advise import Advice, Recommendation, advise
from repro.advisor.cost import (
    PROBE_MAX_VERTICES,
    CostEstimate,
    ProbeResult,
    estimate_costs,
    micro_probe,
    probe_graph,
)
from repro.advisor.features import (
    GraphFeatures,
    WorkloadFeatures,
    graph_features,
    workload_features,
    workload_from_metrics,
)
from repro.advisor.rules import DEFAULT_CANDIDATES, NO_FALSE_NEGATIVE, Prior, priors

__all__ = [
    "Advice",
    "Recommendation",
    "advise",
    "PROBE_MAX_VERTICES",
    "CostEstimate",
    "ProbeResult",
    "estimate_costs",
    "micro_probe",
    "probe_graph",
    "GraphFeatures",
    "WorkloadFeatures",
    "graph_features",
    "workload_features",
    "workload_from_metrics",
    "DEFAULT_CANDIDATES",
    "NO_FALSE_NEGATIVE",
    "Prior",
    "priors",
]
