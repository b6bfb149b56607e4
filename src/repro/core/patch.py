"""Patch-or-rebuild, the writer's half: one audited copy-and-patch step.

Both snapshot writers — :class:`repro.service.ReachabilityService` and
:class:`repro.authz.AuthzStore` — derive the next epoch the same way:
reject cheaply what the family cannot maintain (§3.2's Table 1 "dynamic"
column), ``copy.deepcopy`` the served index, apply the delta through the
family's maintenance API, treat a refusal as "rebuild", and
differentially audit the result against the BFS/RPQ oracle.  The served
index is never touched, so readers stay lock-free.
"""

from __future__ import annotations

import copy
import logging
import random
from collections.abc import Callable

from repro.core.condensed import CondensedIndex
from repro.errors import GraphError, UnsupportedOperationError
from repro.obs.metrics import MetricsRegistry
from repro.traversal.online import bfs_reachable
from repro.traversal.regex import classify_constraint
from repro.traversal.rpq import rpq_reachable

__all__ = ["AUDIT_PAIRS", "patched_copy"]

_LOG = logging.getLogger("repro.core.patch")

#: Pairs the post-patch audit samples unless a writer is told otherwise.
AUDIT_PAIRS = 8


def patched_copy(
    index,
    apply: Callable[[object], None],
    *,
    deletes: bool,
    epoch: int,
    metrics: MetricsRegistry,
    prefix: str,
    audit_pairs: int = AUDIT_PAIRS,
    labeled: bool = False,
):
    """``(patched deep copy of index, None)``, or ``(None, reason)``.

    ``apply(clone)`` drives the clone's maintenance API
    (``insert_edge``/``delete_edge``/``add_vertex``); ``deletes`` says
    whether it will delete, which an insert-only family cannot follow.
    Every rejection that can be decided cheaply — no index, a
    :class:`CondensedIndex` (its SCC map is not maintainable), a family
    the "dynamic" column rules out — happens *before* the
    ``copy.deepcopy``, which costs what the family's own state costs:
    the graph under it is copy-on-write (``__deepcopy__`` is its
    ``copy()`` — the row tables are copied, every row is shared until
    the clone's maintenance first writes it), and DAGGER and TC slice
    their flat tables.  Per-op validity is the family's own job: a bad
    vertex, duplicate insert, absent delete or partition-changing op
    raises out of its maintenance call and the caller takes its rebuild
    path, which raises the same :class:`~repro.errors.GraphError` a
    caller would have seen (or condenses).  A successful patch is then
    probed on ``audit_pairs`` seeded random pairs (0 disables) against
    the BFS/RPQ oracle; any mismatch discards it (counted under
    ``<prefix>.patch_audit.failed``, logged), so a buggy incremental
    maintenance path can never serve a wrong answer.

    ``reason`` is ``"static"``, ``"condensed"``, ``"refused"`` or
    ``"audit"``.
    """
    if index is None or index.metadata.dynamic == "no":
        return None, "static"
    if isinstance(index, CondensedIndex):
        return None, "condensed"
    if deletes and index.metadata.dynamic == "insert-only":
        return None, "static"
    clone = copy.deepcopy(index)
    try:
        apply(clone)
    except (UnsupportedOperationError, GraphError):
        return None, "refused"
    if audit_pairs:
        passed = _audit(clone, epoch, audit_pairs, labeled)
        outcome = "passed" if passed else "failed"
        metrics.counter(f"{prefix}.patch_audit.{outcome}").increment()
        if not passed:
            return None, "audit"
    return clone, None


def _audit(index, epoch: int, pairs: int, labeled: bool) -> bool:
    """Whether ``index`` agrees with the oracle on ``pairs`` seeded pairs."""
    graph = index.graph
    n = graph.num_vertices
    if n == 0:
        return True
    rng = random.Random(f"patch-audit:{epoch}:{n}:{graph.num_edges}")
    labels = sorted(graph.labels()) if labeled else ()
    if labeled and not labels:
        return True
    for _ in range(pairs):
        source = rng.randrange(n)
        target = rng.randrange(n)
        if labeled:
            # Sample an alternation constraint (l1|l2|…)* — the shape
            # every §4.1 labeled index answers — over 1-2 graph labels.
            chosen = rng.sample(labels, k=min(len(labels), rng.randint(1, 2)))
            _route, node = classify_constraint(
                "(" + "|".join(f'"{label}"' for label in chosen) + ")*"
            )
            ok = bool(index.query(source, target, node)) == rpq_reachable(
                graph, source, target, node
            )
        else:
            ok = bool(index.query(source, target)) == bfs_reachable(
                graph, source, target
            )
        if not ok:
            _LOG.warning(
                "post-patch audit failed for %s at epoch %d (pair %d->%d); "
                "discarding the patch and rebuilding",
                type(index).__name__,
                epoch,
                source,
                target,
            )
            return False
    return True
