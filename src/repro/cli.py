"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands
--------
``repro list``
    Print the Table 1 / Table 2 taxonomies from the live registry.
``repro build EDGELIST --index NAME [--save FILE]``
    Build an index over an edge-list file and report build time and size;
    optionally persist it.
``repro query EDGELIST --index NAME S T [--load FILE]``
    Answer one reachability query (vertex tokens as they appear in the
    file); ``--load`` reuses a saved index instead of rebuilding.
``repro query EDGELIST --index NAME --pairs-file PAIRS``
    Answer a whole file of ``S T`` lines in one ``query_batch`` call and
    report batch throughput on stderr.
``repro lquery EDGELIST --index NAME S T CONSTRAINT [--load FILE]``
    Answer one path-constrained query over a labeled edge list.
``repro explain EDGELIST S T --index NAME``
    Show the routed decision path of one query — which probe answered it
    (label probe, certificate, guided fallback) — plus the per-phase
    build breakdown with ``--build``.
``repro trace EDGELIST [S T] --index NAME [--jsonl FILE]``
    Build (and optionally query) under the span tracer and print the
    recorded span trees; ``--jsonl`` exports them as JSON lines.
``repro inspect FILE``
    Show the class and version of a saved index without loading it.
``repro serve EDGELIST [--labeled] --port N [--trace]``
    Run the snapshot-isolated HTTP query service over an edge list;
    ``--trace`` enables the span tracer behind ``GET /debug/trace``;
    ``--index-param KEY=VALUE`` (repeatable) forwards build parameters
    to the index family (e.g. ``--index Sharded --index-param
    num_shards=4``; a key the family does not declare is rejected,
    exit 2); ``--slo 'reach.p99 < 5ms'`` (repeatable) tracks
    burn-rate objectives that pre-emptively trip the breaker, and
    ``--audit-rate 0.001`` shadow-audits served answers against the
    BFS oracle; ``--authz`` (or ``--authz-tuples FILE``) attaches a
    tuple store behind ``POST /authz/write|check|expand``.
``repro authz check TUPLES SUBJECT OBJECT [--namespace N] [--family F]``
    One Zanzibar-style permission check over a relation-tuples file
    (``subject#relation@object`` lines); exit 0 allowed, 1 denied.
``repro authz list-objects TUPLES SUBJECT [--type T]``
    Every entity the subject can reach, via the set-enumeration fast
    path (``--type doc`` keeps only ``doc:`` entities).
``repro authz list-subjects TUPLES OBJECT [--type T]``
    Every entity that reaches the object (the inverse enumeration).
``repro top URL [--interval S] [--once]``
    Live ops dashboard: poll a running service's ``GET /slo`` and
    render routes, burn rates, breaker state, and audit verdicts.
``repro shard stats EDGELIST --shards K``
    Partition a graph (its condensation when cyclic) and report shard
    sizes, cut edges, and refinement moves without building indexes.
``repro shard build EDGELIST --family NAME --shards K [--save FILE]``
    Build a partitioned two-level index (parallel shard builds) and
    print the aggregated per-shard build report.
``repro shard query EDGELIST S T --shards K [--explain]``
    Answer one query through a sharded index, optionally showing the
    shard route (intra_shard / cross_shard / boundary_cache).
``repro chaos EDGELIST --fault POINT=KIND[:PROB][:MS] [--seed N]``
    Run a seeded fault-injection schedule against a sharded build, a
    persistence round-trip, and a batch of service queries; print the
    injected-fault counts and per-outcome tallies.  Exits non-zero if
    any failure surfaced as something other than a typed ``repro``
    error or a three-valued answer.
``repro experiment NAME``
    Run one DESIGN.md experiment (taxonomy / speed / size / …) and print
    its table.
``repro accel [--json]``
    Show the acceleration-layer status: numpy availability, the selected
    backend, and the kill switch.  Commands that run kernels accept
    ``--backend {auto,python,numpy}`` to pin the backend for that run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import accel

from repro.bench.tables import format_seconds, render_table
from repro.core.condensed import CondensedIndex, build_plain
from repro.core.registry import (
    all_labeled_indexes,
    all_plain_indexes,
    labeled_index,
    plain_index,
)
from repro.graphs.io import read_edge_list, read_labeled_edge_list
from repro.graphs.topo import is_dag

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    plain_rows = [
        (m.name, m.framework, m.index_type, m.input_kind, m.dynamic)
        for m in sorted(
            (cls.metadata for cls in all_plain_indexes().values()),
            key=lambda m: (m.framework, m.name),
        )
    ]
    print(
        render_table(
            ["Index", "Framework", "Type", "Input", "Dynamic"],
            plain_rows,
            title="Plain reachability indexes (Table 1)",
        )
    )
    print()
    labeled_rows = [
        (m.name, m.framework, m.constraint, m.index_type, m.input_kind, m.dynamic)
        for m in sorted(
            (cls.metadata for cls in all_labeled_indexes().values()),
            key=lambda m: (m.framework, m.name),
        )
    ]
    print(
        render_table(
            ["Index", "Framework", "Constraint", "Type", "Input", "Dynamic"],
            labeled_rows,
            title="Path-constrained reachability indexes (Table 2)",
        )
    )
    return 0


def _build_plain(path: str, name: str):
    graph, ids = read_edge_list(path)
    start = time.perf_counter()
    index = build_plain(name, graph)
    elapsed = time.perf_counter() - start
    return graph, ids, index, elapsed


def _cmd_build(args: argparse.Namespace) -> int:
    graph, _ids, index, elapsed = _build_plain(args.edgelist, args.index)
    print(
        f"{args.index}: built over |V|={graph.num_vertices} "
        f"|E|={graph.num_edges} in {format_seconds(elapsed)}; "
        f"{index.size_in_entries():,} entries"
    )
    if args.save:
        from repro.persistence import save_index

        save_index(index, args.save)
        print(f"saved to {args.save}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Compare the fast index families on the user's own graph."""
    from repro.bench.harness import build_index, time_workload
    from repro.traversal.online import bfs_reachable
    from repro.workloads.queries import plain_workload

    graph, _ids = read_edge_list(args.edgelist)
    workload = plain_workload(
        graph, args.queries, positive_fraction=0.3, seed=args.seed
    )
    rows: list[tuple[str, str, str, str]] = []
    baseline = time_workload(
        "BFS", lambda s, t: bfs_reachable(graph, s, t), workload
    )
    rows.append(("online BFS", "-", "-", format_seconds(baseline.per_query_seconds)))
    for name in ("GRAIL", "Ferrari", "BFL", "IP", "PLL", "Preach", "Feline"):
        built = build_index(plain_index(name), graph)
        result = time_workload(name, built.index.query, workload)
        rows.append(
            (
                name,
                format_seconds(built.build_seconds),
                f"{built.entries:,}",
                format_seconds(result.per_query_seconds),
            )
        )
    print(
        render_table(
            ["method", "build", "entries", "per-query"],
            rows,
            title=f"{args.edgelist}: |V|={graph.num_vertices} |E|={graph.num_edges}, "
            f"{len(workload)} queries",
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.graphs.stats import graph_statistics

    graph, _ids = read_edge_list(args.edgelist)
    stats = graph_statistics(graph)
    print(render_table(["metric", "value"], stats.as_rows(), title=args.edgelist))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.persistence import peek_index_info

    info = peek_index_info(args.file)
    print(f"{args.file}: {info['class_name']} (format v{info['version']})")
    return 0


_EXPERIMENTS = {
    "taxonomy": "prints Tables 1 and 2",
    "speed": "CLAIM-S3-SPEED query-time comparison",
    "size": "CLAIM-S3-SIZE index-size comparison",
    "scaling": "CLAIM-S3-SCALE partial-index build scaling",
    "orders": "ABL-ORDER TOL order instantiations",
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench import experiments
    from repro.bench.tables import format_seconds as fmt

    small = getattr(args, "small", False)
    name = args.name
    if name == "taxonomy":
        return _cmd_list(args)
    if name == "speed":
        rows = (
            experiments.query_speed_rows(layers=6, width=10, num_queries=40)
            if small
            else experiments.query_speed_rows()
        )
        print(
            render_table(
                ["method", "kind", "per-query", "entries"],
                [
                    (r["name"], r["kind"], fmt(r["per_query"]), f"{r['entries']:,}")
                    for r in sorted(rows, key=lambda r: r["per_query"])
                ],
                title="CLAIM-S3-SPEED",
            )
        )
        return 0
    if name == "size":
        rows = (
            experiments.index_size_rows(num_vertices=60)
            if small
            else experiments.index_size_rows()
        )
        print(
            render_table(
                ["index", "entries", "build"],
                [
                    (r["name"], f"{r['entries']:,}", fmt(r["build_seconds"]))
                    for r in rows
                ],
                title="CLAIM-S3-SIZE",
            )
        )
        return 0
    if name == "scaling":
        rows = (
            experiments.build_scaling_rows(sizes=(50, 100))
            if small
            else experiments.build_scaling_rows()
        )
        print(
            render_table(
                ["index", "|V|", "build", "entries"],
                [
                    (r["name"], r["vertices"], fmt(r["build_seconds"]), f"{r['entries']:,}")
                    for r in rows
                ],
                title="CLAIM-S3-SCALE",
            )
        )
        return 0
    if name == "orders":
        rows = (
            experiments.ablation_order_rows(num_vertices=80)
            if small
            else experiments.ablation_order_rows()
        )
        print(
            render_table(
                ["order", "build", "entries"],
                [(r["order"], fmt(r["build_seconds"]), f"{r['entries']:,}") for r in rows],
                title="ABL-ORDER",
            )
        )
        return 0
    known = ", ".join(sorted(_EXPERIMENTS))
    print(f"unknown experiment {name!r}; known: {known}", file=sys.stderr)
    return 2


def _read_pairs_file(path: str) -> list[tuple[str, str]]:
    """Vertex-token pairs, one ``S T`` per line; ``#`` comments and blanks skipped."""
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'SOURCE TARGET', got {stripped!r}"
                )
            pairs.append((tokens[0], tokens[1]))
    return pairs


def _cmd_query(args: argparse.Namespace) -> int:
    if args.pairs_file is None and (args.source is None or args.target is None):
        print("query needs SOURCE and TARGET, or --pairs-file", file=sys.stderr)
        return 2
    if args.load:
        from repro.core.base import ReachabilityIndex
        from repro.persistence import load_index

        _graph, ids = read_edge_list(args.edgelist)
        index = load_index(args.load)
        if not isinstance(index, ReachabilityIndex):
            print(f"{args.load}: not a plain index", file=sys.stderr)
            return 2
    else:
        _graph, ids, index, _elapsed = _build_plain(args.edgelist, args.index)
    if args.pairs_file is not None:
        try:
            token_pairs = _read_pairs_file(args.pairs_file)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            pairs = [(ids[s], ids[t]) for s, t in token_pairs]
        except KeyError as exc:
            print(f"unknown vertex {exc}", file=sys.stderr)
            return 2
        start = time.perf_counter()
        answers = index.query_batch(pairs)
        elapsed = time.perf_counter() - start
        for (s_token, t_token), answer in zip(token_pairs, answers):
            print(f"Qr({s_token}, {t_token}) = {str(answer).lower()}")
        print(
            f"# {len(pairs)} queries in {format_seconds(elapsed)} "
            f"({len(pairs) / elapsed:,.0f}/s)" if elapsed > 0 and pairs
            else f"# {len(pairs)} queries",
            file=sys.stderr,
        )
        return 0
    try:
        s = ids[args.source]
        t = ids[args.target]
    except KeyError as exc:
        print(f"unknown vertex {exc}", file=sys.stderr)
        return 2
    answer = index.query(s, t)
    print(f"Qr({args.source}, {args.target}) = {str(answer).lower()}")
    return 0 if answer else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    _graph, ids, index, _elapsed = _build_plain(args.edgelist, args.index)
    try:
        s = ids[args.source]
        t = ids[args.target]
    except KeyError as exc:
        print(f"unknown vertex {exc}", file=sys.stderr)
        return 2
    explanation = index.explain(s, t)
    if args.json:
        print(json.dumps(explanation.as_dict(), indent=2))
    else:
        print(explanation.render_text())
        report = getattr(index, "build_report", None)
        if args.build and report is not None:
            print()
            print(report.render_text())
    return 0 if explanation.answer else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.tracer import (
        TRACER,
        disable_tracing,
        enable_tracing,
        export_jsonl,
        render_span_tree,
    )

    enable_tracing(sample_rate=args.sample_rate)
    try:
        _graph, ids, index, _elapsed = _build_plain(args.edgelist, args.index)
        if args.source is not None and args.target is not None:
            try:
                s = ids[args.source]
                t = ids[args.target]
            except KeyError as exc:
                print(f"unknown vertex {exc}", file=sys.stderr)
                return 2
            answer = index.query(s, t)
            print(f"Qr({args.source}, {args.target}) = {str(answer).lower()}")
        spans = TRACER.finished()
        if args.since_ms is not None:
            cutoff = time.time() - args.since_ms / 1000.0
            spans = [s for s in spans if s.start_unix_s >= cutoff]
        if args.max_spans is not None:
            # Keep the newest roots: the tail of the finished list.
            spans = spans[-max(0, args.max_spans):] if args.max_spans else []
        for span in spans:
            print(render_span_tree(span))
        if args.jsonl:
            written = export_jsonl(spans, args.jsonl)
            print(f"# {written} spans written to {args.jsonl}", file=sys.stderr)
        report = getattr(index, "build_report", None)
        if report is not None:
            print(report.render_text())
    finally:
        disable_tracing()
    return 0


def _cmd_lquery(args: argparse.Namespace) -> int:
    graph, ids = read_labeled_edge_list(args.edgelist)
    if args.load:
        from repro.core.base import LabelConstrainedIndex
        from repro.persistence import load_index

        index = load_index(args.load)
        if not isinstance(index, LabelConstrainedIndex):
            print(f"{args.load}: not a labeled index", file=sys.stderr)
            return 2
    else:
        index = labeled_index(args.index).build(graph)
    try:
        s = ids[args.source]
        t = ids[args.target]
    except KeyError as exc:
        print(f"unknown vertex {exc}", file=sys.stderr)
        return 2
    answer = index.query(s, t, args.constraint)
    print(f"Qr({args.source}, {args.target}, {args.constraint}) = {str(answer).lower()}")
    return 0 if answer else 1


def _parse_index_params(items: list[str] | None) -> dict[str, object]:
    """``KEY=VALUE`` pairs → build kwargs, ints coerced (``num_shards=4``)."""
    params: dict[str, object] = {}
    for item in items or ():
        key, separator, value = item.partition("=")
        if not separator or not key:
            raise ValueError(f"--index-param needs KEY=VALUE, got {item!r}")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _build_sharded(args: argparse.Namespace):
    """Build a ShardedIndex over an edge list (condensing cyclic input)."""
    graph, ids = read_edge_list(args.edgelist)
    params: dict[str, object] = {
        "family": args.family,
        "num_shards": args.shards,
        "refine_passes": args.refine_passes,
        "executor": args.executor,
    }
    if args.workers is not None:
        params["workers"] = args.workers
    start = time.perf_counter()
    index = build_plain("Sharded", graph, **params)
    elapsed = time.perf_counter() - start
    return graph, ids, index, elapsed


def _shard_report(index):
    """The ShardBuildReport, reaching through the condensation wrapper."""
    report = getattr(index, "shard_build_report", None)
    if report is None and isinstance(index, CondensedIndex):
        report = getattr(index.inner, "shard_build_report", None)
    return report


def _cmd_shard_stats(args: argparse.Namespace) -> int:
    from repro.graphs.scc import condense
    from repro.shard import partition_dag

    graph, _ids = read_edge_list(args.edgelist)
    target = graph
    if not is_dag(graph):
        condensation = condense(graph)
        target = condensation.dag
        print(
            f"cyclic input: partitioning the condensation "
            f"({graph.num_vertices} vertices -> {target.num_vertices} SCCs)"
        )
    partition = partition_dag(target, args.shards, args.refine_passes)
    rows = [(key, str(value)) for key, value in partition.as_dict().items()]
    print(render_table(["metric", "value"], rows, title=args.edgelist))
    return 0


def _cmd_shard_build(args: argparse.Namespace) -> int:
    graph, _ids, index, elapsed = _build_sharded(args)
    print(
        f"Sharded[{args.family} x{args.shards}]: built over "
        f"|V|={graph.num_vertices} |E|={graph.num_edges} in "
        f"{format_seconds(elapsed)}; {index.size_in_entries():,} entries"
    )
    report = _shard_report(index)
    if report is not None:
        print(report.render_text())
    if args.save:
        from repro.persistence import save_index

        save_index(index, args.save)
        print(f"saved to {args.save}")
    return 0


def _cmd_shard_query(args: argparse.Namespace) -> int:
    if args.load:
        from repro.core.base import ReachabilityIndex
        from repro.persistence import load_index

        _graph, ids = read_edge_list(args.edgelist)
        index = load_index(args.load)
        if not isinstance(index, ReachabilityIndex):
            print(f"{args.load}: not a plain index", file=sys.stderr)
            return 2
    else:
        _graph, ids, index, _elapsed = _build_sharded(args)
    try:
        s = ids[args.source]
        t = ids[args.target]
    except KeyError as exc:
        print(f"unknown vertex {exc}", file=sys.stderr)
        return 2
    if args.explain:
        explanation = index.explain(s, t)
        print(explanation.render_text())
        return 0 if explanation.answer else 1
    answer = index.query(s, t)
    print(f"Qr({args.source}, {args.target}) = {str(answer).lower()}")
    return 0 if answer else 1


def _read_tuples(path: str):
    """Parse a relation-tuples file: one ``subject#relation@object`` per line.

    Blank lines and ``//`` comment lines are skipped (``#`` is the
    tuple separator, so it cannot double as the comment character).
    """
    from repro.authz import parse_tuple

    tuples = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text or text.startswith("//"):
                continue
            tuples.append(parse_tuple(text))
    return tuples


def _authz_store_for(args: argparse.Namespace):
    """An AuthzStore preloaded from the command's tuples file."""
    from repro.authz import AuthzStore

    store = AuthzStore(args.family)
    zookie = store.write(args.namespace, writes=_read_tuples(args.tuples))
    return store, zookie


def _cmd_authz_check(args: argparse.Namespace) -> int:
    store, zookie = _authz_store_for(args)
    result = store.check(args.namespace, args.subject, args.object, at_least=zookie)
    print("ALLOWED" if result.allowed else "DENIED")
    print(f"zookie: {result.zookie.encode()}", file=sys.stderr)
    return 0 if result.allowed else 1


def _cmd_authz_list(args: argparse.Namespace) -> int:
    store, zookie = _authz_store_for(args)
    if args.authz_command == "list-objects":
        result = store.list_objects(
            args.namespace, args.entity, object_type=args.type, at_least=zookie
        )
    else:
        result = store.list_subjects(
            args.namespace, args.entity, subject_type=args.type, at_least=zookie
        )
    for name in result.names:
        print(name)
    print(
        f"{len(result.names)} entities via route {result.route} "
        f"(zookie {result.zookie.encode()})",
        file=sys.stderr,
    )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    """Recommend an index family for an edge-list graph (and workload)."""
    import json

    from repro.advisor import advise
    from repro.workloads.queries import plain_workload

    if args.labeled:
        graph, _ids = read_labeled_edge_list(args.edgelist)
    else:
        graph, _ids = read_edge_list(args.edgelist)
    workload = None
    if args.queries:
        sample_graph = graph.to_plain() if args.labeled else graph
        workload = plain_workload(
            sample_graph,
            args.queries,
            positive_fraction=args.positive_fraction,
            seed=args.seed,
        )
    candidates = args.candidates.split(",") if args.candidates else None
    advice = advise(
        graph,
        workload,
        args.budget_bytes,
        candidates=candidates,
        probe=not args.no_probe,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(advice.as_dict(), indent=2))
    else:
        print(advice.render_text())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ReachabilityService
    from repro.service.server import serve

    if args.trace:
        from repro.obs.tracer import enable_tracing

        enable_tracing(sample_rate=args.trace_sample_rate)
    try:
        index_params = _parse_index_params(args.index_param)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if getattr(args, "fault", None):
        # Install chaos before recovery so wal.replay faults fire too.
        from repro.resilience import ChaosPolicy, Fault, install_chaos

        try:
            faults = [Fault.parse(spec) for spec in args.fault]
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        install_chaos(ChaosPolicy(faults, seed=args.chaos_seed))
        print(
            f"chaos: {len(faults)} fault(s) armed, seed={args.chaos_seed}",
            file=sys.stderr,
        )
    if args.labeled:
        graph, _ids = read_labeled_edge_list(args.edgelist)
    else:
        graph, _ids = read_edge_list(args.edgelist)

    wal = None
    recovered = None
    serve_index, serve_params = args.index, index_params
    if args.wal_dir:
        from repro.errors import WALError
        from repro.wal import WriteAheadLog, recover_states

        wal = WriteAheadLog(
            args.wal_dir,
            fsync=args.wal_fsync,
            segment_bytes=args.wal_segment_bytes,
            max_pending=args.wal_max_pending,
        )
        try:
            recovered = recover_states(wal, graph)
        except WALError as exc:
            print(f"wal: {exc}", file=sys.stderr)
            return 2
        graph = recovered.graph
        print(recovered.summary(), file=sys.stderr)
        if recovered.index is not None:
            serve_index = recovered.index
            serve_params = recovered.index_params or {}

    from repro.errors import IndexBuildError

    labeled = None if args.labeled_index == "none" else args.labeled_index
    try:
        service = ReachabilityService(
            graph,
            index=serve_index,
            index_params=serve_params,
            labeled_index=labeled,
            cache_capacity=args.cache_capacity or None,
            coalesce=not args.no_coalesce,
            rebuild=args.rebuild,
            patch_audit_pairs=args.patch_audit_pairs,
        )
    except IndexBuildError as exc:  # e.g. a misspelt --index-param key
        print(str(exc), file=sys.stderr)
        return 2
    if recovered is not None:
        service.restore_epoch(recovered.epoch)
    if wal is not None:
        service.attach_wal(wal)
    tracker = None
    if args.slo:
        from repro.errors import ReproError
        from repro.slo import SLOTracker

        try:
            tracker = SLOTracker(
                args.slo,
                service.metrics,
                breaker=service.breaker,
                fast_window_s=args.slo_fast_window,
                slow_window_s=args.slo_slow_window,
            )
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        tracker.start(interval_s=args.slo_interval)
    auditor = None
    if args.audit_rate:
        from repro.slo import ShadowAuditor

        auditor = ShadowAuditor(
            sample_rate=args.audit_rate, metrics=service.metrics
        )
        service.attach_auditor(auditor)
        auditor.start()
    advisor = None
    if args.advise_interval:
        from repro.service import AdvisorLoop

        advisor = AdvisorLoop(
            service,
            interval_s=args.advise_interval,
            budget_bytes=args.advise_budget_bytes,
            slo_tracker=tracker,
        )
        advisor.start()
    authz_store = None
    has_recovered_authz = recovered is not None and bool(recovered.authz)
    if args.authz or args.authz_tuples or has_recovered_authz:
        from repro.authz import AuthzStore

        authz_store = AuthzStore(args.authz_family)
        if has_recovered_authz:
            # Republish recovered namespaces at their exact pre-crash
            # epochs before any new write, so old zookies still validate.
            authz_store.restore(recovered.authz)
        if wal is not None:
            authz_store.attach_wal(wal)
        if args.authz_tuples:
            zookie = authz_store.write(
                args.authz_namespace, writes=_read_tuples(args.authz_tuples)
            )
            print(
                f"authz: loaded {args.authz_tuples} into namespace "
                f"{args.authz_namespace!r} (zookie {zookie.encode()})",
                file=sys.stderr,
            )
    checkpointer = None
    if wal is not None:
        from repro.wal import CheckpointManager

        checkpointer = CheckpointManager(
            wal,
            service=service,
            authz=authz_store,
            every_records=args.wal_checkpoint_every,
            interval_s=args.wal_checkpoint_interval,
        )
        checkpointer.start()
    server = serve(
        service,
        host=args.host,
        port=args.port,
        quiet=False,
        max_concurrent=args.max_concurrent,
        queue_depth=args.admission_queue,
        queue_timeout_s=args.admission_wait_ms / 1000.0,
        default_timeout_ms=args.timeout_ms,
        advisor=advisor,
        slo_tracker=tracker,
        auditor=auditor,
        authz=authz_store,
    )
    host, port = server.server_address[:2]
    trace_line = (
        f"\n  http://{host}:{port}/debug/trace" if args.trace else ""
    )
    print(
        f"serving {service!r}\n"
        f"  http://{host}:{port}/reach?source=S&target=T\n"
        f"  http://{host}:{port}/metrics   (Ctrl-C to stop)"
        + trace_line
    )

    # Graceful shutdown: SIGTERM/SIGINT stop admissions, drain in-flight
    # requests up to --drain-timeout, then flush a final metrics snapshot.
    # serve_forever runs on a background thread so the main thread can
    # wait on the signal event (signal handlers only fire on main).
    import signal
    import threading

    stop = threading.Event()
    previous = {}

    def _on_signal(signum: int, _frame: object) -> None:
        print(f"\nreceived {signal.Signals(signum).name}: draining...",
              file=sys.stderr)
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # non-main thread / unsupported
            pass
    thread = server.start_background()
    try:
        stop.wait()
    except KeyboardInterrupt:  # fallback when the handler didn't install
        pass
    if advisor is not None:
        advisor.stop()
    if tracker is not None:
        tracker.stop()
    if auditor is not None:
        auditor.stop()
    drained = server.drain(args.drain_timeout)
    if checkpointer is not None:
        # After drain: no writer is mid-append, so the final checkpoint
        # captures everything and the log closes at a record boundary.
        checkpointer.stop(final_checkpoint=True)
    if wal is not None:
        wal.close()
    thread.join(timeout=args.drain_timeout + 1.0)
    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):
            pass
    in_flight = server.admission.in_flight
    state = "drained cleanly" if drained else f"{in_flight} request(s) abandoned"
    print(f"shutdown: {state}", file=sys.stderr)
    print(service.metrics_text(), end="")
    return 0 if drained else 1


def _cmd_top(args: argparse.Namespace) -> int:
    """Live ops dashboard: poll GET /slo and redraw a text frame."""
    from repro.slo import fetch_slo, render_dashboard

    url = args.url
    if "://" not in url:
        url = f"http://{url}"
    while True:
        try:
            payload = fetch_slo(url)
        except OSError as exc:
            print(f"cannot reach {url}: {exc}", file=sys.stderr)
            return 1
        frame = render_dashboard(payload)
        if args.once:
            print(frame)
            return 0
        # Clear + home, then the frame — a flicker-free poor man's top.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded fault schedule against the stack; report typed outcomes.

    Exercises three surfaces under the installed :class:`ChaosPolicy`:
    a sharded build (the in-process loop, so ``shard.build_worker``
    faults fire where the policy is installed), a persistence round-trip
    (``persistence.read``), and a batch of service queries
    (``kernels.sweep``, deadlines).  Every outcome must be a typed
    result — TRUE/FALSE/UNKNOWN or a named ``repro`` error; anything
    else is a resilience bug and exits 1.
    """
    import collections
    import os
    import tempfile

    from repro.errors import ReproError
    from repro.obs.metrics import global_registry
    from repro.resilience import ChaosPolicy, Fault, chaos, deadline_scope
    from repro.service import ReachabilityService

    try:
        faults = [Fault.parse(spec) for spec in args.fault or []]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not faults:
        print("no --fault given; nothing to inject", file=sys.stderr)
        return 2
    graph, _ids = read_edge_list(args.edgelist)
    outcomes: collections.Counter[str] = collections.Counter()
    policy = ChaosPolicy(faults, seed=args.seed)

    def note(kind: str) -> None:
        outcomes[kind] += 1

    with chaos(policy):
        # 1. sharded build under fault injection
        try:
            build_plain(
                "Sharded",
                graph,
                family=args.index,
                num_shards=args.shards,
                retry_seed=args.seed,
            )
            note("build:ok")
        except ReproError as exc:
            note(f"build:{type(exc).__name__}")
        except Exception as exc:  # noqa: BLE001 — the failure we test for
            note(f"build:UNTYPED:{type(exc).__name__}")

        # 2. persistence round-trip under fault injection
        try:
            from repro.core.registry import plain_index as _plain
            from repro.persistence import load_index, save_index

            index = _plain(args.index).build(graph)
            descriptor, path = tempfile.mkstemp(suffix=".repro")
            os.close(descriptor)
            try:
                save_index(index, path)
                load_index(path)
                note("persist:ok")
            finally:
                os.unlink(path)
        except ReproError as exc:
            note(f"persist:{type(exc).__name__}")
        except Exception as exc:  # noqa: BLE001
            note(f"persist:UNTYPED:{type(exc).__name__}")

        # 3. service queries under fault injection and a deadline
        try:
            service = ReachabilityService(graph, index=args.index)
            import random as _random

            rng = _random.Random(args.seed)
            n = graph.num_vertices
            pairs = (
                [(rng.randrange(n), rng.randrange(n)) for _ in range(args.queries)]
                if n
                else []
            )
            with deadline_scope(args.timeout_ms):
                for result in service.execute_batch(pairs):
                    note(f"query:{result.status}")
        except ReproError as exc:
            note(f"query:{type(exc).__name__}")
        except Exception as exc:  # noqa: BLE001
            note(f"query:UNTYPED:{type(exc).__name__}")

    print(f"chaos seed={args.seed} faults={len(faults)}")
    for key in sorted(policy.injected_counts()):
        print(f"  injected {key}: {policy.injected_counts()[key]}")
    for key in sorted(outcomes):
        print(f"  outcome {key}: {outcomes[key]}")
    def _flat(prefix: str, node: object):
        if isinstance(node, dict):
            for key, value in sorted(node.items()):
                yield from _flat(f"{prefix}.{key}" if prefix else str(key), value)
        elif isinstance(node, (int, float)):
            yield prefix, node

    for name, value in _flat("", global_registry().as_dict()):
        if name.startswith(("chaos.", "resilience.", "shard.build.")):
            print(f"  counter {name}: {value}")
    untyped = sum(count for key, count in outcomes.items() if ":UNTYPED:" in key)
    if untyped:
        print(f"FAIL: {untyped} untyped outcome(s)", file=sys.stderr)
        return 1
    print("all outcomes typed")
    return 0


def _add_backend_argument(p: argparse.ArgumentParser) -> None:
    """Register the shared ``--backend`` override on one subcommand."""
    p.add_argument(
        "--backend",
        choices=("auto", "python", "numpy"),
        default=None,
        help="kernel backend: auto (runtime-detected, default), python "
        "(authoritative fallback), numpy (fail if numpy is missing)",
    )


def _apply_backend(args: argparse.Namespace) -> None:
    """Pin the process-wide kernel backend when ``--backend`` was given."""
    backend = getattr(args, "backend", None)
    if backend is not None:
        accel.set_backend(backend)


def _cmd_accel(args: argparse.Namespace) -> int:
    status = accel.describe()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"backend: {status['backend']} (selection: {status['selection']})")
    print(f"numpy: {status['numpy_version'] or 'not importable'}")
    print(f"kill switch (REPRO_ACCEL=0): {'engaged' if status['kill_switch'] else 'off'}")
    print(f"threshold: >={status['min_vertices']} vertices")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Reachability indexes on graphs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the index taxonomies").set_defaults(
        func=_cmd_list
    )

    build = sub.add_parser("build", help="build an index over an edge list")
    build.add_argument("edgelist")
    build.add_argument("--index", default="PLL")
    build.add_argument("--save", default=None, help="persist the built index")
    _add_backend_argument(build)
    build.set_defaults(func=_cmd_build)

    stats = sub.add_parser("stats", help="profile an edge-list graph")
    stats.add_argument("edgelist")
    stats.set_defaults(func=_cmd_stats)

    compare = sub.add_parser(
        "compare", help="benchmark the fast index families on a graph"
    )
    compare.add_argument("edgelist")
    compare.add_argument("--queries", type=int, default=200)
    compare.add_argument("--seed", type=int, default=0)
    _add_backend_argument(compare)
    compare.set_defaults(func=_cmd_compare)

    inspect = sub.add_parser("inspect", help="show a saved index's header")
    inspect.add_argument("file")
    inspect.set_defaults(func=_cmd_inspect)

    experiment = sub.add_parser(
        "experiment", help="run one DESIGN.md experiment and print its table"
    )
    experiment.add_argument("name", help=", ".join(sorted(_EXPERIMENTS)))
    experiment.add_argument(
        "--small", action="store_true", help="reduced parameters (quick look)"
    )
    experiment.set_defaults(func=_cmd_experiment)

    query = sub.add_parser(
        "query", help="answer plain reachability queries (single or batched)"
    )
    query.add_argument("edgelist")
    query.add_argument("source", nargs="?", default=None)
    query.add_argument("target", nargs="?", default=None)
    query.add_argument("--index", default="PLL")
    query.add_argument(
        "--load", default=None, help="use a saved index file instead of rebuilding"
    )
    query.add_argument(
        "--pairs-file",
        default=None,
        help="answer a whole file of 'SOURCE TARGET' lines through the batch path",
    )
    _add_backend_argument(query)
    query.set_defaults(func=_cmd_query)

    explain = sub.add_parser(
        "explain", help="show the routed decision path of one query"
    )
    explain.add_argument("edgelist")
    explain.add_argument("source")
    explain.add_argument("target")
    explain.add_argument("--index", default="PLL")
    explain.add_argument(
        "--build", action="store_true", help="also print the per-phase build breakdown"
    )
    explain.add_argument(
        "--json", action="store_true", help="emit the explanation as JSON"
    )
    explain.set_defaults(func=_cmd_explain)

    trace = sub.add_parser(
        "trace", help="build (and optionally query) under the span tracer"
    )
    trace.add_argument("edgelist")
    trace.add_argument("source", nargs="?", default=None)
    trace.add_argument("target", nargs="?", default=None)
    trace.add_argument("--index", default="PLL")
    trace.add_argument(
        "--sample-rate", type=float, default=1.0, help="root-span sampling rate"
    )
    trace.add_argument(
        "--jsonl", default=None, help="export recorded spans as JSON lines"
    )
    trace.add_argument(
        "--since-ms",
        type=float,
        default=None,
        metavar="MS",
        help="only show root spans that started within the last MS milliseconds",
    )
    trace.add_argument(
        "--max-spans",
        type=int,
        default=None,
        metavar="N",
        help="cap the output to the N most recent root spans",
    )
    trace.set_defaults(func=_cmd_trace)

    lquery = sub.add_parser("lquery", help="answer one path-constrained query")
    lquery.add_argument("edgelist")
    lquery.add_argument("source")
    lquery.add_argument("target")
    lquery.add_argument("constraint")
    lquery.add_argument("--index", default="P2H+")
    lquery.add_argument(
        "--load", default=None, help="use a saved index file instead of rebuilding"
    )
    lquery.set_defaults(func=_cmd_lquery)

    shard = sub.add_parser(
        "shard", help="partitioned (sharded) reachability indexes"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    def _shard_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("edgelist")
        p.add_argument("--shards", type=int, default=4, help="partition count k")
        p.add_argument(
            "--refine-passes",
            type=int,
            default=2,
            help="greedy min-cut refinement passes over the banding",
        )

    shard_stats = shard_sub.add_parser(
        "stats", help="partition a graph and report the cut"
    )
    _shard_common(shard_stats)
    shard_stats.set_defaults(func=_cmd_shard_stats)

    def _shard_build_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", default="PLL", help="plain family per shard")
        p.add_argument(
            "--executor",
            choices=("serial", "process"),
            default="serial",
            help="shard builds in a loop, or in a process pool (large graphs)",
        )
        p.add_argument(
            "--workers", type=int, default=None, help="parallel build workers"
        )

    shard_build = shard_sub.add_parser(
        "build", help="build a sharded two-level index"
    )
    _shard_common(shard_build)
    _shard_build_args(shard_build)
    shard_build.add_argument("--save", default=None, help="persist the built index")
    _add_backend_argument(shard_build)
    shard_build.set_defaults(func=_cmd_shard_build)

    shard_query = shard_sub.add_parser(
        "query", help="answer one query through a sharded index"
    )
    shard_query.add_argument("edgelist")
    shard_query.add_argument("source")
    shard_query.add_argument("target")
    shard_query.add_argument("--shards", type=int, default=4)
    shard_query.add_argument("--refine-passes", type=int, default=2)
    _shard_build_args(shard_query)
    shard_query.add_argument(
        "--load", default=None, help="use a saved index file instead of rebuilding"
    )
    shard_query.add_argument(
        "--explain", action="store_true", help="show the shard route taken"
    )
    shard_query.set_defaults(func=_cmd_shard_query)

    authz_cmd = sub.add_parser(
        "authz", help="Zanzibar-style authorization over a relation-tuples file"
    )
    authz_sub = authz_cmd.add_subparsers(dest="authz_command", required=True)

    def _authz_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("tuples", help="file of subject#relation@object lines")
        p.add_argument("--namespace", default="default", help="tenant namespace")
        p.add_argument(
            "--family", default="TC", help="plain index family behind the store"
        )

    authz_check = authz_sub.add_parser(
        "check", help="one permission check (exit 0 allowed, 1 denied)"
    )
    _authz_common(authz_check)
    authz_check.add_argument("subject")
    authz_check.add_argument("object")
    authz_check.set_defaults(func=_cmd_authz_check)

    authz_list_objects = authz_sub.add_parser(
        "list-objects", help="every entity a subject can reach"
    )
    _authz_common(authz_list_objects)
    authz_list_objects.add_argument("entity", help="the subject to enumerate for")
    authz_list_objects.add_argument(
        "--type", default=None, help="keep only entities with this type: prefix"
    )
    authz_list_objects.set_defaults(func=_cmd_authz_list)

    authz_list_subjects = authz_sub.add_parser(
        "list-subjects", help="every entity that reaches an object"
    )
    _authz_common(authz_list_subjects)
    authz_list_subjects.add_argument("entity", help="the object to enumerate for")
    authz_list_subjects.add_argument(
        "--type", default=None, help="keep only entities with this type: prefix"
    )
    authz_list_subjects.set_defaults(func=_cmd_authz_list)

    advise_cmd = sub.add_parser(
        "advise",
        help="recommend an index family for a graph (and optional workload)",
    )
    advise_cmd.add_argument("edgelist")
    advise_cmd.add_argument(
        "--labeled", action="store_true", help="labeled edge list"
    )
    advise_cmd.add_argument(
        "--budget-bytes",
        type=int,
        default=None,
        help="cap the recommended index's serialized size",
    )
    advise_cmd.add_argument(
        "--queries",
        type=int,
        default=200,
        metavar="N",
        help="size of the synthetic workload sample (0 for graph-only advice)",
    )
    advise_cmd.add_argument(
        "--positive-fraction",
        type=float,
        default=0.3,
        help="reachable share of the synthetic workload sample",
    )
    advise_cmd.add_argument(
        "--candidates",
        default=None,
        metavar="A,B,C",
        help="comma-separated family names to consider (default: advisor's set)",
    )
    advise_cmd.add_argument(
        "--no-probe",
        action="store_true",
        help="skip micro-probe builds; rank on analytic priors only",
    )
    advise_cmd.add_argument("--seed", type=int, default=0)
    advise_cmd.add_argument(
        "--json", action="store_true", help="emit the Advice payload as JSON"
    )
    advise_cmd.set_defaults(func=_cmd_advise)

    serve = sub.add_parser(
        "serve", help="run the snapshot-isolated HTTP query service"
    )
    serve.add_argument("edgelist")
    serve.add_argument("--labeled", action="store_true", help="labeled edge list")
    serve.add_argument("--index", default="PLL", help="plain index family")
    serve.add_argument(
        "--index-param",
        action="append",
        metavar="KEY=VALUE",
        default=None,
        help="build parameter forwarded to the index family (repeatable)",
    )
    serve.add_argument(
        "--labeled-index",
        default="DLCR",
        help="labeled index family, or 'none' for traversal only",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--cache-capacity", type=int, default=4096)
    serve.add_argument(
        "--no-coalesce", action="store_true", help="disable request coalescing"
    )
    serve.add_argument("--rebuild", choices=("auto", "always"), default="auto")
    serve.add_argument(
        "--trace",
        action="store_true",
        help="enable the span tracer (spans at GET /debug/trace)",
    )
    serve.add_argument(
        "--trace-sample-rate", type=float, default=1.0, help="root-span sampling rate"
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=64,
        help="admission control: concurrent requests before queueing",
    )
    serve.add_argument(
        "--admission-queue",
        type=int,
        default=128,
        help="admission control: waiters before shedding with 503",
    )
    serve.add_argument(
        "--admission-wait-ms",
        type=float,
        default=250.0,
        help="max time a request waits for a slot before 503",
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="default per-request deadline (requests may set their own)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight requests on SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--advise-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run the index advisor loop: re-advise on telemetry drift and "
        "swap the recommended index in live (also enables GET /advise?cached=1)",
    )
    serve.add_argument(
        "--advise-budget-bytes",
        type=int,
        default=None,
        help="size budget the advisor loop holds recommendations to",
    )
    serve.add_argument(
        "--slo",
        action="append",
        metavar="SPEC",
        default=None,
        help="SLO objective to track, e.g. 'reach.p99 < 5ms', "
        "'error_rate < 0.1%%', 'unknown_rate < 1%%' (repeatable); "
        "burn-rate breaches trip the circuit breaker pre-emptively "
        "and show at GET /slo",
    )
    serve.add_argument(
        "--slo-fast-window",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="fast burn-rate window (default 300s)",
    )
    serve.add_argument(
        "--slo-slow-window",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="slow burn-rate window (default 3600s)",
    )
    serve.add_argument(
        "--slo-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how often the SLO tracker evaluates its objectives",
    )
    serve.add_argument(
        "--audit-rate",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="shadow-audit this fraction of served pair queries against "
        "the BFS oracle (e.g. 0.001; 0 disables)",
    )
    serve.add_argument(
        "--authz",
        action="store_true",
        help="attach an authz tuple store (enables POST /authz/*)",
    )
    serve.add_argument(
        "--authz-family",
        default="TC",
        help="plain index family behind the authz store",
    )
    serve.add_argument(
        "--authz-tuples",
        default=None,
        metavar="FILE",
        help="preload a subject#relation@object tuples file (implies --authz)",
    )
    serve.add_argument(
        "--authz-namespace",
        default="default",
        help="namespace the preloaded tuples land in",
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="write-ahead log directory: append every write before the "
        "epoch swap and recover the pre-crash state on startup",
    )
    serve.add_argument(
        "--wal-fsync",
        choices=("always", "batch", "off"),
        default="batch",
        help="fsync policy: every append, every Nth append, or never "
        "(data still reaches the OS page cache on every append)",
    )
    serve.add_argument(
        "--wal-segment-bytes",
        type=int,
        default=4 << 20,
        help="rotate the active WAL segment past this size",
    )
    serve.add_argument(
        "--wal-max-pending",
        type=int,
        default=64,
        help="writes admitted into the WAL queue before shedding with 429",
    )
    serve.add_argument(
        "--wal-checkpoint-every",
        type=int,
        default=256,
        metavar="RECORDS",
        help="checkpoint + truncate after this much log growth",
    )
    serve.add_argument(
        "--wal-checkpoint-interval",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="how often the checkpointer wakes to look at log growth",
    )
    serve.add_argument(
        "--patch-audit-pairs",
        type=int,
        default=8,
        metavar="K",
        help="differentially audit each incremental index patch against "
        "the BFS oracle on K sampled pairs (0 disables; mismatch falls "
        "back to a counted full rebuild)",
    )
    serve.add_argument(
        "--fault",
        action="append",
        metavar="POINT=KIND[:PROB][:MS]",
        default=None,
        help="arm a chaos fault for this server (repeatable); includes "
        "the WAL points wal.append, wal.fsync, wal.replay",
    )
    serve.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the armed chaos faults",
    )
    _add_backend_argument(serve)
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top", help="live ops dashboard over a running service's GET /slo"
    )
    top.add_argument(
        "url", help="service base URL (e.g. http://127.0.0.1:8080)"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period between frames",
    )
    top.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    top.set_defaults(func=_cmd_top)

    chaos_cmd = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection schedule and report typed outcomes",
    )
    chaos_cmd.add_argument("edgelist")
    chaos_cmd.add_argument(
        "--fault",
        action="append",
        metavar="POINT=KIND[:PROB][:MS]",
        help="fault to inject (repeatable); points: persistence.read, "
        "shard.build_worker, kernels.sweep, service.handler, "
        "service.query; kinds: delay, error, corrupt",
    )
    chaos_cmd.add_argument("--seed", type=int, default=0)
    chaos_cmd.add_argument("--index", default="PLL", help="plain index family")
    chaos_cmd.add_argument("--shards", type=int, default=4)
    chaos_cmd.add_argument("--queries", type=int, default=50)
    chaos_cmd.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="deadline applied around the query batch",
    )
    chaos_cmd.set_defaults(func=_cmd_chaos)

    accel_cmd = sub.add_parser(
        "accel", help="show the numpy acceleration-layer status"
    )
    accel_cmd.add_argument(
        "--json", action="store_true", help="emit the status as JSON"
    )
    accel_cmd.set_defaults(func=_cmd_accel)

    args = parser.parse_args(argv)
    _apply_backend(args)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
