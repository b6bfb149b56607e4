"""CLAIM-PERF-SHARD — partitioned builds beat monolithic on community DAGs.

Two halves of the §6 scaling claim, measured on an 8-community DAG whose
communities are dense relative to the inter-community cut:

* **Build race** — ``ShardedIndex.build`` partitions the graph, builds a
  PLL index per shard (the default in-process loop), and lifts the cut
  into a boundary summary index.  Because PLL's build cost is superlinear
  in the shard size, ``k`` shards of ``n/k`` vertices are cheaper than
  one ``n``-vertex build: sharded wall-time must beat the monolithic
  build at ``k >= 4``.
* **Query race** — cross-shard queries pay the out-border → boundary
  index → in-border composition instead of one label probe.  With warm
  border caches on a Zipf-skewed workload, the cross-shard p50 must stay
  within 5× of the monolithic p50.

Run as a benchmark (``pytest benchmarks/bench_shard.py -s``) or
standalone (``python benchmarks/bench_shard.py [--tiny] [--json PATH]``);
both emit the measurements as ``BENCH_shard.json``.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from repro.bench.jsonout import add_json_argument, emit
from repro.bench.tables import format_seconds, render_table
from repro.core.registry import plain_index
from repro.graphs.generators import community_dag
from repro.shard import ShardedIndex

NUM_COMMUNITIES = 8
COMMUNITY_SIZE = 1_000
INTRA_EDGE_PROB = 0.025
INTER_EDGE_PROB = 0.00001
FAMILY = "PLL"
SHARD_COUNTS = (2, 4, 8)
QUERY_SHARDS = 8
DISTINCT_PAIRS = 300
WORKLOAD_SIZE = 2_000


def _timed(thunk):
    start = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - start


def measure(
    num_communities: int = NUM_COMMUNITIES,
    community_size: int = COMMUNITY_SIZE,
    intra_edge_prob: float = INTRA_EDGE_PROB,
    inter_edge_prob: float = INTER_EDGE_PROB,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    query_shards: int = QUERY_SHARDS,
    distinct_pairs: int = DISTINCT_PAIRS,
    workload_size: int = WORKLOAD_SIZE,
    seed: int = 0,
) -> dict:
    """Both measurements as one JSON-serialisable dict."""
    graph = community_dag(
        num_communities,
        community_size,
        seed=seed,
        intra_edge_prob=intra_edge_prob,
        inter_edge_prob=inter_edge_prob,
    )

    # -- build race: monolithic family build vs sharded builds --
    monolithic, monolithic_s = _timed(lambda: plain_index(FAMILY).build(graph))
    builds: list[dict] = []
    sharded_by_k: dict[int, ShardedIndex] = {}
    for k in shard_counts:
        index, sharded_s = _timed(
            lambda k=k: ShardedIndex.build(graph, family=FAMILY, num_shards=k)
        )
        sharded_by_k[k] = index
        shard_report = index.shard_build_report
        builds.append(
            {
                "num_shards": k,
                "sharded_seconds": sharded_s,
                "speedup": monolithic_s / sharded_s,
                "partition_seconds": shard_report.partition_seconds,
                "shard_build_seconds": shard_report.shard_build_seconds,
                "boundary_seconds": shard_report.boundary_seconds,
                "cut_edges": shard_report.cut_edges,
                "boundary_vertices": shard_report.boundary_vertices,
            }
        )

    query = _measure_queries(
        graph,
        monolithic,
        sharded_by_k[query_shards]
        if query_shards in sharded_by_k
        else sharded_by_k[max(sharded_by_k)],
        distinct_pairs,
        workload_size,
        seed,
    )
    return {
        "graph": {"vertices": graph.num_vertices, "edges": graph.num_edges},
        "family": FAMILY,
        "monolithic_seconds": monolithic_s,
        "builds": builds,
        "query": query,
    }


def _measure_queries(
    graph, monolithic, sharded, distinct_pairs: int, workload_size: int, seed: int
) -> dict:
    """Per-query p50: monolithic label probe vs cross-shard composition.

    The workload is Zipf-skewed over cross-shard pairs so the sharded
    side exercises both fresh compositions and the border/pair caches —
    the steady state a long-lived service sees.  Both sides are warmed
    on the distinct pairs first so neither measures cold-cache noise.
    """
    rng = random.Random(seed + 1)
    shard_of = sharded.partition.shard_of
    n = graph.num_vertices
    distinct: list[tuple[int, int]] = []
    attempts = 0
    while len(distinct) < distinct_pairs and attempts < 100 * distinct_pairs:
        attempts += 1
        s, t = rng.randrange(n), rng.randrange(n)
        if shard_of[s] != shard_of[t]:
            distinct.append((s, t))
    weights = [1.0 / (rank + 1) for rank in range(len(distinct))]
    workload = rng.choices(distinct, weights=weights, k=workload_size)

    for s, t in distinct:  # warm caches on both sides
        assert monolithic.query(s, t) == sharded.query(s, t), (s, t)

    def p50(index) -> float:
        latencies = []
        for s, t in workload:
            start = time.perf_counter_ns()
            index.query(s, t)
            latencies.append(time.perf_counter_ns() - start)
        return statistics.median(latencies) / 1e9

    monolithic_p50 = p50(monolithic)
    sharded_p50 = p50(sharded)
    return {
        "num_shards": sharded.partition.num_shards,
        "distinct_pairs": len(distinct),
        "workload_size": workload_size,
        "monolithic_p50_seconds": monolithic_p50,
        "cross_shard_p50_seconds": sharded_p50,
        "slowdown": sharded_p50 / monolithic_p50,
    }


def _render(results: dict) -> str:
    rows = [
        (
            f"sharded k={row['num_shards']}",
            format_seconds(row["sharded_seconds"]),
            f"{row['speedup']:.2f}x",
            str(row["cut_edges"]),
        )
        for row in results["builds"]
    ]
    rows.insert(
        0,
        (
            f"monolithic {results['family']}",
            format_seconds(results["monolithic_seconds"]),
            "1.00x",
            "-",
        ),
    )
    query = results["query"]
    rows.append(
        (
            f"query p50 (k={query['num_shards']})",
            format_seconds(query["cross_shard_p50_seconds"]),
            f"{query['slowdown']:.2f}x of mono p50",
            "-",
        )
    )
    graph = results["graph"]
    return render_table(
        ["configuration", "wall-time", "vs monolithic", "cut edges"],
        rows,
        title=(
            f"CLAIM-PERF-SHARD: |V|={graph['vertices']:,} "
            f"|E|={graph['edges']:,}, family={results['family']}"
        ),
    )


def test_shard_scaling(benchmark, report):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(_render(results))
    emit("shard", results)
    for row in results["builds"]:
        if row["num_shards"] >= 4:
            assert row["sharded_seconds"] < results["monolithic_seconds"], (
                f"sharded build at k={row['num_shards']} "
                f"({row['sharded_seconds']:.2f}s) did not beat the "
                f"monolithic build ({results['monolithic_seconds']:.2f}s)"
            )
    assert results["query"]["slowdown"] <= 5.0, (
        f"cross-shard p50 is {results['query']['slowdown']:.2f}x the "
        "monolithic p50, above the claimed 5x bound"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test parameters (small graph, no speedup assertions)",
    )
    parser.add_argument("--seed", type=int, default=0)
    add_json_argument(parser, "shard")
    args = parser.parse_args(argv)
    if args.tiny:
        results = measure(
            num_communities=4,
            community_size=40,
            intra_edge_prob=0.1,
            inter_edge_prob=0.01,
            shard_counts=(2, 4),
            query_shards=4,
            distinct_pairs=40,
            workload_size=200,
            seed=args.seed,
        )
    else:
        results = measure(seed=args.seed)
    print(_render(results))
    print(f"wrote {emit('shard', results, args.json)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
