"""CLAIM-S9-AUTHZ — list-objects must ride the enumeration fast paths.

The Zanzibar-style workload's list-objects question ("which of these
10,000 documents can this principal see?") has two implementations:

* **pair probes** — one ``query_batch`` over every ``(subject, doc)``
  pair, the only option before the set-enumeration API existed;
* **enumeration** — one ``reachable_from`` call through the per-family
  fast path (TC: closure read; PLL: label join), then a type filter.

The claim: enumeration beats the batched pair probes by **>= 5x** for
TC and PLL at 10^4 candidate objects, because its cost scales with the
*answer* size while probing scales with the *candidate* size.  Both
arms are verified to return the same allowed set before timing counts.

A second, informational section measures the same comparison end-to-end
over HTTP — one ``POST /authz/expand`` against one batched
``POST /authz/check`` — through a live :class:`ServiceHTTPServer` with
the store attached.  Raw HTTP numbers are machine-dependent, so those
keys carry no judged suffix.

A third section measures the write path: a one-tuple grant/revoke
stream through ``AuthzStore("TC").apply_updates``, each write timed and
attributed to its route by the store's own counters, against what a
write cost before patching existed — compiling the namespace from its
tuple set (``compile_tuples`` + ``to_plain`` + the TC build, the public
calls ``_compile`` makes).  Every answer of the patched store is checked
against a store compiled from the same tuples before a timing counts.
The claim: a patched write beats the recompile by the floor
``PATCH_SPEEDUP_MIN``, set from the ``--tiny`` measurement (both sides
grow with the namespace: what a patch still pays is structural copies).

Run standalone (``python benchmarks/bench_authz.py [--tiny]``) or under
pytest (``pytest benchmarks/bench_authz.py -s``).  Emits
``BENCH_authz.json`` whose headline carries ``{"value": ..., "min": ...}``
entries so ``tools/bench_compare.py`` enforces the floors; the 5x
list-objects floor is a full-scale claim and rides only the full run.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import urllib.request

from repro.authz import AuthzStore, compile_tuples
from repro.bench.jsonout import add_json_argument, emit
from repro.bench.tables import render_table
from repro.core import build_plain
from repro.obs.metrics import global_registry
from repro.workloads.authz import authz_tuples
from repro.workloads.updates import tuple_churn_stream

FULL = {
    "users": 200,
    "groups": 30,
    "objects": 10_000,
    "grants_per_group": 400,
    "enum_rounds": 30,
    "probe_rounds": 3,
    "speedup_min": 5.0,
    "churn_ops": 60,
}
TINY = {
    "users": 30,
    "groups": 8,
    "objects": 400,
    "grants_per_group": 60,
    "enum_rounds": 10,
    "probe_rounds": 3,
    "speedup_min": None,  # 400 candidates: the answer is most of them
    "churn_ops": 60,
}

FAMILIES = ("TC", "PLL")
# Floor: half the --tiny measurement when a patch still copied every
# adjacency row (885 tuples: 6.3x, 6.5x, 6.4x over three runs; the full
# universe, 22k tuples, 6.0x and 6.7x).  With copy-on-write rows the same
# runs read 17.5x and 51x; the floor stays where a lost patch path
# (everything recompiling) would trip it.
PATCH_SPEEDUP_MIN = 3.0
NAMESPACE = "bench"


def _hot_subject(store: AuthzStore) -> str:
    """The user with the largest reachable set — the Zipf head case."""
    snapshot = store.snapshot(NAMESPACE)
    best, best_size = None, -1
    for name, vid in snapshot.entity_ids.items():
        if not name.startswith("user:"):
            continue
        size = len(snapshot.index.reachable_from(vid))
        if size > best_size:
            best, best_size = name, size
    return best


def family_rows(config: dict[str, int], family: str, seed: int = 9) -> dict[str, object]:
    """Enumeration vs batched pair probes, in process, best-of-rounds."""
    tuples = authz_tuples(
        config["users"],
        config["groups"],
        config["objects"],
        seed=seed,
        grants_per_group=config["grants_per_group"],
    )
    store = AuthzStore(family)
    build_start = time.perf_counter()
    zookie = store.write(NAMESPACE, writes=tuples)
    build_s = time.perf_counter() - build_start
    subject = _hot_subject(store)
    snapshot = store.snapshot(NAMESPACE)
    sid = snapshot.entity_ids[subject]
    docs = sorted(
        name for name in snapshot.entity_ids if name.startswith("doc:")
    )
    doc_ids = [snapshot.entity_ids[name] for name in docs]
    pairs = [(sid, oid) for oid in doc_ids]

    def probe_list_objects() -> tuple[str, ...]:
        """list-objects without the enumeration API: one probe per doc."""
        hits = snapshot.index.query_batch(pairs)
        return tuple(sorted(doc for doc, hit in zip(docs, hits) if hit))

    # both arms must return the same answer before any timing counts
    enum_answer = store.list_objects(
        NAMESPACE, subject, object_type="doc", at_least=zookie
    ).names
    probe_answer = probe_list_objects()
    if enum_answer != probe_answer:
        raise AssertionError(
            f"{family}: enumeration and pair probes disagree "
            f"({len(enum_answer)} vs {len(probe_answer)} docs)"
        )

    enum_s = min(
        _timed(lambda: store.list_objects(NAMESPACE, subject, object_type="doc"))
        for _ in range(config["enum_rounds"])
    )
    probe_s = min(
        _timed(probe_list_objects) for _ in range(config["probe_rounds"])
    )
    return {
        "family": family,
        "subject": subject,
        "tuples": len(tuples),
        "entities": len(snapshot.entities),
        "candidate_objects": len(docs),
        "allowed_objects": len(enum_answer),
        "build_s": build_s,
        "enum_s": enum_s,
        "probe_s": probe_s,
        "speedup": probe_s / enum_s,
        "route": store.list_objects(NAMESPACE, subject, object_type="doc").route,
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _post(base: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def http_rows(config: dict[str, int], seed: int = 9) -> dict[str, object]:
    """End-to-end: one expand call vs one batched check over live HTTP."""
    from repro.graphs.generators import random_dag
    from repro.service.engine import ReachabilityService
    from repro.service.server import serve

    tuples = authz_tuples(
        config["users"],
        config["groups"],
        config["objects"],
        seed=seed,
        grants_per_group=config["grants_per_group"],
    )
    store = AuthzStore("TC")
    store.write(NAMESPACE, writes=tuples)
    subject = _hot_subject(store)
    docs = sorted(
        name for name in store.snapshot(NAMESPACE).entity_ids
        if name.startswith("doc:")
    )
    service = ReachabilityService(random_dag(16, 30, seed=1), index="TC")
    server = serve(service, port=0, authz=store)
    server.start_background()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        expand_body = {
            "namespace": NAMESPACE,
            "entity": subject,
            "direction": "objects",
            "type": "doc",
        }
        probe_body = {"namespace": NAMESPACE, "subject": subject, "objects": docs}
        expand = _post(base, "/authz/expand", expand_body)
        probes = _post(base, "/authz/check", probe_body)
        allowed = {doc for doc, ok in zip(docs, probes["allowed"]) if ok}
        if set(expand["names"]) != allowed:
            raise AssertionError("HTTP expand and check-batch disagree")
        expand_s = min(
            _timed(lambda: _post(base, "/authz/expand", expand_body))
            for _ in range(5)
        )
        probe_s = min(
            _timed(lambda: _post(base, "/authz/check", probe_body))
            for _ in range(3)
        )
    finally:
        server.drain(5.0)
    return {
        "subject": subject,
        "candidate_objects": len(docs),
        "allowed_objects": len(allowed),
        "expand_s": expand_s,
        "probe_s": probe_s,
        "speedup": probe_s / expand_s,
    }


def churn_rows(config: dict[str, int], seed: int = 9) -> dict[str, object]:
    """One-tuple writes through the store vs recompiling the namespace."""
    tuples = authz_tuples(
        config["users"],
        config["groups"],
        config["objects"],
        seed=seed,
        grants_per_group=config["grants_per_group"],
    )
    store = AuthzStore("TC")
    store.write(NAMESPACE, writes=tuples)
    patches = global_registry().counter("authz.patches")
    ops = tuple_churn_stream(tuples, config["churn_ops"], seed + 1)
    patched_s: list[float] = []
    recompile_s: list[float] = []
    fallbacks = 0
    # As the stack ledger does: park the benchmark's own inputs where the
    # collector never looks, so a collection inside a timed write scans
    # the store's garbage and not 22k tuple objects.
    gc.collect()
    gc.freeze()
    try:
        for op in ops:
            before = patches.value
            elapsed = _timed(lambda: store.apply_updates(NAMESPACE, [op]))
            if patches.value == before:
                fallbacks += 1  # an orphaning revoke or a cycle-closing grant
                continue
            patched_s.append(elapsed)
            live = store.snapshot(NAMESPACE).tuples
            recompile_s.append(_timed(lambda: _compile_namespace(live)))
    finally:
        gc.unfreeze()

    # the patched store must answer like one compiled from its tuples
    snapshot = store.snapshot(NAMESPACE)
    compiled = AuthzStore("TC")
    compiled.write(NAMESPACE, writes=sorted(snapshot.tuples))
    if set(snapshot.entity_ids) != set(compiled.snapshot(NAMESPACE).entity_ids):
        raise AssertionError("patched and compiled stores know different entities")
    for name in snapshot.entity_ids:
        for ask in (AuthzStore.list_objects, AuthzStore.list_subjects):
            if ask(store, NAMESPACE, name).names != ask(compiled, NAMESPACE, name).names:
                raise AssertionError(f"patched and compiled stores disagree on {name}")

    patched = statistics.median(patched_s)
    recompile = statistics.median(recompile_s)
    return {
        "tuples": len(tuples),
        "entities": len(snapshot.entities),
        "writes": config["churn_ops"],
        "patched_writes": len(patched_s),
        "fallback_writes": fallbacks,
        "patched_write_p50_s": patched,
        "recompile_p50_s": recompile,
        "speedup": recompile / patched,
    }


def _compile_namespace(tuples) -> None:
    """What a write recomputed before patching, through public calls."""
    labeled, _ids, _entities = compile_tuples(sorted(tuples))
    build_plain("TC", labeled.to_plain())


def render(
    rows: list[dict[str, object]], http: dict[str, object], churn: dict[str, object]
) -> str:
    body = [
        (
            str(row["family"]),
            str(row["route"]),
            f"{row['candidate_objects']:,}",
            f"{row['allowed_objects']:,}",
            f"{row['probe_s'] * 1e3:.2f}",
            f"{row['enum_s'] * 1e3:.2f}",
            f"{row['speedup']:.1f}x",
        )
        for row in rows
    ]
    first = rows[0]
    return "\n".join(
        [
            render_table(
                [
                    "family",
                    "route",
                    "candidates",
                    "allowed",
                    "probe (ms)",
                    "enum (ms)",
                    "speedup",
                ],
                body,
                title=(
                    f"CLAIM-S9-AUTHZ: list-objects for {first['subject']} over "
                    f"{first['candidate_objects']:,} docs "
                    f"({first['tuples']:,} tuples, {first['entities']:,} entities)"
                ),
            ),
            "",
            render_table(
                ["metric", "value"],
                [
                    ("expand (one call)", f"{http['expand_s'] * 1e3:.2f} ms"),
                    ("check batch (one call)", f"{http['probe_s'] * 1e3:.2f} ms"),
                    ("speedup", f"{http['speedup']:.1f}x"),
                ],
                title=(
                    f"end-to-end HTTP (TC): {http['candidate_objects']:,} "
                    "candidates, single round trips"
                ),
            ),
            "",
            render_table(
                ["metric", "value"],
                [
                    ("patched write p50", f"{churn['patched_write_p50_s'] * 1e3:.2f} ms"),
                    ("recompile p50", f"{churn['recompile_p50_s'] * 1e3:.2f} ms"),
                    ("speedup", f"{churn['speedup']:.1f}x"),
                    (
                        "routes",
                        f"{churn['patched_writes']} patched, "
                        f"{churn['fallback_writes']} recompiled",
                    ),
                ],
                title=(
                    f"write churn (TC): {churn['writes']} one-tuple writes on "
                    f"{churn['tuples']:,} tuples, {churn['entities']:,} entities"
                ),
            ),
        ]
    )


def headline(
    rows: list[dict[str, object]],
    http: dict[str, object],
    churn: dict[str, object],
    speedup_min: float | None,
) -> dict[str, object]:
    head: dict[str, object] = {}
    for row in rows:
        key = f"list_objects_speedup_{str(row['family']).lower()}"
        value = round(float(row["speedup"]), 2)
        head[key] = value if speedup_min is None else {"value": value, "min": speedup_min}
    head["authz_patch_speedup_x"] = {
        "value": round(float(churn["speedup"]), 2),
        "min": PATCH_SPEEDUP_MIN,
    }
    # Absolute write times are machine- and scale-dependent: unjudged names.
    head["patched_write_p50_time"] = round(float(churn["patched_write_p50_s"]), 6)
    head["recompile_p50_time"] = round(float(churn["recompile_p50_s"]), 6)
    # HTTP latencies depend on the loopback stack and the machine, so the
    # keys deliberately carry no judged suffix: bench_compare reports them
    # without gating.  The portable contracts are the floors above.
    head["http_expand_time"] = round(float(http["expand_s"]), 6)
    head["http_probe_time"] = round(float(http["probe_s"]), 6)
    head["http_speedup_info"] = round(float(http["speedup"]), 2)
    return head


def test_authz_enumeration_speedup(report):
    # family_rows raises if the enumeration and probe arms disagree, so
    # collecting the rows IS the correctness assertion; the >= 5x floor
    # is a full-scale (10^4 candidates) claim gated on the emitted
    # artifact, not at this CI-sized config.
    config = TINY
    rows = [family_rows(config, family) for family in FAMILIES]
    http = http_rows(config)
    churn = churn_rows(config)
    report(render(rows, http, churn))
    routes = {row["family"]: row["route"] for row in rows}
    assert routes == {"TC": "enum_closure", "PLL": "enum_label_join"}
    for row in rows:
        assert row["allowed_objects"] <= row["candidate_objects"]
    assert churn["patched_writes"] > churn["fallback_writes"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true", help="CI-sized run (fewer objects)"
    )
    add_json_argument(parser, "authz")
    args = parser.parse_args(argv)
    config = TINY if args.tiny else FULL

    rows = [family_rows(config, family) for family in FAMILIES]
    http = http_rows(config)
    churn = churn_rows(config)
    print(render(rows, http, churn))

    speedup_min = config["speedup_min"]
    results = {
        "headline": headline(rows, http, churn, speedup_min),
        "families": rows,
        "http": http,
        "churn": churn,
        "config": dict(config),
    }
    path = emit("authz", results, args.json)
    print(f"\nwrote {path}")

    failures = [
        f"{row['family']}: {row['speedup']:.1f}x < {speedup_min}x"
        for row in rows
        if speedup_min is not None and row["speedup"] < speedup_min
    ]
    if churn["speedup"] < PATCH_SPEEDUP_MIN:
        failures.append(
            f"patched write: {churn['speedup']:.1f}x < {PATCH_SPEEDUP_MIN}x"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
