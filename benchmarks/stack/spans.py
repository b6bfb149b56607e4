"""Harness-side spans: one record per call at a layer boundary.

Recorded from the benchmark's own files, around the calls into each layer
(spans *inside* the program are a later change).  Kept in memory, written
out once at exit.  A span's parent is the next-outer boundary of the same
request id, so a layer's self time is its span minus its child's.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


class SpanLog:
    def __init__(self) -> None:
        self._spans: list[tuple[str, str, str | None, float, float]] = []

    def record(self, request_id: str, name: str, parent: str | None, start: float, end: float) -> None:
        self._spans.append((request_id, name, parent, start, end))

    def __len__(self) -> int:
        return len(self._spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as sink:
            for request_id, name, parent, start, end in self._spans:
                sink.write(
                    json.dumps(
                        {
                            "request": request_id,
                            "name": name,
                            "parent": parent,
                            "start_us": round(start * 1e6, 3),
                            "end_us": round(end * 1e6, 3),
                        }
                    )
                    + "\n"
                )

    def self_times(self, chain: tuple[str, ...]) -> dict[str, float]:
        """Mean self time (s) per layer of one boundary chain, innermost
        first, over the requests that were replayed at every boundary of it
        (which leaves out the service pass's own single-boundary spans).
        Self times may be negative: a cache hit at an outer boundary is
        cheaper than the traversal it saved at the inner one."""
        by_request: dict[str, dict[str, float]] = {}
        for request_id, name, _parent, start, end in self._spans:
            if name in chain:
                by_request.setdefault(request_id, {})[name] = end - start
        complete = [d for d in by_request.values() if len(d) == len(chain)]
        if not complete:
            return {}
        means = {name: statistics.fmean(d[name] for d in complete) for name in chain}
        out = {}
        inner = 0.0
        for name in chain:
            out[name] = means[name] - inner
            inner = means[name]
        out["outermost"] = inner
        return out
