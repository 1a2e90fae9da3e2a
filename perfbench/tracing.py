"""In-memory spans around the benchmark's own calls into the package.

A span is [name, start, end, parent index, request id].  Nothing inside
the package is patched: a span covers one public call as the benchmark
makes it.  A span's self time is its duration minus the time its child
spans cover (children of one span never overlap: the client is
single-threaded and makes one call at a time).
"""

from __future__ import annotations

import json
from time import perf_counter


def untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None

    def __call__(self, name, fn, *args):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def rename_last(self, name: str, prefix: str) -> None:
        """Rename the most recent span called `prefix` (e.g. a query
        span, once its verdict is known)."""
        for span in reversed(self.spans):
            if span[0] == prefix:
                span[0] = name
                return

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def by_name(self) -> dict[str, dict]:
        """name -> {"durations": [s...], "self_s": total self seconds}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, _req) in enumerate(self.spans):
            entry = out.setdefault(name, {"durations": [], "self_s": 0.0})
            entry["durations"].append(end - start)
            entry["self_s"] += end - start - child[i]
        return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, p99: tuple[str, ...] = ()) -> dict[str, float]:
    """calls, ms_p50 and self_s for every span name except the request
    span itself; ms_p99 for the names listed in `p99`."""
    out: dict[str, float] = {}
    for name, entry in tracer.by_name().items():
        if name == "request":
            continue
        durs = entry["durations"]
        out[f"{name}.calls"] = len(durs)
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.ms_p50"] = percentile(durs, 50) * 1e3
        if name in p99:
            out[f"{name}.ms_p99"] = percentile(durs, 99) * 1e3
    return out
