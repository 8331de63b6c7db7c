"""Timed calls into the package, optional in-memory spans, and the per-pass
sums the traced run reports.

A span records one call: its name (``module.function``), start and end on
the ``perf_counter`` clock, the span that caused it and the op it belongs
to.  Spans stay in memory until the run ends; :meth:`Tracer.dump` writes them
as JSON lines.  The benchmark cannot see inside the package, so where one
public function calls another, the inner call is replayed after the outer
one on the same inputs, as a child span; the outer call's self time is its
duration minus its children's.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    def record(self, name, op, parent, replay, start, end, error) -> int:
        self.spans.append({
            "id": len(self.spans),
            "parent": parent,
            "op": op,
            "name": name,
            "replay": replay,
            "start": start,
            "end": end,
            "error": error,
        })
        return len(self.spans) - 1

    def mark(self) -> int:
        """Index of the next span, to cut the span list into passes."""
        return len(self.spans)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def timed_call(tracer, name, op, fn, *args, parent=None, replay=False):
    """Run ``fn(*args)``; return (result, exception or None, seconds, span id).

    Every exception is caught: an op that raises is a failed op, whatever its
    class.  With a tracer the call is also recorded as a span; without one
    the span id is None.
    """
    result, error = None, None
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        error = exc
    t1 = time.perf_counter()
    span = None
    if tracer is not None:
        span = tracer.record(name, op, parent, replay, t0, t1, type(error).__name__ if error else None)
    return result, error, t1 - t0, span


def layer_seconds(spans: list[dict]) -> tuple[dict, dict]:
    """(total seconds, self seconds) per span name over one pass."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] += d
        own[s["name"]] += d - child_time.get(s["id"], 0.0)
    return total, own
