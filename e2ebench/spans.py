"""In-memory spans, self-time arithmetic, the per-layer ledger, and the
percentile rule every latency metric of the benchmark uses.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the
index of the enclosing span in the same list (-1 for a root) and
``run_id`` ties the spans of one traced run together.  Spans are
recorded around calls into the system's public functions, from the
benchmark's own files; nothing inside ``src/`` is instrumented.
A layer's *self time* is the duration of its spans minus the part of
each span that its child spans cover.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Record nested spans in memory; each thread nests its own spans."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1], self.run_id]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or instance attribute) with
        its traced version."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def dump(self, path) -> None:
        """Write the spans as JSON (one list per span)."""
        Path(path).write_text(json.dumps(self.spans))


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus the part of it that
    its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - _covered(children.get(index, []), span[START], span[END])
        for index, span in enumerate(spans)
    ]


def layer_of(name: str) -> str:
    """``net.pcap.read`` -> ``net.pcap``: a span's layer is its module
    (the first two components of the span name)."""
    return ".".join(name.split(".")[:2])


def ledger(spans: list[list], key=layer_of) -> dict[str, dict]:
    """Per-layer ``{"self_s", "count", "share"}`` over ``spans``.

    ``share`` is the layer's self time over the summed duration of the
    root spans (the traced wall time).  Because every span's time is
    split between itself and its children, the self times of all
    layers sum to that wall time.
    """
    selfs = self_times(spans)
    wall = sum(
        span[END] - span[START] for span in spans if span[PARENT] < 0
    )
    rows: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        row = rows.setdefault(key(span[NAME]), {"self_s": 0.0, "count": 0})
        row["self_s"] += own
        row["count"] += 1
    for row in rows.values():
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    return rows


def self_seconds(spans: list[list]) -> dict[str, float]:
    """Self seconds per span name (finer than the ledger's layers)."""
    return {
        name: row["self_s"]
        for name, row in ledger(spans, key=lambda name: name).items()
    }


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it.

    Failed operations are passed in as ``math.inf``: they miss every
    latency limit, so they sort above every success and a percentile
    that reaches them is infinite.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return percentile(values, 50.0)


def print_ledger(rows: dict[str, dict], wall_s: float, out) -> None:
    """The traced per-layer ledger as a table, largest self time first."""
    print(f"{'layer':34s} {'self_s':>10s} {'share':>7s} {'count':>9s}",
          file=out)
    for layer, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{layer:34s} {row['self_s']:10.4f} {row['share']:7.1%} "
              f"{row['count']:9d}", file=out)
    total = sum(row["self_s"] for row in rows.values())
    print(f"{'(sum of self times)':34s} {total:10.4f} "
          f"{(total / wall_s if wall_s else 0.0):7.1%}   "
          f"traced wall {wall_s:.4f} s", file=out)
