"""The serve phase: a ``repro-serve`` daemon in its own process, driven
over loopback HTTP/1.1 by two closed-loop clients, each with its own
seeded stream of the eight query kinds in ``QUERY_KINDS``, over a
read-only flat store of the day.

Every client holds one persistent connection for a burst of
``BURST_S`` seconds per round.  That is deliberate: the daemon writes a
response's headers and body as two separate sends, and on a kept-alive
connection the second send waits out the client's delayed ACK
(~40 ms).  A fresh connection per request hides that stall (p50 2.5 ms
instead of 44 ms), so a benchmark that reconnected would not see the
cost every real keep-alive client pays.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from pathlib import Path
from urllib.parse import parse_qs, quote, urlsplit

from e2ebench.common import Context, Result, pid_peak_rss_mb
from e2ebench.inputs import load_meta
from e2ebench.spans import (
    END, NAME, PARENT, RUN, START, Tracer, ledger, percentile, self_seconds,
)

#: Client socket timeout; a failed request is recorded at this latency,
#: so it misses every latency limit.
TIMEOUT_S = 10.0
FAILED_MS = TIMEOUT_S * 1000.0
#: Seconds the clients query per round of the run.
BURST_S = 2.5
#: Responses per client kept for the in-process byte-equality check.
SAMPLE_PER_CLIENT = 40

QUERY_KINDS = (
    "rows-in-window", "servers-for-fqdn", "rows-for-domain",
    "unique-servers-per-bin", "fqdn-server-counts", "server-flow-counts",
    "fqdn-flow-byte-totals", "count-by-protocol",
)

_LISTENING = re.compile(r"listening on http://([^:/]+):(\d+)")


def query_path(kind: str, rng: random.Random, meta: dict) -> str:
    """One request of ``kind`` with parameters drawn from ``rng``."""
    if kind == "rows-in-window":
        t0 = rng.uniform(meta["t0"], max(meta["t0"], meta["t1"] - 3600.0))
        return f"/query/rows-in-window?t0={t0:.3f}&t1={t0 + 3600.0:.3f}"
    if kind == "servers-for-fqdn":
        return f"/query/servers-for-fqdn?fqdn={quote(rng.choice(meta['fqdns']))}"
    if kind == "rows-for-domain":
        return f"/query/rows-for-domain?sld={quote(rng.choice(meta['slds']))}"
    if kind == "unique-servers-per-bin":
        sld = quote(rng.choice(meta["slds"]))
        return f"/query/unique-servers-per-bin?sld={sld}&bin=600"
    return f"/query/{kind}"


class Connection:
    """One persistent HTTP/1.1 connection; errors are failures, and the
    next request reconnects."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)

    def request(self, method: str, path: str, body: bytes | None = None):
        """``(status, body)``; status is None when the transport failed."""
        try:
            self._conn.request(method, path, body=body)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            return None, b""

    def close(self) -> None:
        self._conn.close()


class Daemon:
    """A ``repro-serve`` process (or the traced host) over ``store``."""

    def __init__(self, ctx: Context, store: Path, spans: Path | None = None):
        serve_args = [str(store), "--port", "0"]
        if spans is None:
            command = ["-m", "repro.serve.cli", *serve_args]
        else:
            command = ["-m", "e2ebench.servehost", "--spans", str(spans),
                       "--", *serve_args]
        self.log = ctx.work / f"daemon-{time.monotonic_ns()}.log"
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, *command], cwd=ctx.root, env=ctx.env(),
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        try:
            self.host, self.port = self._await_listening()
            self._await_health()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _LISTENING.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        raise RuntimeError(
            f"daemon did not start: {self.log.read_text()[-2000:]}"
        )

    def _await_health(self) -> None:
        conn = Connection(self.host, self.port)
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if conn.request("GET", "/health")[0] == 200:
                    return
                time.sleep(0.01)
            raise RuntimeError("daemon never answered /health")
        finally:
            conn.close()

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def counters(self) -> dict[str, float]:
        """``/metrics`` samples summed over labels, by metric name."""
        conn = self.connect()
        try:
            status, body = conn.request("GET", "/metrics")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        out: dict[str, float] = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                name = name.split("{", 1)[0]
                out[name] = out.get(name, 0.0) + float(value)
        return out

    def stop(self) -> None:
        """SIGTERM (the daemon seals its store and exits) and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def _warm(daemon: Daemon, meta: dict) -> None:
    """One request of every kind: the set-up's warm pass."""
    conn = daemon.connect()
    rng = random.Random(0)
    try:
        for kind in QUERY_KINDS:
            status, _ = conn.request("GET", query_path(kind, rng, meta))
            if status != 200:
                raise RuntimeError(f"warm {kind} answered {status}")
    finally:
        conn.close()


class Recorder:
    """Per-operation outcomes of one client: latency (failed =
    ``FAILED_MS``), failures, and ``(path, body)`` samples for the
    check."""

    def __init__(self):
        self.latency_ms: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.samples: list[tuple[str, bytes]] = []

    def add(self, kind: str, ms: float, status: int | None) -> None:
        ok = status == 200
        self.latency_ms.append(ms if ok else FAILED_MS)
        if not ok:
            self.failed += 1
            self.failures.append(f"{kind}: status {status}")


def _query_loop(conn: Connection, rng: random.Random, kinds, meta: dict,
                stop_at: float, record: Recorder,
                tracer: Tracer | None = None) -> None:
    """Closed loop: the next request goes out when the previous one is
    answered, until ``stop_at``."""
    sample_rng = random.Random(rng.random())
    while time.perf_counter() < stop_at:
        kind = rng.choice(kinds)
        path = query_path(kind, rng, meta)
        span = tracer.begin("serve.server.http") if tracer else None
        started = time.perf_counter()
        status, body = conn.request("GET", path)
        elapsed = time.perf_counter() - started
        if tracer:
            tracer.end(span)
        record.add(kind, elapsed * 1000.0, status)
        if (status == 200 and len(record.samples) < SAMPLE_PER_CLIENT
                and sample_rng.random() < 0.25):
            record.samples.append((path, body))


def check_samples(samples, handle) -> list[str]:
    """Problems where an HTTP body differs from ``handle``'s payload
    for the same request (``handle`` is ``ServeApp.handle``)."""
    problems = []
    for path, body in samples:
        split = urlsplit(path)
        status, _ctype, payload, _headers = handle(
            "GET", split.path, parse_qs(split.query, keep_blank_values=True)
        )
        if status != 200 or payload != body:
            problems.append(f"{path}: HTTP body differs from in-process answer")
    return problems


def _in_process_handle(store_dir: Path):
    from repro.analytics.storage import FlowStore
    from repro.serve.server import ServeApp

    store = FlowStore(store_dir, wal=False)
    return ServeApp(store).handle, store


def _drive(daemon: Daemon, rngs, records, seconds: float,
           meta: dict, tracer: Tracer | None = None) -> float:
    """Both clients, each on a new persistent connection, for
    ``seconds``; returns the elapsed wall time."""
    conns = [daemon.connect() for _ in records]
    started = time.perf_counter()
    stop_at = started + seconds
    threads = [
        threading.Thread(target=_query_loop, args=(
            conn, rng, QUERY_KINDS, meta, stop_at, record, tracer))
        for conn, rng, record in zip(conns, rngs, records)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    for conn in conns:
        conn.close()
    return elapsed


class Serve:
    """The serve phase of one run over ``inputs/flat``."""

    def __init__(self, ctx: Context, inputs):
        self.ctx = ctx
        self.meta = load_meta(inputs)
        self.store = ctx.work / "flat"
        shutil.copytree(inputs / "flat", self.store)
        self.daemon = None
        self.rngs = [random.Random(ctx.seed * 1000 + index)
                     for index in range(2)]
        self.records = [Recorder() for _ in self.rngs]
        self.elapsed = 0.0

    def start(self) -> None:
        """Set-up: start the daemon until ``/health`` answers, then one
        request of every kind."""
        self.daemon = Daemon(self.ctx, self.store)
        _warm(self.daemon, self.meta)

    def step(self) -> None:
        self.elapsed += _drive(self.daemon, self.rngs, self.records,
                               min(BURST_S, self.ctx.seconds), self.meta)

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def finish(self, result: Result) -> None:
        records = self.records
        latencies = [ms for record in records for ms in record.latency_ms]
        failed = sum(record.failed for record in records)
        result.report.extend(
            f"serve failed: {failure}" for record in records
            for failure in record.failures[:5]
        )
        result.metric("query_p50_ms", percentile(latencies, 50), "ms")
        result.metric("query_p99_ms", percentile(latencies, 99), "ms")
        result.metric("query_per_s", (len(latencies) - failed) / self.elapsed,
                      "queries/s")
        result.count(len(latencies), failed)
        handle, in_process = _in_process_handle(self.store)
        try:
            samples = [s for r in records for s in r.samples]
            result.check(check_samples(samples, handle))
        finally:
            in_process.close()
        result.report.append(
            f"serve: {len(latencies)} queries in {self.elapsed:.2f} s on 2 "
            f"persistent connections per burst, {failed} failed; "
            f"{len(samples)} responses checked byte-equal to in-process "
            f"ServeApp.handle"
        )

    def traced(self, result: Result) -> None:
        """A quarter of the run's seconds untraced against
        ``repro-serve``, a quarter against the traced host, same load;
        the difference in mean request latency is the tracing
        overhead."""
        half = self.ctx.seconds / 4.0
        self.start()
        try:
            plain = [Recorder() for _ in self.rngs]
            _drive(self.daemon, self.rngs, plain, half, self.meta)
        finally:
            self.stop()

        spans_file = self.ctx.work / "host-spans.json"
        self.daemon = Daemon(self.ctx, self.store, spans_file)
        tracer = Tracer(run_id=self.ctx.seed)
        traced = [Recorder() for _ in self.rngs]
        try:
            _warm(self.daemon, self.meta)
            before = self.daemon.counters()
            _drive(self.daemon, self.rngs, traced, half, self.meta, tracer)
            after = self.daemon.counters()
        finally:
            self.stop()
        host = json.loads(spans_file.read_text())
        spans = attach(tracer.spans, host["spans"])
        tracer.spans = spans
        tracer.dump(self.ctx.state / f"spans-{self.ctx.workload}-serve-"
                    f"{self.ctx.seed}.json")

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        own = self_seconds(spans)

        def self_s(name: str) -> float:
            return own.get(name, 0.0)

        result.metric("serve.server.handle_s", self_s("serve.server.handle"),
                      "s")
        result.metric("serve.server.http_s", self_s("serve.server.http"), "s")
        result.metric("serve.server.coalesced",
                      delta("serve_coalesced_total"), "count")
        result.metric("analytics.storage.pin_s",
                      self_s("analytics.storage.pin"), "s")
        for kind in QUERY_KINDS:
            method = kind.replace("-", "_")
            result.metric(f"analytics.storage.query_s.{method}",
                          self_s(f"analytics.storage.query.{method}"), "s")
        result.metric("analytics.storage.segments_scanned",
                      delta("flowstore_segments_scanned_total"), "count")
        result.metric("analytics.storage.segments_pruned",
                      delta("flowstore_segments_pruned_total"), "count")
        requests = [s for s in spans if s[PARENT] < 0]
        result.ledgers.append(("serve", ledger(spans),
                               sum(s[END] - s[START] for s in requests)))
        plain_ms = [ms for r in plain for ms in r.latency_ms]
        traced_ms = [ms for r in traced for ms in r.latency_ms]
        result.count(len(plain_ms) + len(traced_ms),
                     sum(r.failed for r in plain + traced))
        mean_plain = sum(plain_ms) / len(plain_ms)
        mean_traced = sum(traced_ms) / len(traced_ms)
        result.report.append(
            f"serve: tracing overhead: mean request {mean_traced:.3f} ms "
            f"traced vs {mean_plain:.3f} ms untraced "
            f"({mean_traced - mean_plain:+.3f} ms, "
            f"{mean_traced / mean_plain - 1:+.1%}); {len(requests)} traced "
            f"requests; counters that read 0 under this load: "
            f"serve.admission.shed {delta('serve_shed_total'):g}, "
            f"serve.admission.queued {host['counts'].get('queued', 0)}"
        )


# -- traced runs ------------------------------------------------------------


def attach(client_spans: list, host_spans: list) -> list:
    """One span list: each host root span becomes the child of the
    client request span that encloses it in time (both processes read
    the same monotonic clock), preferring a request that has no host
    span yet, since each request is handled once; host roots outside
    every request (the harness's own ``/metrics`` scrapes) are dropped
    with their subtrees."""
    merged = [list(span) for span in client_spans]
    requests = sorted(
        (span[START], span[END], index)
        for index, span in enumerate(client_spans) if span[PARENT] < 0
    )
    starts = [start for start, _end, _index in requests]
    handled: set[int] = set()
    remap: dict[int, int] = {}
    for index, span in enumerate(host_spans):
        parent = span[PARENT]
        if parent >= 0:
            if parent not in remap:
                continue
            new_parent = remap[parent]
        else:
            enclosing = []
            pos = bisect_right(starts, span[START]) - 1
            # Clients overlap in time, so look back past requests that
            # ended before this span began.
            while pos >= 0 and span[START] - requests[pos][0] <= TIMEOUT_S:
                start, end, request = requests[pos]
                if span[END] <= end:
                    enclosing.append(request)
                pos -= 1
            if not enclosing:
                continue
            free = [request for request in enclosing
                    if request not in handled]
            new_parent = (free or enclosing)[0]
            handled.add(new_parent)
        remap[index] = len(merged)
        merged.append([span[NAME], span[START], span[END], new_parent,
                       span[RUN]])
    return merged
