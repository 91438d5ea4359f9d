"""The sweep phase: the grouped-aggregation sweep over a 2-shard store.

The day's rows, persisted as 2 client-routed shards, are opened with
``ShardCoordinator(dir, backend="process")`` (one worker process per
shard).  One sweep runs the eight aggregations of the
``flowdb_sharded_query`` bench at every width of ``BIN_WIDTHS``;
``SWEEPS_PER_ROUND`` sweeps run per round of the run.  The answers
must be bit-identical to a flat FlowStore holding the same rows in
shard-major order.

``sweep_s`` is the median sweep's critical-path CPU time: the
coordinator's CPU seconds plus those of the busier shard worker, the
time the sweep takes on two otherwise idle cores.  Its wall time is
reported beside it but is not the metric: each sweep makes about 50
round trips to the workers, and on a 2-vCPU VM of a shared machine
(Intel Xeon, 2.1 GHz) a wake-up of an idle vCPU can wait on the
host.  Over 150 s of 8-sweep blocks on one store, the blocks' wall
time varied with a coefficient of variation of 0.17 and their CPU
time with 0.06, the wall time rising by up to 80% for a minute at a
time.
"""

from __future__ import annotations

import multiprocessing
import shutil
import time
from pathlib import Path

from e2ebench.common import Context, Result, pid_peak_rss_mb
from e2ebench.spans import Tracer, ledger, median, self_seconds

SWEEPS_PER_ROUND = 8
BIN_WIDTHS = (300.0, 900.0, 3600.0)
AGGREGATIONS = (
    "fqdn_server_counts", "fqdn_client_counts", "fqdn_flow_byte_totals",
    "server_flow_counts", "fqdn_bin_pairs", "server_fqdn_bin_triples",
    "fqdn_first_seen", "sld_flow_stats",
)


def run_sweep(db, widths=BIN_WIDTHS) -> list:
    """The eight aggregations at every bin width, answers in order."""
    out = []
    for width in widths:
        out.append(db.fqdn_server_counts())
        out.append(db.fqdn_client_counts())
        out.append(db.fqdn_flow_byte_totals())
        out.append(db.server_flow_counts())
        out.append(db.fqdn_bin_pairs(width))
        out.append(db.server_fqdn_bin_triples(width))
        out.append(db.fqdn_first_seen())
        out.append(db.sld_flow_stats(db.tagged_rows()))
    return out


def check_answers(answers: list, oracle: list) -> list[str]:
    """Problems where the coordinator's answers differ from the flat
    oracle's (compared exactly: bit-identical is the contract)."""
    if len(answers) != len(oracle):
        return [f"{len(answers)} answers, oracle has {len(oracle)}"]
    return [
        f"{AGGREGATIONS[i % len(AGGREGATIONS)]} at width "
        f"{BIN_WIDTHS[i // len(AGGREGATIONS)]:g} differs from the flat store"
        for i, (got, want) in enumerate(zip(answers, oracle)) if got != want
    ]


def cpu_seconds(pid: int) -> float:
    """CPU seconds so far of every thread of process ``pid``."""
    return sum(
        int(stat.read_text().split()[0])
        for stat in Path(f"/proc/{pid}/task").glob("*/schedstat")
    ) / 1e9


def _open(directory):
    from repro.analytics.shard import ShardCoordinator

    return ShardCoordinator(directory, backend="process")


def _flat_oracle(directory):
    from repro.analytics.storage import FlowStore

    return FlowStore(directory, wal=False)


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


class Sweep:
    """The sweep phase of one run over ``inputs/sharded``."""

    def __init__(self, ctx: Context, inputs):
        self.ctx = ctx
        self.inputs = inputs / "sharded"
        self.shards = ctx.work / "shards"
        shutil.copytree(self.inputs / "shards", self.shards)
        self.coordinator = None
        self.workers: list[int] = []
        self.times: list[float] = []
        self.walls: list[float] = []
        self.sweeps = 0
        self.first = None
        self.differing = 0

    def start(self) -> None:
        """Set-up: open the coordinator (spawning its shard workers)
        and sweep once at one width."""
        self.coordinator = _open(self.shards)
        run_sweep(self.coordinator, BIN_WIDTHS[:1])
        # The backend spawns its workers on the first query.
        self.workers = [p.pid for p in multiprocessing.active_children()]
        if len(self.workers) != 2:
            raise RuntimeError(f"expected 2 shard workers, found "
                               f"{len(self.workers)}")

    def _sweep(self) -> tuple[float, float]:
        """One sweep, compared with the first; returns its wall time
        and its critical-path CPU time."""
        workers = [cpu_seconds(pid) for pid in self.workers]
        own = time.process_time()
        started = time.perf_counter()
        answers = run_sweep(self.coordinator)
        wall = time.perf_counter() - started
        own = time.process_time() - own
        busiest = max(cpu_seconds(pid) - before
                      for pid, before in zip(self.workers, workers))
        self.sweeps += 1
        if self.first is None:
            self.first = answers
        elif answers != self.first:
            self.differing += 1
        return wall, own + busiest

    def warm(self) -> None:
        """Untimed sweeps: the first sweeps of fresh shard workers run
        up to 2x slower than later ones."""
        for _ in range(SWEEPS_PER_ROUND):
            self._sweep()

    def step(self) -> None:
        for _ in range(SWEEPS_PER_ROUND):
            wall, critical = self._sweep()
            self.walls.append(wall)
            self.times.append(critical)

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the shard workers."""
        return sum(pid_peak_rss_mb(pid) for pid in self.workers)

    def stop(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None

    def finish(self, result: Result) -> None:
        flat = _flat_oracle(self.inputs / "shardflat")
        try:
            problems = check_answers(self.first, run_sweep(flat))
        finally:
            flat.close()
        # A wrong first sweep fails every sweep that repeated it.
        failed = self.sweeps - self.differing if problems \
            else self.differing
        if self.differing:
            problems.append(
                f"{self.differing} sweeps disagree with the first sweep")
        result.check(problems)
        result.count(self.sweeps, failed)
        result.metric("sweep_s", median(self.times), "s")
        result.report.append(
            f"sweep: {len(self.times)} timed sweeps (of {self.sweeps}) of "
            f"{len(AGGREGATIONS)} aggregations x {len(BIN_WIDTHS)} bin "
            f"widths on 2 shard workers, median wall time "
            f"{median(self.walls):.4f} s; answers checked bit-identical to "
            f"the shard-major flat store"
        )

    def traced(self, result: Result) -> None:
        flat = _flat_oracle(self.inputs / "shardflat")
        try:
            run_sweep(flat)
            flat_s = median([_timed(lambda: run_sweep(flat))
                             for _ in range(3)])
            oracle = run_sweep(flat)
        finally:
            flat.close()
        self.start()
        try:
            coordinator = self.coordinator
            untraced_s = median(
                [_timed(lambda: run_sweep(coordinator)) for _ in range(3)]
            )
            tracer = Tracer(run_id=self.ctx.seed)
            for name in AGGREGATIONS + ("tagged_rows",):
                tracer.patch(coordinator, name,
                             f"analytics.shard.query.{name}")
            root = tracer.begin("bench.harness")
            answers = run_sweep(coordinator)
            tracer.end(root)
        finally:
            self.stop()
        traced_s = tracer.spans[root][2] - tracer.spans[root][1]
        tracer.dump(self.ctx.state / f"spans-{self.ctx.workload}-sweep-"
                    f"{self.ctx.seed}.json")
        problems = check_answers(answers, oracle)
        result.check(problems)
        result.count(1, 1 if problems else 0)

        own = self_seconds(tracer.spans)
        for name in AGGREGATIONS:
            result.metric(f"analytics.shard.query_s.{name}",
                          own.get(f"analytics.shard.query.{name}", 0.0), "s")
        result.metric("analytics.shard.flat_ratio", untraced_s / flat_s,
                      "ratio")
        result.ledgers.append(("sweep", ledger(tracer.spans), traced_s))
        result.report.append(
            f"sweep: tracing overhead: traced sweep {traced_s:.4f} s vs "
            f"untraced {untraced_s:.4f} s ({traced_s - untraced_s:+.4f} s); "
            f"flat store sweep {flat_s:.4f} s"
        )
