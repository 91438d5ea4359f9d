"""Run one workload of the wire-to-answer benchmark and check it.

Usage, from the repository root::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs the whole monitor over one vantage point's day:
capture (pcap to durable store), serve (HTTP queries to a
``repro-serve`` daemon) and sweep (aggregations over a sharded store).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run and prints each phase's per-layer ledger and
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads, metrics and
layers are described in ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from e2ebench.common import (  # noqa: E402
    SETUP_REPS, WORKLOADS, Context, Result, own_peak_rss_mb,
)
from e2ebench.serve import QUERY_KINDS, Serve  # noqa: E402
from e2ebench.spans import median, print_ledger  # noqa: E402
from e2ebench.sweep import AGGREGATIONS, Sweep  # noqa: E402
from e2ebench.wire import Capture  # noqa: E402

#: The monitor's phases, in the order a round runs them.
PHASES = (Capture, Serve, Sweep)

#: What every run reports: the end-to-end metrics when untraced, the
#: per-layer ones when traced.  A run that misses one fails.
END_TO_END = (
    "setup_s", "wire_pkts_per_s", "labeled_flow_ratio", "query_p50_ms",
    "query_p99_ms", "query_per_s", "sweep_s", "store_bytes_per_row",
    "peak_rss_mb",
)
PER_LAYER = (
    "net.pcap.read_s", "net.pcap.records",
    "net.packet.decode_s",
    "sniffer.flow_sniffer.feed_s", "sniffer.flow_sniffer.flows",
    "sniffer.dns_sniffer.feed_s", "sniffer.dns_sniffer.responses",
    "sniffer.resolver.hit_ratio",
    "sniffer.tagger.tag_s", "sniffer.tagger.labeled",
    "sniffer.eventcodec.encode_s", "sniffer.eventcodec.bytes",
    "analytics.storage.ingest_s", "analytics.storage.seal_s",
    "analytics.storage.seals", "analytics.storage.bytes_on_disk",
    "analytics.storage.pin_s",
) + tuple(
    "analytics.storage.query_s." + kind.replace("-", "_")
    for kind in QUERY_KINDS
) + (
    "analytics.storage.segments_scanned", "analytics.storage.segments_pruned",
) + tuple(
    f"analytics.shard.query_s.{name}" for name in AGGREGATIONS
) + (
    "analytics.shard.flat_ratio",
    "serve.server.handle_s", "serve.server.http_s", "serve.server.coalesced",
)


def _timed(ctx: Context, result: Result) -> None:
    """Set up every phase ``SETUP_REPS`` times (``setup_s`` is the
    median), warm the shard workers, then run rounds of every phase
    until the run's seconds are used, so each phase samples the whole
    run."""
    inputs = ctx.inputs()
    phases = [phase(ctx, inputs) for phase in PHASES]
    _, serve, sweep = phases
    try:
        setups = []
        for rep in range(SETUP_REPS):
            for phase in phases if rep else ():
                phase.stop()
            started = time.perf_counter()
            for phase in phases:
                phase.start()
            setups.append(time.perf_counter() - started)
        sweep.warm()
        rounds = 0
        deadline = time.perf_counter() + ctx.seconds
        while not rounds or time.perf_counter() < deadline:
            for phase in phases:
                phase.step()
            rounds += 1
        peak = own_peak_rss_mb() + serve.peak_rss_mb() + sweep.peak_rss_mb()
    finally:
        for phase in phases:
            phase.stop()
    result.metric("setup_s", median(setups), "s")
    result.metric("peak_rss_mb", peak, "MB")
    result.report.append(
        f"{rounds} rounds; set-ups " + ", ".join(f"{t:.3f}" for t in setups)
        + " s"
    )
    for phase in phases:
        phase.finish(result)


def _traced(ctx: Context, result: Result) -> None:
    """Each phase's traced run, one after the other."""
    inputs = ctx.inputs()
    for kind in PHASES:
        phase = kind(ctx, inputs)
        try:
            phase.traced(result)
        finally:
            phase.stop()


def run_workload(ctx: Context) -> Result:
    """Run ``ctx.workload``; its result carries exactly the promised
    metrics (``END_TO_END`` untraced, ``PER_LAYER`` traced)."""
    result = Result()
    try:
        (_traced if ctx.trace else _timed)(ctx, result)
    finally:
        ctx.cleanup()
    promised = PER_LAYER if ctx.trace else END_TO_END
    missing = sorted(set(promised) - set(result.metrics))
    if missing:
        raise RuntimeError(f"{ctx.workload} reported no {', '.join(missing)}")
    result.metrics = {metric: result.metrics[metric] for metric in promised}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an error, so every phase stops the daemon
    # and shard workers it started before the process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ctx = Context(root=ROOT, state=ROOT / ".e2ebench",
                  workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace))
    result = run_workload(ctx)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if ctx.trace else 'untraced'}")
    for line in result.report:
        print(line)
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"  {name:42s} {value:14.6g} {unit}")
    for phase, rows, wall_s in result.ledgers:
        print(f"ledger of the {phase} phase")
        print_ledger(rows, wall_s, sys.stdout)
    for problem in result.errors:
        print(f"CHECK FAILED: {problem}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result.metrics.items()
    }
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
