"""Input generator with a per-seed cache.

For a workload's vantage point (a trace profile and its client count)
and a seed, the generator builds the simulated day and cuts it to its
first ``DAY_FLOWS`` flows, so every seed yields stores of the same row
count and one capture pass stays a couple of seconds long.  From that
day it renders:

* ``day.pcap`` — the day as a classic pcap (the capture phase);
* ``flat/`` — a flat FlowStore of the day's flows, labeled by
  ``SnifferPipeline``'s event path and ingested as 256-row eventcodec
  batches, sealed into ``FLAT_SEGMENTS`` time-ordered segments (the
  serve phase);
* ``sharded/shards/`` — the same rows as a 2-shard ShardCoordinator
  store, and ``sharded/shardflat/``, a flat store of the same rows in
  shard-major order, the oracle of the sweep phase's check;
* ``meta.json`` — the row count, time span and label pools the query
  generators draw from.

Rendering is kept out of every timed window: the benchmark calls
:func:`ensure` in a child process (``python -m e2ebench.inputs``), so
the generator's memory does not count towards the system's peak RSS
either.  A seed is rendered whole (~13 s for ``EU1-ADSL2-24H``), into
a temporary directory renamed into place: an interrupted render never
leaves a half-written input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys
from pathlib import Path

#: Rows of every seed's day.  Tests shrink it.
DAY_FLOWS = 12_000
#: Rows per eventcodec batch the stores are built from.
BATCH_ROWS = 256
#: Sealed segments of the flat store the daemon serves.
FLAT_SEGMENTS = 16
SHARDS = 2
#: Rendered (workload, seed) inputs kept cached (~33 MB each); older
#: ones are evicted.
CACHED_SEEDS = 12
_CACHE_VERSION = 3


def cache_dir(root: Path, profile: str, clients: int, seed: int,
              day_flows: int = DAY_FLOWS) -> Path:
    """Directory holding the rendered inputs of ``seed``."""
    return (
        Path(root) / "cache"
        / f"v{_CACHE_VERSION}-{profile}-{clients}c-{day_flows}f-seed{seed}"
    )


def build_day(profile: str, clients: int, seed: int,
              day_flows: int = DAY_FLOWS):
    """The simulated day of trace ``profile`` with ``clients`` clients
    and ``seed``, cut to its first ``day_flows`` flows."""
    from repro.net.flow import FlowRecord
    from repro.simulation.trace import TRACE_PROFILES, build_trace

    name = profile
    if clients != TRACE_PROFILES[profile].n_clients:
        name = f"{profile}-x{clients}"
        TRACE_PROFILES.setdefault(name, dataclasses.replace(
            TRACE_PROFILES[profile], name=name, n_clients=clients
        ))
    trace = build_trace(name, seed=seed)
    flows = 0
    for cut, event in enumerate(trace.events):
        if event.__class__ is FlowRecord:
            flows += 1
            if flows == day_flows:
                break
    if flows < day_flows:
        raise RuntimeError(
            f"seed {seed}: day has {flows} flows, fewer than {day_flows}"
        )
    events = trace.events[:cut + 1]
    return dataclasses.replace(
        trace,
        events=events,
        observations=[e for e in events if e.__class__ is not FlowRecord],
        flows=[e for e in events if e.__class__ is FlowRecord],
    )


def _render(trace, out: Path) -> None:
    """Every input of one day, into the empty directory ``out``."""
    from repro.analytics.database import FlowDatabase
    from repro.analytics.shard import ShardCoordinator
    from repro.analytics.storage import FlowStore
    from repro.net.pcap import write_pcap
    from repro.sniffer.pipeline import SnifferPipeline

    write_pcap(str(out / "day.pcap"), trace.to_packets())
    pipeline = SnifferPipeline(clist_size=200_000)
    pipeline.process_trace(trace)
    payloads = pipeline.emit_tagged_batches(BATCH_ROWS)

    rows = len(pipeline.tagged_flows)
    with FlowStore(out / "flat", spill_rows=math.ceil(rows / FLAT_SEGMENTS),
                   wal=False) as store:
        for payload in payloads:
            store.ingest_batch(payload)

    parts: list[list[bytes]] = [[] for _ in range(SHARDS)]
    with ShardCoordinator(out / "sharded" / "shards", shards=SHARDS,
                          wal=False) as coordinator:
        for payload in payloads:
            coordinator.ingest_batch(payload)
            for index, part in enumerate(
                    coordinator.router.split_batch(payload)):
                parts[index].append(part)
    with FlowStore(out / "sharded" / "shardflat", wal=False) as flat:
        for part in parts:
            for payload in part:
                flat.ingest_batch(payload)

    db = FlowDatabase()
    for payload in payloads:
        db.ingest_batch(payload)
    t0, t1 = db.time_span()
    (out / "meta.json").write_text(json.dumps({
        "rows": len(db), "t0": t0, "t1": t1,
        "fqdns": sorted(db.fqdns()), "slds": sorted(db.slds()),
    }))


def ensure(root: Path, profile: str, clients: int, seed: int,
           day_flows: int = DAY_FLOWS) -> Path:
    """Render ``seed``'s inputs unless cached; return their directory."""
    directory = cache_dir(root, profile, clients, seed, day_flows)
    if not directory.is_dir():
        tmp = directory.with_name(f".tmp-{directory.name}-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        _render(build_day(profile, clients, seed, day_flows), tmp)
        os.replace(tmp, directory)
    os.utime(directory)
    _evict(directory.parent)
    return directory


def _evict(cache: Path) -> None:
    """Drop the least recently used seeds beyond ``CACHED_SEEDS``."""
    seeds = sorted(
        (path for path in cache.iterdir() if not path.name.startswith(".")),
        key=lambda path: path.stat().st_mtime,
    )
    for stale in seeds[:-CACHED_SEEDS]:
        shutil.rmtree(stale, ignore_errors=True)


def load_meta(directory: Path) -> dict:
    return json.loads((Path(directory) / "meta.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--profile", required=True)
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--flows", type=int, default=DAY_FLOWS)
    args = parser.parse_args(argv)
    print(ensure(Path(args.root), args.profile, args.clients, args.seed,
                 args.flows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
