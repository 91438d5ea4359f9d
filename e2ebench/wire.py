"""The capture phase: one simulated day, pcap bytes to sealed store.

Untraced, the day goes through the capture entry point,
``repro.sniffer.cli.sniff_pcap(path, flow_store=DIR)`` + ``close()``
(WAL and fsync on, default spill), one pass per round of the run.
``wire_pkts_per_s`` is the throughput three passes in four reach: the
packets over the 75th-percentile pass time.  On a 2-vCPU VM of a
shared machine (Intel Xeon, 2.1 GHz) the speed alternates between a
usual one and stretches up to 1.8x faster; the median pass follows
the share of a run that fell in a fast stretch, the slower quartile
much less (quartile spread across runs, over a set of ten and one of
six, 0.054 and 0.105 against the median's 0.101 and 0.144).

Traced, the same packets stream through the public components that
pipeline wires together, each call inside a span, and the resulting
store must equal the untraced one row for row.
"""

from __future__ import annotations

import shutil
import time
from collections import Counter
from itertools import islice

from e2ebench.common import Context, Result
from e2ebench.spans import Tracer, ledger, median, percentile, self_seconds

#: Frames of the set-up's warm pass (the head of the day's capture).
WARM_PACKETS = 4000
#: The pipeline's drain cadence (``SnifferPipeline.batch_events``).
BATCH_EVENTS = 8192


def _write_warm_pcap(day, path) -> None:
    from repro.net.pcap import PcapReader, write_pcap

    with open(day, "rb") as handle:
        reader = PcapReader(handle)
        write_pcap(str(path), islice(reader, WARM_PACKETS),
                   linktype=reader.linktype)


def _count_records(path) -> int:
    from repro.net.pcap import PcapReader

    with open(path, "rb") as handle:
        return sum(1 for _ in PcapReader(handle))


def sniff_to_store(pcap, directory) -> float:
    """One untraced pass; returns its wall time in seconds."""
    from repro.sniffer.cli import sniff_pcap

    started = time.perf_counter()
    pipeline = sniff_pcap(str(pcap), flow_store=str(directory))
    pipeline.close()
    return time.perf_counter() - started


def reference_flows(pcap) -> list:
    """The in-memory oracle: a store-less SnifferPipeline over the pcap."""
    from repro.net.packet import PacketDecodeError, decode_frame
    from repro.net.pcap import LINKTYPE_ETHERNET, PcapReader
    from repro.sniffer.pipeline import SnifferPipeline

    def packets():
        with open(pcap, "rb") as handle:
            reader = PcapReader(handle)
            ethernet = reader.linktype == LINKTYPE_ETHERNET
            for record in reader:
                try:
                    yield decode_frame(record.timestamp, record.data,
                                       with_ethernet=ethernet)
                except PacketDecodeError:
                    continue

    pipeline = SnifferPipeline(clist_size=200_000)
    return pipeline.process_packets(packets())


def check_store(rows: list, reference: list) -> list[str]:
    """Problems with a store's rows against the oracle's flows."""
    problems = []
    if len(rows) != len(reference):
        problems.append(
            f"store holds {len(rows)} rows, oracle {len(reference)}"
        )
    labels = Counter(row.fqdn for row in rows)
    if labels != Counter(flow.fqdn for flow in reference):
        problems.append("label multiset differs from the oracle's")
    elif rows != reference:
        problems.append("store rows differ from the oracle's flows")
    return problems


def traced_pass(pcap, directory, tracer: Tracer) -> dict:
    """Stream the capture through the pipeline's public components, one
    span per call; returns the layer counters.  Mirrors
    ``SnifferPipeline`` in single-process durable mode (drain every
    ``BATCH_EVENTS`` tagged flows, seal on close), so the store it
    leaves equals the one ``sniff_to_store`` leaves."""
    from repro.analytics.storage import FlowStore
    from repro.net.packet import PacketDecodeError, decode_frame
    from repro.net.pcap import LINKTYPE_ETHERNET, PcapReader
    from repro.sniffer.dns_sniffer import DnsResponseSniffer
    from repro.sniffer.eventcodec import BatchEncoder
    from repro.sniffer.flow_sniffer import FlowSniffer
    from repro.sniffer.resolver import DnsResolver
    from repro.sniffer.tagger import FlowTagger

    counts = Counter()
    root = tracer.begin("bench.harness")
    store = FlowStore(directory)
    seal = store.flush

    def counted_seal():
        name = seal()
        counts["seals"] += name is not None
        return name

    store.flush = tracer.wrap(counted_seal, "analytics.storage.seal")
    ingest = tracer.wrap(store.ingest_batch, "analytics.storage.ingest")
    resolver = DnsResolver(clist_size=200_000)
    dns_sniffer = DnsResponseSniffer(resolver)
    flow_sniffer = FlowSniffer()
    tagger = FlowTagger(resolver, warmup=300.0)
    decode = tracer.wrap(decode_frame, "net.packet.decode")
    feed_dns = tracer.wrap(dns_sniffer.feed_packet, "sniffer.dns_sniffer.feed")
    feed_flow = tracer.wrap(flow_sniffer.feed, "sniffer.flow_sniffer.feed")
    flush_flows = tracer.wrap(flow_sniffer.flush, "sniffer.flow_sniffer.feed")
    tag = tracer.wrap(tagger.tag, "sniffer.tagger.tag")
    pending: list = []

    def encode(flows) -> bytes:
        encoder = BatchEncoder()
        for flow in flows:
            encoder.add_flow(flow)
        return encoder.take()

    encode = tracer.wrap(encode, "sniffer.eventcodec.encode")

    def drain() -> None:
        if pending:
            payload = encode(pending)
            counts["bytes"] += len(payload)
            ingest(payload)
            pending.clear()

    def finish(flow) -> None:
        tag(flow)
        counts["flows"] += 1
        counts["labeled"] += flow.fqdn is not None
        pending.append(flow)
        if len(pending) >= BATCH_EVENTS:
            drain()

    last_ts = 0.0
    with open(pcap, "rb") as handle:
        reader = PcapReader(handle)
        ethernet = reader.linktype == LINKTYPE_ETHERNET
        read = tracer.wrap(iter(reader).__next__, "net.pcap.read")
        while True:
            try:
                record = read()
            except StopIteration:
                break
            counts["records"] += 1
            try:
                packet = decode(record.timestamp, record.data,
                                with_ethernet=ethernet)
            except PacketDecodeError:
                counts["decode_errors"] += 1
                continue
            last_ts = packet.timestamp
            udp = packet.udp
            if udp is not None and (udp.src_port == 53 or udp.dst_port == 53):
                feed_dns(packet)
                continue
            completed = feed_flow(packet)
            if completed is not None:
                finish(completed)
    for flow in flush_flows():
        flow.end = max(flow.end, last_ts)
        finish(flow)
    drain()
    store.flush()
    tracer.end(root)
    stats = resolver.stats
    counts["responses"] = dns_sniffer.stats["decoded"]
    counts["dns_decode_failures"] = dns_sniffer.stats["decode_errors"]
    counts["bytes_on_disk"] = store.stats()["bytes_on_disk"]
    counts["hit_ratio"] = stats.hit_ratio
    counts["evictions"] = stats.overwrites
    store.close()
    return counts


def _store_rows(directory) -> tuple[list, dict]:
    from repro.analytics.storage import FlowStore

    with FlowStore(directory, wal=False) as store:
        return list(store), store.stats()


class Capture:
    """The capture phase of one run over ``inputs/day.pcap``."""

    def __init__(self, ctx: Context, inputs):
        self.ctx = ctx
        self.pcap = inputs / "day.pcap"
        self.packets = _count_records(self.pcap)
        self.warm = ctx.work / "warm.pcap"
        _write_warm_pcap(self.pcap, self.warm)
        self.passes: list[float] = []
        self.store_dir = None

    def start(self) -> None:
        """Set-up: capture the head of the day into a fresh store."""
        warm_store = self.ctx.work / "warm-store"
        sniff_to_store(self.warm, warm_store)
        shutil.rmtree(warm_store)

    def step(self) -> None:
        """One pass over the whole day; the last pass's store is kept."""
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir)
        self.store_dir = self.ctx.work / f"store-{len(self.passes)}"
        self.passes.append(sniff_to_store(self.pcap, self.store_dir))

    def stop(self) -> None:
        pass

    def finish(self, result: Result) -> None:
        rows, stats = _store_rows(self.store_dir)
        labeled = sum(row.fqdn is not None for row in rows)
        result.metric("wire_pkts_per_s",
                      self.packets / percentile(self.passes, 75),
                      "packets/s")
        result.metric("labeled_flow_ratio", labeled / len(rows), "fraction")
        result.metric("store_bytes_per_row",
                      stats["bytes_on_disk"] / len(rows), "bytes/row")
        problems = check_store(rows, reference_flows(self.pcap))
        # A wrong store fails the pass that wrote it.
        result.count(len(self.passes), 1 if problems else 0)
        result.check(problems)
        result.report.append(
            f"capture: {len(self.passes)} passes over {self.packets} "
            f"packets, {len(rows)} flows stored; pass times "
            + ", ".join(f"{t:.3f}" for t in self.passes) + " s"
        )

    def traced(self, result: Result) -> None:
        """Three untraced passes, then one traced pass of the same day."""
        work, pcap = self.ctx.work, self.pcap
        untraced = []
        for _ in range(3):
            shutil.rmtree(work / "untraced", ignore_errors=True)
            untraced.append(sniff_to_store(pcap, work / "untraced"))
        untraced_s = median(untraced)
        tracer = Tracer(run_id=self.ctx.seed)
        counts = traced_pass(pcap, work / "traced", tracer)
        spans = tracer.spans
        traced_s = spans[0][2] - spans[0][1]
        tracer.dump(self.ctx.state / f"spans-{self.ctx.workload}-capture-"
                    f"{self.ctx.seed}.json")

        untraced_rows, _ = _store_rows(work / "untraced")
        traced_rows, _ = _store_rows(work / "traced")
        problems = []
        if traced_rows != untraced_rows:
            problems.append("traced store differs from the untraced store")
        problems += check_store(untraced_rows, reference_flows(pcap))
        result.count(2, 1 if problems else 0)
        result.check(problems)

        own = self_seconds(spans)
        for metric, span in (
            ("net.pcap.read_s", "net.pcap.read"),
            ("net.packet.decode_s", "net.packet.decode"),
            ("sniffer.flow_sniffer.feed_s", "sniffer.flow_sniffer.feed"),
            ("sniffer.dns_sniffer.feed_s", "sniffer.dns_sniffer.feed"),
            ("sniffer.tagger.tag_s", "sniffer.tagger.tag"),
            ("sniffer.eventcodec.encode_s", "sniffer.eventcodec.encode"),
            ("analytics.storage.ingest_s", "analytics.storage.ingest"),
            ("analytics.storage.seal_s", "analytics.storage.seal"),
        ):
            result.metric(metric, own.get(span, 0.0), "s")
        for metric, key, unit in (
            ("net.pcap.records", "records", "count"),
            ("sniffer.flow_sniffer.flows", "flows", "count"),
            ("sniffer.dns_sniffer.responses", "responses", "count"),
            ("sniffer.resolver.hit_ratio", "hit_ratio", "fraction"),
            ("sniffer.tagger.labeled", "labeled", "count"),
            ("sniffer.eventcodec.bytes", "bytes", "bytes"),
            ("analytics.storage.seals", "seals", "count"),
            ("analytics.storage.bytes_on_disk", "bytes_on_disk", "bytes"),
        ):
            result.metric(metric, counts[key], unit)
        result.ledgers.append(("capture", ledger(spans), traced_s))
        result.report.append(
            f"capture: tracing overhead: traced pass {traced_s:.3f} s vs "
            f"untraced {untraced_s:.3f} s (median of 3) over "
            f"{self.packets} packets (+{traced_s - untraced_s:.3f} s, "
            f"{traced_s / untraced_s - 1:+.1%}); counters that read 0 on "
            f"these inputs: net.packet.decode_errors "
            f"{counts['decode_errors']}, sniffer.dns_sniffer.decode_failures "
            f"{counts['dns_decode_failures']}, sniffer.resolver.evictions "
            f"{counts['evictions']}"
        )
