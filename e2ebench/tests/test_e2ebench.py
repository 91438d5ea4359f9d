"""Tests of the wire-to-answer benchmark itself: its arithmetic, its
checks, and a tiny-input run of every workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from e2ebench import run as bench  # noqa: E402
from e2ebench.common import WORKLOADS, Context  # noqa: E402
from e2ebench.serve import FAILED_MS, attach, check_samples  # noqa: E402
from e2ebench.spans import ledger, percentile, self_times  # noqa: E402
from e2ebench.sweep import check_answers, run_sweep  # noqa: E402
from e2ebench.wire import check_store  # noqa: E402


def _flow(index: int, fqdn="a.example.com"):
    from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto

    return FlowRecord(
        fid=FiveTuple(0x0A000100 + index % 7, 0x5DB8D822 + index % 5,
                      40000 + index, 80, TransportProto.TCP),
        start=100.0 + index, end=101.5 + index, protocol=Protocol.HTTP,
        bytes_up=100 + index, bytes_down=2000 + index, packets=6,
        fqdn=fqdn if index % 3 else None,
    )


# -- arithmetic ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile(samples, 0.5) == 1
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_failed_requests_are_misses_in_the_percentiles():
    latencies = [10.0] * 98 + [FAILED_MS] * 2
    assert percentile(latencies, 50) == 10.0
    assert percentile(latencies, 99) == FAILED_MS


def test_self_time_subtracts_child_cover():
    spans = [
        ["bench.harness", 0.0, 10.0, -1, 1],
        ["net.pcap.read", 1.0, 4.0, 0, 1],
        ["net.packet.decode", 2.0, 3.0, 1, 1],
        ["sniffer.tagger.tag", 5.0, 9.0, 0, 1],
        ["analytics.storage.ingest", 6.0, 7.0, 3, 1],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    rows = ledger(spans)
    assert sum(row["self_s"] for row in rows.values()) == pytest.approx(10.0)
    assert rows["net.pcap"] == {"self_s": pytest.approx(2.0), "count": 1,
                                "share": pytest.approx(0.2)}
    assert rows["bench.harness"]["share"] == pytest.approx(0.3)


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["serve.server.handle", 0.0, 10.0, -1, 1],
        ["analytics.storage.pin", 1.0, 5.0, 0, 1],
        ["analytics.storage.pin", 3.0, 6.0, 0, 1],
        ["analytics.storage.pin", 12.0, 13.0, 0, 1],  # outside the parent
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_attach_nests_host_spans_under_enclosing_requests():
    client = [
        ["serve.server.http", 0.0, 5.0, -1, 1],
        ["serve.server.http", 1.0, 9.0, -1, 1],
    ]
    host = [
        ["serve.server.handle", 6.0, 8.0, -1, 2],
        ["analytics.storage.pin", 6.5, 7.0, 0, 2],
        ["serve.server.handle", 20.0, 21.0, -1, 2],   # a scrape: dropped
        ["analytics.storage.pin", 20.1, 20.2, 2, 2],
    ]
    merged = attach(client, host)
    assert [span[0] for span in merged] == [
        "serve.server.http", "serve.server.http",
        "serve.server.handle", "analytics.storage.pin",
    ]
    assert merged[2][3] == 1 and merged[3][3] == 2
    rows = ledger(merged)
    assert rows["serve.server"]["self_s"] == pytest.approx(5 + 6 + 1.5)


# -- every phase's check rejects a corrupted answer ----------------------------


def test_wire_check_rejects_corrupted_store():
    reference = [_flow(i) for i in range(30)]
    rows = [_flow(i) for i in range(30)]
    assert check_store(rows, reference) == []
    rows[4].fqdn = "b.example.com"
    assert check_store(rows, reference)
    rows = [_flow(i) for i in range(30)]
    rows[5].bytes_down += 1
    assert check_store(rows, reference)
    assert check_store(rows[:-1], reference)


@pytest.fixture
def small_store(tmp_path):
    from repro.analytics.storage import FlowStore

    store = FlowStore(tmp_path / "store", spill_rows=8, wal=False)
    store.add_all([_flow(i) for i in range(40)])
    store.flush()
    yield store
    store.close()


def test_serve_check_rejects_corrupted_body(small_store):
    from repro.serve.server import ServeApp

    handle = ServeApp(small_store).handle
    paths = ["/query/fqdn-server-counts", "/query/count-by-protocol",
             "/query/rows-for-domain?sld=example.com"]
    samples = []
    for path in paths:
        status, _ctype, payload, _headers = handle(
            "GET", path.split("?")[0],
            {"sld": ["example.com"]} if "?" in path else {},
        )
        assert status == 200
        samples.append((path, payload))
    assert check_samples(samples, handle) == []
    corrupted = samples[:1] + [(samples[1][0], samples[1][1] + b" ")]
    assert len(check_samples(corrupted, handle)) == 1


def test_sweep_check_rejects_corrupted_answer(tmp_path):
    from repro.analytics.shard import ShardCoordinator
    from repro.analytics.storage import FlowStore

    flows = [_flow(i) for i in range(60)]
    with ShardCoordinator(tmp_path / "sharded", shards=2, wal=False) as coord:
        coord.add_all(flows)
        coord.flush()
        with FlowStore(tmp_path / "flat", wal=False) as flat:
            flat.add_all([f for part in coord.router.split_flows(flows)
                          for f in part])
            flat.flush()
            oracle = run_sweep(flat)
        answers = run_sweep(coord)
    assert check_answers(answers, oracle) == []
    answers[3] = dict(answers[3])
    server = next(iter(answers[3]))
    answers[3][server] += 1
    assert len(check_answers(answers, oracle)) == 1


# -- BENCHMARK.json agrees with what the runs report ---------------------------


def test_benchmark_json_matches_the_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "adsl_day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- tiny-input smoke run of every workload ------------------------------------

#: Clients that give each tiny day its 400 flows.
SMOKE_CLIENTS = {"adsl_day": 3, "mobile_3g": 8}


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    return tmp_path_factory.mktemp("e2ebench")


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_workload_emits_every_metric(state, workload, trace):
    ctx = Context(root=ROOT, state=state, workload=workload, seed=3,
                  seconds=0.6, trace=trace, day_flows=400,
                  clients=SMOKE_CLIENTS[workload])
    result = bench.run_workload(ctx)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    promised = spec["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_value, unit) in result.metrics.items()} \
        == {metric["name"]: metric["unit"] for metric in promised}
    assert result.errors == []
    assert result.attempted >= 1
    assert result.failed == 0
    for name, (value, _unit) in result.metrics.items():
        assert value == value and value >= 0, name
