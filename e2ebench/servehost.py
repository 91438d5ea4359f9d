"""The traced ``repro-serve`` daemon of the serve phase.

Runs the ``repro-serve`` entry point unchanged in its own process,
after wrapping, at class level, ``ServeApp.handle``, the store's pin
and query methods, and the admission controller's acquire, so every
call leaves a span (admission is counted, not timed).  When the daemon closes its store
(the SIGTERM shutdown path) the spans and counters are written to the
file named by ``--spans``.

Usage::

    python -m e2ebench.servehost --spans FILE -- STORE_DIR [repro-serve options]
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from e2ebench.spans import Tracer

#: Snapshot query methods behind the routes the serve phase uses.
QUERY_METHODS = (
    "rows_in_window", "servers_for_fqdn", "rows_for_domain",
    "unique_servers_per_bin", "fqdn_server_counts", "server_flow_counts",
    "fqdn_flow_byte_totals", "count_by_protocol",
)


def install(tracer: Tracer, counts: Counter, spans_path: Path) -> None:
    from repro.analytics.storage import FlowStore, StoreSnapshot
    from repro.serve.admission import AdmissionController
    from repro.serve.server import ServeApp

    tracer.patch(ServeApp, "handle", "serve.server.handle")
    tracer.patch(FlowStore, "pin", "analytics.storage.pin")
    tracer.patch(StoreSnapshot, "close", "analytics.storage.pin")
    for method in QUERY_METHODS:
        tracer.patch(StoreSnapshot, method,
                     f"analytics.storage.query.{method}")

    acquire = AdmissionController.try_acquire

    def counted_acquire(self, route_class, *args, **kwargs):
        # All slots taken on arrival: the request queues (or is shed).
        busy = (self.inflight(route_class)
                >= self.limits[route_class].max_inflight)
        admitted = acquire(self, route_class, *args, **kwargs)
        counts["queued"] += busy and admitted
        return admitted

    AdmissionController.try_acquire = counted_acquire

    close = FlowStore.close

    def close_and_dump(store):
        close(store)
        spans_path.write_text(json.dumps(
            {"spans": tracer.spans, "counts": dict(counts)}
        ))

    FlowStore.close = close_and_dump


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    install(Tracer(), Counter(), Path(argv[1]))
    from repro.serve.cli import main as serve_main

    return serve_main(argv[3:])


if __name__ == "__main__":
    sys.exit(main())
