"""Start ``repro-transit serve`` with spans around each layer's calls.

Usage::

    python3 perfbench/launcher.py SPANS.json serve --store DIR ...

Everything after ``SPANS.json`` is the ``repro-transit`` command line;
``repro`` must be importable (``PYTHONPATH=src``).
The launcher wraps the public functions the server's request path calls
into (protocol parse/encode, executor awaits, facade methods, leg
reconstruction, the station-to-station engine, the SPCS and
multicriteria kernels, the delay-swap path and the store loader), runs
the command, and when the server has shut down writes every span, and
every result-cache lookup, to ``SPANS.json``.  The program itself is
not changed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from spans import SpanRecorder, patch

#: Served read shapes: protocol names and executor/facade method names.
SHAPES = ("journey", "multicriteria", "via", "min_transfers")


def install(rec: SpanRecorder, cache_events: list) -> None:
    import repro.store
    from repro.query import table_query
    from repro.query.table_query import StationToStationEngine
    from repro.server import app
    from repro.server.executor import QueryExecutor
    from repro.server.registry import DatasetRegistry
    from repro.service import facade, prepare
    from repro.service.cache import LRUResultCache
    from repro.service.facade import TransitService

    for shape in SHAPES:
        patch(app, f"parse_{shape}_request", lambda f: rec.wrap(f, "server.parse"))
        patch(app, f"encode_{shape}", lambda f: rec.wrap(f, "server.encode"))
        patch(
            QueryExecutor,
            shape,
            lambda f: rec.wrap_async(f, "server.executor", request_arg=2),
        )
        patch(
            TransitService,
            shape,
            lambda f: rec.wrap(f, "service.facade", requests=lambda a: a[1:2]),
        )
    for many in ("journey_many", "multicriteria_many"):
        patch(
            TransitService,
            many,
            lambda f: rec.wrap(f, "service.facade", requests=lambda a: a[1]),
        )
    patch(DatasetRegistry, "apply_delays", lambda f: rec.wrap_async(f, "server.swap"))
    patch(TransitService, "apply_delays", lambda f: rec.wrap(f, "service.replan"))
    patch(facade, "reconstruct_legs", lambda f: rec.wrap(f, "service.legs"))
    patch(
        facade,
        "mc_profile_search",
        lambda f: rec.wrap(
            f, "core.mc", attrs=lambda r: {"settled": r.stats.settled}
        ),
    )
    patch(
        StationToStationEngine,
        "query",
        lambda f: rec.wrap(
            f,
            "query.engine",
            attrs=lambda r: {"cls": r.classification, "prunes": r.table_prunes},
        ),
    )
    patch(
        table_query,
        "run_spcs_search",
        lambda f: rec.wrap(
            f, "core.spcs", attrs=lambda r: {"settled": r.stats.settled_connections}
        ),
    )
    patch(prepare, "patch_distance_table", lambda f: rec.wrap(f, "query.patch_table"))
    patch(prepare, "patch_td_graph", lambda f: rec.wrap(f, "graph.patch"))
    patch(prepare, "patch_td_arrays", lambda f: rec.wrap(f, "graph.patch"))
    patch(repro.store, "load_dataset", lambda f: rec.wrap(f, "store.load"))

    get = LRUResultCache.get

    def counted_get(self, key):
        value = get(self, key)
        cache_events.append((time.perf_counter_ns(), value is not None))
        return value

    LRUResultCache.get = counted_get


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, command = Path(argv[0]), argv[1:]
    from repro.cli import main as cli_main

    rec = SpanRecorder()
    cache_events: list = []
    install(rec, cache_events)
    try:
        return cli_main(command)
    finally:
        out.write_text(json.dumps({"spans": rec.as_dicts(), "cache": cache_events}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
