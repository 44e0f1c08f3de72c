#!/usr/bin/env python3
"""Benchmark of the served stack, from the client SDK down to the kernels.

One run of one workload:

1. prepare an oahu/small store: distance table over half the stations
   (``transfer_fraction=0.5``), production ``ServiceConfig`` defaults
   otherwise (``flat`` kernel, 128-entry result cache);
2. spawn ``repro-transit serve`` on it with its shipped defaults;
3. drive the workload from this process with at most ``nproc`` (and at
   most 2) client threads, each holding one keep-alive ``HttpBackend``
   connection, in a closed loop, in two timed parts, timing three
   server starts: before, between and after them;
4. check a sample of the answers against the same requests sent
   in-process through ``LocalBackend`` over the same store, then print
   every metric by name and unit.

Throughout, one idle-priority spinner per CPU keeps the CPUs from
halting (``host.IdlePoll``), and the CPU steal of each timed part is
recorded.

Usage, from the repository root::

    python3 perfbench/run.py --workload table-commute --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, for half the time each, first against the plain server
and then against ``perfbench/launcher.py`` (the same server with spans
around each layer's calls) with client-side spans, and reports the
per-layer metrics and the tracing overhead.  ``perfbench/METRICS.md`` defines
every metric.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the run exits 1 when
an operation failed, an answer, a regime or a workload-property check
is wrong, the delay poster fell a whole interval behind, or more than
``host.STEAL_LIMIT`` of a timed part's CPU time was stolen by the
hypervisor.  Scratch files go to ``.perfbench/`` in the repository
root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import host
import loadgen
from answers import answer_fields, delayed_oracle, mismatches
from spans import SpanRecorder, patch, percentile, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

INSTANCE = "oahu"
SCALE = "small"
#: The dataset is fixed; ``--seed`` varies the requests and delays only.
DATASET_SEED = 0
TRANSFER_FRACTION = 0.5
#: A plain run splits its timed phase into this many equal parts and
#: starts one more server (``setup_s``) between parts and after the
#: last.  Spread over the run, the median of three starts and the timed
#: metrics average over its whole length: on a shared machine the speed
#: drifts by 20% or more over tens of seconds.
PARTS = 2
#: After its timed phase a traced run sends this many ``full-search``
#: journeys and ``zoo-mix`` triples to its idle server and posts this
#: many delay batches, so the search, multicriteria and swap layers are
#: measured on every workload.
IDLE_JOURNEYS = 4
IDLE_TRIPLES = 2
IDLE_POSTS = 3
#: ``delay-stream`` posts one batch every interval.
POST_INTERVAL_S = 2.5
CLIENTS = max(1, min(2, os.cpu_count() or 1))

#: Per workload: client threads, warm-up items (sent untimed), items
#: per second to draw from the stream before timing (a faster server
#: draws more during the run), and how many items' answers to check.
#: ``zoo-mix`` runs one client: with two, a via or min-transfers request
#: mostly waits out the other client's multicriteria search for the
#: interpreter lock, and the median measures that overlap instead of
#: the request.
WORKLOADS = {
    "table-commute": {"clients": CLIENTS, "warmup": 40, "rate": 1500, "check": 40},
    "table-uniform": {"clients": CLIENTS, "warmup": 40, "rate": 1500, "check": 40},
    "full-search": {"clients": CLIENTS, "warmup": 4, "rate": 150, "check": 25},
    "zoo-mix": {"clients": 1, "warmup": 2, "rate": 20, "check": 3},
    "delay-stream": {"clients": 1, "warmup": 40, "rate": 1500, "check": 20},
}

#: The workload property checked before timing: the share of the first
#: :data:`REPEAT_PREFIX` requests that repeat an earlier one must lie in
#: this range.  ``table-commute``'s Zipf exponent and rush-hour grid are
#: assumptions, not fitted to observed demand; the range (over 40 seeds
#: the share was 0.814 to 0.827) keeps a change to the generator from
#: shifting how much the result cache can save without notice.  The
#: served cache-hit rate is printed beside it but not checked: a better
#: cache should raise it.
REPEAT_PREFIX = 10_000
REPEAT_RANGE = {
    "table-commute": (0.78, 0.86),
    "table-uniform": (0.0, 0.0),
    "full-search": (0.0, 0.0),
}

END_TO_END = {
    "qps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
    "rss_mib": "MiB",
}
PER_LAYER = {
    "client.wire_us": "us",
    "client.transport_ms": "ms",
    "client.retries": "count",
    "server.parse_us": "us",
    "server.encode_us": "us",
    "server.executor_wait_ms": "ms",
    "server.mean_batch": "count",
    "server.rejected": "count",
    "server.swap_ms": "ms",
    "service.facade_us": "us",
    "service.cache_hit_rate": "ratio",
    "service.legs_ms": "ms",
    "service.replan_ms": "ms",
    "service.prepare_s": "s",
    "service.prepare.graph_s": "s",
    "service.prepare.pack_s": "s",
    "service.prepare.table_s": "s",
    "query.engine_us": "us",
    "query.table_share": "ratio",
    "query.global_share": "ratio",
    "query.table_prunes": "count",
    "query.patch_table_ms": "ms",
    "core.spcs_ms": "ms",
    "core.settled": "count",
    "core.mc_ms": "ms",
    "core.mc_settled": "count",
    "graph.patch_ms": "ms",
    "store.load_s": "s",
    "trace.overhead": "ratio",
}
READ_SHAPES = ("journey", "multicriteria", "via", "min_transfers")


class Server:
    """One ``repro-transit serve`` process over the benchmark store."""

    def __init__(self, store: Path, tag: str, *, spans: Path | None = None):
        self.port_file = WORK / f"port-{tag}"
        self.flags = [
            "serve", "--store", str(store), "--port", "0",
            "--port-file", str(self.port_file),
        ]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *self.flags]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans), *self.flags]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log = open(WORK / f"serve-{tag}.log", "wb")
        self.spawned = time.perf_counter_ns()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT
        )

    def wait_url(self, timeout: float = 120.0) -> str:
        deadline = time.monotonic() + timeout
        while not self.port_file.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}; see {self.log.name}"
                )
            if time.monotonic() > deadline:
                raise TimeoutError(f"server did not bind within {timeout} s")
            time.sleep(0.002)
        return f"http://127.0.0.1:{int(self.port_file.read_text())}/{INSTANCE}"

    def peak_rss_mib(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Bench:
    """Everything one run shares between its phases."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.client import BackendError, HttpBackend, LocalBackend
        from repro.query.table_query import StationToStationEngine
        from repro.service import ServiceConfig, TransitService
        from repro.synthetic.instances import make_instance

        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.errors = (BackendError,)
        self.http = HttpBackend
        self.servers: list[Server] = []
        #: Scheduled delay posts that went out a whole interval late
        #: (they make the run invalid).
        self.late_posts = 0
        self.setup_s: list[float] = []
        #: Steal share of each timed phase (``None`` where unknown).
        self.steal: list[float | None] = []
        #: Idle-poll spinners running at the end of the run.
        self.spinners = 0
        #: Requests the answer check sent after the timed phase.
        self.resent = 0

        timetable = make_instance(INSTANCE, SCALE, seed=DATASET_SEED)
        self.config = ServiceConfig(
            use_distance_table=True, transfer_fraction=TRANSFER_FRACTION
        )
        # One build, timed from the generated timetable to a saved store.
        t0 = time.perf_counter()
        service = TransitService(timetable, self.config)
        self.store = service.save(WORK / "store" / INSTANCE)
        self.prepare_s = time.perf_counter() - t0
        self.prepare_stats = service.prepare_stats
        self.base = TransitService.load(self.store)
        self.oracle = LocalBackend(self.base)
        self.transfer = sorted(int(s) for s in self.base.table.transfer_stations)
        self.outside = sorted(
            set(range(self.base.timetable.num_stations)) - set(self.transfer)
        )
        prepared = self.base.prepared
        self.engine = StationToStationEngine(
            prepared.graph,
            prepared.table,
            num_threads=self.config.num_threads,
            table_pruning=self.config.table_pruning,
            target_pruning=self.config.target_pruning,
            kernel=self.config.kernel,
            arrays=prepared.arrays,
            station_graph=prepared.station_graph,
        )
        self.items = self._items()
        self.repeat_share = (
            loadgen.key_repeat_share(self.items.prefix(REPEAT_PREFIX))
            if args.workload in REPEAT_RANGE
            else None
        )
        posts = self.posts_needed()
        self.batches = (
            loadgen.delay_batches(self.base.timetable, args.seed, posts) if posts else []
        )
        self.regime: Counter = Counter()
        self._classified = 0
        self.classify()
        # Every server start is timed to the answer of one fixed table
        # journey, whatever the workload.
        self.first_request = loadgen.journey(*self.transfer[:2], 480)[0]
        self.first_answer = answer_fields(loadgen.send(self.oracle, self.first_request))

    def post_offsets(self, seconds: float) -> list[float]:
        """When, into a timed phase of ``seconds``, the delay-stream
        poster sends its batches (none on the other workloads)."""
        if self.args.workload != "delay-stream":
            return []
        count = max(1, int(seconds / POST_INTERVAL_S - 0.5))
        return [(k + 0.5) * POST_INTERVAL_S for k in range(count)]

    def posts_needed(self) -> int:
        """Delay batches the run posts: every scheduled post of every
        timed part, or the traced run's posts to its idle server."""
        if self.args.trace:
            return len(self.post_offsets(self.args.seconds / 2)) or IDLE_POSTS
        return PARTS * len(self.post_offsets(self.args.seconds / PARTS))

    def _items(self) -> loadgen.Stream:
        spec, seed, workload = self.spec, self.args.seed, self.args.workload
        count = int(spec["rate"] * self.args.seconds) + spec["warmup"] + spec["clients"]
        n = self.base.timetable.num_stations
        if workload in ("table-commute", "delay-stream"):
            source = loadgen.table_commute(seed, self.transfer)
        elif workload == "table-uniform":
            source = loadgen.table_uniform(seed, self.transfer)
        elif workload == "full-search":
            source = loadgen.full_search(seed, self.outside, n)
        else:
            source = loadgen.zoo_mix(seed, n, self.outside)
        return loadgen.Stream(source, prefetch=count)

    def classify(self) -> None:
        """Classify in-process every journey drawn from the stream since
        the last call: the prefetched ones before timing, any drawn
        during the run after it."""
        drawn = len(self.items)
        self.regime.update(
            self.engine.classify(*args)[0]
            for item in self.items.prefix(drawn)[self._classified:]
            for shape, args, _ in item
            if shape == "journey"
        )
        self._classified = drawn

    def repeat_ok(self) -> bool:
        if self.repeat_share is None:
            return True
        low, high = REPEAT_RANGE[self.args.workload]
        return low <= self.repeat_share <= high

    def steal_ok(self) -> bool:
        return all(s is None or s <= host.STEAL_LIMIT for s in self.steal)

    def regime_ok(self) -> bool:
        workload, classes = self.args.workload, self.regime
        if workload in ("table-commute", "table-uniform", "delay-stream"):
            return set(classes) == {"table"}
        if workload == "full-search":
            return bool(classes) and not {"table", "trivial"} & set(classes)
        return True

    # -- servers ---------------------------------------------------------

    def start(self, tag: str, *, spans: Path | None = None) -> tuple[Server, str, float]:
        """Spawn a server; returns it, its URL, and the seconds from
        spawn to the first correct answer."""
        server = Server(self.store, tag, spans=spans)
        self.servers.append(server)
        url = server.wait_url()
        with self.http(url, pool_size=1, timeout=120) as backend:
            answer = loadgen.send(backend, self.first_request)
        ready = time.perf_counter_ns()
        if answer_fields(answer) != self.first_answer:
            raise RuntimeError(f"first answer of {tag} server is wrong")
        return server, url, (ready - server.spawned) / 1e9

    def connect(self, url: str):
        return lambda: self.http(url, pool_size=1, timeout=120)

    def stop_all(self) -> None:
        for server in self.servers:
            server.stop()

    # -- one timed phase -------------------------------------------------

    def drive(
        self,
        url: str,
        seconds: float,
        *,
        start: int = 0,
        batches: list | None = None,
        request_span=None,
    ):
        """One timed phase of the closed loop from item ``start`` (the
        first phase on a server also sends the warm-up items), with the
        delay poster sending ``batches`` beside it on ``delay-stream``;
        returns the loop result, the posts, and the server's
        ``/metrics`` right before and after the phase.  Records the
        phase's steal share."""
        offsets = self.post_offsets(seconds)
        posts: list[loadgen.Post] = []
        poster: list[threading.Thread] = []
        failures: list[BaseException] = []
        snapshots: list[dict] = []
        cpu: list = []

        def observe() -> None:
            with self.connect(url)() as backend:
                snapshots.append(backend.server_metrics())

        def post() -> None:
            try:
                with self.connect(url)() as backend:
                    posts.extend(
                        loadgen.post_delays(
                            backend, batches or self.batches, offsets, errors=self.errors
                        )
                    )
            except BaseException as exc:  # re-raised by drive()
                failures.append(exc)

        def begin() -> None:
            observe()
            cpu.append(host.cpu_times())
            if offsets:
                poster.append(threading.Thread(target=post, name="poster", daemon=True))
                poster[0].start()

        try:
            loop = loadgen.closed_loop(
                self.connect(url),
                self.items,
                clients=self.spec["clients"],
                seconds=seconds,
                errors=self.errors,
                start=start,
                warmup_items=0 if start else self.spec["warmup"],
                on_begin=begin,
                request_span=request_span,
            )
            self.steal.append(host.steal_share(cpu[0], host.cpu_times()))
            self.classify()
        finally:
            for thread in poster:
                thread.join()
        if failures:
            raise failures[0]
        observe()
        self.late_posts += sum(p.lateness_s >= POST_INTERVAL_S for p in posts)
        return loop, posts, snapshots

    # -- answers ---------------------------------------------------------

    def check(self, url: str, loop, posts) -> list[str]:
        """Compare sampled answers with the oracle (outside any timed
        region); returns the mismatches."""
        ok = loop.ok
        if self.args.workload != "delay-stream":
            return mismatches(sample_items(ok, self.spec["check"]), self.oracle)
        swapped = [p for p in posts if p.error is None]
        first = [s for s in ok if not posts or s.end < posts[0].sent]
        last = [s for s in ok if swapped and s.start > swapped[-1].acked]
        bad = mismatches(sample_items(first, self.spec["check"]), self.oracle)
        if swapped:
            applied = [b for b, p in zip(self.batches, posts) if p.error is None]
            oracle = delayed_oracle(self.base, applied)
            # The final generation answers again, untimed, so it is
            # checked even when no timed read fell after the last swap.
            again = [s.request for s in ok[-self.spec["check"]:]]
            with self.connect(url)() as backend:
                resent = [(r, loadgen.send(backend, r)) for r in again]
            self.resent += len(resent)
            bad += mismatches(sample_items(last, self.spec["check"]) + resent, oracle)
        return bad

    def setup_sample(self, tag: str) -> None:
        """One more server start."""
        server, _, setup = self.start(tag)
        self.setup_s.append(setup)
        server.stop()

    def provenance(self, server: Server) -> dict:
        from repro.benchops.machine import current_git_sha, machine_fingerprint

        return {
            "machine": machine_fingerprint(),
            "git_sha": current_git_sha(str(ROOT)),
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "instance": INSTANCE,
            "scale": SCALE,
            "dataset_seed": DATASET_SEED,
            "transfer_fraction": TRANSFER_FRACTION,
            "clients": self.spec["clients"],
            "server_flags": server.flags,
            "steal_share": self.steal,
            "idle_poll_spinners": self.spinners,
            "steal_limit": host.STEAL_LIMIT,
        }


def sample_items(samples, k: int) -> list[tuple[tuple, object]]:
    """The ``(request, answer)`` pairs of ``k`` items spread evenly
    over ``samples`` (all requests of each chosen item)."""
    indices = sorted({s.index for s in samples})
    if len(indices) > k:
        step = len(indices) / k
        indices = [indices[int(j * step)] for j in range(k)]
    chosen = set(indices)
    return [(s.request, s.answer) for s in samples if s.index in chosen]


def latencies_ms(loop) -> list[float]:
    return sorted((s.end - s.start) / 1e6 for s in loop.ok)


def metrics_delta(before: dict, after: dict) -> dict:
    """Micro-batching, admission and result-cache counters over the
    timed phase, from two ``/metrics`` snapshots.  The cache counters
    hold only when no swap fell in between (a swap resets them)."""
    mb0, mb1 = before["micro_batching"], after["micro_batching"]
    batches = mb1["batches_total"] - mb0["batches_total"]
    queries = mb1["batched_queries_total"] - mb0["batched_queries_total"]
    c0 = before["datasets"][INSTANCE]["result_cache"]
    c1 = after["datasets"][INSTANCE]["result_cache"]
    return {
        "mean_batch": queries / batches if batches else 0.0,
        "rejected": after["rejected_total"] - before["rejected_total"],
        "cache_hits": c1["hits"] - c0["hits"],
        "cache_lookups": c1["hits"] + c1["misses"] - c0["hits"] - c0["misses"],
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced phase.
# ---------------------------------------------------------------------------


def layer_metrics(client_spans, server_doc, loop, delta, prepare, prepare_s, qps_plain) -> dict:
    begin, end = loop.begin, loop.end
    n = len(loop.ok)
    server = server_doc["spans"]
    self_ns = self_times(server)
    window = [s for s in server if begin <= s["start"] <= end]

    def dur(s):
        return s["end"] - s["start"]

    def total(name, *, own=False):
        return sum(self_ns[s["id"]] if own else dur(s) for s in window if s["name"] == name)

    roots = {s["id"]: s for s in client_spans if s["name"] == "client.request"}
    roots = {i: s for i, s in roots.items() if begin <= s["start"] <= end}
    wire = sum(dur(s) for s in client_spans if s["parent"] in roots)
    server_side = sum(total(name) for name in ("server.parse", "server.executor", "server.encode"))
    engine = [s for s in window if s["name"] == "query.engine"]
    classes = Counter(s["attrs"]["cls"] for s in engine)
    spcs = [s for s in server if s["name"] == "core.spcs"]
    searched = [
        s for s in server if s["name"] == "query.engine" and s["attrs"]["cls"] != "table"
    ]
    mc = [s for s in server if s["name"] == "core.mc"]
    swaps = [s for s in server if s["name"] == "server.swap"]
    cache = [hit for t, hit in server_doc["cache"] if begin <= t <= end]

    def per_swap(name):
        return sum(dur(s) for s in server if s["name"] == name) / len(swaps) / 1e6 if swaps else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    loads = [dur(s) / 1e9 for s in server if s["name"] == "store.load"]
    return {
        "client.wire_us": wire / n / 1e3,
        "client.transport_ms": (sum(dur(s) for s in roots.values()) - wire - server_side) / n / 1e6,
        "client.retries": loop.retries,
        "server.parse_us": total("server.parse") / n / 1e3,
        "server.encode_us": total("server.encode") / n / 1e3,
        "server.executor_wait_ms": total("server.executor", own=True) / n / 1e6,
        "server.mean_batch": delta["mean_batch"],
        "server.rejected": delta["rejected"],
        "server.swap_ms": per_swap("server.swap"),
        "service.facade_us": total("service.facade", own=True) / n / 1e3,
        "service.cache_hit_rate": sum(cache) / len(cache) if cache else 0.0,
        "service.legs_ms": total("service.legs") / n / 1e6,
        "service.replan_ms": per_swap("service.replan"),
        "service.prepare_s": prepare_s,
        "service.prepare.graph_s": prepare.graph_seconds,
        "service.prepare.pack_s": prepare.pack_seconds,
        "service.prepare.table_s": prepare.table_seconds,
        "query.engine_us": total("query.engine", own=True) / n / 1e3,
        "query.table_share": classes["table"] / len(engine) if engine else 0.0,
        "query.global_share": classes["global"] / len(engine) if engine else 0.0,
        "query.table_prunes": mean([s["attrs"]["prunes"] for s in searched]),
        "query.patch_table_ms": per_swap("query.patch_table"),
        "core.spcs_ms": mean([dur(s) for s in spcs]) / 1e6,
        "core.settled": mean([s["attrs"]["settled"] for s in spcs]),
        "core.mc_ms": mean([dur(s) for s in mc]) / 1e6,
        "core.mc_settled": mean([s["attrs"]["settled"] for s in mc]),
        "graph.patch_ms": per_swap("graph.patch"),
        "store.load_s": loads[0] if loads else 0.0,
        "trace.overhead": loop.qps / qps_plain - 1.0,
    }


def install_client_spans(rec: SpanRecorder) -> None:
    from repro.client import http, wire

    for shape in READ_SHAPES:
        patch(wire, f"{shape}_body", lambda f: rec.wrap(f, "client.wire"))
        patch(http, f"decode_{shape}", lambda f: rec.wrap(f, "client.decode"))


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------


def run_plain(bench: Bench):
    """The end-to-end metrics; returns them with the merged loop, every
    delay post, the answer mismatches and the serving process."""
    server, url, setup = bench.start("serve")
    bench.setup_s.append(setup)
    parts, posts, deltas = [], [], []
    for k in range(PARTS):
        if k:
            bench.setup_sample(f"sample-{k}")
        part, part_posts, snapshots = bench.drive(
            url,
            bench.args.seconds / PARTS,
            start=parts[-1].next_item if parts else 0,
            batches=bench.batches[len(posts):],
        )
        parts.append(part)
        posts += part_posts
        deltas.append(metrics_delta(*snapshots))
    loop = loadgen.LoopResult.merge(parts)
    rss = server.peak_rss_mib()
    bad = bench.check(url, loop, posts)
    server.stop()
    bench.setup_sample(f"sample-{PARTS}")
    lookups = sum(d["cache_lookups"] for d in deltas)
    hit_rate = None if posts or not lookups else sum(d["cache_hits"] for d in deltas) / lookups
    lat = latencies_ms(loop)
    report(bench, loop, posts, [], bad, hit_rate)
    metrics = {
        "qps": loop.qps,
        "p50_ms": percentile(lat, 50),
        "p90_ms": percentile(lat, 90),
        "setup_s": statistics.median(bench.setup_s),
        "rss_mib": rss,
    }
    print(f"  setup_s samples {', '.join(f'{s:.3f}' for s in bench.setup_s)}")
    print(f"  prepare_s {bench.prepare_s:.6g} s")
    if posts:
        print(f"  delay_ack_p50_ms {statistics.median(p.ack_ms for p in posts):.6g} ms")
    return metrics, loop, posts, bad, server


def run_traced(bench: Bench):
    """The per-layer metrics, returned like :func:`run_plain`'s."""
    seconds = bench.args.seconds / 2
    server, url, _ = bench.start("plain")
    plain, _, _ = bench.drive(url, seconds)
    server.stop()

    rec = SpanRecorder()
    install_client_spans(rec)
    spans_path = WORK / "server-spans.json"
    server, url, _ = bench.start("traced", spans=spans_path)
    loop, posts, snapshots = bench.drive(
        url,
        seconds,
        request_span=lambda sample: rec.span("client.request", rid=sample.index),
    )
    bad = bench.check(url, loop, posts)
    probes = []
    n = bench.base.timetable.num_stations
    idle = loadgen.take(loadgen.full_search(bench.args.seed, bench.outside, n), IDLE_JOURNEYS)
    idle += loadgen.take(loadgen.zoo_mix(bench.args.seed, n, bench.outside), IDLE_TRIPLES)
    with bench.connect(url)() as backend:
        for item in idle:
            for request in item:
                loadgen.send(backend, request)
        if not posts:
            probes = loadgen.post_delays(
                backend, bench.batches, [0.0] * IDLE_POSTS, errors=bench.errors
            )
    server.stop()
    server_doc = json.loads(spans_path.read_text())
    delta = metrics_delta(*snapshots)
    metrics = layer_metrics(
        rec.as_dicts(), server_doc, loop, delta, bench.prepare_stats,
        bench.prepare_s, plain.qps,
    )
    lat = latencies_ms(loop)
    report(bench, loop, posts, probes, bad, metrics["service.cache_hit_rate"])
    print(f"  traced p99 {percentile(lat, 99):.3f} ms over {len(lat)} requests "
          f"(untraced qps {plain.qps:.2f}, traced {loop.qps:.2f})")
    (WORK / f"trace-{bench.args.workload}-seed{bench.args.seed}.json").write_text(
        json.dumps(
            {
                "provenance": bench.provenance(server),
                "client_spans": rec.as_dicts(),
                "server_spans": server_doc["spans"],
                "metrics": metrics,
            }
        )
    )
    return metrics, loop, posts + probes, bad, server


def report(bench: Bench, loop, posts, probes, bad, hit_rate) -> None:
    args = bench.args
    print(f"workload {args.workload}, seed {args.seed}, {bench.spec['clients']} "
          f"closed-loop client(s), {args.seconds} s, trace {args.trace}")
    print(f"  regime: {dict(bench.regime) or 'no journeys'} "
          f"({'ok' if bench.regime_ok() else 'WRONG'})")
    if bench.repeat_share is not None:
        low, high = REPEAT_RANGE[args.workload]
        print(f"  key-repeat share of the first {REPEAT_PREFIX} requests: "
              f"{bench.repeat_share:.3f} (range {low}-{high}: "
              f"{'ok' if bench.repeat_ok() else 'WRONG'})")
    if args.workload in ("table-commute", "table-uniform", "delay-stream"):
        sent = bench.items.prefix(loop.next_item)
        rate = "n/a (swaps reset it)" if hit_rate is None else f"{hit_rate:.3f}"
        print(f"  key-repeat share of the requests sent: {loadgen.key_repeat_share(sent):.3f}, "
              f"result-cache hit rate over the timed phase: {rate}")
    print(f"  {len(loop.samples)} timed requests, {len(loop.ok)} answered; "
          f"{loop.status_503} 503 responses, {loop.retries} retries (warm-up included)")
    for post in posts:
        print(f"  delay post under load: late {post.lateness_s * 1000:.1f} ms, "
              f"ack {post.ack_ms:.1f} ms, generation {post.generation}"
              f"{', ' + post.error if post.error else ''}")
    for post in probes:
        print(f"  delay post on an idle server: ack {post.ack_ms:.1f} ms"
              f"{', ' + post.error if post.error else ''}")
    print(f"  answer check: {len(bad)} mismatch(es)")
    for line in bad[:10]:
        print(f"    {line}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops the servers it started (``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    with host.IdlePoll() as idle_poll:
        bench = Bench(args)
        try:
            run = run_traced if args.trace else run_plain
            metrics, loop, posts, bad, server = run(bench)
            bench.spinners = idle_poll.running()
        finally:
            bench.stop_all()
    steal = ", ".join("unknown" if x is None else f"{x:.4f}" for x in bench.steal)
    print(f"  steal share per timed part: {steal} (limit {host.STEAL_LIMIT}: "
          f"{'ok' if bench.steal_ok() else 'EXCEEDED, run invalid'}); "
          f"{bench.spinners} idle-poll spinner(s) running")
    units = PER_LAYER if args.trace else END_TO_END
    # One count per attempted operation: a timed read, a delay post, or
    # a read the answer check re-sent.  A read that failed after its
    # retries, a post that failed, and a wrong answer each fail one.
    tried = len(loop.samples) + len(posts) + bench.resent
    fails = (
        sum(s.error is not None for s in loop.samples)
        + sum(p.error is not None for p in posts)
        + len(bad)
    )
    correct = (
        not fails
        and bench.regime_ok()
        and bench.repeat_ok()
        and bench.steal_ok()
        and not bench.late_posts
    )
    provenance = bench.provenance(server)
    for name, unit in units.items():
        print(f"  {name:26s} {metrics[name]:.6g} {unit}")
    print(f"  error_rate {fails / tried:.6g} ({fails} of {tried})")
    result = {
        "correct": correct,
        "attempted": tried,
        "failed": fails,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1)
    )
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
