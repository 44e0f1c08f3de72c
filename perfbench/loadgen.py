"""Seeded request streams and the load generator that sends them.

Every stream is a pure function of the workload seed and the dataset,
so one seed always gives one request sequence.  A request is
``(shape, args, kwargs)``: the name of a :class:`repro.client.TransitBackend`
method and its arguments, so the same request can be sent over HTTP and
in-process to the answer oracle.  An *item* is the list of requests one
client sends back to back (one journey, or a zoo triple).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

#: 07:00 to 09:00 every 15 minutes: the coarse rush-hour grid of
#: ``table-commute`` departures (repeated keys reach the result cache).
#: The grid and the Zipf exponent below are assumptions, not fitted to
#: observed demand; the run checks the key-repeat share they produce
#: (``REPEAT_RANGE`` in ``run.py``).
RUSH_GRID = tuple(range(420, 541, 15))
#: Zipf exponent of the ``table-commute`` key popularity.
ZIPF_S = 1.1
#: Departures of the uniform workloads: 06:00 to 22:00.
DAY_WINDOW = (360, 1320)
#: Trains per delay batch, at most.
MAX_TRAINS_PER_BATCH = 5


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash deterministically (sha512), whatever PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def journey(source: int, target: int, departure: int) -> list[tuple]:
    return [("journey", (source, target), {"departure": departure})]


class Stream:
    """A seeded request stream with no end.

    Items are drawn from ``source`` (an endless iterator) in order, the
    first ``prefetch`` at once and any later one when it is first read,
    so a run never runs out of requests however fast the server
    answers, and one seed always gives one sequence.  Safe to read from
    several threads."""

    def __init__(self, source: Iterator[list[tuple]], prefetch: int = 0) -> None:
        self._source = source
        self._items: list[list[tuple]] = []
        self._lock = threading.Lock()
        self._grow(prefetch)

    def _grow(self, size: int) -> None:
        with self._lock:
            while len(self._items) < size:
                self._items.append(next(self._source))

    def __getitem__(self, index: int) -> list[tuple]:
        if index >= len(self._items):
            self._grow(index + 1)
        return self._items[index]

    def __len__(self) -> int:
        """How many items have been drawn so far."""
        return len(self._items)

    def prefix(self, count: int) -> list[list[tuple]]:
        self._grow(count)
        return self._items[:count]


def take(stream: Iterator[list[tuple]], count: int) -> list[list[tuple]]:
    """The first ``count`` items of an endless stream."""
    return list(itertools.islice(stream, count))


def table_commute(seed: int, transfer: Sequence[int]) -> Iterator[list[tuple]]:
    """Journeys between transfer stations on the rush-hour grid, keys
    drawn Zipf-skewed over a seeded popularity order."""
    rng = _rng("table-commute", seed)
    keys = [
        (s, t, d)
        for s in transfer
        for t in transfer
        if s != t
        for d in RUSH_GRID
    ]
    rng.shuffle(keys)
    cum = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(len(keys))))
    while True:
        # choices() draws one random() per key, so the sequence does
        # not depend on the chunk size.
        for key in rng.choices(keys, cum_weights=cum, k=256):
            yield journey(*key)


def table_uniform(seed: int, transfer: Sequence[int]) -> Iterator[list[tuple]]:
    """Journeys between transfer stations, pairs and departures (any
    minute of the day window) uniform and never repeating: the
    ``table-commute`` regime with the result cache bypassed."""
    rng = _rng("table-uniform", seed)
    space = len(transfer) * (len(transfer) - 1) * (DAY_WINDOW[1] - DAY_WINDOW[0])
    seen: set[tuple[int, int, int]] = set()
    while len(seen) < space:
        s, t = rng.sample(list(transfer), 2)
        key = (s, t, rng.randrange(*DAY_WINDOW))
        if key not in seen:
            seen.add(key)
            yield journey(*key)
    raise RuntimeError(f"table-uniform: all {space} distinct keys were sent")


def full_search(
    seed: int, outside: Sequence[int], num_stations: int
) -> Iterator[list[tuple]]:
    """Journeys from stations outside the transfer set, never repeating.

    Sources visit every outside station once per round (seeded order),
    so each run spreads its searches evenly over sources; targets and
    departures are uniform."""
    rng = _rng("full-search", seed)
    # Every round takes one key per source, so all sources run out of
    # distinct keys in the same round.
    rounds = (num_stations - 1) * (DAY_WINDOW[1] - DAY_WINDOW[0])
    seen: set[tuple[int, int, int]] = set()
    for _ in range(rounds):
        for source in rng.sample(list(outside), len(outside)):
            while True:
                target = rng.randrange(num_stations)
                key = (source, target, rng.randrange(*DAY_WINDOW))
                if target != source and key not in seen:
                    break
            seen.add(key)
            yield journey(*key)
    raise RuntimeError(f"full-search: all {len(seen)} distinct keys were sent")


def zoo_mix(
    seed: int, num_stations: int, outside: Sequence[int]
) -> Iterator[list[tuple]]:
    """Triples: multicriteria, then min-transfers for the same
    (source, target, departure), then via.

    The triples come from one fixed panel, one per source station, with
    the via station outside the transfer set (so both legs of every via
    request search; a table leg would answer in microseconds and split
    the via latencies into two modes).  The seed draws the order of each
    pass over the panel.  A run sends only about 50 triples, and via
    costs range from 1 to 125 ms, so with triples drawn afresh per seed
    the median latency moved by up to 30% from seed to seed."""
    panel_rng = _rng("zoo-mix-panel", 0)
    stations = list(range(num_stations))
    panel = []
    for source in stations:
        via = panel_rng.choice([s for s in outside if s != source])
        target = panel_rng.choice([s for s in stations if s not in (source, via)])
        dep = panel_rng.randrange(*DAY_WINDOW)
        panel.append(
            [
                ("multicriteria", (source, target), {"departure": dep}),
                ("min_transfers", (source, target), {"departure": dep}),
                ("via", (source, via, target), {"departure": dep}),
            ]
        )
    rng = _rng("zoo-mix", seed)
    while True:
        yield from rng.sample(panel, len(panel))


def delay_batches(timetable, seed: int, count: int) -> list[tuple[tuple, int]]:
    """``count`` delay batches ``(delays, slack_per_leg)`` of at most
    :data:`MAX_TRAINS_PER_BATCH` trains: rush-hour cascades and rolling
    disruptions."""
    from repro.synthetic.delays import generate_delay_stream

    stream = generate_delay_stream(
        timetable,
        seed=seed,
        num_events=count,
        shapes=("rush_hour_cascade", "rolling_disruption"),
        max_trains_per_event=MAX_TRAINS_PER_BATCH,
    )
    return [(event.delays, event.slack_per_leg) for event in stream.events]


def key_repeat_share(items: Sequence[list[tuple]]) -> float:
    """Share of requests whose exact request appeared earlier."""
    seen: set = set()
    repeats = total = 0
    for item in items:
        for shape, args, kwargs in item:
            key = (shape, args, tuple(sorted(kwargs.items())))
            repeats += key in seen
            seen.add(key)
            total += 1
    return repeats / total if total else 0.0


def send(backend, request: tuple):
    shape, args, kwargs = request
    return getattr(backend, shape)(*args, **kwargs)


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One read request as the client saw it."""

    index: int  # position of its item in the stream
    request: tuple
    start: int  # perf_counter_ns
    end: int
    answer: object = None
    error: str | None = None


@dataclass
class LoopResult:
    begin: int  # perf_counter_ns when the (first) timed phase started
    elapsed_ns: int = 0  # summed over timed phases
    samples: list[Sample] = field(default_factory=list)
    next_item: int = 0  # index of the first item not sent
    retries: int = 0
    #: 503 responses the clients saw, warm-up and retried ones included
    #: (for information: a request counts as failed only if it failed).
    status_503: int = 0

    @property
    def end(self) -> int:
        return max((s.end for s in self.samples), default=self.begin)

    @property
    def ok(self) -> list[Sample]:
        return [s for s in self.samples if s.error is None]

    @property
    def qps(self) -> float:
        return len(self.ok) / (self.elapsed_ns / 1e9)

    @staticmethod
    def merge(parts: Sequence["LoopResult"]) -> "LoopResult":
        """One result over consecutive timed phases of one stream."""
        return LoopResult(
            begin=parts[0].begin,
            elapsed_ns=sum(p.elapsed_ns for p in parts),
            samples=[s for p in parts for s in p.samples],
            next_item=parts[-1].next_item,
            retries=sum(p.retries for p in parts),
            status_503=sum(p.status_503 for p in parts),
        )


def closed_loop(
    connect: Callable[[], object],
    items: Stream,
    *,
    clients: int,
    seconds: float,
    errors: tuple[type[BaseException], ...],
    start: int = 0,
    warmup_items: int = 0,
    on_begin: Callable[[], None] | None = None,
    request_span: Callable[[Sample], object] | None = None,
) -> LoopResult:
    """Send ``items[start:]`` from ``clients`` threads, each with its
    own backend from ``connect()``, each sending its next item only
    after the previous one returned.

    Clients take items in stream order from one shared cursor.  The
    first ``warmup_items`` items are sent untimed; then the timed phase
    runs for ``seconds`` (an item begun before the deadline is
    finished).  ``on_begin()`` runs once, right before the timed phase
    starts (the delay poster hooks in there); ``request_span(sample)``,
    when given, is a context manager opened around each timed request
    (the client-side trace).
    """
    cursor = itertools.count(start)
    lock = threading.Lock()
    warm = threading.Barrier(clients + 1)
    go = threading.Barrier(clients + 1)
    state: dict = {}
    per_client: list[list[Sample]] = [[] for _ in range(clients)]
    backends: list = []
    failures: list[BaseException] = []

    def take() -> int:
        with lock:
            return next(cursor)

    def client(cid: int) -> None:
        backend = connect()
        backends.append(backend)
        try:
            while (i := take()) < start + warmup_items:
                for request in items[i]:
                    send(backend, request)
            warm.wait()
            go.wait()
            deadline = state["deadline"]
            while True:
                for request in items[i]:
                    sample = Sample(i, request, 0, 0)
                    sample.start = time.perf_counter_ns()
                    try:
                        if request_span is None:
                            sample.answer = send(backend, request)
                        else:
                            with request_span(sample):
                                sample.answer = send(backend, request)
                    except errors as exc:
                        sample.error = f"{type(exc).__name__}: {exc}"
                    sample.end = time.perf_counter_ns()
                    per_client[cid].append(sample)
                if time.perf_counter_ns() >= deadline:
                    break
                i = take()
        except BaseException as exc:  # re-raised below
            failures.append(exc)
            for barrier in (warm, go):
                barrier.abort()
        finally:
            backend.close()

    threads = [
        threading.Thread(target=client, args=(cid,), name=f"client-{cid}", daemon=True)
        for cid in range(clients)
    ]
    for t in threads:
        t.start()
    try:
        warm.wait()
        if on_begin is not None:
            on_begin()
        # Each client already holds the first index past the warm-up
        # range: those are the first timed items.
        begin = time.perf_counter_ns()
        state["deadline"] = begin + int(seconds * 1e9)
        go.wait()
    except threading.BrokenBarrierError:
        begin = time.perf_counter_ns()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    result = LoopResult(begin=begin)
    for samples in per_client:
        result.samples.extend(samples)
    result.samples.sort(key=lambda s: s.start)
    result.elapsed_ns = result.end - begin
    with lock:
        result.next_item = next(cursor)
    for backend in backends:
        result.retries += backend.stats.retries
        result.status_503 += backend.stats.responses_by_status.get(503, 0)
    return result


# ---------------------------------------------------------------------------
# The delay poster (open loop on a fixed schedule).
# ---------------------------------------------------------------------------


@dataclass
class Post:
    due: int  # perf_counter_ns
    sent: int = 0
    acked: int = 0
    generation: int | None = None
    error: str | None = None

    @property
    def lateness_s(self) -> float:
        return (self.sent - self.due) / 1e9

    @property
    def ack_ms(self) -> float:
        """From sending the batch to its acknowledged swap."""
        return (self.acked - self.sent) / 1e6


def post_delays(
    backend,
    batches: Sequence[tuple[tuple, int]],
    offsets_s: Sequence[float],
    *,
    errors: tuple[type[BaseException], ...],
) -> list[Post]:
    """Post ``batches[k]`` ``offsets_s[k]`` seconds after the call, one
    after another, each with ``replan=incremental``.  A post that falls
    behind its schedule goes out at once and records its lateness."""
    if len(batches) < len(offsets_s):
        raise ValueError(
            f"{len(offsets_s)} posts scheduled but only {len(batches)} delay batches"
        )
    t0 = time.perf_counter_ns()
    posts = []
    for (delays, slack), offset in zip(batches, offsets_s):
        post = Post(t0 + int(offset * 1e9))
        pause = (post.due - time.perf_counter_ns()) / 1e9
        if pause > 0:
            time.sleep(pause)
        post.sent = time.perf_counter_ns()
        try:
            update = backend.apply_delays(
                list(delays), slack_per_leg=slack, replan="incremental"
            )
            post.generation = update.generation
        except errors as exc:
            post.error = f"{type(exc).__name__}: {exc}"
        post.acked = time.perf_counter_ns()
        posts.append(post)
    return posts
