"""In-memory spans around calls into the layers of ``repro``.

A span is one call: its name, start and end (``time.perf_counter_ns``,
which on Linux reads the system-wide monotonic clock, so spans from the
benchmark process and the server process share one time axis), the span
that caused it, a request id where one is known, and a few attributes
read from the call's result.

Spans are kept in a list and written once, when the traced run ends.
Parents come from a per-thread stack for nested synchronous calls.  A
call that crosses into another thread (the server hands requests from
its event loop to a worker pool) is linked through the request object:
the caller registers the request with :meth:`SpanRecorder.own`, and the
callee's span takes that owner as its parent.  A grouped call that
answers several requests at once (a micro-batch) keeps the first owner
as its parent and lists the others in ``links``; for self time, a span
counts as a child of its parent and of every linked span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import threading
import time
from typing import Callable, Iterable, Sequence

#: Field order of a recorded span tuple.
FIELDS = ("id", "parent", "name", "start", "end", "rid", "links", "attrs")


class SpanRecorder:
    """Collects spans from any number of threads of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: ``id(request) -> (span id, request id)`` while the request is
        #: being answered on another thread.
        self._owners: dict[int, tuple[int, object]] = {}

    # -- bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def owner(self, request: object) -> tuple[int, object] | None:
        return self._owners.get(id(request))

    @contextlib.contextmanager
    def own(self, request: object, span_id: int, rid: object = None):
        """Mark ``request`` as answered under ``span_id`` for the
        duration of the ``with`` block."""
        self._owners[id(request)] = (span_id, rid)
        try:
            yield
        finally:
            self._owners.pop(id(request), None)

    def record(
        self,
        name: str,
        start: int,
        end: int,
        *,
        span_id: int | None = None,
        parent: int | None = None,
        rid: object = None,
        links: tuple[int, ...] = (),
        attrs: dict | None = None,
    ) -> int:
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append((span_id, parent, name, start, end, rid, links, attrs))
        return span_id

    # -- wrappers ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, *, rid: object = None):
        """One span around a ``with`` block of this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.record(name, start, end, span_id=span_id, parent=parent, rid=rid)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        requests: Callable[[tuple], Sequence[object]] | None = None,
        attrs: Callable[[object], dict] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``requests(args)`` names the request objects the call answers,
        to find their owners when no synchronous span of this thread is
        open; ``attrs(result)`` reads attributes off the result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            rid = None
            links: tuple[int, ...] = ()
            if parent is None and requests is not None:
                owners = [self.owner(r) for r in requests(args)]
                owners = [o for o in owners if o is not None]
                if owners:
                    parent, rid = owners[0]
                    links = tuple(o[0] for o in owners[1:])
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            self.record(
                name,
                start,
                end,
                span_id=span_id,
                parent=parent,
                rid=rid,
                links=links,
                attrs=attrs(result) if attrs is not None else None,
            )
            return result

        return wrapper

    def wrap_async(
        self,
        fn: Callable,
        name: str,
        *,
        request_arg: int | None = None,
    ) -> Callable:
        """Coroutine function ``fn`` recording one span per await.

        Coroutines interleave on one thread, so the span is never put on
        the thread's stack; ``args[request_arg]``, when given, is
        registered as owned by this span until the await returns.
        """

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            request = args[request_arg] if request_arg is not None else None
            rid = span_id if request is not None else None
            owned = (
                self.own(request, span_id, rid)
                if request is not None
                else contextlib.nullcontext()
            )
            start = time.perf_counter_ns()
            try:
                with owned:
                    return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.record(name, start, end, span_id=span_id, rid=rid)

        return wrapper

    def as_dicts(self) -> list[dict]:
        return [span_dict(s) for s in self.spans]


def span_dict(span: tuple) -> dict:
    out = dict(zip(FIELDS, span))
    out["links"] = list(out["links"])
    return out


def patch(owner: object, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` with ``wrapper(owner.attr)``."""
    setattr(owner, attr, wrapper(getattr(owner, attr)))


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans (dicts with the FIELDS keys).
# ---------------------------------------------------------------------------


def covered(interval: tuple[int, int], children: Iterable[tuple[int, int]]) -> int:
    """Length of ``interval`` covered by the union of ``children``
    (each clipped to ``interval``)."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a)
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> dict[int, int]:
    """``span id -> self time``: duration minus the part of it covered
    by child spans (a span is a child of its parent and of each span it
    links to)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        for p in ([s["parent"]] if s["parent"] is not None else []) + list(s["links"]):
            children.setdefault(p, []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered((s["start"], s["end"]), children.get(s["id"], ()))
        for s in spans
    }


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation
    between closest ranks (``statistics.quantiles`` 'inclusive')."""
    if not values:
        raise ValueError("percentile of no values")
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q) - 1]
