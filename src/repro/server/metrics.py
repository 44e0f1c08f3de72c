"""Server-side observability: what a worker counts beyond requests.

One :class:`ServerMetrics` belongs to one
:class:`~repro.server.app.TransitServer`.  The request, response,
latency, rejection and in-flight counters are the HTTP front's
(:class:`~repro.server.http_base.RequestMetrics`, shared with the
fleet gateway); this class adds client-declared retries,
micro-batching and delay swaps.  All mutation happens on the
event-loop thread (the request handlers observe after the worker-pool
call returns), so no locking is needed; :meth:`ServerMetrics.snapshot`
renders a JSON-safe dict for the ``/metrics`` endpoint, folding in the
per-dataset :class:`~repro.service.cache.CacheStats` so cache hit
rates are visible next to the request counters they explain.
"""

from __future__ import annotations

from repro.server.http_base import (  # noqa: F401 — public here too
    LATENCY_BUCKETS_MS,
    LatencyHistogram,
    RequestMetrics,
)


class ServerMetrics(RequestMetrics):
    """Request/response accounting of one server (event-loop-only)."""

    def __init__(self) -> None:
        super().__init__()
        self.retries_observed_total = 0  # guarded-by: loop
        self.micro_batches_total = 0  # guarded-by: loop
        self.micro_batched_queries_total = 0  # guarded-by: loop
        self.micro_batch_max_size = 0  # guarded-by: loop
        self.swaps_total: dict[str, int] = {}  # guarded-by: loop
        self.last_swap_seconds: dict[str, float] = {}  # guarded-by: loop

    # -- observation hooks ---------------------------------------------

    def observe_client_retry(self) -> None:
        """A request declared itself a retry (``X-Retry-Attempt`` > 0)
        — cooperative clients such as
        :class:`repro.client.HttpBackend` mark their 503 backoff
        retries this way, making retry pressure visible server-side."""
        self.retries_observed_total += 1

    def observe_micro_batch(self, size: int) -> None:
        self.micro_batches_total += 1
        self.micro_batched_queries_total += size
        self.micro_batch_max_size = max(self.micro_batch_max_size, size)

    def observe_swap(self, dataset: str, seconds: float) -> None:
        self.swaps_total[dataset] = self.swaps_total.get(dataset, 0) + 1
        self.last_swap_seconds[dataset] = seconds

    # -- rendering ------------------------------------------------------

    def snapshot(self, registry=None) -> dict:
        """JSON-safe metrics document (the ``/metrics`` payload).

        ``registry``, when given, contributes per-dataset generation
        counters and result-cache hit rates
        (:attr:`TransitService.cache_stats`)."""
        batches = self.micro_batches_total
        payload: dict = {
            **super().snapshot(),
            "retries_observed_total": self.retries_observed_total,
            "micro_batching": {
                "batches_total": batches,
                "batched_queries_total": self.micro_batched_queries_total,
                "max_batch_size": self.micro_batch_max_size,
                "mean_batch_size": round(
                    self.micro_batched_queries_total / batches, 3
                )
                if batches
                else None,
            },
            "swaps_total": dict(self.swaps_total),
            "last_swap_seconds": {
                name: round(seconds, 6)
                for name, seconds in self.last_swap_seconds.items()
            },
        }
        if registry is not None:
            datasets: dict[str, dict] = {}
            for entry in registry.entries():
                cache = entry.service.cache_stats
                datasets[entry.name] = {
                    "generation": entry.generation,
                    "result_cache": {
                        "hits": cache.hits,
                        "misses": cache.misses,
                        "size": cache.size,
                        "maxsize": cache.maxsize,
                        "hit_rate": round(cache.hit_rate, 4),
                    },
                }
            payload["datasets"] = datasets
        return payload
