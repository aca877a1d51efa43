"""Service-level telemetry for the job service (``GET /v1/metrics``).

:mod:`repro.obs` instruments individual simulation runs; this module
instruments the *service* around them — the request path, the job queue,
and the worker pool — so operators can see queue-wait, backpressure, and
tail latency before they become outages.  One :class:`ServiceTelemetry` is
shared by the :class:`~repro.service.jobs.JobManager` and the HTTP layer
and is exposed at ``GET /v1/metrics`` as JSON or Prometheus text
(:mod:`repro.obs.promfmt`).

Metric catalog
--------------
``deuce_http_requests_total{method,route,status}``
    Counter of handled requests, labeled by route *template*
    (``/jobs/{id}``, never raw ids — bounded cardinality).
``deuce_http_request_duration_seconds{method,route}``
    Fixed-bucket latency histogram per route with p50/p95/p99 estimates.
``deuce_http_backpressure_total`` / ``deuce_http_draining_total``
    Counters of 429 (queue full) and 503 (draining) rejections.
``deuce_jobs_submitted_total{kind}`` / ``deuce_jobs_finished_total{kind,state}``
    Job lifecycle counters.
``deuce_job_queue_wait_seconds{kind}`` / ``deuce_job_exec_seconds{kind}`` /
``deuce_job_total_seconds{kind}``
    Job phase histograms: queued→running, running→terminal, and end to end.
``deuce_queue_depth`` / ``deuce_jobs_in_flight`` / ``deuce_queue_capacity`` /
``deuce_service_draining``
    Queue gauges, refreshed at scrape time.
``deuce_worker_heartbeat_seconds{worker}`` / ``deuce_worker_busy{worker}`` /
``deuce_worker_jobs_total{worker}``
    Per-worker liveness: the heartbeat gauge holds seconds-since-start of
    the worker's last poll (compare against uptime to spot a stuck worker).
``deuce_service_uptime_seconds`` / ``deuce_metrics_scrapes_total``
    Service uptime and scrape count (the latter makes counter
    monotonicity visible across consecutive scrapes).

All updates take one internal lock — HTTP handler threads and job workers
mutate instruments concurrently, and a torn histogram update would corrupt
bucket counts.  The lock is uncontended in practice (sub-microsecond
critical sections against millisecond-scale requests).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.promfmt import render_prometheus

#: Request latency bucket bounds (seconds): sub-ms health probes up to
#: multi-second ledger queries.
REQUEST_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Job phase bucket bounds (seconds): jobs run for seconds to minutes.
JOB_BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 300.0, 900.0,
)


class ServiceTelemetry:
    """Thread-safe instrument bundle for the job service.

    Parameters
    ----------
    registry:
        The backing :class:`~repro.obs.metrics.MetricsRegistry`; a fresh
        one by default.
    clock:
        Monotonic time source (injectable for tests).

    ``lock`` guards every registry update and scrape; another writer on
    the same registry (the fleet's
    :class:`~repro.service.coordinator.FleetTelemetry`) takes it too.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self.lock = threading.Lock()
        self.started = clock()
        # Pre-register the unlabeled families so an idle service still
        # exposes a complete catalog on its very first scrape.
        with self.lock:
            self.registry.counter("deuce_http_backpressure_total")
            self.registry.counter("deuce_http_draining_total")
            self.registry.gauge("deuce_queue_depth")
            self.registry.gauge("deuce_jobs_in_flight")
            self.registry.gauge("deuce_queue_capacity")
            self.registry.gauge("deuce_service_draining")
            self.registry.gauge("deuce_service_uptime_seconds")
            self.registry.counter("deuce_metrics_scrapes_total")

    @property
    def uptime_s(self) -> float:
        return self._clock() - self.started

    # -- request path --------------------------------------------------------

    def observe_request(
        self,
        method: str,
        route: str,
        status: int,
        seconds: float,
        trace_id: str = "",
    ) -> None:
        """Record one handled HTTP request.

        ``route`` must be a bounded template (``/jobs/{id}``), never a raw
        path — every distinct label set is a live instrument.  ``trace_id``
        becomes the latency bucket's exemplar, linking the histogram to
        the concrete request that landed there.
        """
        with self.lock:
            self.registry.counter(
                "deuce_http_requests_total",
                {"method": method, "route": route, "status": str(status)},
            ).inc()
            self.registry.bucket_histogram(
                "deuce_http_request_duration_seconds",
                {"method": method, "route": route},
                buckets=REQUEST_BUCKETS,
            ).observe(seconds, exemplar=trace_id)
            if status == 429:
                self.registry.counter("deuce_http_backpressure_total").inc()
            elif status == 503:
                self.registry.counter("deuce_http_draining_total").inc()

    # -- job lifecycle -------------------------------------------------------

    def job_submitted(self, kind: str) -> None:
        with self.lock:
            self.registry.counter(
                "deuce_jobs_submitted_total", {"kind": kind}
            ).inc()

    def job_started(
        self, kind: str, queue_wait_s: float, trace_id: str = ""
    ) -> None:
        """A job left the queue; records its queue-wait phase."""
        with self.lock:
            self.registry.bucket_histogram(
                "deuce_job_queue_wait_seconds", {"kind": kind},
                buckets=JOB_BUCKETS,
            ).observe(queue_wait_s, exemplar=trace_id)

    def job_finished(
        self,
        kind: str,
        state: str,
        exec_s: float,
        total_s: float,
        trace_id: str = "",
    ) -> None:
        """A job reached a terminal state; records exec and total phases.

        ``trace_id`` (the job's correlated-trace id) becomes the bucket
        exemplar, so a slow ``deuce_job_exec_seconds`` bucket points at an
        exportable trace (``deuce-sim trace export <job_id>``).
        """
        with self.lock:
            self.registry.counter(
                "deuce_jobs_finished_total", {"kind": kind, "state": state}
            ).inc()
            self.registry.bucket_histogram(
                "deuce_job_exec_seconds", {"kind": kind}, buckets=JOB_BUCKETS
            ).observe(exec_s, exemplar=trace_id)
            self.registry.bucket_histogram(
                "deuce_job_total_seconds", {"kind": kind}, buckets=JOB_BUCKETS
            ).observe(total_s, exemplar=trace_id)

    # -- queue / workers -----------------------------------------------------

    def sample_queue(
        self, *, depth: int, in_flight: int, capacity: int, draining: bool
    ) -> None:
        """Refresh the queue gauges (called at scrape/health time)."""
        with self.lock:
            self.registry.gauge("deuce_queue_depth").set(depth)
            self.registry.gauge("deuce_jobs_in_flight").set(in_flight)
            self.registry.gauge("deuce_queue_capacity").set(capacity)
            self.registry.gauge("deuce_service_draining").set(
                1.0 if draining else 0.0
            )

    def worker_heartbeat(self, worker: str, *, busy: bool = False) -> None:
        """A worker thread polled the queue (or picked up / finished a job)."""
        with self.lock:
            self.registry.gauge(
                "deuce_worker_heartbeat_seconds", {"worker": worker}
            ).set(round(self.uptime_s, 3))
            self.registry.gauge(
                "deuce_worker_busy", {"worker": worker}
            ).set(1.0 if busy else 0.0)
            if busy:
                self.registry.counter(
                    "deuce_worker_jobs_total", {"worker": worker}
                ).inc()

    # -- export --------------------------------------------------------------

    def snapshot(self) -> list[dict[str, object]]:
        """All instruments as JSON-safe dicts (one scrape)."""
        with self.lock:
            self.registry.gauge("deuce_service_uptime_seconds").set(
                round(self.uptime_s, 3)
            )
            self.registry.counter("deuce_metrics_scrapes_total").inc()
            return self.registry.snapshot()

    def to_prometheus(self) -> str:
        """One scrape in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())
