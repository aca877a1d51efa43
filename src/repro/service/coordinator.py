"""Fleet coordinator: shard one sweep across ``deuce-sim serve`` workers.

The DEUCE design-space grids (epoch interval x word size x scheme x
workload) outgrow one process long before they outgrow one lab: this
module turns N independent ``deuce-sim serve`` endpoints into a sweep
fabric.  The coordinator owns the grid; workers own nothing but the cell
they are currently running.

* :class:`WorkerClient` — a stdlib-only HTTP client for one worker's
  ``/v1`` job API (submit a cell as a ``kind="run"`` envelope, poll its
  status, fetch its exact result payload, cancel, probe ``/v1/healthz``).
* :class:`FleetExecutor` — the scheduler.  ``run_suite`` has the same
  contract as :func:`repro.sim.parallel.run_suite_parallel`: results in
  submission order, completed cells recorded to the ledger/checkpoint
  the moment they finish, cancellation via ``should_stop``, failures
  charged against the shared :class:`~repro.sim.parallel.RetryBudget`.
  On top of that it keeps a bounded in-flight window per worker, probes
  ``/v1/healthz`` periodically, requeues the cells of a dead worker, and
  steals long-running cells onto idle workers (straggler re-dispatch
  with first-completion-wins dedup by cell index).
* :class:`FleetTelemetry` — per-worker dispatch/latency/steal counters
  on a :class:`~repro.obs.metrics.MetricsRegistry`, served from the
  coordinator's ``/v1/metrics``.
* :func:`serve_coordinator` — the ``deuce-sim coordinate`` long-running
  mode: a small HTTP service accepting sweep envelopes and running each
  over the fleet in a background thread, with ledger-keyed checkpoints
  so re-submitting a sweep id after a coordinator restart resumes
  exactly like a local ``--resume``.

Because a worker returns the full ``RunResult.to_dict()`` payload and
the coordinator records it through the same ``on_complete`` path the
local pool uses, a merged fleet sweep is bit-identical (ignoring the
documented volatile fields ``wall_time_s``/``run_id``) to a single-node
sweep of the same grid, and its checkpoint resumes interchangeably.
"""

from __future__ import annotations

import heapq
import http.client
import json
import re
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.obs.promfmt import render_prometheus
from repro.obs.progress import DONE, HEARTBEAT, START, ProgressEvent
from repro.obs.tracing import JsonlSink, Tracer
from repro.sim.checkpoint import SweepCheckpoint, config_signature
from repro.sim.config import SimConfig
from repro.sim.parallel import (
    RetryBudget,
    SweepCancelled,
    SweepCellFailed,
    SweepTracing,
)
from repro.sim.results import RunResult
from repro.service.jobs import (
    CANCELLED,
    DONE as JOB_DONE,
    FAILED,
    JobError,
    JobSpec,
    new_job_id,
)
from repro.service.server import API_VERSION, JsonHandler, serve_until_signal

__all__ = [
    "FleetExecutor",
    "FleetTelemetry",
    "WorkerClient",
    "WorkerError",
    "serve_coordinator",
]

#: Fixed upper bounds for per-cell latency histograms (seconds).  Cells
#: run whole traces, so the scale is job-like, not request-like.
CELL_SECONDS_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Consecutive transport failures (probe or poll) before a worker is
#: declared dead and its in-flight cells are requeued.
DEAD_AFTER_ERRORS = 2


class WorkerError(RuntimeError):
    """A worker endpoint misbehaved (transport error or HTTP failure).

    ``status`` carries the HTTP status code when there was one, else 0
    (connection refused, timeout, DNS...).
    """

    def __init__(self, message: str, *, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class WorkerClient:
    """Stdlib HTTP client for one ``deuce-sim serve`` worker's /v1 API."""

    def __init__(self, url: str, *, timeout_s: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(
        self,
        method: str,
        path: str,
        payload: object | None = None,
        trace_id: str = "",
    ) -> dict:
        body = None
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode()
        request = urllib.request.Request(
            self.url + path, data=body, method=method
        )
        request.add_header("Content-Type", "application/json")
        if trace_id:
            request.add_header("X-Trace-Id", trace_id)
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read() or b"{}").get("error", "")
            except (ValueError, OSError):
                pass
            raise WorkerError(
                f"{method} {self.url}{path} -> HTTP {exc.code}"
                + (f": {detail}" if detail else ""),
                status=exc.code,
            ) from exc
        except (
            urllib.error.URLError,
            http.client.HTTPException,  # e.g. IncompleteRead on SIGKILL
            OSError,
            ValueError,
        ) as exc:
            raise WorkerError(
                f"{method} {self.url}{path} failed: {exc}"
            ) from exc
        if not raw:
            return {}
        try:
            decoded = json.loads(raw)
        except ValueError as exc:
            raise WorkerError(
                f"{method} {self.url}{path} returned non-JSON"
            ) from exc
        return decoded if isinstance(decoded, dict) else {"value": decoded}

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def submit(self, envelope: dict, trace_id: str = "") -> str:
        """POST a job envelope; returns the worker's job id."""
        reply = self._request("POST", "/v1/jobs", envelope, trace_id)
        job_id = reply.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise WorkerError(
                f"POST {self.url}/v1/jobs returned no job_id: {reply!r}"
            )
        return job_id

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> None:
        self._request("DELETE", f"/v1/jobs/{job_id}")


class FleetTelemetry:
    """Per-worker fleet counters on a :class:`MetricsRegistry`.

    Instruments (all labeled ``worker=<name>``):

    * ``fleet.cells_dispatched`` / ``fleet.cells_completed`` /
      ``fleet.cells_failed`` — dispatch outcomes.
    * ``fleet.cells_stolen`` — cells re-dispatched *away from* this
      worker (it was the straggler).
    * ``fleet.cells_requeued`` — in-flight cells requeued because this
      worker died.
    * ``fleet.duplicate_completions`` — steal-race losers deduplicated.
    * ``fleet.cell_seconds`` — dispatch-to-completion latency histogram.
    * ``fleet.worker_healthy`` / ``fleet.worker_in_flight`` — gauges.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()

    def _labels(self, worker: str) -> dict[str, str]:
        return {"worker": worker}

    def dispatched(self, worker: str) -> None:
        with self._lock:
            self.registry.counter(
                "fleet.cells_dispatched", self._labels(worker)
            ).inc()

    def completed(self, worker: str, seconds: float, trace_id: str = "") -> None:
        with self._lock:
            self.registry.counter(
                "fleet.cells_completed", self._labels(worker)
            ).inc()
            self.registry.bucket_histogram(
                "fleet.cell_seconds",
                self._labels(worker),
                buckets=CELL_SECONDS_BUCKETS,
            ).observe(seconds, exemplar=trace_id)

    def failed(self, worker: str) -> None:
        with self._lock:
            self.registry.counter(
                "fleet.cells_failed", self._labels(worker)
            ).inc()

    def stolen(self, worker: str) -> None:
        with self._lock:
            self.registry.counter(
                "fleet.cells_stolen", self._labels(worker)
            ).inc()

    def requeued(self, worker: str, cells: int) -> None:
        with self._lock:
            self.registry.counter(
                "fleet.cells_requeued", self._labels(worker)
            ).inc(cells)

    def duplicate(self, worker: str) -> None:
        with self._lock:
            self.registry.counter(
                "fleet.duplicate_completions", self._labels(worker)
            ).inc()

    def health(self, worker: str, healthy: bool) -> None:
        with self._lock:
            self.registry.gauge(
                "fleet.worker_healthy", self._labels(worker)
            ).set(1.0 if healthy else 0.0)

    def in_flight(self, worker: str, count: int) -> None:
        with self._lock:
            self.registry.gauge(
                "fleet.worker_in_flight", self._labels(worker)
            ).set(float(count))

    def snapshot(self) -> dict:
        with self._lock:
            return self.registry.snapshot()


@dataclass
class _Dispatch:
    """One live (worker, cell) assignment."""

    job_id: str
    index: int
    started: float
    stolen: bool = False
    writes_done: int = 0


class _FleetWorker:
    """Coordinator-side state for one worker endpoint."""

    def __init__(self, name: str, client: WorkerClient) -> None:
        self.name = name
        self.client = client
        self.url = client.url
        self.healthy = True
        self.errors = 0  # consecutive transport failures
        self.next_probe = 0.0
        self.in_flight: dict[str, _Dispatch] = {}
        self.dispatched = 0
        self.completed = 0
        self.lane: Tracer | None = None

    def stats(self) -> dict[str, object]:
        return {
            "name": self.name,
            "url": self.url,
            "healthy": self.healthy,
            "in_flight": len(self.in_flight),
            "dispatched": self.dispatched,
            "completed": self.completed,
        }


def _worker_name(index: int, url: str) -> str:
    host = urlsplit(url).netloc or url
    return f"w{index}:{host}"


class FleetExecutor:
    """Shard sweep cells across worker endpoints over HTTP.

    Drop-in executor for :meth:`repro.api.Session.sweep`'s ``executor``
    seam: ``run_suite`` mirrors
    :func:`~repro.sim.parallel.run_suite_parallel`'s contract (ordering,
    ledger/checkpoint recording, cancellation, retry semantics) while
    scheduling over the fleet instead of a local process pool.

    Parameters
    ----------
    worker_urls:
        Base URLs of ``deuce-sim serve`` endpoints (at least one).
    window:
        Bounded in-flight cells per worker.
    probe_interval_s:
        Seconds between ``/v1/healthz`` probes per worker.
    poll_interval_s:
        Scheduler tick; in-flight job statuses are polled at this rate.
    straggler_factor / straggler_min_s:
        A cell becomes stealable once it has run longer than
        ``max(straggler_min_s, straggler_factor * median completed cell
        latency)``; an idle worker then gets a duplicate dispatch and
        the first completion wins.
    request_timeout_s:
        Per-HTTP-request timeout.
    fleet_down_timeout_s:
        With every worker unhealthy for this long, the sweep fails
        (:class:`SweepCellFailed`, resumable) instead of spinning.
    telemetry:
        Optional :class:`FleetTelemetry` (shared in coordinate mode so
        all sweeps land on one ``/v1/metrics``).
    client_factory:
        Injection point for tests: ``(url) -> WorkerClient``-shaped
        object.
    """

    def __init__(
        self,
        worker_urls: Sequence[str],
        *,
        window: int = 2,
        probe_interval_s: float = 2.0,
        poll_interval_s: float = 0.05,
        straggler_factor: float = 4.0,
        straggler_min_s: float = 5.0,
        request_timeout_s: float = 10.0,
        fleet_down_timeout_s: float = 60.0,
        telemetry: FleetTelemetry | None = None,
        client_factory: Callable[[str], WorkerClient] | None = None,
    ) -> None:
        urls = [u for u in worker_urls if u]
        if not urls:
            raise ValueError("a fleet needs at least one worker URL")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        factory = client_factory or (
            lambda url: WorkerClient(url, timeout_s=request_timeout_s)
        )
        self.workers = [
            _FleetWorker(_worker_name(i, url), factory(url))
            for i, url in enumerate(urls)
        ]
        self.window = window
        self.probe_interval_s = probe_interval_s
        self.poll_interval_s = poll_interval_s
        self.straggler_factor = straggler_factor
        self.straggler_min_s = straggler_min_s
        self.fleet_down_timeout_s = fleet_down_timeout_s
        self.telemetry = telemetry if telemetry is not None else FleetTelemetry()
        self.steals = 0
        self.requeues = 0
        self.duplicates = 0

    # -- helpers -------------------------------------------------------------

    def _cell_envelope(self, config: SimConfig, label: str) -> dict:
        return {
            "kind": "run",
            "config": config.to_dict(),
            "options": {"label": label},
        }

    def _try_cancel(self, worker: _FleetWorker, job_id: str) -> None:
        try:
            worker.client.cancel(job_id)
        except WorkerError:
            pass  # best-effort; the job will finish and be deduplicated

    def fleet_stats(self) -> list[dict[str, object]]:
        return [worker.stats() for worker in self.workers]

    # -- the scheduler -------------------------------------------------------

    def run_suite(
        self,
        configs: Sequence[SimConfig],
        *,
        progress: Callable[[ProgressEvent], None] | None = None,
        heartbeat_every: int = 0,
        ledger=None,
        ledger_label: str = "",
        should_stop: Callable[[], bool] | None = None,
        retries: int = 0,
        retry_backoff_s: float = 0.5,
        checkpoint: "SweepCheckpoint | str | None" = None,
        tracing: SweepTracing | None = None,
    ) -> list[RunResult]:
        """Run the grid over the fleet; same contract as the local pool.

        ``heartbeat_every`` is accepted for signature parity but unused:
        fleet heartbeats derive from the workers' own job progress
        (``writes_done`` in the polled status).
        """
        del heartbeat_every
        configs = list(configs)
        if not configs:
            return []
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if checkpoint is not None and not isinstance(
            checkpoint, SweepCheckpoint
        ):
            checkpoint = SweepCheckpoint(checkpoint)

        n = len(configs)
        results: list[RunResult | None] = [None] * n
        if checkpoint is not None:
            restored = checkpoint.restore()
            for i, config in enumerate(configs):
                hit = restored.get(config_signature(config))
                if hit is not None:
                    results[i] = hit
        todo = [i for i in range(n) if results[i] is None]
        if not todo:
            return results  # type: ignore[return-value]

        def on_complete(index: int, result: RunResult) -> None:
            """Record one finished cell durably, the moment it finishes."""
            config = configs[index]
            if tracing is not None:
                tracing.tracer.event(
                    "cell.done", cell=index, workload=config.workload,
                    scheme=config.scheme,
                )
            if ledger is not None:
                result.manifest = ledger.record_result(
                    result, config, kind="sweep-cell", label=ledger_label
                )
            if checkpoint is not None:
                run_id = result.manifest.run_id if result.manifest else ""
                checkpoint.record(index, config, result, run_id=run_id)

        if tracing is not None:
            Path(tracing.dir).mkdir(parents=True, exist_ok=True)
        started_monotonic = time.monotonic()
        self._open_worker_lanes(tracing)
        try:
            self._schedule(
                configs, todo, results, progress, should_stop,
                RetryBudget(configs, todo, retries, retry_backoff_s),
                on_complete, tracing,
            )
        finally:
            self._close_worker_lanes()
        if ledger is not None:
            self._record_fleet_manifest(
                ledger, ledger_label, n,
                time.monotonic() - started_monotonic,
            )
        return results  # type: ignore[return-value]

    def _schedule(
        self,
        configs: list[SimConfig],
        todo: list[int],
        results: "list[RunResult | None]",
        progress: Callable[[ProgressEvent], None] | None,
        should_stop: Callable[[], bool] | None,
        budget: RetryBudget,
        on_complete: Callable[[int, RunResult], None],
        tracing: SweepTracing | None,
    ) -> None:
        n = len(configs)
        trace_id = tracing.context.trace_id if tracing is not None else ""
        ready: deque[int] = deque(todo)
        delayed: list[tuple[float, int]] = []
        remaining = set(todo)
        completed: set[int] = set()
        # index -> live dispatches; 2 entries while a steal race is open.
        active: dict[int, list[tuple[_FleetWorker, _Dispatch]]] = {}
        latencies: list[float] = []
        all_dead_since: float | None = None

        def emit(kind: str, index: int, writes_done: int = 0) -> None:
            if progress is None:
                return
            config = configs[index]
            progress(ProgressEvent(
                kind=kind, cell=index, n_cells=n,
                writes_done=(
                    config.n_writes if kind == DONE else writes_done
                ),
                n_writes=config.n_writes,
                workload=config.workload, scheme=config.scheme,
            ))

        def lane_event(worker: _FleetWorker, name: str, **fields) -> None:
            if worker.lane is not None:
                worker.lane.event(name, **fields)

        def mark_dead(worker: _FleetWorker, why: str) -> None:
            if not worker.healthy and not worker.in_flight:
                return
            worker.healthy = False
            self.telemetry.health(worker.name, False)
            lost = [
                d for d in worker.in_flight.values()
                if d.index not in completed
            ]
            worker.in_flight.clear()
            self.telemetry.in_flight(worker.name, 0)
            requeued = 0
            for dispatch in lost:
                entries = active.get(dispatch.index, [])
                active[dispatch.index] = [
                    (w, d) for (w, d) in entries if d is not dispatch
                ]
                if active[dispatch.index]:
                    continue  # a stolen duplicate is still running elsewhere
                active.pop(dispatch.index, None)
                delay = budget.charge(
                    dispatch.index,
                    WorkerError(f"worker {worker.name} died: {why}"),
                    results=results,
                )
                heapq.heappush(
                    delayed, (time.monotonic() + delay, dispatch.index)
                )
                requeued += 1
            if requeued:
                self.requeues += requeued
                self.telemetry.requeued(worker.name, requeued)
            lane_event(worker, "worker.dead", reason=why, requeued=requeued)
            if tracing is not None:
                tracing.tracer.event(
                    "worker.dead", worker=worker.name, requeued=requeued
                )

        def transport_error(worker: _FleetWorker, why: str) -> None:
            worker.errors += 1
            if worker.errors >= DEAD_AFTER_ERRORS:
                mark_dead(worker, why)

        def remove_dispatch(
            worker: _FleetWorker, dispatch: _Dispatch
        ) -> None:
            worker.in_flight.pop(dispatch.job_id, None)
            self.telemetry.in_flight(worker.name, len(worker.in_flight))
            entries = active.get(dispatch.index, [])
            entries = [(w, d) for (w, d) in entries if d is not dispatch]
            if entries:
                active[dispatch.index] = entries
            else:
                active.pop(dispatch.index, None)

        def fail_dispatch(
            worker: _FleetWorker, dispatch: _Dispatch, exc: Exception
        ) -> None:
            remove_dispatch(worker, dispatch)
            self.telemetry.failed(worker.name)
            if dispatch.index in completed:
                return
            if any(True for _ in active.get(dispatch.index, ())):
                return  # its duplicate is still in flight
            delay = budget.charge(dispatch.index, exc, results=results)
            heapq.heappush(
                delayed, (time.monotonic() + delay, dispatch.index)
            )

        def complete(
            worker: _FleetWorker, dispatch: _Dispatch, result: RunResult
        ) -> None:
            latency = time.monotonic() - dispatch.started
            remove_dispatch(worker, dispatch)
            if dispatch.index in completed:
                # Steal-race loser: the cell already completed elsewhere.
                self.duplicates += 1
                self.telemetry.duplicate(worker.name)
                lane_event(
                    worker, "cell.duplicate", cell=dispatch.index,
                    job_id=dispatch.job_id,
                )
                return
            completed.add(dispatch.index)
            remaining.discard(dispatch.index)
            worker.completed += 1
            latencies.append(latency)
            results[dispatch.index] = result
            on_complete(dispatch.index, result)
            self.telemetry.completed(worker.name, latency, trace_id)
            lane_event(
                worker, "cell.complete", cell=dispatch.index,
                job_id=dispatch.job_id, dur=round(latency, 6),
            )
            emit(DONE, dispatch.index)
            # First completion wins: cancel the loser of a steal race.
            for other_worker, other in list(active.get(dispatch.index, ())):
                self._try_cancel(other_worker, other.job_id)

        def dispatch_cell(
            worker: _FleetWorker, index: int, *, stolen: bool = False
        ) -> bool:
            config = configs[index]
            label = (
                f"fleet/cell-{index}" if not stolen
                else f"fleet/cell-{index}/steal"
            )
            envelope = self._cell_envelope(config, label)
            try:
                job_id = worker.client.submit(envelope, trace_id)
            except WorkerError as exc:
                transport_error(worker, str(exc))
                return False
            worker.errors = 0
            record = _Dispatch(
                job_id=job_id, index=index,
                started=time.monotonic(), stolen=stolen,
            )
            worker.in_flight[job_id] = record
            worker.dispatched += 1
            active.setdefault(index, []).append((worker, record))
            self.telemetry.dispatched(worker.name)
            self.telemetry.in_flight(worker.name, len(worker.in_flight))
            lane_event(
                worker, "cell.dispatch", cell=index, job_id=job_id,
                workload=config.workload, scheme=config.scheme,
                stolen=stolen,
            )
            if tracing is not None:
                tracing.tracer.event(
                    "cell.submit", cell=index, workload=config.workload,
                    scheme=config.scheme, worker=worker.name,
                )
            if not stolen:
                emit(START, index)
            return True

        def poll_worker(worker: _FleetWorker) -> None:
            for dispatch in list(worker.in_flight.values()):
                if dispatch.job_id not in worker.in_flight:
                    continue  # removed by a dead-worker sweep mid-loop
                try:
                    snapshot = worker.client.status(dispatch.job_id)
                except WorkerError as exc:
                    if exc.status == 404:
                        # The worker restarted and forgot the job.
                        fail_dispatch(worker, dispatch, exc)
                        continue
                    transport_error(worker, str(exc))
                    return  # this worker's loop is over for the tick
                worker.errors = 0
                state = str(snapshot.get("state", ""))
                if state == JOB_DONE:
                    try:
                        payload = worker.client.result(dispatch.job_id)
                    except WorkerError as exc:
                        if exc.status == 404:
                            fail_dispatch(worker, dispatch, exc)
                            continue
                        transport_error(worker, str(exc))
                        return
                    result = _decode_cell_result(payload)
                    if result is None:
                        fail_dispatch(
                            worker, dispatch,
                            WorkerError("malformed result payload"),
                        )
                        continue
                    complete(worker, dispatch, result)
                elif state in (FAILED, CANCELLED):
                    error = str(snapshot.get("error", "")) or state
                    if dispatch.stolen or state == CANCELLED:
                        # Cancelled steal losers aren't failures.
                        remove_dispatch(worker, dispatch)
                        if (
                            dispatch.index not in completed
                            and not active.get(dispatch.index)
                        ):
                            # Genuine cancel of the only dispatch: requeue.
                            fail_dispatch(
                                worker, dispatch,
                                WorkerError(f"job {state}: {error}"),
                            )
                    else:
                        fail_dispatch(
                            worker, dispatch,
                            WorkerError(f"job failed: {error}"),
                        )
                else:
                    writes = snapshot.get("writes_done", 0)
                    if (
                        isinstance(writes, int)
                        and writes > dispatch.writes_done
                    ):
                        dispatch.writes_done = writes
                        emit(HEARTBEAT, dispatch.index, writes)

        def steal_candidate() -> "tuple[_FleetWorker, _Dispatch] | None":
            if not latencies:
                threshold = self.straggler_min_s
            else:
                ordered = sorted(latencies)
                median = ordered[len(ordered) // 2]
                threshold = max(
                    self.straggler_min_s, self.straggler_factor * median
                )
            now = time.monotonic()
            best: "tuple[float, _FleetWorker, _Dispatch] | None" = None
            for worker in self.workers:
                if not worker.healthy:
                    continue
                for dispatch in worker.in_flight.values():
                    if dispatch.index in completed:
                        continue  # a steal-race loser still draining
                    age = now - dispatch.started
                    if age < threshold:
                        continue
                    if len(active.get(dispatch.index, ())) != 1:
                        continue  # already stolen once
                    if best is None or age > best[0]:
                        best = (age, worker, dispatch)
            return None if best is None else (best[1], best[2])

        while remaining:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                index = heapq.heappop(delayed)[1]
                if index not in completed:
                    ready.append(index)

            # Health probes (they also revive recovered workers).
            for worker in self.workers:
                if now < worker.next_probe:
                    continue
                worker.next_probe = now + self.probe_interval_s
                try:
                    worker.client.healthz()
                except WorkerError as exc:
                    if worker.healthy:
                        transport_error(worker, f"healthz failed: {exc}")
                    continue
                worker.errors = 0
                if not worker.healthy:
                    worker.healthy = True
                    self.telemetry.health(worker.name, True)
                    lane_event(worker, "worker.recovered")

            healthy = [w for w in self.workers if w.healthy]
            if not healthy:
                if all_dead_since is None:
                    all_dead_since = now
                elif now - all_dead_since > self.fleet_down_timeout_s:
                    index = min(remaining)
                    raise SweepCellFailed(
                        f"every fleet worker is unreachable "
                        f"({len(remaining)} cell(s) outstanding)",
                        index=index,
                        config=configs[index],
                        attempts=budget.attempts.get(index, 0),
                        results=list(results),
                    )
                time.sleep(self.poll_interval_s)
                continue
            all_dead_since = None

            # Dispatch into each healthy worker's bounded window.
            for worker in sorted(healthy, key=lambda w: len(w.in_flight)):
                while (
                    ready
                    and worker.healthy
                    and len(worker.in_flight) < self.window
                ):
                    index = ready.popleft()
                    if index in completed:
                        continue
                    if not dispatch_cell(worker, index):
                        ready.appendleft(index)
                        break

            # Poll in-flight jobs for completion/progress.
            for worker in self.workers:
                if worker.healthy and worker.in_flight:
                    poll_worker(worker)

            # Work stealing: idle capacity + a straggler = duplicate
            # dispatch; dedup-by-cell-index keeps the first completion.
            if not ready and not delayed:
                idle = [
                    w for w in self.workers
                    if w.healthy and len(w.in_flight) < self.window
                ]
                candidate = steal_candidate()
                if idle and candidate is not None:
                    victim, dispatch = candidate
                    thief = min(
                        (w for w in idle if w is not victim),
                        key=lambda w: len(w.in_flight),
                        default=None,
                    )
                    if thief is not None and dispatch_cell(
                        thief, dispatch.index, stolen=True
                    ):
                        self.steals += 1
                        self.telemetry.stolen(victim.name)
                        if tracing is not None:
                            tracing.tracer.event(
                                "cell.steal", cell=dispatch.index,
                                victim=victim.name, thief=thief.name,
                            )

            if remaining and should_stop is not None and should_stop():
                for worker in self.workers:
                    for dispatch in list(worker.in_flight.values()):
                        self._try_cancel(worker, dispatch.job_id)
                n_done = sum(r is not None for r in results)
                raise SweepCancelled(
                    f"sweep cancelled with {n_done}/{len(results)} cells "
                    "finished",
                    list(results),
                )

            if remaining:
                time.sleep(self.poll_interval_s)

    # -- tracing / ledger side-channels --------------------------------------

    def _open_worker_lanes(self, tracing: SweepTracing | None) -> None:
        """One child trace lane per worker (``worker-<i>.jsonl``).

        Lanes are children of the sweep's :class:`TraceContext`, so the
        trace exporter merges dispatch/steal/completion timelines of the
        whole fleet into the one correlated trace the sweep already
        exports.  Best-effort: a lane that cannot open leaves the worker
        untraced.
        """
        if tracing is None:
            return
        for i, worker in enumerate(self.workers):
            try:
                ctx = tracing.context.child()
                name = f"worker-{i}"
                sink = JsonlSink(
                    Path(tracing.dir) / f"{name}.jsonl",
                    meta={
                        **ctx.to_dict(), "lane": name,
                        "worker": worker.name, "url": worker.url,
                    },
                )
                worker.lane = Tracer(sink)
            except Exception:
                worker.lane = None

    def _close_worker_lanes(self) -> None:
        for worker in self.workers:
            if worker.lane is not None:
                try:
                    worker.lane.close()
                except Exception:
                    pass
                worker.lane = None

    def _record_fleet_manifest(
        self, ledger, label: str, n_cells: int, wall_time_s: float
    ) -> None:
        """One ``kind="fleet-sweep"`` manifest summarizing the fabric.

        The dashboard's fleet panel reads these; ``fleet.json`` carries
        the per-worker breakdown as an artifact.
        """
        from repro.obs.ledger import build_manifest

        stats = self.fleet_stats()
        try:
            ledger.record(
                build_manifest(
                    kind="fleet-sweep",
                    label=label,
                    n_writes=0,
                    wall_time_s=wall_time_s,
                    summary={
                        "cells": n_cells,
                        "workers": len(self.workers),
                        "dispatched": sum(
                            s["dispatched"] for s in stats  # type: ignore
                        ),
                        "steals": self.steals,
                        "requeues": self.requeues,
                        "duplicates": self.duplicates,
                    },
                ),
                artifact_text={
                    "fleet.json": json.dumps(
                        {"workers": stats}, indent=2, sort_keys=True
                    ) + "\n"
                },
            )
        except Exception:
            pass  # telemetry must never fail a finished sweep


def _decode_cell_result(payload: dict) -> RunResult | None:
    """Extract the single RunResult from a worker's run-job result reply."""
    body = payload.get("result")
    if not isinstance(body, dict):
        return None
    results = body.get("results")
    if not isinstance(results, list) or len(results) != 1:
        return None
    try:
        return RunResult.from_dict(results[0])
    except Exception:
        return None


# ---------------------------------------------------------------------------
# deuce-sim coordinate: the long-running coordinator service
# ---------------------------------------------------------------------------

_SWEEP_PATH = re.compile(r"^/sweeps/([A-Za-z0-9._-]+)(/result)?$")


def new_sweep_id() -> str:
    """Sortable unique fleet-sweep id."""
    return new_job_id().replace("job-", "fleet-", 1)


class _FleetSweep:
    """One sweep accepted by the coordinator service."""

    def __init__(self, sweep_id: str, spec: JobSpec) -> None:
        self.id = sweep_id
        self.spec = spec
        self.state = "queued"
        self.error = ""
        self.created_utc = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
        self.cells_done = 0
        self.results: list[dict] | None = None
        self.thread: threading.Thread | None = None
        self.lock = threading.Lock()

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "sweep_id": self.id,
                "state": self.state,
                "error": self.error,
                "created_utc": self.created_utc,
                "n_cells": len(self.spec.configs),
                "cells_done": self.cells_done,
                "label": self.spec.label,
            }


class CoordinatorState:
    """Shared state behind the coordinate-mode HTTP handlers."""

    def __init__(
        self,
        session,
        worker_urls: Sequence[str],
        *,
        window: int = 2,
        probe_interval_s: float = 2.0,
        request_timeout_s: float = 10.0,
        default_retries: int = 2,
    ) -> None:
        self.session = session
        self.worker_urls = list(worker_urls)
        self.window = window
        self.probe_interval_s = probe_interval_s
        self.request_timeout_s = request_timeout_s
        self.default_retries = default_retries
        self.telemetry = FleetTelemetry()
        self.sweeps: dict[str, _FleetSweep] = {}
        self.executors: dict[str, FleetExecutor] = {}
        self.started = time.monotonic()
        self._lock = threading.Lock()

    def submit(self, spec: JobSpec, sweep_id: str = "") -> _FleetSweep:
        """Accept a sweep and run it over the fleet in the background.

        Re-submitting an id whose previous run finished (or failed)
        resumes from the ledger-keyed checkpoint — the coordinator's
        restart story is the same as a local ``--resume``.
        """
        sweep_id = sweep_id or new_sweep_id()
        with self._lock:
            existing = self.sweeps.get(sweep_id)
            if existing is not None and existing.state in (
                "queued", "running"
            ):
                raise JobError(
                    f"sweep {sweep_id!r} is already {existing.state}"
                )
            sweep = _FleetSweep(sweep_id, spec)
            self.sweeps[sweep_id] = sweep
            executor = FleetExecutor(
                self.worker_urls,
                window=self.window,
                probe_interval_s=self.probe_interval_s,
                request_timeout_s=self.request_timeout_s,
                telemetry=self.telemetry,
            )
            self.executors[sweep_id] = executor
        thread = threading.Thread(
            target=self._run, args=(sweep, executor), daemon=True,
            name=f"fleet-{sweep_id}",
        )
        sweep.thread = thread
        thread.start()
        return sweep

    def _run(self, sweep: _FleetSweep, executor: FleetExecutor) -> None:
        with sweep.lock:
            sweep.state = "running"

        def on_progress(event: ProgressEvent) -> None:
            if event.kind == DONE:
                with sweep.lock:
                    sweep.cells_done += 1

        spec = sweep.spec
        try:
            kwargs: dict = {}
            if self.session.ledger is not None:
                kwargs["sweep_id"] = sweep.id
                kwargs["trace_dir"] = (
                    self.session.ledger.root / "traces" / sweep.id
                )
            results = self.session.sweep(
                spec.configs,
                executor=executor,
                retries=(
                    spec.retries if spec.retries else self.default_retries
                ),
                label=spec.label,
                progress=on_progress,
                **kwargs,
            )
        except SweepCellFailed as exc:
            with sweep.lock:
                sweep.state = "failed"
                sweep.error = str(exc)
        except SweepCancelled as exc:
            with sweep.lock:
                sweep.state = "cancelled"
                sweep.error = str(exc)
        except Exception as exc:  # noqa: BLE001 - surfaced via the API
            with sweep.lock:
                sweep.state = "failed"
                sweep.error = f"{type(exc).__name__}: {exc}"
        else:
            with sweep.lock:
                sweep.state = "done"
                sweep.results = [r.to_dict() for r in results]

    def healthz(self) -> dict:
        with self._lock:
            states = [s.snapshot()["state"] for s in self.sweeps.values()]
        return {
            "status": "ok",
            "role": "coordinator",
            "api_version": API_VERSION,
            "uptime_s": round(time.monotonic() - self.started, 3),
            "workers": list(self.worker_urls),
            "sweeps": {
                "total": len(states),
                "running": states.count("running"),
                "done": states.count("done"),
                "failed": states.count("failed"),
            },
        }

    def fleet(self) -> dict:
        with self._lock:
            executors = dict(self.executors)
            sweeps = [s.snapshot() for s in self.sweeps.values()]
        workers: dict[str, dict] = {}
        for executor in executors.values():
            for stats in executor.fleet_stats():
                name = str(stats["name"])
                agg = workers.setdefault(
                    name,
                    {
                        "name": name, "url": stats["url"],
                        "healthy": True, "in_flight": 0,
                        "dispatched": 0, "completed": 0,
                    },
                )
                agg["healthy"] = bool(agg["healthy"]) and bool(
                    stats["healthy"]
                )
                for key in ("in_flight", "dispatched", "completed"):
                    agg[key] = int(agg[key]) + int(stats[key])  # type: ignore
        return {
            "workers": sorted(workers.values(), key=lambda w: w["name"]),
            "sweeps": sweeps,
        }


class CoordinatorServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, state: CoordinatorState, quiet=True) -> None:
        super().__init__(address, _CoordinatorHandler)
        self.state = state
        self.quiet = quiet

    @property
    def port(self) -> int:
        return self.server_address[1]


class _CoordinatorHandler(JsonHandler):
    server: CoordinatorServer

    def _get(self, path: str, query: dict[str, list[str]]) -> None:
        state = self.server.state
        if path == "/healthz":
            return self._json(200, state.healthz())
        if path == "/fleet":
            return self._json(200, state.fleet())
        if path == "/metrics":
            if self._wants_prometheus(query):
                return self._prometheus(
                    render_prometheus(state.telemetry.registry)
                )
            return self._json(200, state.telemetry.snapshot())
        if path == "/sweeps":
            return self._json(
                200,
                {"sweeps": [s.snapshot() for s in state.sweeps.values()]},
            )
        match = _SWEEP_PATH.match(path)
        if match:
            sweep = state.sweeps.get(match.group(1))
            if sweep is None:
                return self._error(404, f"no sweep {match.group(1)!r}")
            if not match.group(2):
                return self._json(200, sweep.snapshot())
            snapshot = sweep.snapshot()
            if snapshot["state"] in ("queued", "running"):
                return self._json(202, snapshot)
            if snapshot["state"] != "done":
                return self._json(409, snapshot)
            return self._json(
                200, {**snapshot, "results": sweep.results or []}
            )
        self._no_route()

    def _post(self, path: str, query: dict[str, list[str]]) -> None:
        if path != "/sweeps":
            return self._no_route()
        try:
            payload = self._read_json()
            # ``sweep_id`` is a coordinator-level option (it keys the
            # merged checkpoint); pull it out before the shared decode.
            options = (
                payload.get("options") if isinstance(payload, dict) else None
            )
            sweep_id = ""
            if isinstance(options, dict) and "sweep_id" in options:
                options = dict(options)
                sweep_id = str(options.pop("sweep_id"))
                payload = {**payload, "options": options}
            spec = JobSpec.decode(payload)
            if spec.kind != "sweep":
                raise JobError(
                    "the coordinator accepts only kind='sweep' envelopes"
                )
            sweep = self.server.state.submit(spec, sweep_id)
        except JobError as exc:
            return self._error(400, str(exc))
        base = f"/{API_VERSION}/sweeps/{sweep.id}"
        self._json(
            201,
            {
                "sweep_id": sweep.id,
                "state": sweep.snapshot()["state"],
                "status_url": base,
                "result_url": f"{base}/result",
            },
        )


def serve_coordinator(
    host: str = "127.0.0.1",
    port: int = 8788,
    *,
    session,
    worker_urls: Sequence[str],
    window: int = 2,
    probe_interval_s: float = 2.0,
    request_timeout_s: float = 10.0,
    quiet: bool = False,
    ready: threading.Event | None = None,
) -> int:
    """Run the coordinator service until SIGTERM/SIGINT.

    ``POST /v1/sweeps`` takes the standard job envelope (``kind="sweep"``)
    plus an optional ``options.sweep_id`` that keys the merged checkpoint
    under the session ledger, so a coordinator restart + re-POST of the
    same id resumes exactly like a local ``--resume``.
    """
    state = CoordinatorState(
        session,
        worker_urls,
        window=window,
        probe_interval_s=probe_interval_s,
        request_timeout_s=request_timeout_s,
    )
    server = CoordinatorServer((host, port), state, quiet=quiet)
    serve_until_signal(
        server,
        lambda _signals_seen: server.shutdown(),
        banner="" if quiet else (
            f"deuce-sim coordinate: listening on http://{host}:{server.port}"
            f" with {len(state.worker_urls)} worker(s): "
            + ", ".join(state.worker_urls)
        ),
        ready=ready,
    )
    if not quiet:
        print("deuce-sim coordinate: bye", flush=True)
    return 0
