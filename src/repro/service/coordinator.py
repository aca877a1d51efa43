"""Fleet sweeps: shard one sweep across ``deuce-sim serve`` workers.

The DEUCE design-space grids (epoch interval x word size x scheme x
workload) outgrow one process long before they outgrow one lab: this
module turns N independent ``deuce-sim serve`` endpoints into a sweep
fabric.  The scheduler owns the grid; workers own nothing but the cell
they are currently running.

* :class:`WorkerClient` — a stdlib-only HTTP client for one worker's
  ``/v1`` job API (submit a cell as a ``kind="run"`` envelope, poll its
  status, fetch its exact result payload, cancel, probe ``/v1/healthz``).
* :class:`FleetExecutor` — the scheduler.  ``run_suite`` has the same
  contract as :func:`repro.sim.parallel.run_suite_parallel` and the same
  front half (:func:`repro.sim.parallel.run_sweep`): results in
  submission order, completed cells recorded to the ledger/checkpoint
  the moment they finish, cancellation via ``should_stop``, failures
  charged against the shared :class:`~repro.sim.parallel.RetryBudget`
  and its backoff heap.  On top of that it keeps a bounded in-flight
  window per worker, probes ``/v1/healthz`` periodically, requeues the
  cells of a dead worker, and steals long-running cells onto idle
  workers (straggler re-dispatch with first-completion-wins dedup by
  cell index).
* :class:`FleetTelemetry` — per-worker dispatch/latency/steal counters
  on a :class:`~repro.obs.metrics.MetricsRegistry`.

Two front ends drive it: ``deuce-sim sweep --workers-url`` for one
sweep from the command line, and ``deuce-sim serve --workers-url``,
whose :class:`~repro.service.jobs.JobManager` runs every sweep job over
the fleet (one executor per job, one shared :class:`FleetTelemetry` on
the service's ``/v1/metrics``), with the job server's journal,
cancellation, deadlines, event stream and drain.

Because a worker returns the full ``RunResult.to_dict()`` payload and
the executor records it through the same
:meth:`~repro.sim.parallel.SweepRun.complete` the local pool uses, a
merged fleet sweep is bit-identical (ignoring the documented volatile
fields ``wall_time_s``/``run_id``) to a single-node sweep of the same
grid, and its checkpoint resumes interchangeably.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import DONE, HEARTBEAT, START, ProgressEvent
from repro.obs.tracing import JsonlSink, Tracer
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.config import SimConfig
from repro.sim.parallel import (
    SweepCellFailed,
    SweepRun,
    SweepTracing,
    run_sweep,
)
from repro.sim.results import RunResult
from repro.service.jobs import CANCELLED, DONE as JOB_DONE, FAILED

__all__ = ["FleetExecutor", "FleetTelemetry", "WorkerClient", "WorkerError"]

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

    A registry shared with other writers must be shared with its lock
    (the job service passes its
    :class:`~repro.service.telemetry.ServiceTelemetry`'s), because
    :class:`MetricsRegistry` itself is not thread-safe.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        lock: threading.Lock | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = lock if lock is not None else threading.Lock()

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
    ledger/checkpoint recording, cancellation, retry semantics) by sharing
    its front half, :func:`~repro.sim.parallel.run_sweep`, and its
    :class:`~repro.sim.parallel.RetryBudget`; only the scheduling differs,
    over the fleet instead of a local process pool.

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
    fleet_down_timeout_s:
        With every worker unhealthy for this long, the sweep fails
        (:class:`SweepCellFailed`, resumable) instead of spinning.
    telemetry:
        Optional :class:`FleetTelemetry` (the job service shares one
        across its sweep jobs so all land on one ``/v1/metrics``).
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
        fleet_down_timeout_s: float = 60.0,
        telemetry: FleetTelemetry | None = None,
        client_factory: Callable[[str], WorkerClient] | None = None,
    ) -> None:
        urls = [u for u in worker_urls if u]
        if not urls:
            raise ValueError("a fleet needs at least one worker URL")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        factory = client_factory or WorkerClient
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
        ledger=None,
        ledger_label: str = "",
        should_stop: Callable[[], bool] | None = None,
        retries: int = 0,
        retry_backoff_s: float = 0.5,
        checkpoint: "SweepCheckpoint | str | None" = None,
        tracing: SweepTracing | None = None,
    ) -> list[RunResult]:
        """Run the grid over the fleet; same contract as the local pool.

        The front half (checks, checkpoint restore, per-cell recording)
        is :func:`~repro.sim.parallel.run_sweep`, shared with the local
        pool.  Heartbeats derive from the workers' own job progress
        (``writes_done`` in the polled status).
        """

        def schedule(sweep: SweepRun) -> None:
            started_monotonic = time.monotonic()
            self._open_worker_lanes(tracing)
            try:
                self._schedule(sweep, progress, should_stop)
            finally:
                self._close_worker_lanes()
            if ledger is not None:
                self._record_fleet_manifest(
                    ledger, ledger_label, len(sweep.configs),
                    time.monotonic() - started_monotonic,
                )

        return run_sweep(
            configs, schedule, ledger=ledger, ledger_label=ledger_label,
            retries=retries, retry_backoff_s=retry_backoff_s,
            checkpoint=checkpoint, tracing=tracing,
        )

    def _schedule(
        self,
        sweep: SweepRun,
        progress: Callable[[ProgressEvent], None] | None,
        should_stop: Callable[[], bool] | None,
    ) -> None:
        configs, results, budget = sweep.configs, sweep.results, sweep.budget
        tracing = sweep.tracing
        n = len(configs)
        trace_id = tracing.context.trace_id if tracing is not None else ""
        ready: deque[int] = deque(sweep.todo)
        remaining = set(sweep.todo)
        completed: set[int] = set()
        # index -> live dispatches; 2 entries while a steal race is open.
        active: dict[int, list[tuple[_FleetWorker, _Dispatch]]] = {}
        latencies: list[float] = []
        all_dead_since: float | None = None

        def emit(kind: str, index: int, writes_done: int = 0) -> None:
            if progress is not None:
                progress(ProgressEvent.for_cell(
                    kind, configs[index], index, n, writes_done
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
                budget.charge(
                    dispatch.index,
                    WorkerError(f"worker {worker.name} died: {why}"),
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
            budget.charge(dispatch.index, exc)

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
            sweep.complete(dispatch.index, result)
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
            sweep.trace("cell.submit", index, worker=worker.name)
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
            ready.extend(i for i in budget.due() if i not in completed)
            now = time.monotonic()

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
            if not ready and not budget.delayed:
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
                raise sweep.cancelled()

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
