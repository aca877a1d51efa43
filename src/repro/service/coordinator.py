"""Fleet sweeps: shard one sweep across ``deuce-sim serve`` workers.

The DEUCE design-space grids (epoch interval x word size x scheme x
workload) outgrow one process long before they outgrow one lab: this
module turns N independent ``deuce-sim serve`` endpoints into a sweep
fabric.  The scheduler owns the grid; workers own nothing but the cell
they are currently running.

* :class:`WorkerClient` — one worker's ``/v1`` job API (submit a cell as
  a ``kind="run"`` envelope, poll its status, fetch its exact result
  payload, cancel, probe ``/v1/healthz``) over the shared
  :func:`repro.service.client.call`, raising :class:`WorkerError`.
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
* :class:`FleetRun` — one sweep's scheduling state; ``run_suite`` calls
  its :meth:`~FleetRun.tick` once per poll interval.
* :class:`FleetTelemetry` — the per-worker ``fleet.*`` instruments on a
  :class:`~repro.obs.metrics.MetricsRegistry`.

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

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import DONE, HEARTBEAT, START, ProgressEvent
from repro.obs.tracing import NULL_TRACER, JsonlSink, Tracer
from repro.service.client import call
from repro.service.jobs import CANCELLED, DONE as JOB_DONE, FAILED
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.config import SimConfig
from repro.sim.parallel import (
    SweepCellFailed,
    SweepRun,
    SweepTracing,
    run_sweep,
)
from repro.sim.results import RunResult

__all__ = [
    "FleetExecutor", "FleetRun", "FleetTelemetry", "WorkerClient",
    "WorkerError",
]

#: Fixed upper bounds for per-cell latency histograms (seconds).  Cells
#: run whole traces, so the scale is job-like, not request-like.
CELL_SECONDS_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Consecutive transport failures (probe or poll) before a worker is
#: declared dead and its in-flight cells are requeued.
DEAD_AFTER_ERRORS = 2

#: The fleet events counted per worker, and the ``fleet.*`` counter each
#: one feeds.  ``stolen`` counts against the worker a cell was stolen
#: *from* (the straggler); ``requeued`` against the worker that died.
EVENTS = {
    "dispatched": "fleet.cells_dispatched",
    "completed": "fleet.cells_completed",
    "failed": "fleet.cells_failed",
    "stolen": "fleet.cells_stolen",
    "requeued": "fleet.cells_requeued",
    "duplicates": "fleet.duplicate_completions",
}


class WorkerError(RuntimeError):
    """A worker endpoint misbehaved (transport error or HTTP failure).

    ``status`` carries the HTTP status code when there was one, else 0
    (connection refused, timeout, DNS...).
    """

    def __init__(self, message: str, *, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class WorkerClient:
    """One ``deuce-sim serve`` worker's /v1 API; failures raise."""

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
        where = f"{method} {self.url}{path}"
        status, body = call(
            method, self.url + path, payload, timeout=self.timeout_s,
            headers={"X-Trace-Id": trace_id} if trace_id else None,
        )
        if status == 0:
            raise WorkerError(str(body))
        if status >= 400:
            detail = body.get("error", "") if isinstance(body, dict) else ""
            raise WorkerError(
                f"{where} -> HTTP {status}" + (f": {detail}" if detail else ""),
                status=status,
            )
        if not isinstance(body, dict):
            raise WorkerError(f"{where} returned no JSON object")
        return body

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
    """Per-worker fleet instruments on a :class:`MetricsRegistry`.

    All labeled ``worker=<name>``: one counter per :data:`EVENTS` entry,
    the ``fleet.cell_seconds`` dispatch-to-completion histogram, and the
    ``fleet.worker_healthy`` / ``fleet.worker_in_flight`` gauges.

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

    def count(self, worker: str, event: str, n: int = 1) -> None:
        with self._lock:
            self.registry.counter(EVENTS[event], {"worker": worker}).inc(n)

    def cell_seconds(
        self, worker: str, seconds: float, trace_id: str = ""
    ) -> None:
        with self._lock:
            self.registry.bucket_histogram(
                "fleet.cell_seconds", {"worker": worker},
                buckets=CELL_SECONDS_BUCKETS,
            ).observe(seconds, exemplar=trace_id)

    def gauge(self, name: str, worker: str, value: float) -> None:
        with self._lock:
            self.registry.gauge(name, {"worker": worker}).set(float(value))


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
        self.counts = dict.fromkeys(EVENTS, 0)
        self.lane = NULL_TRACER

    def stats(self) -> dict[str, object]:
        return {
            "name": self.name,
            "url": self.url,
            "healthy": self.healthy,
            "in_flight": len(self.in_flight),
            **self.counts,
        }


@dataclass(eq=False)
class _Dispatch:
    """One live (worker, cell) assignment."""

    worker: _FleetWorker
    job_id: str
    index: int
    started: float
    stolen: bool = False
    writes_done: int = 0


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

    # -- the one count of each fleet event -----------------------------------

    def count(self, worker: _FleetWorker, event: str, n: int = 1) -> None:
        """Count a fleet event once: ``fleet_stats()`` and ``fleet.*`` read it."""
        worker.counts[event] += n
        self.telemetry.count(worker.name, event, n)

    def _total(self, event: str) -> int:
        return sum(worker.counts[event] for worker in self.workers)

    @property
    def steals(self) -> int:
        return self._total("stolen")

    @property
    def requeues(self) -> int:
        return self._total("requeued")

    @property
    def duplicates(self) -> int:
        return self._total("duplicates")

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
                run = FleetRun(self, sweep, progress, should_stop)
                while run.remaining:
                    run.tick()
                    if run.remaining:
                        time.sleep(self.poll_interval_s)
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
                worker.lane = NULL_TRACER

    def _close_worker_lanes(self) -> None:
        for worker in self.workers:
            try:
                worker.lane.close()
            except Exception:
                pass
            worker.lane = NULL_TRACER

    def _record_fleet_manifest(
        self, ledger, label: str, n_cells: int, wall_time_s: float
    ) -> None:
        """One ``kind="fleet-sweep"`` manifest summarizing the fabric.

        The dashboard's fleet panel reads these; ``fleet.json`` carries
        the per-worker breakdown as an artifact.
        """
        from repro.obs.ledger import build_manifest

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
                        "dispatched": self._total("dispatched"),
                        "steals": self.steals,
                        "requeues": self.requeues,
                        "duplicates": self.duplicates,
                    },
                ),
                artifact_text={
                    "fleet.json": json.dumps(
                        {"workers": self.fleet_stats()},
                        indent=2, sort_keys=True,
                    ) + "\n"
                },
            )
        except Exception:
            pass  # telemetry must never fail a finished sweep


class FleetRun:
    """One sweep's scheduling state over a fleet, advanced by :meth:`tick`.

    ``remaining`` holds the cells not yet completed, ``ready`` those
    waiting for a worker; every live dispatch sits in its worker's
    ``in_flight`` (two workers hold the same cell while a steal race is
    open).  A tick probes, dispatches, polls and steals once and never
    sleeps, so a test can drive it step by step with fake clients and a
    fake ``clock``.
    """

    def __init__(
        self,
        executor: FleetExecutor,
        sweep: SweepRun,
        progress: Callable[[ProgressEvent], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.executor = executor
        self.workers = executor.workers
        self.sweep = sweep
        self.progress = progress
        self.should_stop = should_stop
        self.clock = clock
        self.ready: deque[int] = deque(sweep.todo)
        self.remaining = set(sweep.todo)
        self.latencies: list[float] = []
        self.all_dead_since: float | None = None
        tracing = sweep.tracing
        self.tracer = tracing.tracer if tracing is not None else NULL_TRACER
        self.trace_id = tracing.context.trace_id if tracing is not None else ""

    def tick(self) -> None:
        """One scheduler pass; raises when the sweep fails or is stopped."""
        budget = self.sweep.budget
        self.ready.extend(i for i in budget.due() if i in self.remaining)
        now = self.clock()
        self.probe(now)
        healthy = [w for w in self.workers if w.healthy]
        if healthy:
            self.all_dead_since = None
            self.dispatch(healthy)
            for worker in self.workers:
                if worker.healthy and worker.in_flight:
                    self.poll(worker)
            # Work stealing: idle capacity + a straggler = duplicate
            # dispatch.
            if not self.ready and not budget.delayed:
                self.steal()
        # A stop is honoured during an outage too, not after it times out.
        stop = self.should_stop
        if self.remaining and stop is not None and stop():
            for worker in self.workers:
                for dispatch in list(worker.in_flight.values()):
                    self.cancel(dispatch)
            raise self.sweep.cancelled()
        if not healthy:
            self.fleet_down(now)

    # -- steps ---------------------------------------------------------------

    def probe(self, now: float) -> None:
        """Health probes, each worker once per interval; they also revive."""
        for worker in self.workers:
            if now < worker.next_probe:
                continue
            worker.next_probe = now + self.executor.probe_interval_s
            try:
                worker.client.healthz()
            except WorkerError as exc:
                if worker.healthy:
                    self.transport_error(worker, f"healthz failed: {exc}")
                continue
            worker.errors = 0
            if not worker.healthy:
                worker.healthy = True
                self.executor.telemetry.gauge(
                    "fleet.worker_healthy", worker.name, 1
                )
                worker.lane.event("worker.recovered")

    def fleet_down(self, now: float) -> None:
        """Every worker is dead: fail the sweep once that lasts too long."""
        if self.all_dead_since is None:
            self.all_dead_since = now
        elif now - self.all_dead_since > self.executor.fleet_down_timeout_s:
            index = min(self.remaining)
            raise SweepCellFailed(
                f"every fleet worker is unreachable "
                f"({len(self.remaining)} cell(s) outstanding)",
                index=index,
                config=self.sweep.configs[index],
                attempts=self.sweep.budget.attempts.get(index, 0),
                results=list(self.sweep.results),
            )

    def dispatch(self, healthy: list[_FleetWorker]) -> None:
        """Fill each healthy worker's bounded window from ``ready``."""
        for worker in sorted(healthy, key=lambda w: len(w.in_flight)):
            while (
                self.ready
                and worker.healthy
                and len(worker.in_flight) < self.executor.window
            ):
                index = self.ready.popleft()
                if index not in self.remaining:
                    continue
                if not self.submit(worker, index):
                    self.ready.appendleft(index)
                    break

    def submit(
        self, worker: _FleetWorker, index: int, *, stolen: bool = False
    ) -> bool:
        """Send cell ``index`` to ``worker`` as a run job; ``False`` if
        the worker could not take it."""
        config = self.sweep.configs[index]
        label = f"fleet/cell-{index}" + ("/steal" if stolen else "")
        envelope = {
            "kind": "run",
            "config": config.to_dict(),
            "options": {"label": label},
        }
        try:
            job_id = worker.client.submit(envelope, self.trace_id)
        except WorkerError as exc:
            self.transport_error(worker, str(exc))
            return False
        worker.errors = 0
        worker.in_flight[job_id] = _Dispatch(
            worker, job_id, index, self.clock(), stolen
        )
        self.executor.count(worker, "dispatched")
        self._in_flight_changed(worker)
        worker.lane.event(
            "cell.dispatch", cell=index, job_id=job_id,
            workload=config.workload, scheme=config.scheme, stolen=stolen,
        )
        self.sweep.trace("cell.submit", index, worker=worker.name)
        if not stolen:
            self.emit(START, index)
        return True

    def poll(self, worker: _FleetWorker) -> None:
        """Poll each of ``worker``'s jobs for completion or progress."""
        for dispatch in list(worker.in_flight.values()):
            if dispatch.job_id not in worker.in_flight:
                continue  # removed by a dead-worker sweep mid-loop
            payload: dict = {}
            try:
                snapshot = worker.client.status(dispatch.job_id)
                worker.errors = 0
                if snapshot.get("state") == JOB_DONE:
                    payload = worker.client.result(dispatch.job_id)
            except WorkerError as exc:
                if exc.status != 404:
                    self.transport_error(worker, str(exc))
                    return  # this worker's loop is over for the tick
                # The worker restarted and forgot the job.
                self.fail(dispatch, exc)
                continue
            state = str(snapshot.get("state", ""))
            if state == JOB_DONE:
                result = _decode_cell_result(payload)
                if result is None:
                    self.fail(
                        dispatch, WorkerError("malformed result payload")
                    )
                else:
                    self.complete(dispatch, result)
            elif state in (FAILED, CANCELLED):
                error = str(snapshot.get("error", "")) or state
                if (dispatch.stolen or state == CANCELLED) and (
                    dispatch.index not in self.remaining
                    or self.others(dispatch)
                ):
                    # A steal-race loser: its cell lives on elsewhere.
                    self._drop(dispatch)
                else:
                    self.fail(dispatch, WorkerError(f"job {state}: {error}"))
            else:
                writes = snapshot.get("writes_done", 0)
                if isinstance(writes, int) and writes > dispatch.writes_done:
                    dispatch.writes_done = writes
                    self.emit(HEARTBEAT, dispatch.index, writes)

    def complete(self, dispatch: _Dispatch, result: RunResult) -> None:
        """Record a finished cell; the first completion of a cell wins."""
        latency = self.clock() - dispatch.started
        self._drop(dispatch)
        worker, index = dispatch.worker, dispatch.index
        if index not in self.remaining:
            # Steal-race loser: the cell already completed elsewhere.
            self.executor.count(worker, "duplicates")
            worker.lane.event(
                "cell.duplicate", cell=index, job_id=dispatch.job_id
            )
            return
        self.remaining.discard(index)
        self.latencies.append(latency)
        self.sweep.complete(index, result)
        self.executor.count(worker, "completed")
        self.executor.telemetry.cell_seconds(
            worker.name, latency, self.trace_id
        )
        worker.lane.event(
            "cell.complete", cell=index, job_id=dispatch.job_id,
            dur=round(latency, 6),
        )
        self.emit(DONE, index)
        for other in self.others(dispatch):
            self.cancel(other)

    def fail(self, dispatch: _Dispatch, exc: Exception) -> None:
        """Drop a failed dispatch; charge its cell's retry budget unless
        the cell completed or still runs on another worker."""
        self._drop(dispatch)
        self.executor.count(dispatch.worker, "failed")
        if dispatch.index in self.remaining and not self.others(dispatch):
            self.sweep.budget.charge(dispatch.index, exc)

    def transport_error(self, worker: _FleetWorker, why: str) -> None:
        worker.errors += 1
        if worker.errors >= DEAD_AFTER_ERRORS:
            self.mark_dead(worker, why)

    def mark_dead(self, worker: _FleetWorker, why: str) -> None:
        """Take ``worker`` out of rotation and requeue its orphaned cells."""
        if not worker.healthy and not worker.in_flight:
            return
        worker.healthy = False
        self.executor.telemetry.gauge("fleet.worker_healthy", worker.name, 0)
        lost = list(worker.in_flight.values())
        worker.in_flight.clear()
        self._in_flight_changed(worker)
        requeued = 0
        for dispatch in lost:
            if dispatch.index in self.remaining and not self.others(dispatch):
                self.sweep.budget.charge(
                    dispatch.index,
                    WorkerError(f"worker {worker.name} died: {why}"),
                )
                requeued += 1
        if requeued:
            self.executor.count(worker, "requeued", requeued)
        worker.lane.event("worker.dead", reason=why, requeued=requeued)
        self.tracer.event(
            "worker.dead", worker=worker.name, requeued=requeued
        )

    def steal(self) -> None:
        """Re-dispatch the worst straggler onto the least busy idle worker."""
        idle = [
            w for w in self.workers
            if w.healthy and len(w.in_flight) < self.executor.window
        ]
        straggler = self.straggler()
        if not idle or straggler is None:
            return
        victim = straggler.worker
        thief = min(
            (w for w in idle if w is not victim),
            key=lambda w: len(w.in_flight),
            default=None,
        )
        if thief is not None and self.submit(
            thief, straggler.index, stolen=True
        ):
            self.executor.count(victim, "stolen")
            self.tracer.event(
                "cell.steal", cell=straggler.index,
                victim=victim.name, thief=thief.name,
            )

    def straggler(self) -> _Dispatch | None:
        """The oldest dispatch past the steal threshold that runs alone."""
        threshold = self.executor.straggler_min_s
        if self.latencies:
            ordered = sorted(self.latencies)
            threshold = max(
                threshold,
                self.executor.straggler_factor * ordered[len(ordered) // 2],
            )
        now = self.clock()
        candidates = [
            dispatch
            for worker in self.workers if worker.healthy
            for dispatch in worker.in_flight.values()
            if dispatch.index in self.remaining
            and now - dispatch.started >= threshold
            and not self.others(dispatch)
        ]
        return min(candidates, key=lambda d: d.started, default=None)

    # -- helpers -------------------------------------------------------------

    def others(self, dispatch: _Dispatch) -> list[_Dispatch]:
        """The other live dispatches of ``dispatch``'s cell."""
        return [
            other
            for worker in self.workers
            for other in worker.in_flight.values()
            if other.index == dispatch.index and other is not dispatch
        ]

    def cancel(self, dispatch: _Dispatch) -> None:
        try:
            dispatch.worker.client.cancel(dispatch.job_id)
        except WorkerError:
            pass  # best-effort; the job will finish and be deduplicated

    def emit(self, kind: str, index: int, writes_done: int = 0) -> None:
        if self.progress is not None:
            self.progress(ProgressEvent.for_cell(
                kind, self.sweep.configs[index], index,
                len(self.sweep.configs), writes_done,
            ))

    def _drop(self, dispatch: _Dispatch) -> None:
        dispatch.worker.in_flight.pop(dispatch.job_id, None)
        self._in_flight_changed(dispatch.worker)

    def _in_flight_changed(self, worker: _FleetWorker) -> None:
        self.executor.telemetry.gauge(
            "fleet.worker_in_flight", worker.name, len(worker.in_flight)
        )


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
