"""Job queue and bounded worker pool behind ``deuce-sim serve``.

A :class:`JobManager` owns a bounded FIFO queue of :class:`Job` objects and
a fixed pool of worker threads that execute them through one shared
:class:`repro.api.Session` — so every job resolves configs, instruments,
and the ledger exactly the way a direct API or CLI caller would.  Sweeps
inside a job reuse :mod:`repro.sim.parallel` (and therefore its process
pool) with the sweep engine's cooperative ``should_stop`` hook wired to the
job's cancel flag and deadline, which is what makes cancellation and
drains orphan-free: unstarted cells are dropped, in-flight cells finish,
and the pool always shuts down cleanly.  On a server with a fleet
(``worker_urls``) the sweep's cells run on remote ``deuce-sim serve``
workers instead, and a stop cancels their in-flight worker jobs.

Lifecycle::

    queued -> running -> done
                      -> failed      (exception or deadline)
                      -> cancelled   (client DELETE, or drain with cancel)

Backpressure is structural: :meth:`JobManager.submit` raises
:class:`QueueFullError` when the queue is at capacity (the HTTP layer maps
it to ``429``) and :class:`ServiceDraining` once a drain began (``503``).
Every job's progress is a JSONL-able event list that the HTTP layer can
stream incrementally.

Jobs survive a server restart: a :class:`JobStore` journals every spec and
state change to ``jobs.jsonl`` under the ledger, and
:meth:`JobManager.rehydrate` replays it on startup — terminal jobs come
back as queryable snapshots, queued/running jobs are resubmitted under
their original ids.  A resubmitted sweep job resumes from its keyed sweep
checkpoint (``<ledger>/sweeps/<job_id>``), so cells that completed before
the crash are not re-simulated.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.api import Session
from repro.obs.context import TraceContext
from repro.obs.instruments import RunAborted
from repro.obs.journal import append_record, read_records
from repro.obs.progress import ProgressEvent
from repro.obs.tracing import JsonlSink, Tracer
from repro.service.telemetry import ServiceTelemetry
from repro.sim.config import (
    ConfigError,
    SimConfig,
    check_minimum,
    unknown_keys,
)
from repro.sim.experiments import EXHIBIT_OPTIONS, EXPERIMENTS
from repro.sim.parallel import SweepCancelled

#: Job states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Job kinds accepted by the service.
JOB_KINDS = ("run", "sweep", "experiment")

#: Retry budget of a fleet sweep job whose envelope sets none: a dead
#: worker's in-flight cells are charged against it when they requeue.
FLEET_RETRIES = 2


class JobError(ValueError):
    """A job payload that cannot become a valid :class:`JobSpec` (HTTP 400)."""


class QueueFullError(RuntimeError):
    """The job queue is at capacity — back off and retry (HTTP 429)."""


class ServiceDraining(RuntimeError):
    """The service is draining and accepts no new jobs (HTTP 503)."""


class UnknownJobError(KeyError):
    """No job with that id (HTTP 404)."""


def new_job_id() -> str:
    """Sortable unique job id (same shape as ledger run ids)."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"job-{stamp}-{uuid.uuid4().hex[:6]}"


#: Option keys every envelope kind understands (an experiment's options
#: may also carry its ``n_writes`` and ``seed``; any other key is an error).
_ENVELOPE_OPTIONS = ("workers", "timeout_s", "retries", "label")


@dataclass(frozen=True)
class JobSpec:
    """A validated, executable description of one submitted job.

    ``configs`` holds one config for ``kind="run"`` and the grid for
    ``kind="sweep"``; experiments carry the exhibit name plus keyword
    options instead.
    """

    kind: str
    configs: tuple[SimConfig, ...] = ()
    experiment: str = ""
    options: dict = field(default_factory=dict)
    workers: int | None = 1
    timeout_s: float | None = None
    retries: int = 0
    label: str = ""

    @property
    def n_cells(self) -> int:
        if self.kind == "experiment":
            return 0  # unknown until the exhibit materializes its grid
        return len(self.configs)

    @classmethod
    def decode(cls, payload: object) -> "JobSpec":
        """Decode a ``{"kind", "config", "options"}`` job envelope.

        ``config`` is the config object for ``kind="run"``, the config
        array for ``kind="sweep"``, and the exhibit name string for
        ``kind="experiment"``; ``options`` carries ``workers`` /
        ``timeout_s`` / ``retries`` / ``label`` (plus an experiment's
        ``n_writes`` and ``seed``).  Run, sweep and experiment jobs,
        and the run-job cells a fleet sweep dispatches to its workers,
        all share this one shape.
        Raises :class:`JobError` naming the field at fault; config dicts
        go through the strict :meth:`SimConfig.from_dict
        <repro.sim.config.SimConfig.from_dict>`.
        """
        if not isinstance(payload, dict):
            raise JobError(
                f"job payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise JobError(
                f"job 'kind' must be one of {', '.join(JOB_KINDS)}, "
                f"got {kind!r}"
            )
        unknown = sorted(set(payload) - {"kind", "config", "options"})
        if unknown:
            raise JobError(
                "unknown job field(s): " + ", ".join(map(repr, unknown))
                + "; the envelope is {kind, config, options}"
            )
        options = payload.get("options", {})
        if not isinstance(options, dict):
            raise JobError(f"'options' must be an object, got {options!r}")
        workers = options.get("workers", 1)
        if workers is not None and (
            isinstance(workers, bool) or not isinstance(workers, int)
            or workers < 0
        ):
            raise JobError(
                f"'workers' must be a non-negative integer, got {workers!r}"
            )
        timeout_s = options.get("timeout_s")
        if timeout_s is not None and (
            isinstance(timeout_s, bool)
            or not isinstance(timeout_s, (int, float))
            or timeout_s <= 0
        ):
            raise JobError(
                f"'timeout_s' must be a positive number, got {timeout_s!r}"
            )
        retries = options.get("retries", 0)
        if isinstance(retries, bool) or not isinstance(retries, int) \
                or retries < 0:
            raise JobError(
                f"'retries' must be a non-negative integer, got {retries!r}"
            )
        label = options.get("label", "")
        if not isinstance(label, str):
            raise JobError(f"'label' must be a string, got {label!r}")
        extra = {
            k: v for k, v in options.items() if k not in _ENVELOPE_OPTIONS
        }
        config = payload.get("config")
        configs: tuple[SimConfig, ...] = ()
        experiment = ""
        try:
            if kind == "run":
                if not isinstance(config, dict):
                    raise JobError(
                        "a 'run' envelope needs 'config' to be the config "
                        "object"
                    )
                configs = (SimConfig.from_dict(config),)
            elif kind == "sweep":
                if not isinstance(config, list) or not config:
                    raise JobError(
                        "a 'sweep' envelope needs 'config' to be a "
                        "non-empty array of config objects"
                    )
                configs = tuple(SimConfig.from_dict(c) for c in config)
            else:  # experiment
                if not isinstance(config, str) or config not in EXPERIMENTS:
                    raise JobError(
                        f"unknown experiment {config!r}; an 'experiment' "
                        "envelope needs 'config' to be one of: "
                        + ", ".join(EXPERIMENTS)
                    )
                experiment = config
        except ConfigError as exc:
            raise JobError(str(exc)) from exc
        message = unknown_keys(
            sorted(extra),
            _ENVELOPE_OPTIONS
            + (EXHIBIT_OPTIONS if kind == "experiment" else ()),
            "option",
        )
        if message:
            raise JobError(message)
        for key, value in extra.items():
            # A null n_writes is the exhibit's default; seed has none.
            if key == "n_writes" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise JobError(f"{key!r} must be an integer, got {value!r}")
            if key == "n_writes":
                try:
                    check_minimum(key, value)
                except ConfigError as exc:
                    raise JobError(str(exc)) from exc
        return cls(
            kind=kind,
            configs=configs,
            experiment=experiment,
            options=extra,
            workers=workers,
            timeout_s=float(timeout_s) if timeout_s is not None else None,
            retries=retries,
            label=label,
        )

    def to_dict(self) -> dict:
        """JSON-safe round-trip form (the :class:`JobStore` journal)."""
        return {
            "kind": self.kind,
            "configs": [c.to_dict() for c in self.configs],
            "experiment": self.experiment,
            "options": dict(self.options),
            "workers": self.workers,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Inverse of :meth:`to_dict` (trusted journal data, not payloads)."""
        return cls(
            kind=data["kind"],
            configs=tuple(
                SimConfig.from_dict(c) for c in data.get("configs", [])
            ),
            experiment=data.get("experiment", ""),
            options=dict(data.get("options", {})),
            workers=data.get("workers", 1),
            timeout_s=data.get("timeout_s"),
            retries=int(data.get("retries", 0)),
            label=data.get("label", ""),
        )


class Job:
    """One submitted unit of work plus its observable state.

    All mutation happens under ``_lock``; :meth:`snapshot` and
    :meth:`events_since` are safe to call from any HTTP thread while a
    worker executes the job.
    """

    def __init__(self, spec: JobSpec, job_id: str | None = None) -> None:
        self.id = job_id or new_job_id()
        self.spec = spec
        self.state = QUEUED
        self.error = ""
        self.created_utc = _utc_now()
        self.started_utc = ""
        self.finished_utc = ""
        # Monotonic stamps for phase telemetry (queue-wait/exec/total).
        # Not journaled: a rehydrated job's clock restarts at rehydration.
        self.created_monotonic = time.monotonic()
        self.started_monotonic = 0.0
        self.result: dict | None = None
        self.cells_done = 0
        self.writes_done = 0
        # Correlated-trace id, minted when the job starts executing;
        # "" while queued or when the manager has nowhere to write lanes.
        self.trace_id = ""
        self._events: list[dict] = []
        self._seq = itertools.count()
        self._cancel = threading.Event()
        self._lock = threading.Lock()
        self._finished = threading.Event()

    # -- worker side ---------------------------------------------------------

    def on_progress(self, event: ProgressEvent) -> None:
        """Progress consumer handed to the session (worker thread)."""
        record = event.to_dict()
        with self._lock:
            record["seq"] = next(self._seq)
            self._events.append(record)
            if event.kind == "done":
                self.cells_done += 1
                self.writes_done += event.n_writes
            elif event.kind == "heartbeat":
                pass  # writes_done tallies only completed cells (monotonic)

    def _transition(self, state: str, error: str = "") -> None:
        with self._lock:
            self.state = state
            if error:
                self.error = error
            record = {
                "seq": next(self._seq),
                "kind": "state",
                "state": state,
            }
            if error:
                record["error"] = error
            self._events.append(record)
            if state in TERMINAL_STATES:
                self.finished_utc = _utc_now()
                self._finished.set()

    # -- client side ---------------------------------------------------------

    @property
    def cancelled_requested(self) -> bool:
        return self._cancel.is_set()

    def request_cancel(self) -> None:
        self._cancel.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._finished.wait(timeout)

    def events_since(self, since: int) -> list[dict]:
        """Events with ``seq >= since`` (the HTTP stream's cursor)."""
        with self._lock:
            return [e for e in self._events if e["seq"] >= since]

    # -- persistence ---------------------------------------------------------

    def to_record(self) -> dict:
        """Everything :meth:`from_record` needs to rebuild this job."""
        with self._lock:
            return {
                "job_id": self.id,
                "spec": self.spec.to_dict(),
                "state": self.state,
                "error": self.error,
                "created_utc": self.created_utc,
                "started_utc": self.started_utc,
                "finished_utc": self.finished_utc,
                "result": self.result,
                "cells_done": self.cells_done,
                "writes_done": self.writes_done,
                "trace_id": self.trace_id,
            }

    @classmethod
    def from_record(cls, record: dict) -> "Job":
        """Rebuild a job from its last journal line (restart rehydration).

        Progress events are not journaled, so a restored job's event
        stream starts empty; its counters and result survive.
        """
        job = cls(JobSpec.from_dict(record["spec"]),
                  job_id=record["job_id"])
        job.state = record.get("state", QUEUED)
        job.error = record.get("error", "")
        job.created_utc = record.get("created_utc", job.created_utc)
        job.started_utc = record.get("started_utc", "")
        job.finished_utc = record.get("finished_utc", "")
        job.result = record.get("result")
        job.cells_done = int(record.get("cells_done", 0))
        job.writes_done = int(record.get("writes_done", 0))
        job.trace_id = str(record.get("trace_id", ""))
        if job.state in TERMINAL_STATES:
            job._finished.set()
        return job

    def snapshot(self) -> dict:
        """JSON-safe status view (GET /jobs/{id})."""
        with self._lock:
            return {
                "job_id": self.id,
                "kind": self.spec.kind,
                "label": self.spec.label,
                "experiment": self.spec.experiment,
                "state": self.state,
                "error": self.error,
                "n_cells": self.spec.n_cells,
                "cells_done": self.cells_done,
                "writes_done": self.writes_done,
                "n_events": len(self._events),
                "created_utc": self.created_utc,
                "started_utc": self.started_utc,
                "finished_utc": self.finished_utc,
                "cancel_requested": self._cancel.is_set(),
                "trace_id": self.trace_id,
            }


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class JobStore:
    """Append-only ``jobs.jsonl`` journal of job specs and state changes.

    One fsynced line per state change; on :meth:`load` the last line per
    job id wins.  A torn trailing line (crash mid-append) is skipped, so
    the journal is always readable after a hard kill.
    """

    FILENAME = "jobs.jsonl"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.path = self.root / self.FILENAME

    def record(self, job: Job) -> None:
        """Append the job's current record (submit + every transition)."""
        self.root.mkdir(parents=True, exist_ok=True)
        append_record(self.path, job.to_record())

    def load(self) -> dict[str, dict]:
        """Latest record per job id, in first-submission order."""
        return {
            rec["job_id"]: rec for rec in read_records(self.path)
            if rec.get("job_id")
        }


#: Queue sentinel that tells a worker thread to exit.
_SHUTDOWN = object()


class JobManager:
    """Bounded job queue + worker-thread pool over one shared Session.

    Parameters
    ----------
    session:
        The :class:`repro.api.Session` every job executes through (its
        ledger receives the manifests).
    job_workers:
        Concurrent jobs (worker threads).  Each sweep job may additionally
        fan its cells over processes, bounded by ``max_sweep_workers``.
    queue_size:
        Jobs allowed to wait beyond the running ones; submissions past
        this raise :class:`QueueFullError` (HTTP 429).
    default_timeout_s:
        Deadline applied to jobs that do not set their own; ``None`` means
        no deadline.
    max_sweep_workers:
        Hard cap on a job's requested per-sweep worker processes.
    store:
        Optional :class:`JobStore`; when set, every submission and state
        change is journaled and :meth:`rehydrate` can restore jobs after
        a restart.
    telemetry:
        The :class:`~repro.service.telemetry.ServiceTelemetry` receiving
        job lifecycle/phase metrics and worker heartbeats; a fresh one by
        default (the HTTP layer serves it at ``GET /v1/metrics``).
    worker_urls:
        A fleet of ``deuce-sim serve`` endpoints; when set, each sweep
        job runs its cells there through its own
        :class:`~repro.service.coordinator.FleetExecutor` (retry budget
        :data:`FLEET_RETRIES` unless the envelope sets one), all of them
        reporting into one :class:`~repro.service.coordinator.FleetTelemetry`
        on ``telemetry``'s registry.  Run and experiment jobs still run
        in-process.  Empty (the default) never imports the fleet module.
    fleet_window / fleet_probe_interval_s:
        The fleet executors' in-flight cells per worker and seconds
        between ``/v1/healthz`` probes.
    """

    #: Seconds an idle worker waits on the queue between heartbeat ticks.
    WORKER_POLL_S = 1.0

    def __init__(
        self,
        session: Session,
        *,
        job_workers: int = 2,
        queue_size: int = 16,
        default_timeout_s: float | None = None,
        max_sweep_workers: int = 4,
        store: JobStore | None = None,
        telemetry: ServiceTelemetry | None = None,
        worker_urls: Sequence[str] = (),
        fleet_window: int = 2,
        fleet_probe_interval_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if job_workers < 1:
            raise ValueError(f"job_workers must be >= 1, got {job_workers}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if fleet_window < 1:
            raise ValueError(f"fleet_window must be >= 1, got {fleet_window}")
        self.session = session
        self.job_workers = job_workers
        self.default_timeout_s = default_timeout_s
        self.max_sweep_workers = max_sweep_workers
        self.store = store
        self.telemetry = (
            telemetry if telemetry is not None else ServiceTelemetry()
        )
        self.worker_urls = [url for url in worker_urls if url]
        self.fleet_window = fleet_window
        self.fleet_probe_interval_s = fleet_probe_interval_s
        self._fleet_telemetry = None
        if self.worker_urls:
            from repro.service.coordinator import FleetTelemetry

            self._fleet_telemetry = FleetTelemetry(
                self.telemetry.registry, self.telemetry.lock
            )
        self._clock = clock
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._submit_lock = threading.Lock()
        self._draining = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "JobManager":
        """Spawn the worker threads (idempotent)."""
        if not self._threads:
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"deuce-job-worker-{i}",
                    daemon=True,
                )
                for i in range(self.job_workers)
            ]
            for thread in self._threads:
                thread.start()
        return self

    def rehydrate(self) -> list[Job]:
        """Restore journaled jobs after a restart; returns the resubmitted.

        Terminal jobs come back as queryable snapshots (status, error and
        result endpoints keep working across restarts).  Queued/running
        jobs are resubmitted under their original ids; a resubmitted
        sweep job picks up its keyed sweep checkpoint, so completed cells
        are restored instead of re-simulated.  Call after :meth:`start`
        so the workers can drain a backlog larger than the queue.
        """
        if self.store is None:
            return []
        resubmitted: list[Job] = []
        for record in self.store.load().values():
            try:
                job = Job.from_record(record)
            except (KeyError, TypeError, ConfigError):
                continue  # unreadable record must not block startup
            with self._jobs_lock:
                if job.id in self._jobs:
                    continue
                self._jobs[job.id] = job
            if job.state in TERMINAL_STATES:
                continue
            job.state = QUEUED
            job.started_utc = ""
            self._persist(job)
            self._queue.put(job)
            resubmitted.append(job)
        return resubmitted

    def _persist(self, job: Job) -> None:
        if self.store is None:
            return
        try:
            self.store.record(job)
        except OSError:
            pass  # durability is best-effort; never fail the job for it

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout_s: float = 30.0, *, cancel: bool = False) -> bool:
        """Stop accepting jobs and wait for the backlog to settle.

        With ``cancel=True`` every non-terminal job's cancel flag is set
        first, so running sweeps stop cooperatively at their next
        ``should_stop`` poll.  Returns True when every job reached a
        terminal state within ``timeout_s``.  Worker threads are always
        shut down before returning, so no job can start after a drain.
        """
        self._draining.set()
        if cancel:
            for job in self.jobs():
                job.request_cancel()
        deadline = self._clock() + timeout_s
        settled = True
        for job in self.jobs():
            remaining = deadline - self._clock()
            if not job.wait(max(0.0, remaining)):
                # Still queued or mid-run at the deadline: force the flag
                # so the worker (or the dequeue check) retires it.
                job.request_cancel()
                settled = False
        for _ in self._threads:
            try:
                self._queue.put_nowait(_SHUTDOWN)
            except queue.Full:  # workers will drain the backlog first
                self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - self._clock()) + 5.0)
        return settled

    # -- submission / queries ------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Enqueue a job; raises on drain or a full queue (backpressure)."""
        if self._draining.is_set():
            raise ServiceDraining("service is draining; not accepting jobs")
        job = Job(spec)
        # Journal the job before a worker can see it, so its `queued` line
        # precedes the worker's `running` and terminal ones (the last line
        # per job wins on rehydrate).  The lock makes the room check hold
        # until the put: only workers take from the queue meanwhile.
        with self._submit_lock:
            if self._queue.full():
                raise QueueFullError(
                    f"job queue is full ({self._queue.maxsize} waiting); "
                    "retry after a job finishes"
                )
            self._persist(job)
            with self._jobs_lock:
                self._jobs[job.id] = job
            self._queue.put(job)
        self.telemetry.job_submitted(spec.kind)
        return job

    def get(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """All known jobs, submission-ordered."""
        with self._jobs_lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Request cooperative cancellation; returns the job."""
        job = self.get(job_id)
        job.request_cancel()
        return job

    def counts(self) -> dict[str, int]:
        """Jobs per state (healthz)."""
        counts = dict.fromkeys(
            (QUEUED, RUNNING, DONE, FAILED, CANCELLED), 0
        )
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    @property
    def queue_depth(self) -> int:
        """Jobs waiting in the queue right now (approximate, lock-free)."""
        return self._queue.qsize()

    @property
    def in_flight(self) -> int:
        """Jobs currently executing on a worker thread."""
        return sum(1 for job in self.jobs() if job.state == RUNNING)

    # -- execution -----------------------------------------------------------

    def _worker_loop(self) -> None:
        # The bounded get() keeps the heartbeat gauge fresh even when the
        # queue is empty — a wedged worker stops beating within one poll.
        worker = threading.current_thread().name
        while True:
            self.telemetry.worker_heartbeat(worker)
            try:
                item = self._queue.get(timeout=self.WORKER_POLL_S)
            except queue.Empty:
                continue
            if item is _SHUTDOWN:
                return
            self.telemetry.worker_heartbeat(worker, busy=True)
            try:
                self._execute(item)
            finally:
                self.telemetry.worker_heartbeat(worker)
                self._queue.task_done()

    def trace_dir(self, job_id: str) -> Path | None:
        """Where a job's correlated-trace lanes land (``None`` ledger-less).

        One directory per job under ``<runs_dir>/traces/``, holding the
        ``job.jsonl`` lane plus the run/sweep/cell lanes the session
        writes — the input to ``deuce-sim trace export <job_id>``.
        """
        if self.session.ledger is None:
            return None
        return self.session.ledger.root / "traces" / job_id

    def _start_job_trace(self, job: Job):
        """Mint the job's trace context and open its lane (best-effort).

        Tracing must never fail a job: any filesystem error leaves the
        job untraced (``trace_id`` stays empty) and execution proceeds.
        """
        traces = self.trace_dir(job.id)
        if traces is None:
            return None, None
        try:
            traces.mkdir(parents=True, exist_ok=True)
            ctx = TraceContext.new()
            sink = JsonlSink(
                traces / "job.jsonl",
                meta={
                    **ctx.to_dict(),
                    "lane": "job",
                    "job_id": job.id,
                    "kind": job.spec.kind,
                },
            )
            job.trace_id = ctx.trace_id
            return ctx, Tracer(sink)
        except OSError:
            return None, None

    def _fleet_executor(self):
        """A fresh fleet executor per sweep job; ``None`` without a fleet."""
        if not self.worker_urls:
            return None
        from repro.service.coordinator import FleetExecutor

        return FleetExecutor(
            self.worker_urls,
            window=self.fleet_window,
            probe_interval_s=self.fleet_probe_interval_s,
            telemetry=self._fleet_telemetry,
        )

    def _execute(self, job: Job) -> None:
        if job.cancelled_requested:
            job._transition(CANCELLED, "cancelled while queued")
            self._persist(job)
            self.telemetry.job_finished(
                job.spec.kind, CANCELLED, 0.0,
                time.monotonic() - job.created_monotonic,
            )
            return
        job.started_utc = _utc_now()
        job.started_monotonic = time.monotonic()
        ctx, job_tracer = self._start_job_trace(job)
        job._transition(RUNNING)
        self._persist(job)
        queue_wait_s = job.started_monotonic - job.created_monotonic
        self.telemetry.job_started(
            job.spec.kind, queue_wait_s, trace_id=job.trace_id
        )
        t_exec0 = time.perf_counter()
        if job_tracer is not None:
            # Queue wait happened before this lane's anchor; a span ending
            # at the anchor with the measured duration still aligns right.
            job_tracer.span_event(
                "job.queue_wait", t_exec0 - queue_wait_s, queue_wait_s,
                job_id=job.id, kind=job.spec.kind,
            )
        spec = job.spec
        timeout_s = (
            spec.timeout_s
            if spec.timeout_s is not None
            else self.default_timeout_s
        )
        deadline = self._clock() + timeout_s if timeout_s else None

        def should_stop() -> bool:
            return job.cancelled_requested or (
                deadline is not None and self._clock() > deadline
            )

        try:
            if spec.kind == "run":
                run_obs = None
                if ctx is not None:
                    traces = self.trace_dir(job.id)
                    # per_write_spans=False keeps the chunked fast path:
                    # the run lane gets chunk-level spans, not one span
                    # per simulated write.
                    run_obs = replace(
                        self.session.obs,
                        trace_out=str(traces / "run.jsonl"),
                        trace_context=ctx.child(),
                        per_write_spans=False,
                    )
                result = self.session.run(
                    spec.configs[0],
                    label=spec.label,
                    progress=job.on_progress,
                    should_stop=should_stop,
                    obs=run_obs,
                )
                payload = _results_payload([result])
            elif spec.kind == "sweep":
                workers = min(
                    spec.workers if spec.workers else self.max_sweep_workers,
                    self.max_sweep_workers,
                )
                # Key the sweep checkpoint by job id so a rehydrated job
                # resumes its completed cells instead of redoing them.
                sweep_id = (
                    job.id if self.session.ledger is not None else None
                )
                executor = self._fleet_executor()
                retries = spec.retries
                if executor is not None and not retries:
                    retries = FLEET_RETRIES
                results = self.session.sweep(
                    spec.configs,
                    workers=workers,
                    progress=job.on_progress,
                    label=spec.label,
                    should_stop=should_stop,
                    retries=retries,
                    sweep_id=sweep_id,
                    executor=executor,
                    trace_dir=(
                        self.trace_dir(job.id) if ctx is not None else None
                    ),
                    trace_context=ctx,
                )
                payload = _results_payload(results)
            else:
                options = dict(spec.options)
                options["workers"] = min(
                    int(options.get("workers", spec.workers or 1) or 1),
                    self.max_sweep_workers,
                )
                experiment = self.session.experiment(
                    spec.experiment,
                    progress=job.on_progress,
                    should_stop=should_stop,
                    **options,
                )
                payload = {
                    "experiment": spec.experiment,
                    "rows": experiment.rows,
                    "averages": experiment.averages,
                    "paper": experiment.paper,
                    "rendered": experiment.render(),
                    "wall_time_s": experiment.wall_time_s,
                    "run_id": (
                        experiment.manifest.run_id
                        if experiment.manifest
                        else ""
                    ),
                }
            job.result = payload
            job._transition(DONE)
        except (RunAborted, SweepCancelled) as exc:
            if job.cancelled_requested:
                job._transition(CANCELLED, str(exc))
            else:
                job._transition(
                    FAILED, f"deadline exceeded after {timeout_s}s: {exc}"
                )
        except Exception as exc:  # noqa: BLE001 - jobs must never kill workers
            job._transition(FAILED, f"{type(exc).__name__}: {exc}")
        self._persist(job)
        now = time.monotonic()
        self.telemetry.job_finished(
            spec.kind,
            job.state,
            now - job.started_monotonic,
            now - job.created_monotonic,
            trace_id=job.trace_id,
        )
        if job_tracer is not None:
            job_tracer.span_event(
                "job.exec", t_exec0, time.perf_counter() - t_exec0,
                job_id=job.id, kind=spec.kind, state=job.state,
            )
            job_tracer.close()


def _results_payload(results) -> dict:
    """JSON result payload for run/sweep jobs (full exact aggregates)."""
    return {
        "results": [r.to_dict() for r in results],
        "run_ids": [r.manifest.run_id if r.manifest else "" for r in results],
    }
