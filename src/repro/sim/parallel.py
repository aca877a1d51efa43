"""Parallel sweep engine: fan experiment cells out over worker processes.

Every paper exhibit reduces to a grid of independent (workload, scheme,
config) cells, each streaming thousands of writebacks through
:func:`repro.sim.runner.run`.  Cells share nothing but read-only inputs, so
the sweep is embarrassingly parallel: this module distributes
:class:`~repro.sim.config.SimConfig` cells (frozen dataclasses, hence
picklable) over a ``ProcessPoolExecutor``.

Every sweep executor — the serial fallback, the local pool and the
fleet (:class:`repro.service.coordinator.FleetExecutor`) — shares one front
half, :func:`run_sweep`: argument checks, checkpoint restore, and the
per-cell completion record (``cell.done`` trace event, ``sweep-cell``
ledger manifest, checkpoint line).  Only the scheduling differs.

Guarantees:

* **Determinism** — results come back in submission order and each cell is
  a pure function of its config, so a parallel sweep returns bit-identical
  :class:`~repro.sim.results.RunResult`s to a serial one (there is a test
  for this).  Progress streaming never changes results: worker-side
  instrumentation is read-only.
* **Shared-memory traces** — the pool path materializes each unique
  workload trace once in the parent and publishes it into
  ``multiprocessing.shared_memory`` segments
  (:class:`~repro.sim.shm.TracePublisher`); workers receive only a tiny
  :class:`~repro.sim.shm.TraceShmSpec` and attach zero-copy
  :class:`~repro.workloads.trace.Trace` views, so no trace bytes are
  pickled to workers and no worker regenerates a trace.  If publishing or
  attaching fails (e.g. an exhausted ``/dev/shm``) the affected cells fall
  back to the per-process ``lru_cache`` of
  :func:`repro.sim.runner.cached_trace` — shared memory is an
  optimization, never a correctness dependency.
* **One cell runner** — every local cell, pooled or in-process, runs
  through :func:`_run_cell`.  An effective worker count of 1 (or a
  single-cell sweep) calls it inline with no pool overhead, so callers can
  thread one knob through unconditionally; only in-process can
  ``should_stop`` abort a cell mid-trace.
* **Live progress** — pass ``progress=`` a callable (e.g. a
  :class:`~repro.obs.progress.ProgressRenderer`) and each cell emits
  ``start``/``heartbeat``/``done`` :class:`~repro.obs.progress.ProgressEvent`
  records as it advances: straight to ``progress`` in-process, over a
  ``multiprocessing`` queue from pool workers.
* **Fault tolerance** — ``retries`` grants each cell a retry budget
  (:class:`RetryBudget`, shared by every scheduler): a failed attempt is
  charged and the cell waits out a capped exponential backoff before it
  runs again.  A worker crash hard enough to break the process pool
  (SIGKILL, segfault, OOM kill) is detected, the pool is rebuilt, and the
  lost in-flight cells are charged and requeued the same way.  A cell that
  exhausts its budget raises :class:`SweepCellFailed` carrying the partial
  results.
* **Durable progress** — pass ``checkpoint=`` a
  :class:`~repro.sim.checkpoint.SweepCheckpoint` (or its directory) and
  every completed cell is fsynced to ``cells.jsonl`` the moment it
  finishes; a re-run with the same checkpoint restores finished cells by
  config signature and runs only the missing ones.  Ledger recording
  (``ledger=``) is likewise incremental, in completion order, so a crashed
  sweep leaves every finished cell recorded.

Worker-count conventions (unified for the CLI and the API): ``None`` *or*
``0`` auto-sizes to the machine (capped at :data:`MAX_AUTO_WORKERS`), ``1``
forces the serial fallback, any larger value is honoured but never exceeds
the number of cells still to run.  Negative values are an error.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import queue as queue_mod
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.context import TraceContext
from repro.obs.instruments import Instruments, RunAborted
from repro.obs.progress import DONE, HEARTBEAT, START, ProgressEvent
from repro.obs.tracing import NULL_TRACER, JsonlSink, NullTracer, Tracer
from repro.sim.checkpoint import SweepCheckpoint, config_signature
from repro.sim.config import SimConfig
from repro.sim.results import RunResult
from repro.sim.shm import TracePublisher, TraceShmSpec, attach_trace

#: Upper bound on auto-selected workers; grids rarely have more useful
#: parallelism and oversubscribing a small container only adds overhead.
MAX_AUTO_WORKERS = 8

#: Seconds between future polls while forwarding progress events.
_POLL_S = 0.1

#: Ceiling on the exponential retry backoff, whatever the attempt count.
_BACKOFF_CAP_S = 30.0


class SweepCancelled(RuntimeError):
    """A sweep stopped cooperatively because ``should_stop`` went true.

    In the serial path the in-flight cell aborts mid-trace (via
    :class:`~repro.obs.instruments.RunAborted`); in the pool path cells not
    yet started are cancelled and already-running cells complete before the
    pool shuts down, so no worker process is ever orphaned.  ``results``
    holds the finished cells' :class:`RunResult`\\ s (submission order,
    ``None`` for unfinished cells).
    """

    def __init__(
        self, message: str, results: list[RunResult | None] | None = None
    ) -> None:
        super().__init__(message)
        self.results = results if results is not None else []


class SweepCellFailed(RuntimeError):
    """A sweep cell failed on every attempt its retry budget allowed.

    Completed cells were already recorded to the ledger/checkpoint before
    this raised, so ``--resume`` re-runs only the failed and not-yet-run
    cells.  ``results`` holds the partial results (submission order,
    ``None`` for unfinished cells); ``index``/``config``/``attempts``
    identify the failing cell.  The final per-attempt error is chained as
    ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        *,
        index: int,
        config: SimConfig,
        attempts: int,
        results: list[RunResult | None] | None = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.config = config
        self.attempts = attempts
        self.results = results if results is not None else []


@dataclass
class SweepTracing:
    """Correlated-tracing hookup for one sweep.

    ``context`` is the sweep lane's :class:`TraceContext`; every worker
    cell becomes a *child* lane written to ``dir / cell-<i>.jsonl`` with
    its own re-anchored clock, so offline tools
    (:mod:`repro.obs.traceexport`) can merge all lanes onto one
    wall-clock axis and parent every worker span under the sweep span.
    ``tracer`` is the parent-process sweep lane (``cell.submit`` /
    ``cell.done`` scheduling events); it is never pickled — workers only
    receive the tiny dict from :meth:`cell_payload`.
    """

    dir: Path
    context: TraceContext
    tracer: Tracer | NullTracer = field(default=NULL_TRACER, repr=False)

    def cell_payload(self, index: int) -> dict:
        """Picklable per-cell payload riding in the worker submission."""
        return {
            "dir": str(self.dir),
            "ctx": self.context.to_dict(),
            "cell": index,
        }


def _cell_tracer(cell_trace: dict | None) -> Tracer | NullTracer:
    """Build the cell's own trace lane; :data:`NULL_TRACER` when untraced.

    Tracing must never fail a cell: any error opening the lane file
    degrades to an untraced run.
    """
    if not cell_trace:
        return NULL_TRACER
    try:
        ctx = TraceContext.from_dict(cell_trace["ctx"]).child()
        name = f"cell-{cell_trace['cell']}"
        path = Path(cell_trace["dir"]) / f"{name}.jsonl"
        sink = JsonlSink(
            path,
            meta={**ctx.to_dict(), "lane": name, "cell": cell_trace["cell"]},
        )
        return Tracer(sink)
    except Exception:
        return NULL_TRACER


def resolve_workers(max_workers: int | None, n_cells: int) -> int:
    """Effective worker count for a sweep of ``n_cells`` cells.

    Accepts both historical conventions: ``None`` (the API's "pick for me")
    and ``0`` (the CLI's "auto") both auto-size to the machine, capped at
    :data:`MAX_AUTO_WORKERS`; ``1`` means serial; explicit counts are
    honoured but never exceed the number of cells.
    """
    if max_workers is None or max_workers == 0:
        max_workers = min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
    if max_workers < 0:
        raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
    return max(1, min(max_workers, n_cells))


class RetryBudget:
    """Per-cell retry accounting and the backoff heap every scheduler uses.

    One mechanism shared by the serial fallback, the local pool and the
    fleet coordinator (:mod:`repro.service.coordinator`): a failed attempt
    — a cell exception, a crashed pool worker, or a dead fleet endpoint —
    is *charged* against the cell's budget and either pushes the cell onto
    a ``(ready_at, index)`` heap after a capped exponential backoff or
    raises :class:`SweepCellFailed` carrying the partial ``results``, so
    every executor fails and resumes identically.
    """

    def __init__(
        self,
        configs: Sequence[SimConfig],
        results: "list[RunResult | None]",
        retries: int,
        backoff_s: float,
    ) -> None:
        self.configs = configs
        self.results = results
        self.retries = retries
        self.backoff_s = backoff_s
        self.attempts: dict[int, int] = {}
        self.delayed: list[tuple[float, int]] = []

    def charge(self, index: int, exc: BaseException) -> None:
        """Spend one retry and queue the cell for later, or fail the sweep.

        Retry ``k`` waits ``min(30, backoff_s * 2**(k-1))`` seconds.
        """
        attempts = self.attempts[index] = self.attempts.get(index, 0) + 1
        if attempts > self.retries:
            config = self.configs[index]
            raise SweepCellFailed(
                f"cell {index}/{len(self.configs)} "
                f"({config.workload}/{config.scheme}) "
                f"failed after {attempts} attempt(s): {exc}",
                index=index,
                config=config,
                attempts=attempts,
                results=list(self.results),
            ) from exc
        delay = min(_BACKOFF_CAP_S, self.backoff_s * (2 ** (attempts - 1)))
        heapq.heappush(self.delayed, (time.monotonic() + delay, index))

    def due(self) -> list[int]:
        """Pop every charged cell whose backoff has elapsed."""
        now = time.monotonic()
        ready = []
        while self.delayed and self.delayed[0][0] <= now:
            ready.append(heapq.heappop(self.delayed)[1])
        return ready

    def wait(self, cap_s: float) -> None:
        """Sleep until the next charged cell is due, at most ``cap_s``."""
        if self.delayed:
            pause = self.delayed[0][0] - time.monotonic()
            time.sleep(max(0.0, min(cap_s, pause)))


@dataclass
class SweepRun:
    """The cells of one sweep, as :func:`run_sweep` hands them to a scheduler.

    ``todo`` lists the cells still to run (checkpoint hits are already in
    ``results``); ``budget`` owns their retries.  Schedulers report every
    finished cell through :meth:`complete`, which records it durably the
    moment it finishes.
    """

    configs: list[SimConfig]
    results: "list[RunResult | None]"
    todo: list[int]
    budget: RetryBudget
    tracing: SweepTracing | None = None
    ledger: object = None
    ledger_label: str = ""
    checkpoint: SweepCheckpoint | None = None

    def trace(self, name: str, index: int, **fields: object) -> None:
        """One event about cell ``index`` on the sweep's own trace lane."""
        if self.tracing is not None:
            config = self.configs[index]
            self.tracing.tracer.event(
                name, cell=index, workload=config.workload,
                scheme=config.scheme, **fields,
            )

    def cell_trace(self, index: int) -> dict | None:
        """The picklable payload that opens cell ``index``'s trace lane."""
        if self.tracing is None:
            return None
        return self.tracing.cell_payload(index)

    def complete(self, index: int, result: RunResult) -> None:
        """Keep one finished cell and record it to the ledger/checkpoint."""
        config = self.configs[index]
        self.results[index] = result
        self.trace("cell.done", index)
        if self.ledger is not None:
            result.manifest = self.ledger.record_result(
                result, config, kind="sweep-cell", label=self.ledger_label
            )
        if self.checkpoint is not None:
            run_id = result.manifest.run_id if result.manifest else ""
            self.checkpoint.record(index, config, result, run_id=run_id)

    def cancelled(self) -> SweepCancelled:
        """The :class:`SweepCancelled` for a sweep stopped between cells."""
        n_done = sum(r is not None for r in self.results)
        return SweepCancelled(
            f"sweep cancelled with {n_done}/{len(self.results)} cells "
            "finished",
            list(self.results),
        )


def run_sweep(
    configs: Sequence[SimConfig],
    schedule: Callable[[SweepRun], None],
    *,
    ledger=None,
    ledger_label: str = "",
    retries: int = 0,
    retry_backoff_s: float = 0.5,
    checkpoint: "SweepCheckpoint | str | None" = None,
    tracing: SweepTracing | None = None,
) -> list[RunResult]:
    """The front half every sweep executor shares.

    Checks the arguments, restores finished cells from ``checkpoint``,
    then hands the rest to ``schedule`` as a :class:`SweepRun` (it is not
    called when nothing is left to run).  The keyword arguments mean what
    they mean for :func:`run_suite_parallel`.
    """
    configs = list(configs)
    if not configs:
        return []
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if checkpoint is not None and not isinstance(checkpoint, SweepCheckpoint):
        checkpoint = SweepCheckpoint(checkpoint)

    results: list[RunResult | None] = [None] * len(configs)
    if checkpoint is not None:
        restored = checkpoint.restore()
        results = [restored.get(config_signature(c)) for c in configs]
    todo = [i for i, result in enumerate(results) if result is None]
    if todo:
        if tracing is not None:
            Path(tracing.dir).mkdir(parents=True, exist_ok=True)
        budget = RetryBudget(configs, results, retries, retry_backoff_s)
        schedule(SweepRun(
            configs, results, todo, budget, tracing, ledger, ledger_label,
            checkpoint,
        ))
    return results  # type: ignore[return-value]


def _worker_trace(spec: TraceShmSpec | None):
    """Attach a published trace, or ``None`` to regenerate locally.

    Attach failures (the parent's segment vanished, a platform without
    POSIX shared memory) degrade to the pre-shared-memory behaviour:
    ``run(config)`` falls back to its per-process ``cached_trace``.
    """
    if spec is None:
        return None
    try:
        return attach_trace(spec)
    except Exception:
        return None


def _run_cell(
    index: int,
    config: SimConfig,
    n_cells: int,
    trace_spec: TraceShmSpec | None,
    cell_trace: dict | None,
    emit: Callable[[ProgressEvent], None] | None = None,
    heartbeat_every: int = 0,
    abort: Callable[[], bool] | None = None,
) -> RunResult:
    """Run one sweep cell: the pool's worker entry point and the serial path.

    ``emit`` receives the cell's ``start``/``heartbeat``/``done`` events (a
    manager queue's ``put`` in a pool worker, the ``progress`` callable
    in-process).  ``abort`` is polled mid-trace and raises
    :class:`~repro.obs.instruments.RunAborted`; only an in-process caller
    can pass one.  ``cell_trace`` (:meth:`SweepTracing.cell_payload`) opens
    the cell's own ``cell-<i>`` trace lane around a ``cell.run`` span.
    Module-level so the pool can pickle it.
    """
    from repro.sim.runner import run

    def event(kind: str, writes_done: int = 0) -> None:
        emit(ProgressEvent.for_cell(kind, config, index, n_cells, writes_done))

    if emit is not None:
        event(START)
    tracer = _cell_tracer(cell_trace)
    instruments = Instruments(
        heartbeat=(
            None if emit is None
            else lambda done, _total: event(HEARTBEAT, done)
        ),
        heartbeat_every=heartbeat_every,
        abort=abort,
        tracer=tracer,
        per_write_spans=False,
    )
    try:
        with tracer.span(
            "cell.run", cell=index, workload=config.workload,
            scheme=config.scheme,
        ):
            result = run(
                config, trace=_worker_trace(trace_spec),
                instruments=instruments,
            )
    finally:
        tracer.close()
    if emit is not None:
        event(DONE)
    return result


def _drain(events, progress: Callable[[ProgressEvent], None]) -> None:
    while True:
        try:
            progress(events.get_nowait())
        except queue_mod.Empty:
            return


def run_suite_parallel(
    configs: Sequence[SimConfig],
    max_workers: int | None = None,
    progress: Callable[[ProgressEvent], None] | None = None,
    heartbeat_every: int = 0,
    ledger=None,
    ledger_label: str = "",
    should_stop: Callable[[], bool] | None = None,
    *,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
    checkpoint: "SweepCheckpoint | str | None" = None,
    tracing: SweepTracing | None = None,
) -> list[RunResult]:
    """Run a batch of configs, fanned out over worker processes.

    Results are returned in the order of ``configs`` regardless of which
    worker finished first, and are bit-identical to
    :func:`repro.sim.runner.run_suite` on the same inputs.

    Parameters
    ----------
    configs:
        The experiment cells to run.
    max_workers:
        Process count; ``None`` or ``0`` auto-sizes to the machine, ``1``
        forces the serial fallback (see :func:`resolve_workers`).
    progress:
        Optional callable receiving :class:`ProgressEvent` records as cells
        start, advance, and finish — live even while workers are mid-cell.
        Works in the serial fallback too (events arrive synchronously).
    heartbeat_every:
        Writes between per-cell heartbeat events; ``0`` auto-sizes to ~10
        heartbeats per cell.  Ignored when ``progress`` is ``None``.
    ledger:
        Optional :class:`~repro.obs.ledger.RunLedger`; when given, every
        cell's result is recorded as a ``kind="sweep-cell"`` manifest
        (labelled ``ledger_label``) the moment the cell completes, so a
        crashed or cancelled sweep leaves all finished cells recorded.
        Recording happens in the parent process on the collected results,
        so it never affects worker execution or result identity.
    ledger_label:
        The ``label`` stamped on recorded sweep-cell manifests (typically
        the experiment id).
    should_stop:
        Optional ``() -> bool`` polled between cells (and, serially, every
        few hundred writes *within* a cell); when it goes true the sweep
        raises :class:`SweepCancelled` after letting in-flight worker cells
        finish, so no process is orphaned.  Job cancellation and per-job
        deadlines in :mod:`repro.service` are built on this hook.
    retries:
        Retry budget per cell.  A cell whose attempt raises (including
        being lost to a crashed worker) is requeued after capped
        exponential backoff until the budget is spent, then the sweep
        raises :class:`SweepCellFailed`.  ``0`` (the default) fails fast.
    retry_backoff_s:
        Base backoff: retry ``k`` waits ``min(30, retry_backoff_s * 2**(k-1))``
        seconds.
    checkpoint:
        Optional :class:`~repro.sim.checkpoint.SweepCheckpoint` (or the
        directory to hold one).  Completed cells are durably appended as
        they finish; on entry, cells whose config signature is already
        recorded are restored from the checkpoint instead of re-run.
        Restored results are exact for every simulation aggregate but
        carry no raw wear/lifetime/series detail (the headline
        ``lifetime_norm`` survives via the stored summary).
    tracing:
        Optional :class:`SweepTracing`: each worker cell writes a child
        trace lane (``cell-<i>.jsonl``) under ``tracing.dir`` and the
        parent lane records ``cell.submit``/``cell.done`` scheduling
        events, so the whole sweep exports as one correlated trace.
        Tracing is read-only and best-effort; results are unchanged.
    """

    def schedule(sweep: SweepRun) -> None:
        workers = resolve_workers(max_workers, len(sweep.todo))
        if workers <= 1:
            _run_serial(sweep, progress, heartbeat_every, should_stop)
        else:
            _run_pool_scheduler(
                sweep, workers, progress, heartbeat_every, should_stop
            )

    return run_sweep(
        configs, schedule, ledger=ledger, ledger_label=ledger_label,
        retries=retries, retry_backoff_s=retry_backoff_s,
        checkpoint=checkpoint, tracing=tracing,
    )


def _run_serial(
    sweep: SweepRun,
    progress: Callable[[ProgressEvent], None] | None,
    heartbeat_every: int,
    should_stop: Callable[[], bool] | None,
) -> None:
    """Serial fallback: run each cell in-process through :func:`_run_cell`.

    Events go straight to ``progress``, and ``should_stop`` doubles as the
    cell's abort check, so a serial cell stops mid-trace.  A failed cell
    is charged to the budget and runs again once its backoff is due.
    """
    configs, budget = sweep.configs, sweep.budget
    n = len(configs)
    ready: deque[int] = deque(sweep.todo)
    while ready or budget.delayed:
        ready.extend(budget.due())
        if not ready:
            budget.wait(_POLL_S)
            continue
        index = ready.popleft()
        if should_stop is not None and should_stop():
            raise SweepCancelled(
                f"sweep cancelled before cell {index}/{n}", list(sweep.results)
            )
        sweep.trace("cell.submit", index)
        try:
            result = _run_cell(
                index, configs[index], n, None, sweep.cell_trace(index),
                progress, heartbeat_every, should_stop,
            )
        except RunAborted as exc:
            raise SweepCancelled(
                f"sweep cancelled in cell {index}/{n}: {exc}",
                list(sweep.results),
            ) from exc
        except Exception as exc:
            budget.charge(index, exc)
        else:
            sweep.complete(index, result)


def _run_pool_scheduler(
    sweep: SweepRun,
    workers: int,
    progress: Callable[[ProgressEvent], None] | None,
    heartbeat_every: int,
    should_stop: Callable[[], bool] | None,
) -> None:
    """The fault-tolerant process-pool scheduler.

    Cells move between three places: ``ready`` (submit at the next
    opportunity), the budget's backoff heap, and ``futures`` (in flight).
    A cell whose attempt raises is charged one attempt and waits out its
    backoff; a :class:`BrokenProcessPool` kills every in-flight future, so
    the pool is rebuilt and all lost cells are charged and requeued
    together (the executor cannot say which cell crashed the worker).
    """
    configs, results, budget = sweep.configs, sweep.results, sweep.budget
    n = len(configs)
    ready: deque[int] = deque(sweep.todo)
    futures: dict = {}
    with ExitStack() as stack:
        # Publish each unique trace into shared memory once; workers get a
        # tiny spec per cell and attach zero-copy instead of regenerating.
        # The publisher outlives the pool (workers hold live mappings) and
        # unlinks every segment on the way out, success or failure.
        publisher = stack.enter_context(TracePublisher())
        specs = {i: publisher.publish(configs[i]) for i in sweep.todo}
        emit = events = None
        if progress is not None:
            # A manager queue carries events from workers; the main process
            # forwards them between future polls.
            events = stack.enter_context(multiprocessing.Manager()).Queue()
            emit = events.put
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while ready or budget.delayed or futures:
                ready.extend(budget.due())
                broken: BaseException | None = None
                lost: list[int] = []  # submitted cells whose worker crashed
                while ready and broken is None:
                    index = ready.popleft()
                    sweep.trace("cell.submit", index)
                    try:
                        future = pool.submit(
                            _run_cell, index, configs[index], n,
                            specs[index], sweep.cell_trace(index), emit,
                            heartbeat_every,
                        )
                    except BrokenProcessPool as exc:
                        # Never submitted: back in line, no attempt charged.
                        broken = exc
                        ready.appendleft(index)
                    else:
                        futures[future] = index

                if broken is None and futures:
                    done, _ = wait(
                        set(futures), timeout=_POLL_S,
                        return_when=FIRST_COMPLETED,
                    )
                    if progress is not None:
                        _drain(events, progress)
                    for future in done:
                        index = futures.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool as exc:
                            broken = exc
                            lost.append(index)
                        except Exception as exc:
                            budget.charge(index, exc)
                        else:
                            sweep.complete(index, result)
                elif broken is None:
                    budget.wait(_POLL_S)  # everything left is backing off

                if broken is not None:
                    # A worker died hard (SIGKILL/segfault/OOM): the pool is
                    # unusable and every in-flight future is lost.  Rebuild
                    # the pool and requeue the lost cells against their
                    # budgets.
                    lost.extend(futures.values())
                    futures.clear()
                    pool.shutdown(wait=False)
                    pool = ProcessPoolExecutor(max_workers=workers)
                    for index in lost:
                        budget.charge(index, broken)

                if (
                    (ready or budget.delayed or futures)
                    and should_stop is not None
                    and should_stop()
                ):
                    # Cooperative drain: unstarted cells are cancelled
                    # outright, running cells finish (their results are kept
                    # and recorded) — the pool always shuts down with zero
                    # orphaned workers.
                    for future in futures:
                        future.cancel()
                    finished, _ = wait(set(futures))
                    for future in finished:
                        if future.cancelled():
                            continue
                        try:
                            result = future.result()
                        except Exception:
                            continue  # cancelling anyway; drop the attempt
                        sweep.complete(futures[future], result)
                    raise sweep.cancelled()
        finally:
            pool.shutdown(wait=True)
            if progress is not None:
                # Workers enqueue their final event before returning, so one
                # last drain after the pool closes delivers everything.
                _drain(events, progress)
