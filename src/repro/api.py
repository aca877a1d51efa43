"""``repro.api`` — the stable programmatic facade over the simulator.

One :class:`Session` is the single config-resolution path shared by the CLI
(``deuce-sim run/experiment``), the job service (``deuce-sim serve``),
experiments, and benchmarks: it owns the run ledger, the observability
options, and the worker conventions, so none of those callers wires up
``RunLedger``/``Instruments``/``Tracer`` plumbing themselves.

.. code-block:: python

    from repro.api import ObsOptions, Session, SimConfig

    session = Session()                       # ledger on (.deuce-runs/)
    result = session.run(SimConfig("mcf", "deuce", n_writes=10_000))
    print(result.summary_row(), result.manifest.run_id)

    results = session.sweep(
        [SimConfig("mcf", s) for s in ("deuce", "encr-fnw")], workers=2
    )
    fig10 = session.experiment("fig10", n_writes=2_000, workers=2)

Everything exported in :data:`__all__` is covered by the README's "Python
API" section and is the surface the service's JSON API is a transport for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro._lazy import lazy_exports as _lazy_exports
from repro.obs.context import TraceContext
from repro.obs.instruments import Instruments, RunAborted
from repro.obs.ledger import (
    RunLedger,
    RunManifest,
    build_manifest,
    new_run_id,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import (
    DONE,
    HEARTBEAT,
    START,
    ProgressEvent,
    ProgressRenderer,
)
from repro.obs.tracing import NULL_TRACER, JsonlSink, Tracer
from repro.sim import runner
from repro.sim.checkpoint import (
    RUN_CHECKPOINT_DIRNAME,
    CheckpointError,
    SweepCheckpoint,
    load_run_checkpoint,
)
from repro.sim.config import ConfigError, SimConfig, unknown_keys
from repro.sim.results import RunResult

__all__ = [
    "CheckpointError",
    "ConfigError",
    "ExperimentResult",
    "ObsOptions",
    "ProgressEvent",
    "ProgressRenderer",
    "RunAborted",
    "RunLedger",
    "RunManifest",
    "RunResult",
    "Session",
    "SimConfig",
    "SweepCancelled",
    "SweepCellFailed",
    "TraceContext",
    "resolve_workers",
]

# The sweep engine and the experiments load on first use, so a run
# through the facade imports neither.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.sim.experiments": ("ExperimentResult",),
        "repro.sim.parallel": (
            "SweepCancelled",
            "SweepCellFailed",
            "resolve_workers",
        ),
    },
)


@dataclass(frozen=True)
class ObsOptions:
    """Per-run observability outputs a :class:`Session` should produce.

    Attributes
    ----------
    metrics_out:
        Write end-of-run metrics (counters/timers) as JSONL to this path.
    trace_out:
        Stream pipeline spans/events as JSONL to this path.
    sample_interval:
        Snapshot run state into ``RunResult.series`` every N writes
        (``0`` = off; implied ~100 points when only ``series_out`` is set).
    series_out:
        Write the sampled time-series as CSV to this path.
    trace_context:
        Optional :class:`~repro.obs.context.TraceContext` naming this
        run's lane in a larger correlated trace; stamped into the trace
        file's meta record so offline tools can parent the run under its
        job/sweep span and align it on the wall clock.
    per_write_spans:
        With ``trace_out`` set, emit one span per write (full-fidelity
        traces; runs at chunk size 1, the scalar reference).  The job
        service sets this False so traced runs keep the configured chunk
        size with one span per chunk.
    """

    metrics_out: str | None = None
    trace_out: str | None = None
    sample_interval: int = 0
    series_out: str | None = None
    trace_context: TraceContext | None = None
    per_write_spans: bool = True

    @property
    def any(self) -> bool:
        return bool(
            self.metrics_out
            or self.trace_out
            or self.sample_interval
            or self.series_out
        )


#: Shared all-off options (the default for ledger-only sessions).
NO_OBS = ObsOptions()


class Session:
    """A configured entry point for runs, sweeps, and experiments.

    Parameters
    ----------
    ledger:
        ``True`` (default) opens the default ledger (``$DEUCE_RUNS_DIR`` or
        ``./.deuce-runs``), ``False``/``None`` disables recording, a
        :class:`~repro.obs.ledger.RunLedger` is used as-is, and a string or
        path opens a ledger rooted there.
    runs_dir:
        Ledger directory used when ``ledger`` is ``True``.
    obs:
        Default :class:`ObsOptions` for every :meth:`run` (overridable
        per call).
    label:
        Default manifest label stamped on recorded runs.
    """

    def __init__(
        self,
        *,
        ledger: RunLedger | bool | str | None = True,
        runs_dir: str | None = None,
        obs: ObsOptions | None = None,
        label: str = "",
    ) -> None:
        if isinstance(ledger, RunLedger):
            self.ledger: RunLedger | None = ledger
        elif isinstance(ledger, (str, bytes)) or hasattr(ledger, "__fspath__"):
            self.ledger = RunLedger(ledger)  # type: ignore[arg-type]
        elif ledger:
            self.ledger = RunLedger(runs_dir)
        else:
            self.ledger = None
        self.obs = obs if obs is not None else NO_OBS
        self.label = label

    # -- config resolution ---------------------------------------------------

    @staticmethod
    def config(config: SimConfig | dict) -> SimConfig:
        """Normalize a config argument (dicts go through ``from_dict``)."""
        if isinstance(config, SimConfig):
            return config
        return SimConfig.from_dict(config)

    def _resolve_instruments(
        self,
        config: SimConfig,
        obs: ObsOptions,
        progress: Callable[[ProgressEvent], None] | None,
        should_stop: Callable[[], bool] | None,
    ):
        """The run's observability bundle from session state.

        Returns ``(instruments, metrics, tracer)``; all ``None`` when
        nothing would observe the run, so the runner skips every timer,
        span and sample.  With the ledger on, a metrics registry is always
        live: the manifest needs summary counters, and the run's phase
        profile (its ``phases`` and ``profile.json``) is on whenever
        metrics are.  A tracer exists only when ``obs.trace_out`` asks
        for a trace file.
        """
        ledger_on = self.ledger is not None
        sample_interval = obs.sample_interval
        if obs.series_out and not sample_interval:
            # A series was requested without a cadence: default ~100 points.
            sample_interval = max(1, config.n_writes // 100)
        if not (
            ledger_on
            or obs.metrics_out
            or obs.trace_out
            or sample_interval
            or progress is not None
            or should_stop is not None
        ):
            return None, None, None
        instruments = Instruments(
            sample_interval=sample_interval,
            abort=should_stop,
            per_write_spans=obs.per_write_spans,
        )
        metrics = None
        if obs.metrics_out or ledger_on:
            metrics = instruments.metrics = MetricsRegistry()
        tracer = None
        if obs.trace_out:
            meta = None
            if obs.trace_context is not None:
                meta = {**obs.trace_context.to_dict(), "lane": "run"}
            tracer = instruments.tracer = Tracer(
                JsonlSink(obs.trace_out, meta=meta)
            )
        return instruments, metrics, tracer

    # -- checkpoint plumbing -------------------------------------------------

    def checkpoint_location(self, resume_from: str) -> tuple[Path, str]:
        """Resolve a resume token to ``(checkpoint dir, run id)``.

        Accepts a ledger run id (the checkpoint lives at
        ``<runs_dir>/<run_id>/checkpoint``) or a path to a checkpoint
        directory.  The run id is recovered from the path when it sits in
        this session's ledger — a resumed run then records its manifest
        under the id the interrupted run had already claimed — and is empty
        otherwise.
        """
        path = Path(resume_from)
        if (path / "checkpoint.json").is_file():
            run_id = ""
            if (
                self.ledger is not None
                and path.name == RUN_CHECKPOINT_DIRNAME
                and path.resolve().parent.parent == self.ledger.root.resolve()
            ):
                run_id = path.resolve().parent.name
            return path, run_id
        if self.ledger is not None:
            candidate = (
                self.ledger.run_dir(str(resume_from)) / RUN_CHECKPOINT_DIRNAME
            )
            if (candidate / "checkpoint.json").is_file():
                return candidate, str(resume_from)
        raise CheckpointError(
            f"no run checkpoint found for {resume_from!r} (expected a run id "
            f"recorded in {self.ledger.root if self.ledger else 'a ledger'} "
            "or a directory containing checkpoint.json)"
        )

    def sweep_checkpoint(self, sweep_id: str) -> SweepCheckpoint:
        """The durable cell record for ``sweep_id`` under this ledger.

        Sweep checkpoints live at ``<runs_dir>/sweeps/<sweep_id>/``;
        re-running a sweep with the same id restores its completed cells.
        """
        if self.ledger is None:
            raise CheckpointError(
                "sweep checkpoints need a ledger (Session(ledger=...))"
            )
        return SweepCheckpoint(self.ledger.root / "sweeps" / sweep_id)

    # -- entry points --------------------------------------------------------

    def run(
        self,
        config: SimConfig | dict | None = None,
        *,
        label: str | None = None,
        obs: ObsOptions | None = None,
        trace=None,
        progress: Callable[[ProgressEvent], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
        checkpoint_every: int = 0,
        checkpoint_dir: str | Path | None = None,
        resume_from: str | None = None,
    ) -> RunResult:
        """Execute one simulation; record it when the ledger is on.

        The returned :class:`RunResult` carries ``result.manifest`` when a
        ledger manifest was recorded.  ``progress`` receives single-cell
        :class:`ProgressEvent` records (start/heartbeats/done);
        ``should_stop`` is polled during the run and raises
        :class:`~repro.obs.instruments.RunAborted` when it goes true.

        ``checkpoint_every=N`` snapshots all mutable simulation state every
        N writes into ``checkpoint_dir`` — allocated as
        ``<runs_dir>/<run_id>/checkpoint`` (the run id is pinned up front
        and reused for the final manifest) when the ledger is on.
        ``resume_from`` (a run id or checkpoint directory, see
        :meth:`checkpoint_location`) restores that state and continues the
        run bit-identically to an uninterrupted one; ``config`` may then be
        omitted (it is read from the checkpoint) and further checkpoints
        land in the same directory.
        """
        run_id = ""
        checkpoint = None
        if resume_from is not None:
            ck_dir, run_id = self.checkpoint_location(resume_from)
            checkpoint = load_run_checkpoint(ck_dir)
            if config is None:
                config = checkpoint.config
            if checkpoint_dir is None:
                checkpoint_dir = ck_dir
        if config is None:
            raise ConfigError("config is required unless resume_from is set")
        config = self.config(config)
        if checkpoint_every > 0 and checkpoint_dir is None:
            if self.ledger is None:
                raise CheckpointError(
                    "checkpoint_every needs a ledger to allocate the "
                    "checkpoint directory (or pass checkpoint_dir=)"
                )
            run_id = new_run_id()
            checkpoint_dir = (
                self.ledger.run_dir(run_id) / RUN_CHECKPOINT_DIRNAME
            )
        obs = obs if obs is not None else self.obs
        instruments, metrics, tracer = self._resolve_instruments(
            config, obs, progress, should_stop
        )
        if progress is not None:
            progress(ProgressEvent.for_cell(START, config))
            instruments.heartbeat = lambda done, total: progress(
                ProgressEvent.for_cell(HEARTBEAT, config, writes_done=done)
            )
        try:
            result = runner.run(
                config,
                trace=trace,
                instruments=instruments,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                resume_from=checkpoint,
            )
        finally:
            if tracer is not None:
                tracer.close()
        if metrics is not None and obs.metrics_out:
            metrics.dump_jsonl(obs.metrics_out)
        if result.series is not None and obs.series_out:
            from repro.analysis.export import export_series_csv

            export_series_csv(result.series, obs.series_out)
        if self.ledger is not None:
            artifact_text: dict[str, str] = {}
            if metrics is not None:
                artifact_text["metrics.jsonl"] = "".join(
                    json.dumps(snap, separators=(",", ":")) + "\n"
                    for snap in metrics.snapshot()
                )
            if result.series is not None:
                artifact_text["series.csv"] = _series_csv_text(result.series)
            if result.profile:
                artifact_text["profile.json"] = (
                    json.dumps(result.profile, indent=2) + "\n"
                )
            artifacts = {}
            if obs.trace_out:
                artifacts["trace"] = obs.trace_out
            result.manifest = self.ledger.record_result(
                result,
                config,
                kind="run",
                label=self.label if label is None else label,
                artifacts=artifacts,
                artifact_text=artifact_text,
                run_id=run_id,
            )
        if progress is not None:
            progress(ProgressEvent.for_cell(DONE, config))
        return result

    def sweep(
        self,
        configs: Sequence[SimConfig | dict],
        *,
        workers: int | None = None,
        progress: Callable[[ProgressEvent], None] | None = None,
        label: str | None = None,
        should_stop: Callable[[], bool] | None = None,
        retries: int = 0,
        retry_backoff_s: float = 0.5,
        sweep_id: str | None = None,
        checkpoint: "SweepCheckpoint | str | None" = None,
        trace_dir: str | Path | None = None,
        trace_context: TraceContext | None = None,
        executor=None,
    ) -> list[RunResult]:
        """Run a batch of configs through the parallel sweep engine.

        ``workers`` follows :func:`~repro.sim.parallel.resolve_workers`
        conventions (``None``/``0`` auto, ``1`` serial).  With the ledger
        on, every cell is recorded as a ``sweep-cell`` manifest (attached
        as ``result.manifest``) the moment it finishes.  Results are
        bit-identical to calling :meth:`run` per config.

        ``retries`` gives each cell a retry budget (capped exponential
        backoff; crashed workers are detected and their cells requeued).
        ``sweep_id`` makes the sweep durable: completed cells are fsynced
        to ``<runs_dir>/sweeps/<sweep_id>/cells.jsonl``, and re-running
        with the same id restores them and runs only the missing cells
        (``checkpoint`` passes an explicit
        :class:`~repro.sim.checkpoint.SweepCheckpoint` or directory
        instead, e.g. for ledger-less sessions).

        ``trace_dir`` turns on correlated tracing: a ``sweep.jsonl``
        parent lane plus one ``cell-<i>.jsonl`` lane per worker cell land
        there, exportable as one Chrome trace via ``deuce-sim trace
        export``.  ``trace_context`` parents the sweep under an outer
        span (the job service passes its per-job context); omitted, the
        sweep becomes a root trace.

        ``executor`` swaps the local process pool for another scheduler
        with the same ``run_suite`` contract — in practice a
        :class:`repro.service.coordinator.FleetExecutor` sharding cells
        across remote ``deuce-sim serve`` workers.  Ledger recording,
        checkpoints, tracing, retries, and cancellation behave
        identically either way, which is what makes a fleet sweep's
        merged ledger/checkpoint interchangeable with a local one
        (``workers`` is a pool knob and is ignored with an executor).
        """
        from repro.sim.parallel import SweepTracing, run_suite_parallel

        if sweep_id is not None:
            if checkpoint is not None:
                raise CheckpointError(
                    "pass either sweep_id or checkpoint, not both"
                )
            checkpoint = self.sweep_checkpoint(sweep_id)
        resolved = [self.config(c) for c in configs]
        tracing = None
        sweep_tracer = None
        if trace_dir is not None:
            trace_dir = Path(trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            ctx = (
                trace_context.child()
                if trace_context is not None
                else TraceContext.new()
            )
            sink = JsonlSink(
                trace_dir / "sweep.jsonl",
                meta={**ctx.to_dict(), "lane": "sweep"},
            )
            sweep_tracer = Tracer(sink)
            tracing = SweepTracing(
                dir=trace_dir, context=ctx, tracer=sweep_tracer
            )
        try:
            if sweep_tracer is not None:
                span = sweep_tracer.span("sweep", cells=len(resolved))
            else:
                span = NULL_TRACER.span("sweep")
            with span:
                if executor is not None:
                    return executor.run_suite(
                        resolved,
                        progress=progress,
                        ledger=self.ledger,
                        ledger_label=self.label if label is None else label,
                        should_stop=should_stop,
                        retries=retries,
                        retry_backoff_s=retry_backoff_s,
                        checkpoint=checkpoint,
                        tracing=tracing,
                    )
                return run_suite_parallel(
                    resolved,
                    max_workers=workers,
                    progress=progress,
                    ledger=self.ledger,
                    ledger_label=self.label if label is None else label,
                    should_stop=should_stop,
                    retries=retries,
                    retry_backoff_s=retry_backoff_s,
                    checkpoint=checkpoint,
                    tracing=tracing,
                )
        finally:
            if sweep_tracer is not None:
                sweep_tracer.close()

    def experiment(
        self,
        name: str,
        *,
        n_writes: int | None = None,
        seed: int = 0,
        workers: int | None = 1,
        progress: Callable[[ProgressEvent], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
        **unknown: object,
    ) -> ExperimentResult:
        """Reproduce one paper exhibit; record it when the ledger is on.

        The one-exhibit case of :meth:`experiments`.  Any other keyword is
        a :class:`ConfigError` naming it, with a did-you-mean hint.
        """
        message = unknown_keys(
            unknown,
            ("n_writes", "seed", "workers", "progress", "should_stop"),
            "experiment option",
        )
        if message:
            raise ConfigError(message)
        return self.experiments(
            [name], n_writes=n_writes, seed=seed, workers=workers,
            progress=progress, should_stop=should_stop,
        )[name]

    def experiments(
        self,
        names: list[str],
        *,
        n_writes: int | None = None,
        seed: int = 0,
        workers: int | None = 1,
        progress: Callable[[ProgressEvent], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> dict[str, ExperimentResult]:
        """Reproduce paper exhibits in one driver call; record each one.

        Every name must be a key of
        :data:`~repro.sim.experiments.EXPERIMENTS`.  A cell several of the
        exhibits share runs once, and the ledger records it once (see
        :func:`~repro.sim.experiments.run_exhibits`).  Each returned result
        carries ``result.manifest`` when recorded.
        """
        from repro.sim.experiments import EXPERIMENTS, run_exhibits

        for name in names:
            if name not in EXPERIMENTS:
                raise ConfigError(
                    f"unknown experiment {name!r}; choose from "
                    + ", ".join(EXPERIMENTS)
                )
        results = run_exhibits(
            names, n_writes, seed, workers=workers, progress=progress,
            ledger=self.ledger, should_stop=should_stop,
        )
        if self.ledger is None:
            return results
        for name, result in results.items():
            manifest = build_manifest(
                kind="experiment",
                label=name,
                n_writes=n_writes or EXPERIMENTS[name].n_writes,
                wall_time_s=result.wall_time_s,
                summary={
                    key: value
                    for key, value in result.averages.items()
                    if isinstance(value, (int, float))
                },
            )
            self.ledger.record(
                manifest,
                artifact_text={"result.txt": result.render() + "\n"},
            )
            result.manifest = manifest
        return results


def _series_csv_text(series) -> str:
    """A run's sampled time-series rendered as CSV text (ledger artifact)."""
    import csv
    import io

    rows = series.as_rows()
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=list(rows[0]) if rows else ["write_index"]
    )
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
