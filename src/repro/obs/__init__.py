"""``repro.obs`` — observability for the whole simulation stack.

Four pieces, all zero-dependency and null-by-default:

* :mod:`repro.obs.metrics` — counters, gauges, histograms, timers in a
  :class:`MetricsRegistry`; :data:`NULL_METRICS` compiles to near-zero
  overhead when disabled.
* :mod:`repro.obs.tracing` — span-based tracing of the run pipeline with a
  JSONL event sink (:class:`JsonlSink`); :data:`NULL_TRACER` when off.
* :mod:`repro.obs.context` — :class:`TraceContext` carries trace/span ids
  plus a wall-clock anchor across process boundaries, correlating service,
  sweep, and worker lanes into one trace.
* :mod:`repro.obs.profile` — :class:`PhaseProfile`, the run's one clock
  per phase: every phase is stamped into it once, and the metrics
  timers, ``RunResult.profile``, the manifest's ``phases`` and any trace
  spans all read those stamps (near-zero overhead, never changes
  simulation state).
* :mod:`repro.obs.traceexport` — merge correlated lanes into Chrome
  trace-event JSON (:func:`export_chrome_trace`) or a text report with
  critical path and stragglers (:func:`build_report`).
* :mod:`repro.obs.sampling` — :class:`IntervalSampler` snapshots flip-rate,
  pad-cache hit-rate, mode-histogram deltas, and per-bit wear percentiles
  every N writes into a :class:`TimeSeries` attached to ``RunResult``.
* :mod:`repro.obs.progress` — :class:`ProgressEvent` streams from parallel
  sweep workers; :class:`ProgressRenderer` draws a live
  ``cells done / in-flight / ETA`` line.
* :mod:`repro.obs.ledger` — durable run manifests (:class:`RunManifest`) in
  an append-only :class:`RunLedger` directory, with query/diff/GC.
* :mod:`repro.obs.gate` — baseline regression gate over the ledger:
  :func:`evaluate_gate` against pinned per-scheme flip rates and a perf
  floor.

:class:`Instruments` bundles the backends and is what
:func:`repro.sim.runner.run` accepts; :data:`DISABLED` is the shared
all-null default under which runs are bit-identical to uninstrumented code.
"""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "DISABLED",
    "Instruments",
    "InstrumentedPadSource",
    "GateCheck",
    "GateError",
    "GateReport",
    "evaluate_gate",
    "load_baselines",
    "pin_baselines",
    "LedgerError",
    "RunLedger",
    "RunManifest",
    "build_manifest",
    "config_hash",
    "default_runs_dir",
    "git_revision",
    "manifest_from_result",
    "new_run_id",
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_METRICS",
    "BucketHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "Timer",
    "render_prometheus",
    "ProgressEvent",
    "ProgressRenderer",
    "ProgressState",
    "format_progress",
    "IntervalSampler",
    "Sample",
    "TimeSeries",
    "TraceContext",
    "PhaseProfile",
    "Lane",
    "build_report",
    "export_chrome_trace",
    "load_trace",
    "to_chrome_trace",
    "NULL_TRACER",
    "JsonlSink",
    "ListSink",
    "NullTracer",
    "Tracer",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.obs.context": ("TraceContext",),
        "repro.obs.gate": (
            "GateCheck",
            "GateError",
            "GateReport",
            "evaluate_gate",
            "load_baselines",
            "pin_baselines",
        ),
        "repro.obs.instruments": (
            "DISABLED",
            "Instruments",
            "InstrumentedPadSource",
        ),
        "repro.obs.ledger": (
            "LedgerError",
            "RunLedger",
            "RunManifest",
            "build_manifest",
            "config_hash",
            "default_runs_dir",
            "git_revision",
            "manifest_from_result",
            "new_run_id",
        ),
        "repro.obs.metrics": (
            "DEFAULT_LATENCY_BUCKETS",
            "NULL_METRICS",
            "BucketHistogram",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "NullMetricsRegistry",
            "Timer",
        ),
        "repro.obs.profile": ("PhaseProfile",),
        "repro.obs.promfmt": ("render_prometheus",),
        "repro.obs.progress": (
            "ProgressEvent",
            "ProgressRenderer",
            "ProgressState",
            "format_progress",
        ),
        "repro.obs.sampling": ("IntervalSampler", "Sample", "TimeSeries"),
        "repro.obs.traceexport": (
            "Lane",
            "build_report",
            "export_chrome_trace",
            "load_trace",
            "to_chrome_trace",
        ),
        "repro.obs.tracing": (
            "NULL_TRACER",
            "JsonlSink",
            "ListSink",
            "NullTracer",
            "Tracer",
        ),
    },
)
