"""The observability bundle threaded through the runner.

One :class:`Instruments` object carries every backend a run might report
into: a metrics registry, a tracer, the sampling interval, and an optional
heartbeat callback (used by the parallel sweep engine to stream per-cell
progress).  The default instance is fully disabled — every backend null —
and :attr:`Instruments.enabled` is False, which the runner uses to skip
timers, samples, heartbeats and abort polls.  Instrumentation only reads
simulation state, so results are bit-identical either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.profile import PhaseProfile
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer


class RunAborted(RuntimeError):
    """A run stopped cooperatively because its abort check fired.

    Raised by the runner's write loop when ``Instruments.abort``
    returns True (job cancellation, deadline exceeded).  ``writes_done``
    records how far the run got.
    """

    def __init__(self, message: str, writes_done: int = 0) -> None:
        super().__init__(message)
        self.writes_done = writes_done


@dataclass
class Instruments:
    """Everything a run reports into.

    Attributes
    ----------
    metrics:
        Counter/gauge/histogram/timer registry (:data:`NULL_METRICS` when
        off).
    tracer:
        Span/event tracer (:data:`NULL_TRACER` when off).
    sample_interval:
        Snapshot the run state into a time-series every this many writes;
        ``0`` disables sampling.
    heartbeat:
        ``callback(writes_done, n_writes)`` invoked every
        ``heartbeat_every`` writes (parallel-sweep progress).  ``None``
        disables.
    heartbeat_every:
        Writes between heartbeat invocations; ``0`` auto-sizes to ~10 beats
        per run.
    abort:
        Optional ``() -> bool`` polled every ``abort_every`` writes; when it
        returns True the loop raises :class:`RunAborted`.  Cooperative
        cancellation for the job service and sweep engine.
    abort_every:
        Writes between abort polls; ``0`` auto-sizes (~every 512 writes).
    per_write_spans:
        When tracing is live, emit one span per write (full-fidelity JSONL
        traces); the runner then uses chunk size 1, the scalar reference.
        Set False when the trace sink only aggregates per-phase totals (the
        run ledger's default), so the runner keeps the configured chunk
        size and emits one span per chunk under the same span names.
    profile:
        Optional :class:`~repro.obs.profile.PhaseProfile` the runner
        accumulates per-phase time into (scheme write, wear rotation, PCM
        apply, accumulate, checkpoint, trace-gen).  Reuses timestamps the
        write loop already takes, so enabling it costs ~two dict ops per
        chunk phase and never changes simulation state.
    """

    metrics: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)
    tracer: Tracer | NullTracer = field(default_factory=lambda: NULL_TRACER)
    sample_interval: int = 0
    heartbeat: Callable[[int, int], None] | None = None
    heartbeat_every: int = 0
    abort: Callable[[], bool] | None = None
    abort_every: int = 0
    per_write_spans: bool = True
    profile: PhaseProfile | None = None

    @property
    def enabled(self) -> bool:
        """True iff any backend would observe anything."""
        return (
            self.metrics.enabled
            or self.tracer.enabled
            or self.sample_interval > 0
            or self.heartbeat is not None
            or self.abort is not None
            or self.profile is not None
        )


#: Shared fully-disabled bundle; the runner's default.
DISABLED = Instruments()


class InstrumentedPadSource:
    """Pad-source wrapper timing every pad fetch.

    Wraps the scheme's (possibly cached) pad source when instrumentation is
    enabled, so per-write tracing can attribute time to pad generation —
    the phase that regressions in the write path most often hide in.
    Records a ``pad.fetch`` timer and counter into the metrics registry and,
    when tracing is on, one ``pad.fetch`` span per fetch.
    """

    def __init__(self, inner, metrics: MetricsRegistry, tracer=NULL_TRACER):
        self._inner = inner
        self._timer = metrics.timer("pad.fetch_s")
        self._count = metrics.counter("pad.fetches")
        self._tracer = tracer
        self._clock = time.perf_counter

    @property
    def inner(self):
        """The wrapped pad source (unwrapping chain for cache stats)."""
        return self._inner

    def _observe(self, t0: float, kind: str) -> None:
        dur = self._clock() - t0
        self._timer.observe(dur)
        self._count.inc()
        if self._tracer.enabled:
            self._tracer.span_event("pad.fetch", t0, dur, op=kind)

    def pad_block(self, address: int, counter: int, block_index: int) -> bytes:
        t0 = self._clock()
        pad = self._inner.pad_block(address, counter, block_index)
        self._observe(t0, "block")
        return pad

    def line_pad(self, address: int, counter: int, n_bytes: int) -> bytes:
        t0 = self._clock()
        pad = self._inner.line_pad(address, counter, n_bytes)
        self._observe(t0, "line")
        return pad

    def line_pad_array(self, address: int, counter: int, n_bytes: int):
        t0 = self._clock()
        pad = self._inner.line_pad_array(address, counter, n_bytes)
        self._observe(t0, "line_array")
        return pad

    def line_pads_batch(self, addresses, counters, n_bytes: int):
        """Batched fetch: one timed call attributed to every pad in it.

        Counts ``len(addresses)`` fetches and the same number of timer
        observations (via ``observe_many``), so ``pad.fetches`` and the
        ``pad.fetch_s`` count match the per-write path exactly.
        """
        t0 = self._clock()
        pads = self._inner.line_pads_batch(addresses, counters, n_bytes)
        dur = self._clock() - t0
        n = len(addresses)
        self._timer.observe_many(dur, n)
        self._count.inc(n)
        if self._tracer.enabled:
            self._tracer.span_event("pad.fetch", t0, dur, op="batch", n=n)
        return pads
