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
        Set False (the job service and sweep cells do) to keep the
        configured chunk size and emit one span per chunk under the same
        span names.

    With metrics live, the runner also times every phase into one
    :class:`~repro.obs.profile.PhaseProfile` (``RunResult.profile``) and
    fills the phase timers from it.
    """

    metrics: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)
    tracer: Tracer | NullTracer = field(default_factory=lambda: NULL_TRACER)
    sample_interval: int = 0
    heartbeat: Callable[[int, int], None] | None = None
    heartbeat_every: int = 0
    abort: Callable[[], bool] | None = None
    abort_every: int = 0
    per_write_spans: bool = True

    @property
    def enabled(self) -> bool:
        """True iff any backend would observe anything."""
        return (
            self.metrics.enabled
            or self.tracer.enabled
            or self.sample_interval > 0
            or self.heartbeat is not None
            or self.abort is not None
        )


#: Shared fully-disabled bundle; the runner's default.
DISABLED = Instruments()


class InstrumentedPadSource:
    """Pad-source wrapper timing every pad fetch.

    Wraps the scheme's (possibly cached) pad source when the run has a
    profile or a tracer, so time spent in pad generation — the phase that
    regressions in the write path most often hide in — is attributed.
    Adds each fetch to the run's ``pad.fetch`` profile phase (the runner
    fills the ``pad.fetch_s`` timer and ``pad.fetches`` counter from it)
    and, when tracing is on, emits one ``pad.fetch`` span per fetch.

    The batch kernels split a batch fetch into a count-only walk of the
    scalar requests and a peek that makes the pads.  A walk counts one
    fetch per request, so ``pad.fetches`` equals the scalar path's count;
    a peek is timed into the same phase but counts no fetch.
    """

    def __init__(self, inner, profile=None, tracer=NULL_TRACER):
        self._inner = inner
        self._profile = profile
        self._tracer = tracer
        self._clock = time.perf_counter

    @property
    def inner(self):
        """The wrapped pad source (unwrapping chain for cache stats)."""
        return self._inner

    def _observe(self, t0: float, count: int, **attrs: object) -> None:
        dur = self._clock() - t0
        if self._profile is not None:
            self._profile.add("pad.fetch", dur, count)
        if self._tracer.enabled:
            self._tracer.span_event("pad.fetch", t0, dur, **attrs)

    def pad_block(self, address: int, counter: int, block_index: int) -> bytes:
        t0 = self._clock()
        pad = self._inner.pad_block(address, counter, block_index)
        self._observe(t0, 1, op="block")
        return pad

    def line_pad(self, address: int, counter: int, n_bytes: int) -> bytes:
        t0 = self._clock()
        pad = self._inner.line_pad(address, counter, n_bytes)
        self._observe(t0, 1, op="line")
        return pad

    def line_pad_array(self, address: int, counter: int, n_bytes: int):
        t0 = self._clock()
        pad = self._inner.line_pad_array(address, counter, n_bytes)
        self._observe(t0, 1, op="line_array")
        return pad

    def line_pads_batch(self, addresses, counters, n_bytes: int):
        """Batched fetch: one timed call attributed to every pad in it.

        Counts ``len(addresses)`` fetches, so the ``pad.fetch`` count
        matches the per-write path exactly.
        """
        return self._observe_batch(
            "batch", True, self._inner.line_pads_batch,
            addresses, counters, n_bytes,
        )

    def pad_blocks_batch(self, addresses, counters, blocks):
        """Batched :meth:`pad_block` fetches, counted as one per block."""
        return self._observe_batch(
            "batch", True, self._inner.pad_blocks_batch,
            addresses, counters, blocks,
        )

    def count_line_pads(self, addresses, counters, n_bytes: int) -> None:
        """A count-only walk, counted as one fetch per request."""
        self._observe_batch(
            "count", True, self._inner.count_line_pads,
            addresses, counters, n_bytes,
        )

    def count_pad_blocks(self, addresses, counters, blocks) -> None:
        """A count-only walk of :meth:`pad_block` requests, as
        :meth:`count_line_pads`."""
        self._observe_batch(
            "count", True, self._inner.count_pad_blocks,
            addresses, counters, blocks,
        )

    def peek_line_pads_batch(self, addresses, counters, n_bytes: int):
        """Timed, but no fetch: a peek is not one of the scalar path's
        fetches, though it is where the pads are made."""
        return self._observe_batch(
            "peek", False, self._inner.peek_line_pads_batch,
            addresses, counters, n_bytes,
        )

    def peek_pad_blocks_batch(self, addresses, counters, blocks):
        """Timed, but no fetch, as :meth:`peek_line_pads_batch`."""
        return self._observe_batch(
            "peek", False, self._inner.peek_pad_blocks_batch,
            addresses, counters, blocks,
        )

    def _observe_batch(self, op: str, fetches: bool, call, addresses, *args):
        t0 = self._clock()
        out = call(addresses, *args)
        n = len(addresses)
        self._observe(t0, n if fetches else 0, op=op, n=n)
        return out
