"""Simulation runner: stream traces through schemes and aggregate results.

The runner wires together the substrates — trace generation, the write
scheme, the PCM wear array, and (optionally) Start-Gap + HWL — and produces
a :class:`~repro.sim.results.RunResult`.  Traces are cached per (workload,
n_writes, seed, line_bytes) so that every scheme in a comparison sees the
*identical* writeback stream, which is what makes per-workload bars
comparable across schemes.

Write loop: one loop (:func:`_write_loop`) serves every scheme.  It cuts
the trace into chunks of ``config.chunk_size`` writes and hands each chunk
to ``scheme.write_batch`` (vectorized for some schemes, a loop over
``write()`` for the rest).  ``chunk_size=1`` is the scalar reference: every
scheme then runs its own ``install()``/``write()``, one write per chunk,
which is what the parity tests compare the vectorized kernels against.

Observability: :func:`run` accepts an optional
:class:`~repro.obs.instruments.Instruments` bundle.  A live bundle adds
per-phase timers, spans (``scheme.write`` / ``pad.fetch`` /
``wear.rotation`` / ``pcm.apply``, one per chunk, or one per write when
``per_write_spans`` asks for them, which forces the chunk size to 1),
interval samples into ``RunResult.series``, and periodic heartbeats.
Instrumentation only ever *reads* simulation state, so results are
identical with or without it (there is a test for this).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from functools import partial

import numpy as np

from repro.crypto.pads import CachingPadSource, make_pad_source
from repro.memory.pcm import PcmArray, slots_for_batch_diffs
from repro.schemes.batch import BatchOutcome
from repro.obs.instruments import (
    DISABLED,
    Instruments,
    InstrumentedPadSource,
    RunAborted,
)
from repro.obs.profile import PhaseProfile
from repro.obs.sampling import IntervalSampler
from repro import registry
from repro.schemes.base import WriteScheme
from repro.sim.checkpoint import (
    CheckpointError,
    RunCheckpoint,
    RunCheckpointer,
    config_signature,
    load_run_checkpoint,
)
from repro.sim.config import SimConfig
from repro.sim.results import RunResult
from repro.wear.hwl import NoWearLeveler
from repro.wear.lifetime import lifetime_report
from repro.workloads.trace import Trace, generate_trace


_TRACE_CACHE: OrderedDict[tuple, Trace] = OrderedDict()
_TRACE_CACHE_MAX = 32
_TRACE_CACHE_LOCK = threading.Lock()


def cached_trace(
    workload: str,
    n_writes: int,
    seed: int,
    line_bytes: int,
    abort=None,
    params: dict | None = None,
) -> Trace:
    """Memoized trace generation (same stream for every scheme compared).

    ``abort`` is threaded into :func:`generate_trace` so a job deadline or
    cancel can interrupt synthesis of a large trace; an aborted generation
    raises without poisoning the cache.  ``params`` (a config's
    ``workload_params``) is part of the cache key — two configs differing
    only in a KV knob get distinct traces.
    """
    key = (
        workload,
        n_writes,
        seed,
        line_bytes,
        json.dumps(params or {}, sort_keys=True),
    )
    with _TRACE_CACHE_LOCK:
        trace = _TRACE_CACHE.get(key)
        if trace is not None:
            _TRACE_CACHE.move_to_end(key)
            return trace
    trace = generate_trace(
        workload,
        n_writes,
        seed=seed,
        line_bytes=line_bytes,
        abort=abort,
        params=params,
    )
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE[key] = trace
        _TRACE_CACHE.move_to_end(key)
        while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
            _TRACE_CACHE.popitem(last=False)
    return trace


def build_scheme(config: SimConfig) -> WriteScheme:
    """Instantiate the configured write scheme (with pads if encrypted).

    Encrypted schemes get their pad source wrapped in an LRU
    :class:`~repro.crypto.pads.CachingPadSource` sized by
    ``config.pad_cache_lines`` (0 disables), so epoch-boundary re-reads of a
    hot line's trailing pad hit the cache instead of the cipher.
    """
    cls = registry.SCHEMES.get(config.scheme).factory
    pads = None
    if cls.requires_pads:
        pads = make_pad_source(config.pad_kind, config.key)
        if config.pad_cache_lines > 0:
            pads = CachingPadSource(pads, capacity=config.pad_cache_lines)
    return cls.from_config(config, pads=pads)


def _find_pad_cache(pads) -> CachingPadSource | None:
    """Locate the LRU pad cache in a (possibly wrapped) pad-source chain."""
    while pads is not None:
        if isinstance(pads, CachingPadSource):
            return pads
        pads = getattr(pads, "inner", None)
    return None


def _accumulate_batch(
    result: RunResult, batch: BatchOutcome, line_bits: int
) -> None:
    """Fold a whole chunk's outcomes into the run's aggregates.

    Flip, re-encryption and mode counts come from one row-wise sum over
    the stacked count columns (a one-write chunk pays per numpy call);
    the slot histogram is one ``bincount``.  The result does not depend
    on how the trace was cut into chunks.
    """
    slots = slots_for_batch_diffs(batch.data_diff, batch.meta_diff, line_bits)
    (
        data, meta, sets, resets, n_slots, words, fulls, resets_epoch,
        switches,
    ) = np.array(
        (
            batch.data_flips, batch.meta_flips, batch.set_flips,
            batch.reset_flips, slots, batch.words_reencrypted,
            batch.full_line_reencrypted, batch.epoch_reset,
            batch.mode_switched,
        ),
        dtype=np.int64,
    ).sum(axis=1).tolist()
    result.total_flips += data + meta
    result.data_flips += data
    result.meta_flips += meta
    result.set_flips += sets
    result.reset_flips += resets
    result.total_slots += n_slots
    for slot_count, count in enumerate(np.bincount(slots).tolist()):
        if count:
            result.slot_histogram[slot_count] += count
    result.total_words_reencrypted += words
    result.full_reencryptions += fulls
    result.epoch_resets += resets_epoch
    result.mode_switches += switches
    for mode, count in batch.mode_counts.items():
        result.mode_histogram[mode] += count


class _PhaseTracker:
    """Fires :meth:`RunResult.record_phase` at exact phase boundaries.

    Built from the trace's ``phases`` declaration; each phase's end is the
    next phase's start (the last ends at ``n_records``).  The write loop
    calls :meth:`note` with the count of writes folded in so far; because
    it also cuts chunks at :attr:`next_end`, ``note`` always sees the
    boundary index exactly and the cumulative snapshot is bit-identical
    at any chunk size.  On resume, phases the checkpoint already recorded
    are not re-recorded.
    """

    def __init__(
        self, trace: Trace, result: RunResult, start: int = 0
    ) -> None:
        n_records = len(trace.records)
        phases = trace.phases
        self._result = result
        pending: list[tuple[int, str, int]] = []
        for idx, (name, p_start) in enumerate(phases):
            p_end = (
                phases[idx + 1][1] if idx + 1 < len(phases) else n_records
            )
            p_end = min(int(p_end), n_records)
            if p_end <= int(p_start) or name in result.phase_stats:
                continue  # empty phase, or already restored from checkpoint
            if p_end <= start:
                # Resumed past the boundary without a recorded snapshot
                # (pre-phase checkpoint): the exact cumulative values are
                # gone, so skip rather than record wrong ones.
                continue
            pending.append((p_end, str(name), int(p_start)))
        pending.sort()
        self._pending = pending

    @property
    def next_end(self) -> int | None:
        """The next boundary index a chunk must not cross, if any."""
        return self._pending[0][0] if self._pending else None

    def note(self, i: int) -> None:
        """Record every phase whose last write has now been folded in."""
        while self._pending and i >= self._pending[0][0]:
            end, name, start = self._pending.pop(0)
            self._result.record_phase(name, start, end)


def run(
    config: SimConfig | None = None,
    trace: Trace | None = None,
    instruments: Instruments | None = None,
    *,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume_from: "RunCheckpoint | str | None" = None,
) -> RunResult:
    """Execute one simulation and return aggregated results.

    Parameters
    ----------
    config:
        The run configuration.  May be omitted when resuming — the
        checkpoint carries its config; when both are given they must match.
    trace:
        Optional pre-generated trace (must match the config's workload and
        line size); omitted, the cached generator is used.
    instruments:
        Optional observability bundle (metrics, tracing, sampling,
        heartbeats).  Results are identical with or without it.
    checkpoint_dir / checkpoint_every:
        When ``checkpoint_every > 0``, snapshot all mutable state into
        ``checkpoint_dir`` every that many writes (crash-safe; see
        :mod:`repro.sim.checkpoint`).
    resume_from:
        A :class:`RunCheckpoint` or a checkpoint directory path.  The run
        skips install, restores every piece of state, and continues from
        the saved write index; the final result is bit-identical to an
        uninterrupted run (only ``wall_time_s`` covers the continuation).
    """
    t_start = time.perf_counter()
    obs = instruments if instruments is not None else DISABLED
    tracer = obs.tracer
    profile = obs.profile

    checkpoint = None
    if resume_from is not None:
        checkpoint = (
            resume_from
            if isinstance(resume_from, RunCheckpoint)
            else load_run_checkpoint(resume_from)
        )
        if config is None:
            config = checkpoint.config
        elif config_signature(config) != config_signature(checkpoint.config):
            raise CheckpointError(
                "resume config does not match the checkpoint's config "
                f"({config_signature(config)} != "
                f"{config_signature(checkpoint.config)})"
            )
    if config is None:
        raise ValueError("run() needs a config or a resume_from checkpoint")

    if trace is None:
        with tracer.span("trace.gen", workload=config.workload):
            tg0 = time.perf_counter()
            trace = cached_trace(
                config.workload,
                config.n_writes,
                config.seed,
                config.line_bytes,
                abort=obs.abort if obs.enabled else None,
                params=config.workload_params,
            )
            if profile is not None:
                profile.add("trace.gen", time.perf_counter() - tg0)
    scheme = build_scheme(config)
    pad_cache = _find_pad_cache(getattr(scheme, "pads", None))
    if obs.enabled and getattr(scheme, "pads", None) is not None:
        # Outermost wrap: pad-fetch timing as the scheme experiences it
        # (cache hits included).
        scheme.pads = InstrumentedPadSource(scheme.pads, obs.metrics, tracer)

    # Per-write spans need one write per chunk; otherwise the config's
    # chunk size holds.
    chunk_size = (
        1 if tracer.enabled and obs.per_write_spans else config.chunk_size
    )
    install, write = _kernels(scheme, chunk_size)
    addresses = trace.addresses()
    ti0 = time.perf_counter() if profile is not None else 0.0
    if checkpoint is None:
        with tracer.span("install", lines=len(addresses)):
            install(*trace.initial_arrays())
        if profile is not None:
            profile.add("install", time.perf_counter() - ti0)
    else:
        with tracer.span("resume.load", write_index=checkpoint.write_index):
            scheme.load_state_dict(checkpoint.scheme_state)
        if profile is not None:
            profile.add("resume.load", time.perf_counter() - ti0)

    meta_bits = scheme.metadata_bits_per_line
    pcm = PcmArray(
        line_bytes=config.line_bytes,
        meta_bits=meta_bits,
        track_per_line=config.track_per_line_wear,
    )
    region = config.hwl_region_lines or len(addresses)
    if config.wear_leveling == "sr-hwl":
        # Security Refresh remaps by XOR, so its region must be a power
        # of two; round down if the working set is not.
        while region & (region - 1):
            region &= region - 1
        region = max(region, 2)
    leveler = _build_leveler(config, region, pcm.bits_per_line)
    vwl = getattr(leveler, "startgap", None) or getattr(
        leveler, "refresh", None
    )
    # The write loop never consults the line index without a wear
    # leveler, so skip building it then.
    if isinstance(leveler, NoWearLeveler):
        line_index: dict[int, int] = {}
    else:
        line_index = {addr: i % region for i, addr in enumerate(addresses)}

    result = RunResult(
        workload=config.workload,
        scheme=config.scheme,
        n_writes=len(trace.records),
        line_bits=8 * config.line_bytes,
        meta_bits=meta_bits,
    )
    start = 0
    if checkpoint is not None:
        pcm.load_state_dict(checkpoint.pcm_state)
        leveler.load_state_dict(checkpoint.leveler_state)
        if pad_cache is not None and checkpoint.pad_cache_state is not None:
            pad_cache.load_state_dict(checkpoint.pad_cache_state)
        result.load_checkpoint_state(checkpoint.result_state)
        start = checkpoint.write_index
    checkpointer = None
    if checkpoint_every > 0:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every > 0 needs a checkpoint_dir")
        checkpointer = RunCheckpointer(
            checkpoint_dir,
            checkpoint_every,
            config=config,
            scheme=scheme,
            pcm=pcm,
            leveler=leveler,
            result=result,
            pad_cache=pad_cache,
        )
    tracker = (
        _PhaseTracker(trace, result, start=start) if trace.phases else None
    )
    _write_loop(
        config, trace, write, chunk_size, pcm, leveler, vwl, line_index,
        result, obs, pad_cache, start=start, checkpointer=checkpointer,
        tracker=tracker,
    )

    result.wear = pcm.summary()
    result.lifetime = lifetime_report(
        result.wear.position_writes, result.wear.total_writes
    )
    if pad_cache is not None:
        result.pad_hits = pad_cache.hits
        result.pad_misses = pad_cache.misses
    # Timing/provenance metadata for the run ledger; reading the clock and
    # attaching the config cannot perturb the simulation aggregates above.
    result.wall_time_s = time.perf_counter() - t_start
    result.config = config
    if profile is not None:
        # Pad precompute happens inside write_batch; the instrumented pad
        # wrapper already timed it, so attribute it from the metrics timer
        # rather than re-stamping the hot path.
        pad_timer = obs.metrics.timer("pad.fetch_s")
        if pad_timer.count:
            profile.add("pad.fetch", pad_timer.total, pad_timer.count)
        result.profile = profile.to_dict()
    return result


def _next_multiple(i: int, every: int) -> int:
    """The smallest multiple of ``every`` strictly greater than ``i``."""
    return (i // every + 1) * every


def _kernels(scheme: WriteScheme, chunk_size: int):
    """The ``(install, write)`` pair the run uses, picked by chunk size.

    Above 1, the scheme's own ``install_batch`` / ``write_batch``.  At 1,
    the base-class fallbacks, which loop the scalar ``install()`` /
    ``write()`` even for schemes with vectorized kernels, so the parity
    tests compare those kernels against the scalar code rather than
    against themselves.
    """
    if chunk_size > 1:
        return scheme.install_batch, scheme.write_batch
    return (
        partial(WriteScheme.install_batch, scheme),
        partial(WriteScheme.write_batch, scheme),
    )


#: Write-loop phases whose profile totals also feed a metrics timer.
_TIMED_PHASES = (
    ("scheme.write", "scheme.write_s"),
    ("wear.rotation", "wear.rotation_s"),
    ("pcm.apply", "pcm.apply_s"),
)


def _write_loop(
    config: SimConfig,
    trace: Trace,
    write,
    chunk_size: int,
    pcm: PcmArray,
    leveler,
    vwl,
    line_index: dict[int, int],
    result: RunResult,
    obs: Instruments,
    pad_cache: CachingPadSource | None,
    start: int = 0,
    checkpointer: RunCheckpointer | None = None,
    tracker: "_PhaseTracker | None" = None,
) -> None:
    """The write loop: the trace in chunks of ``chunk_size`` through ``write``.

    ``write`` is the kernel :func:`_kernels` picked.  Chunks are cut so
    that every interval-triggered side effect (abort polls, checkpoint
    saves, interval samples, heartbeats, phase boundaries, and
    wear-leveler gap movements) lands on the same write at any chunk size:

    * sample/heartbeat/checkpoint intervals fire *after* the write at each
      multiple, so a chunk never crosses a multiple (it ends on one);
    * abort polls happen *before* the write at each multiple, so a chunk
      never contains one (the poll runs at the top of the next chunk);
    * a Start-Gap/Security-Refresh event fires at most once per chunk, as
      its final write, keeping the HWL rotation constant across the chunk
      (the triggering write itself still uses the old rotation).

    Epoch resets, pad-cache traffic and flip accounting happen inside the
    kernel.  Phase times go into one :class:`PhaseProfile`; the metrics
    timers are filled from it when the loop ends.  With tracing live,
    each chunk gets one span per phase; at ``chunk_size=1`` those spans
    carry the write's address, mode and rotation, and epoch resets and
    mode switches become events.
    """
    line_bits = 8 * config.line_bytes
    addresses_arr, data_arr = trace.write_arrays()
    n_records = int(addresses_arr.shape[0])
    no_rotation = isinstance(leveler, NoWearLeveler)
    enabled = obs.enabled
    metrics = obs.metrics
    tracer = obs.tracer
    tracing = tracer.enabled
    per_write = tracing and chunk_size == 1
    profile = (
        PhaseProfile()
        if obs.profile is not None or metrics.enabled
        else None
    )
    perf = time.perf_counter

    sampler = None
    sample_every = 0
    if enabled and obs.sample_interval > 0:
        sampler = IntervalSampler(obs.sample_interval, result, pcm, pad_cache)
        sample_every = obs.sample_interval
    heartbeat = obs.heartbeat if enabled else None
    hb_every = 0
    if heartbeat is not None:
        hb_every = obs.heartbeat_every or max(1, n_records // 10)
    abort = obs.abort if enabled else None
    abort_every = 0
    if abort is not None:
        abort_every = obs.abort_every or max(1, min(512, n_records // 10))

    loop_t0 = perf()
    i = start
    while i < n_records:
        if abort is not None and (i + 1) % abort_every == 0 and abort():
            raise RunAborted(
                f"run aborted before write {i + 1}/{n_records} "
                f"({config.workload}/{config.scheme})",
                writes_done=i,
            )
        end = min(i + chunk_size, n_records)
        if sample_every:
            end = min(end, _next_multiple(i, sample_every))
        if hb_every:
            end = min(end, _next_multiple(i, hb_every))
        if checkpointer is not None:
            end = min(end, _next_multiple(i, checkpointer.every))
        if abort_every:
            end = min(end, _next_multiple(i + 1, abort_every) - 1)
        if vwl is not None:
            end = min(end, i + vwl.writes_until_event)
        if tracker is not None and tracker.next_end is not None:
            # End chunks on phase boundaries so the cumulative
            # snapshot lands exactly on the boundary write.
            end = min(end, tracker.next_end)
        k = end - i

        t0 = perf()
        batch = write(addresses_arr[i:end], data_arr[i:end])
        t1 = perf()
        if no_rotation:
            rotations = None
        else:
            uniq, inv = np.unique(batch.addresses, return_inverse=True)
            per_line = np.fromiter(
                (leveler.rotation(line_index[int(a)]) for a in uniq),
                dtype=np.int64,
                count=uniq.size,
            )
            rotations = per_line[inv]
        t2 = perf()
        pcm.apply_batch_diffs(
            batch.addresses, batch.data_diff, batch.meta_diff,
            rotations=rotations,
        )
        t3 = perf()
        if vwl is not None:
            vwl.advance(k)
        _accumulate_batch(result, batch, line_bits)
        i = end
        if tracker is not None:
            tracker.note(i)

        if profile is not None:
            # Reuses the t0..t3 stamps; the only extra clock read
            # covers the accumulate phase.
            t4 = perf()
            profile.add("scheme.write", t1 - t0, k)
            profile.add("wear.rotation", t2 - t1, k)
            profile.add("pcm.apply", t3 - t2, k)
            profile.add("accumulate", t4 - t3, k)
        if per_write:
            addr = int(batch.addresses[0])
            mode = next(iter(batch.mode_counts), "")
            tracer.span_event(
                "scheme.write", t0, t1 - t0, write=i, addr=addr,
                flips=int(batch.data_flips[0] + batch.meta_flips[0]),
                mode=mode,
            )
            tracer.span_event("wear.rotation", t1, t2 - t1, write=i)
            tracer.span_event(
                "pcm.apply", t2, t3 - t2, write=i,
                rotation=0 if rotations is None else int(rotations[0]),
            )
            if batch.epoch_reset[0]:
                tracer.event("epoch.reset", write=i, addr=addr)
            if batch.mode_switched[0]:
                tracer.event("mode.switch", write=i, addr=addr, mode=mode)
        elif tracing:
            tracer.span_event(
                "scheme.write", t0, t1 - t0, write=i, n=k,
                flips=int(batch.data_flips.sum() + batch.meta_flips.sum()),
            )
            tracer.span_event("wear.rotation", t1, t2 - t1, write=i, n=k)
            tracer.span_event("pcm.apply", t2, t3 - t2, write=i, n=k)
        if checkpointer is not None:
            tc0 = perf()
            checkpointer.maybe(i)
            if profile is not None:
                profile.add("checkpoint", perf() - tc0)
        if sample_every and i % sample_every == 0:
            sampler.record(i)
        if hb_every and i % hb_every == 0:
            heartbeat(i, n_records)

    if profile is not None:
        for phase, timer in _TIMED_PHASES:
            seconds, count = profile.phases.get(phase, (0.0, 0))
            metrics.timer(timer).observe_many(seconds, int(count))
        if obs.profile is not None:
            obs.profile.merge(profile)

    if enabled:
        metrics.gauge("run.write_loop_s").set(perf() - loop_t0)
        metrics.counter("run.writes").inc(result.n_writes)
        metrics.counter("run.flips").inc(result.total_flips)
        metrics.counter("run.slots").inc(result.total_slots)
        metrics.counter("run.epoch_resets").inc(result.epoch_resets)
        metrics.counter("run.mode_switches").inc(result.mode_switches)
        metrics.counter("run.full_reencryptions").inc(
            result.full_reencryptions
        )
        if pad_cache is not None:
            metrics.counter("pad.cache_hits").inc(pad_cache.hits)
            metrics.counter("pad.cache_misses").inc(pad_cache.misses)
        if sampler is not None:
            result.series = sampler.finalize(n_records)


def run_suite(
    configs: list[SimConfig], trace: Trace | None = None
) -> list[RunResult]:
    """Run several configurations (sharing cached traces per workload)."""
    return [run(config, trace=trace) for config in configs]


def _build_leveler(config: SimConfig, n_lines: int, bits_per_line: int):
    return registry.WEAR_LEVELERS.create(
        config.wear_leveling, config, n_lines, bits_per_line
    )
