"""Shared-memory trace buffers for the parallel sweep.

A sweep grid typically runs many schemes over few workloads, so every
worker process used to regenerate (or unpickle) the same trace.  This
module lets the parent materialize each unique workload trace **once**,
publish its arrays into a ``multiprocessing.shared_memory`` segment, and
hand workers only a tiny :class:`TraceShmSpec` (segment name plus shape
metadata, well under a kilobyte).  Workers attach the segment and wrap the
buffers in a zero-copy :meth:`~repro.workloads.trace.Trace.from_arrays`
view — no trace bytes are ever pickled to a worker and no worker
regenerates a trace.

Segment layout (one segment per unique trace, int64 blocks first so every
array is naturally aligned)::

    init_addresses  (n_initial,)            int64
    addresses       (n_writes,)             int64
    init_data       (n_initial, line_bytes) uint8
    data            (n_writes,  line_bytes) uint8

Lifetime: the parent-side :class:`TracePublisher` owns every segment and
unlinks them when the sweep finishes (it is a context manager).  Workers
attach read-only views and deliberately *unregister* the attachment from
``multiprocessing.resource_tracker`` — on Python < 3.13 the tracker would
otherwise unlink the parent's segment when the first worker exits
(bpo-38119); ownership stays with the publisher.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.sim.config import SimConfig
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class TraceShmSpec:
    """Everything a worker needs to attach one published trace.

    Frozen and tiny (a name and five scalars) so submitting it with each
    pool task costs nothing; the trace bytes themselves never cross the
    process boundary.
    """

    name: str
    profile_name: str
    seed: int
    line_bytes: int
    n_initial: int
    n_writes: int
    #: Trace phase boundaries ((name, start) pairs); shape metadata like
    #: the scalars above, carried so attached KV traces keep their
    #: populate/steady structure (phase snapshots must be identical
    #: between shm and regenerated runs).
    phases: tuple[tuple[str, int], ...] = ()


def trace_key(config: SimConfig) -> tuple[str, int, int, int, str]:
    """The tuple that determines a config's trace, for deduplication."""
    return (
        config.workload,
        config.seed,
        config.n_writes,
        config.line_bytes,
        json.dumps(config.workload_params or {}, sort_keys=True),
    )


def _layout(
    n_initial: int, n_writes: int, line_bytes: int
) -> tuple[int, int, int, int, int]:
    """Byte offsets of the four arrays and the total segment size."""
    o_init_addr = 0
    o_addr = o_init_addr + 8 * n_initial
    o_init_data = o_addr + 8 * n_writes
    o_data = o_init_data + n_initial * line_bytes
    total = o_data + n_writes * line_bytes
    return o_init_addr, o_addr, o_init_data, o_data, total


class TracePublisher:
    """Parent-side owner of shared-memory trace segments.

    ``publish(config)`` materializes the config's trace (through the same
    :func:`repro.sim.runner.cached_trace` the serial path uses), copies its
    arrays into a fresh segment, and returns the :class:`TraceShmSpec`.
    Publishing is deduplicated by :func:`trace_key`, so a grid of N schemes
    over one workload creates one segment.  Any failure to create a
    segment (e.g. an exhausted ``/dev/shm``) returns ``None`` and the
    caller falls back to per-worker generation — publishing is an
    optimization, never a correctness dependency.
    """

    def __init__(self) -> None:
        self._segments: dict[tuple, tuple] = {}  # key -> (shm, spec)
        self._closed = False

    def publish(self, config: SimConfig) -> TraceShmSpec | None:
        if self._closed:
            raise RuntimeError("TracePublisher is closed")
        key = trace_key(config)
        hit = self._segments.get(key)
        if hit is not None:
            return hit[1]
        try:
            spec_pair = self._publish(config)
        except Exception:
            spec_pair = None
        if spec_pair is None:
            return None
        self._segments[key] = spec_pair
        return spec_pair[1]

    def _publish(self, config: SimConfig) -> tuple | None:
        from repro.sim.runner import cached_trace

        trace = cached_trace(
            config.workload,
            config.n_writes,
            config.seed,
            config.line_bytes,
            params=config.workload_params,
        )
        addresses, data = trace.write_arrays()
        init_addresses, init_data = trace.initial_arrays()
        n_initial = init_addresses.shape[0]
        n_writes = addresses.shape[0]
        line_bytes = trace.line_bytes
        o_ia, o_a, o_id, o_d, total = _layout(n_initial, n_writes, line_bytes)
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        try:
            buf = shm.buf
            np.frombuffer(buf, np.int64, n_initial, o_ia)[:] = init_addresses
            np.frombuffer(buf, np.int64, n_writes, o_a)[:] = addresses
            np.frombuffer(buf, np.uint8, n_initial * line_bytes, o_id)[:] = (
                init_data.ravel()
            )
            np.frombuffer(buf, np.uint8, n_writes * line_bytes, o_d)[:] = (
                data.ravel()
            )
        except Exception:
            shm.close()
            shm.unlink()
            raise
        spec = TraceShmSpec(
            name=shm.name,
            profile_name=trace.profile_name,
            seed=trace.seed,
            line_bytes=line_bytes,
            n_initial=n_initial,
            n_writes=n_writes,
            phases=trace.phases,
        )
        return (shm, spec)

    def close(self) -> None:
        """Release and unlink every published segment."""
        self._closed = True
        segments, self._segments = self._segments, {}
        for shm, _spec in segments.values():
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "TracePublisher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._segments)


#: Worker-side attachment cache: pool workers are reused across cells, so
#: each segment is mapped once per process and held until process exit
#: (the parent owns unlinking; closing here would invalidate live views).
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHED.get(name)
    if shm is None:
        # Python < 3.13 registers *attachments* with the resource tracker
        # too (bpo-38119): under spawn the worker's tracker would unlink
        # the parent's live segment when the worker exits, and under fork
        # an unregister from the worker would strip the parent's own
        # registration from the shared tracker.  Either way the fix is the
        # same — keep the attachment invisible to the tracker by muting
        # ``register`` for the duration of the attach.  The publisher owns
        # the lifetime.
        original_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        _ATTACHED[name] = shm
    return shm


def attach_trace(spec: TraceShmSpec) -> Trace:
    """Attach a published segment and return a zero-copy :class:`Trace`.

    The returned trace's arrays are read-only views straight into the
    shared mapping; ``records`` stays lazy, so nothing is copied unless
    a caller iterates it.
    """
    shm = _attach_segment(spec.name)
    buf = shm.buf
    o_ia, o_a, o_id, o_d, _total = _layout(
        spec.n_initial, spec.n_writes, spec.line_bytes
    )
    init_addresses = np.frombuffer(buf, np.int64, spec.n_initial, o_ia)
    addresses = np.frombuffer(buf, np.int64, spec.n_writes, o_a)
    init_data = np.frombuffer(
        buf, np.uint8, spec.n_initial * spec.line_bytes, o_id
    ).reshape(spec.n_initial, spec.line_bytes)
    data = np.frombuffer(
        buf, np.uint8, spec.n_writes * spec.line_bytes, o_d
    ).reshape(spec.n_writes, spec.line_bytes)
    for arr in (init_addresses, addresses, init_data, data):
        arr.flags.writeable = False
    return Trace.from_arrays(
        spec.profile_name,
        spec.seed,
        spec.line_bytes,
        init_addresses,
        init_data,
        addresses,
        data,
        phases=spec.phases,
    )
