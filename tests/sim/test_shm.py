"""Shared-memory trace buffers: publish/attach roundtrip and lifetime.

The parallel sweep publishes each unique workload trace into one
``multiprocessing.shared_memory`` segment and hands workers a tiny
:class:`TraceShmSpec`; workers attach zero-copy views.  These tests pin
the roundtrip (attached trace == generated trace, byte for byte), the
dedup-by-trace-key behaviour, spec pickling cost, and segment lifetime.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.sim.config import SimConfig
from repro.sim.runner import cached_trace, run
from repro.sim.shm import TracePublisher, attach_trace, trace_key

CFG = SimConfig("libq", "deuce", n_writes=300, seed=4)


@pytest.fixture
def publisher():
    with TracePublisher() as pub:
        yield pub


class TestPublishAttachRoundtrip:
    def test_attached_trace_is_bit_identical(self, publisher):
        spec = publisher.publish(CFG)
        assert spec is not None
        source = cached_trace(
            CFG.workload, CFG.n_writes, CFG.seed, CFG.line_bytes
        )
        attached = attach_trace(spec)
        assert attached.profile_name == source.profile_name
        assert attached.seed == source.seed
        assert attached.line_bytes == source.line_bytes
        for got, want in zip(
            attached.write_arrays(), source.write_arrays()
        ):
            assert np.array_equal(got, want)
        for got, want in zip(
            attached.initial_arrays(), source.initial_arrays()
        ):
            assert np.array_equal(got, want)
        assert attached.initial == source.initial

    def test_attached_arrays_are_read_only_views(self, publisher):
        attached = attach_trace(publisher.publish(CFG))
        addresses, data = attached.write_arrays()
        with pytest.raises(ValueError):
            addresses[0] = 1
        with pytest.raises(ValueError):
            data[0, 0] = 1

    def test_lazy_records_match_generated(self, publisher):
        # Code that iterates ``records`` must get from the lazy view the
        # same (address, data) stream the generator produced.
        attached = attach_trace(publisher.publish(CFG))
        source = cached_trace(
            CFG.workload, CFG.n_writes, CFG.seed, CFG.line_bytes
        )
        assert len(attached.records) == len(source.records)
        for got, want in zip(attached.records[:16], source.records[:16]):
            assert got.address == want.address
            assert got.data == want.data

    def test_run_on_attached_trace_matches(self, publisher):
        # End-to-end: a run fed the shared-memory view equals a run that
        # regenerated the trace itself (what sweep workers rely on).
        attached = attach_trace(publisher.publish(CFG))
        a = run(CFG, trace=attached).to_dict()
        b = run(CFG).to_dict()
        a.pop("wall_time_s"), b.pop("wall_time_s")
        a.pop("run_id"), b.pop("run_id")
        assert a == b


class TestPublisherLifecycle:
    def test_publish_dedupes_by_trace_key(self, publisher):
        # Same trace under two schemes: one segment, same spec.
        other = SimConfig("libq", "encr-dcw", n_writes=300, seed=4)
        assert trace_key(CFG) == trace_key(other)
        s1 = publisher.publish(CFG)
        s2 = publisher.publish(other)
        assert s1 is s2
        assert len(publisher) == 1

    def test_distinct_traces_get_distinct_segments(self, publisher):
        s1 = publisher.publish(CFG)
        s2 = publisher.publish(
            SimConfig("libq", "deuce", n_writes=300, seed=5)
        )
        assert s1.name != s2.name
        assert len(publisher) == 2

    def test_spec_pickles_tiny(self, publisher):
        # The whole point: per-task submission cost is a few hundred
        # bytes, never the trace itself (300 writes * 64B would be ~19KB).
        spec = publisher.publish(CFG)
        assert len(pickle.dumps(spec)) < 1024

    def test_close_unlinks_segments(self):
        pub = TracePublisher()
        spec = pub.publish(CFG)
        pub.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.name)

    def test_publish_after_close_raises(self):
        pub = TracePublisher()
        pub.close()
        with pytest.raises(RuntimeError):
            pub.publish(CFG)
