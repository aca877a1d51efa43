"""The KV request engine (:mod:`repro.workloads.kv`).

Determinism is the load-bearing property: a profile + seed must fully
determine the request stream, and a request stream must fully determine
the engine's writeback trace — that is what makes on-disk suites
replayable and lets every scheme see the identical stream.
"""

from __future__ import annotations

import pytest

from repro.memory.cache import MemoryHierarchy
from repro.workloads.kv import (
    KV_PROFILES,
    KeyspaceLayout,
    KvEngine,
    KvProfile,
    KvRequest,
    drive_requests,
    generate_kv_trace,
    request_stream,
)
from repro.workloads.trace import generate_trace
from tests.workloads.test_generator import _trace_digest

# 256 keys x ~112B slots = a ~28KB working set over an 8KB last level —
# enough pressure that steady-state puts keep evicting dirty lines.
SMALL = KvProfile(
    "kv-test", n_keys=256, value_bytes=48, value_sigma=0.2,
    zipf_alpha=0.9, get_weight=50.0, put_weight=50.0, cache_kb=8,
)


def take(stream, n):
    return [next(stream) for _ in range(n)]


class TestRequestStream:
    def test_populate_puts_every_key_once(self):
        reqs = take(request_stream(SMALL, seed=1), SMALL.n_keys)
        assert all(r.op == "put" for r in reqs)
        assert sorted(r.key for r in reqs) == list(range(SMALL.n_keys))

    def test_steady_state_mix_follows_weights(self):
        stream = request_stream(SMALL, seed=1)
        take(stream, SMALL.n_keys)
        ops = [r.op for r in take(stream, 4000)]
        get_frac = ops.count("get") / len(ops)
        assert 0.4 < get_frac < 0.6  # 50/50 mix
        assert ops.count("delete") == 0

    def test_same_seed_same_stream(self):
        a = take(request_stream(SMALL, seed=7), 500)
        b = take(request_stream(SMALL, seed=7), 500)
        assert a == b

    def test_different_seed_different_stream(self):
        a = take(request_stream(SMALL, seed=7), 500)
        b = take(request_stream(SMALL, seed=8), 500)
        assert a != b

    def test_zipf_skew_concentrates_keys(self):
        skewed = KvProfile(
            "skew", n_keys=256, zipf_alpha=1.4, get_weight=100.0,
            put_weight=0.0,
        )
        stream = request_stream(skewed, seed=3)
        take(stream, skewed.n_keys)
        from collections import Counter

        counts = Counter(r.key for r in take(stream, 5000))
        top = sum(c for _, c in counts.most_common(8))
        assert top > 0.3 * 5000  # 3% of keys draw >30% of traffic

    def test_no_positive_weight_raises(self):
        dead = KvProfile(
            "dead", n_keys=16, get_weight=0.0, put_weight=0.0,
            delete_weight=0.0,
        )
        stream = request_stream(dead, seed=0)
        take(stream, dead.n_keys)
        with pytest.raises(ValueError, match="no positive mix weight"):
            next(stream)

    def test_value_sizes_recorded_on_put(self):
        reqs = take(request_stream(SMALL, seed=2), SMALL.n_keys)
        assert all(r.value_size >= 1 for r in reqs)
        capacity = max(SMALL.value_bytes * 2, 8)
        assert all(r.value_size <= capacity for r in reqs)


class TestKeyspaceLayout:
    def test_slots_disjoint_and_aligned(self):
        layout = KeyspaceLayout(SMALL, seed=0)
        addresses = {layout.slot_address(k) for k in range(SMALL.n_keys)}
        assert len(addresses) == SMALL.n_keys
        assert all(a % 8 == 0 for a in addresses)

    def test_shuffle_is_seeded(self):
        a = KeyspaceLayout(SMALL, seed=0)
        b = KeyspaceLayout(SMALL, seed=0)
        c = KeyspaceLayout(SMALL, seed=1)
        assert [a.slot_address(k) for k in range(8)] == [
            b.slot_address(k) for k in range(8)
        ]
        assert [a.slot_address(k) for k in range(64)] != [
            c.slot_address(k) for k in range(64)
        ]


class TestKvEngine:
    def test_writebacks_are_organic_dirty_evictions(self):
        engine = KvEngine(SMALL, seed=0)
        stream = request_stream(SMALL, seed=0)
        for req in take(stream, SMALL.n_keys + 500):
            engine.apply(req)
        assert engine.records  # capacity evictions happened
        # every writeback is a full line in line-address space
        assert all(len(r.data) == 64 for r in engine.records)
        assert all(r.address >= 0 for r in engine.records)

    def test_deterministic_replay_through_fresh_engine(self):
        reqs = take(request_stream(SMALL, seed=5), SMALL.n_keys + 800)
        a = KvEngine(SMALL, seed=5)
        b = KvEngine(SMALL, seed=5)
        for r in reqs:
            a.apply(r)
        for r in reqs:
            b.apply(r)
        assert a.records == b.records
        assert a.backing == b.backing

    def test_flush_drains_dirty_lines_deterministically(self):
        a = KvEngine(SMALL, seed=1)
        b = KvEngine(SMALL, seed=1)
        reqs = take(request_stream(SMALL, seed=1), SMALL.n_keys)
        for e in (a, b):
            for r in reqs:
                e.apply(r)
            e.flush()
        assert a.records == b.records
        # after a full flush nothing is dirty: flushing again adds nothing
        before = len(a.records)
        a.flush()
        assert len(a.records) == before

    def test_get_touches_without_dirtying(self):
        engine = KvEngine(SMALL, seed=2)
        reqs = take(request_stream(SMALL, seed=2), SMALL.n_keys)
        for r in reqs:
            engine.apply(r)
        engine.flush()
        clean = len(engine.records)
        key = reqs[0].key
        engine.apply(KvRequest("get", key))
        engine.flush()
        assert len(engine.records) == clean  # loads never dirty lines

    def test_cache_stats_mpki_under_kv_stream(self):
        engine = KvEngine(SMALL, seed=3)
        stream = request_stream(SMALL, seed=3)
        for r in take(stream, SMALL.n_keys + 2000):
            engine.apply(r)
        stats = engine.cache_stats()
        assert len(stats) == 3  # two fixed levels + profile-sized LLC
        for s in stats:
            assert s.accesses > 0
            assert 0.0 <= s.mpki <= 1000.0  # misses per kilo-access
            assert s.hits + s.misses == s.accesses
        # a second identically-seeded engine reproduces the exact stats
        engine2 = KvEngine(SMALL, seed=3)
        for r in take(request_stream(SMALL, seed=3), SMALL.n_keys + 2000):
            engine2.apply(r)
        for s1, s2 in zip(stats, engine2.cache_stats()):
            assert (s1.accesses, s1.misses, s1.writebacks) == (
                s2.accesses, s2.misses, s2.writebacks
            )

    def test_store_spans_split_at_line_boundaries(self):
        # A value that straddles lines must not raise (SetAssociativeCache
        # rejects line-crossing stores; the engine splits them).
        profile = KvProfile(
            "straddle", n_keys=32, value_bytes=100, value_sigma=0.0,
            cache_kb=8,
        )
        engine = KvEngine(profile, seed=0)
        for r in take(request_stream(profile, seed=0), profile.n_keys):
            engine.apply(r)  # must not raise

    def test_hierarchy_writeback_ordering_is_outermost_last(self):
        # MemoryHierarchy.flush_all drains inner levels first so dirty
        # inner lines funnel through the last level; the engine's sink
        # only ever sees last-level evictions.
        sink: list[tuple[int, bytes]] = []
        backing: dict[int, bytes] = {}
        hierarchy = MemoryHierarchy(
            [(1024, 2), (4096, 2)],
            backing,
            writeback_sink=lambda a, d: sink.append((a, d)),
            line_bytes=64,
        )
        for i in range(256):
            hierarchy.store(i * 64, bytes([i % 256]) * 64)
        n_evicted = len(sink)
        hierarchy.flush_all()
        assert len(sink) > n_evicted
        # every surviving line landed in backing exactly as written
        for addr, data in sink:
            assert backing.get(addr) is not None


class TestGenerateKvTrace:
    def test_trace_has_phases_and_exact_length(self):
        trace = generate_kv_trace(SMALL, 1500, seed=0)
        assert trace.n_writes == 1500
        assert trace.phases[0] == ("populate", 0)
        assert trace.phases[1][0] == "steady"
        assert 0 < trace.phases[1][1] <= 1500

    def test_bit_identical_across_generations(self):
        a = generate_kv_trace(SMALL, 1200, seed=9)
        b = generate_kv_trace(SMALL, 1200, seed=9)
        assert a.records == b.records
        assert a.initial == b.initial
        assert a.phases == b.phases

    def test_registry_dispatch_via_generate_trace(self):
        # The polymorphic hook: generate_trace("kv-...") must route to the
        # engine, not the statistical generator.
        t = generate_trace("kv-udb", 1000, seed=2)
        assert t.phases and t.phases[0][0] == "populate"
        direct = KV_PROFILES["kv-udb"].generate_trace(1000, seed=2)
        assert t.records == direct.records

    def test_workload_params_override_profile(self):
        # long enough to reach the steady phase, where zipf_alpha matters
        base = generate_trace("kv-udb", 4000, seed=0)
        skew = generate_trace(
            "kv-udb", 4000, seed=0, params={"zipf_alpha": 0.0}
        )
        assert dict(base.phases)["steady"] < 4000
        assert base.records != skew.records

    def test_impossible_length_fails_with_guidance(self):
        tiny = KvProfile(
            "tiny", n_keys=16, value_bytes=16, get_weight=100.0,
            put_weight=0.0, cache_kb=64,
        )
        # 16 small keys fit entirely in cache: only the populate flush
        # produces writebacks, far fewer than requested.
        with pytest.raises(ValueError, match="raise n_keys"):
            generate_kv_trace(tiny, 5000, seed=0)

    def test_abort_interrupts_generation(self):
        from repro.obs.instruments import RunAborted

        calls = {"n": 0}

        def abort() -> bool:
            calls["n"] += 1
            return calls["n"] > 2

        with pytest.raises(RunAborted):
            generate_kv_trace(SMALL, 2000, seed=0, abort=abort, abort_every=64)

    def test_drive_requests_collect_records_applied_prefix(self):
        collected: list[KvRequest] = []
        from itertools import islice

        stream = islice(request_stream(SMALL, seed=4), 100_000)
        trace, engine = drive_requests(
            SMALL, 4, 64, stream, 900, collect=collected
        )
        assert trace.n_writes == 900
        # replaying exactly the collected prefix reproduces the trace
        replay, _ = drive_requests(SMALL, 4, 64, collected, 900)
        assert replay.records == trace.records
        assert replay.phases == trace.phases


class TestCannedProfiles:
    def test_all_profiles_reach_steady_state_at_10k(self):
        for name in KV_PROFILES:
            trace = generate_trace(name, 10_000, seed=0)
            steady_start = dict(trace.phases)["steady"]
            assert 0 < steady_start < 10_000, name


# Digests of ``generate_trace(name, 4_000, seed=s)`` for seeds 0 and 3,
# hashed by ``_trace_digest``: initial arrays, then addresses and data.  A mismatch means the request
# stream, the key layout or the cache walk changed what reaches memory.
GOLDEN_KV_TRACES = {
    "kv-etc": (
        "185087347be54bc3323ebc60de4856e26e75d6fc22547361164ede4cf58d1081",
        "624cc8053b5a882643e289356ce1ae6ed61ab2874ce962ebb6422c9248b8f0db",
    ),
    "kv-udb": (
        "e1f911f8f026e60c9fb843f1dc64eb08ac4ea173a2dd1758d02168d574f06d7c",
        "f718ffc706327fcea708fbba48205ebb7c51ffadea6aa2c021799fd97296255f",
    ),
    "kv-zippydb": (
        "67238681b133af756a092906d47a3e517b7976df3dd8986dfa6f8a2931c5afed",
        "4fdb24ae54a9cb1a4621795a3f8fb062b7aebfd8a8b6478b2529bd2b196dc9b3",
    ),
    "kv-cache": (
        "9e906392a12c17d49b04286a539c14e6dce0a354c4d105a6b69280ff4f16e524",
        "2c6fbe820b7fbc003c24c5528a6cb0b3d8f826118a47586694ccf93d738ecc4b",
    ),
}
#: Per-level ``(accesses, hits, misses, writebacks)``, first level first,
#: of the engine behind each seed-0 trace above.
GOLDEN_KV_CACHE_STATS = {
    "kv-etc": (
        (31860, 8576, 23284, 4478),
        (27762, 11343, 16419, 4351),
        (20770, 11183, 9587, 4000),
    ),
    "kv-udb": (
        (13879, 3304, 10575, 5534),
        (16109, 7247, 8862, 4997),
        (13859, 7419, 6440, 4002),
    ),
    "kv-zippydb": (
        (12854, 3177, 9677, 5062),
        (14739, 6286, 8453, 4796),
        (13249, 6855, 6394, 4000),
    ),
    "kv-cache": (
        (19210, 7838, 11372, 6727),
        (18099, 9878, 8221, 5419),
        (13640, 7873, 5767, 4000),
    ),
}


class TestPinnedKvStream:
    @pytest.mark.parametrize("name", sorted(GOLDEN_KV_TRACES))
    def test_traces(self, name):
        digests = tuple(
            _trace_digest(generate_trace(name, 4_000, seed=seed))
            for seed in (0, 3)
        )
        assert digests == GOLDEN_KV_TRACES[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_KV_CACHE_STATS))
    def test_cache_stats(self, name):
        profile = KV_PROFILES[name]
        trace, engine = drive_requests(
            profile, 0, 64, request_stream(profile, seed=0), 4_000
        )
        assert _trace_digest(trace) == GOLDEN_KV_TRACES[name][0]
        stats = tuple(
            (s.accesses, s.hits, s.misses, s.writebacks)
            for s in engine.cache_stats()
        )
        assert stats == GOLDEN_KV_CACHE_STATS[name]
