"""Batched pad fetches count exactly as serial fetches do.

``CachingPadSource.line_pads_batch`` promises that after any batch the
cached keys, the eviction (LRU) order, and the hit/miss counters are
exactly what ``m`` sequential ``line_pad_array`` calls would have left,
for the all-miss batches the chunked write loop sends and for batches with
hits and duplicates alike.  These tests drive a batch instance and a
serial reference instance through the same request streams and compare
everything observable, through ``state_dict()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.pads import AesPadSource, Blake2PadSource, CachingPadSource

KEY = b"pad-batch-key-16"
N_BYTES = 64


def _pair(capacity: int) -> tuple[CachingPadSource, CachingPadSource]:
    return (
        CachingPadSource(Blake2PadSource(KEY), capacity=capacity),
        CachingPadSource(Blake2PadSource(KEY), capacity=capacity),
    )


def _serial_reference(
    cache: CachingPadSource, addresses, counters
) -> np.ndarray:
    rows = [
        cache.line_pad_array(a, c, N_BYTES)
        for a, c in zip(addresses, counters)
    ]
    return np.stack(rows) if rows else np.empty((0, N_BYTES), np.uint8)


def _assert_equivalent(batch, serial, got, want) -> None:
    assert np.array_equal(got, want)
    assert batch.hits == serial.hits
    assert batch.misses == serial.misses
    # Same keys in the same LRU (eviction) order.
    b_state, s_state = batch.state_dict(), serial.state_dict()
    assert np.array_equal(b_state["line_keys"], s_state["line_keys"])


def _drive(capacity: int, requests: list[tuple[int, int]]) -> None:
    batch, serial = _pair(capacity)
    addresses = np.asarray([a for a, _ in requests], dtype=np.int64)
    counters = np.asarray([c for _, c in requests], dtype=np.int64)
    got = batch.line_pads_batch(addresses, counters, N_BYTES)
    want = _serial_reference(serial, addresses, counters)
    _assert_equivalent(batch, serial, got, want)


class TestAllMissFastPath:
    """Distinct, absent keys — the shape the chunked write loop produces."""

    def test_fresh_cache_all_distinct(self):
        _drive(capacity=64, requests=[(a, 1) for a in range(10)])

    def test_batch_larger_than_capacity(self):
        # Only the last ``capacity`` pads survive; older ones are evicted
        # in order, exactly as serial insertion would.
        _drive(capacity=4, requests=[(a, 1) for a in range(10)])

    def test_batch_equal_to_capacity(self):
        _drive(capacity=8, requests=[(a, 1) for a in range(8)])

    def test_eviction_of_preexisting_entries(self):
        batch, serial = _pair(6)
        warm = ([10, 11, 12, 13], [0, 0, 0, 0])
        _serial_reference(serial, *warm)
        batch.line_pads_batch(
            np.asarray(warm[0], np.int64), np.asarray(warm[1], np.int64), N_BYTES
        )
        # 4 warm entries + 4 fresh > capacity 6: two warm ones must go.
        addresses = np.asarray([0, 1, 2, 3], dtype=np.int64)
        counters = np.asarray([5, 5, 5, 5], dtype=np.int64)
        got = batch.line_pads_batch(addresses, counters, N_BYTES)
        want = _serial_reference(serial, addresses, counters)
        _assert_equivalent(batch, serial, got, want)

    def test_returned_rows_are_read_only(self):
        batch, _ = _pair(16)
        pads = batch.line_pads_batch(
            np.arange(4, dtype=np.int64), np.ones(4, dtype=np.int64), N_BYTES
        )
        with pytest.raises(ValueError):
            np.asarray(pads)[0, 0] = 1


class TestGeneralWalk:
    """Batches with hits or duplicates."""

    def test_warm_hits(self):
        batch, serial = _pair(32)
        addrs, ctrs = [1, 2, 3], [7, 7, 7]
        batch.line_pads_batch(
            np.asarray(addrs, np.int64), np.asarray(ctrs, np.int64), N_BYTES
        )
        _serial_reference(serial, addrs, ctrs)
        # Second fetch of the same keys: all hits, recency refreshed.
        got = batch.line_pads_batch(
            np.asarray(addrs, np.int64), np.asarray(ctrs, np.int64), N_BYTES
        )
        want = _serial_reference(serial, addrs, ctrs)
        _assert_equivalent(batch, serial, got, want)
        assert batch.hits == 3

    def test_duplicate_keys_within_batch(self):
        # The second occurrence of a key is a hit on the entry the first
        # installed — same accounting as serial.
        _drive(capacity=16, requests=[(5, 1), (6, 1), (5, 1), (5, 1)])

    def test_duplicates_with_eviction_pressure(self):
        _drive(
            capacity=3,
            requests=[(0, 1), (1, 1), (0, 1), (2, 1), (3, 1), (0, 1)],
        )

    def test_mixed_hit_miss_eviction(self):
        batch, serial = _pair(4)
        warm = ([1, 2, 3], [0, 0, 0])
        batch.line_pads_batch(
            np.asarray(warm[0], np.int64), np.asarray(warm[1], np.int64), N_BYTES
        )
        _serial_reference(serial, warm[0], warm[1])
        mixed = [(2, 0), (9, 0), (1, 0), (8, 0), (2, 0), (7, 0)]
        addresses = np.asarray([a for a, _ in mixed], np.int64)
        counters = np.asarray([c for _, c in mixed], np.int64)
        got = batch.line_pads_batch(addresses, counters, N_BYTES)
        want = _serial_reference(serial, addresses, counters)
        _assert_equivalent(batch, serial, got, want)

    def test_empty_batch(self):
        batch, _ = _pair(4)
        got = batch.line_pads_batch(
            np.empty(0, np.int64), np.empty(0, np.int64), N_BYTES
        )
        assert len(got) == 0
        assert batch.hits == 0 and batch.misses == 0


class TestStatParityProperty:
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        requests=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=40,
        ),
        split=st.integers(min_value=0, max_value=40),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_streams_match_serial(self, capacity, requests, split):
        # Warm both caches with the stream's prefix serially, then feed
        # the suffix as one batch: stats, contents, order, values all
        # match a fully serial replay.
        batch, serial = _pair(capacity)
        split = min(split, len(requests))
        prefix, suffix = requests[:split], requests[split:]
        for a, c in prefix:
            batch.line_pad_array(a, c, N_BYTES)
            serial.line_pad_array(a, c, N_BYTES)
        addresses = np.asarray([a for a, _ in suffix], np.int64)
        counters = np.asarray([c for _, c in suffix], np.int64)
        got = batch.line_pads_batch(addresses, counters, N_BYTES)
        want = _serial_reference(serial, addresses, counters)
        _assert_equivalent(batch, serial, got, want)


# -- pad-block streams -----------------------------------------------------

_BLOCK_SOURCES = {
    "blake2": lambda: Blake2PadSource(KEY),
    "aes": lambda: AesPadSource(KEY),
}

#: One step of a mixed stream: ``("batch", [(a, c, b), ...])`` or a single
#: scalar ``("scalar", (a, c, b))`` call between batches.
_block_keys = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=7),
)
_block_steps = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.lists(_block_keys, max_size=30)),
        st.tuples(st.just("scalar"), _block_keys),
    ),
    max_size=6,
)


def _arrays(keys):
    cols = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    return cols[:, 0], cols[:, 1], cols[:, 2]


def _block(cache, key) -> np.ndarray:
    return np.frombuffer(cache.pad_block(*key), dtype=np.uint8)


def _assert_same_state(batch, serial) -> None:
    assert (batch.hits, batch.misses) == (serial.hits, serial.misses)
    got, want = batch.state_dict(), serial.state_dict()
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key


class TestPadBlocksBatch:
    """``CachingPadSource.pad_blocks_batch`` == a loop of ``pad_block``."""

    @pytest.mark.parametrize("source", sorted(_BLOCK_SOURCES))
    @pytest.mark.parametrize("capacity", [1, 3, 16, 1024])
    @given(steps=_block_steps)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_scalar_pad_blocks(self, source, capacity, steps):
        inner = _BLOCK_SOURCES[source]()
        batch = CachingPadSource(inner, capacity=capacity)
        serial = CachingPadSource(inner, capacity=capacity)
        for kind, payload in steps:
            if kind == "scalar":
                assert np.array_equal(
                    _block(batch, payload), _block(serial, payload)
                )
            else:
                got = batch.pad_blocks_batch(*_arrays(payload))
                want = [_block(serial, key) for key in payload]
                assert got.shape == (len(payload), 16)
                assert not got.flags.writeable
                for row, pad in zip(got, want):
                    assert np.array_equal(row, pad)
            _assert_same_state(batch, serial)
        # ``pad_block`` still returns ``bytes`` after batches.
        keys = [
            k for kind, p in steps for k in ([p] if kind == "scalar" else p)
        ]
        assert all(type(batch.pad_block(*key)) is bytes for key in keys)

    @pytest.mark.parametrize("source", sorted(_BLOCK_SOURCES))
    def test_bare_source_matches_pad_block(self, source):
        inner = _BLOCK_SOURCES[source]()
        keys = [(a, c, b) for a in (0, 7) for c in (0, 1, 2) for b in range(8)]
        keys += keys[::3]
        got = inner.pad_blocks_batch(*_arrays(keys))
        for row, key in zip(got, keys):
            assert row.tobytes() == inner.pad_block(*key)

    @pytest.mark.parametrize("source", sorted(_BLOCK_SOURCES))
    def test_peek_leaves_cache_alone(self, source):
        cache = CachingPadSource(_BLOCK_SOURCES[source](), capacity=4)
        for key in [(1, 0, 0), (1, 0, 1), (2, 3, 2)]:
            cache.pad_block(*key)
        before = cache.state_dict()
        keys = [(1, 0, 0), (5, 1, 3), (1, 0, 1), (9, 9, 0), (5, 1, 3)]
        peeked = cache.peek_pad_blocks_batch(*_arrays(keys))
        after = cache.state_dict()
        for key in before:
            assert np.array_equal(before[key], after[key]), key
        fresh = CachingPadSource(_BLOCK_SOURCES[source](), capacity=4)
        assert np.array_equal(peeked, fresh.pad_blocks_batch(*_arrays(keys)))

    @pytest.mark.parametrize("capacity", [16, 1024])
    def test_stream_longer_than_one_walk(self, capacity):
        # The cache walks long streams in slices and compacts its key log;
        # keys repeat across the slice boundaries.
        rng = np.random.default_rng(capacity)
        keys = [
            (int(a), int(c), int(b))
            for a, c, b in zip(
                rng.integers(0, 300, 3000),
                rng.integers(0, 3, 3000),
                rng.integers(0, 4, 3000),
            )
        ]
        batch = CachingPadSource(Blake2PadSource(KEY), capacity=capacity)
        serial = CachingPadSource(Blake2PadSource(KEY), capacity=capacity)
        got = batch.pad_blocks_batch(*_arrays(keys))
        want = np.stack([_block(serial, key) for key in keys])
        assert np.array_equal(got, want)
        assert batch.hits > 0
        _assert_same_state(batch, serial)

    def test_empty_batch(self):
        cache = CachingPadSource(Blake2PadSource(KEY), capacity=4)
        got = cache.pad_blocks_batch(*_arrays([]))
        assert got.shape == (0, 16)
        assert cache.hits == cache.misses == 0
