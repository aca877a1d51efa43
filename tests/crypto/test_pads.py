"""Pad-source tests: determinism, uniqueness, avalanche, caching."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pads import (
    PAD_BLOCK_BYTES,
    AesPadSource,
    Blake2PadSource,
    CachingPadSource,
    make_pad_source,
    _pack_tweak,
)
from repro.memory.bitops import bit_flips

KEY = b"0123456789abcdef"


@pytest.fixture(params=["aes", "blake2"])
def source(request):
    return make_pad_source(request.param, KEY)


class TestDeterminism:
    def test_same_inputs_same_pad(self, source):
        assert source.pad_block(5, 7, 0) == source.pad_block(5, 7, 0)

    def test_same_inputs_across_instances(self):
        a = Blake2PadSource(KEY)
        b = Blake2PadSource(KEY)
        assert a.line_pad(1, 2, 64) == b.line_pad(1, 2, 64)

    def test_different_keys_differ(self, source):
        other = make_pad_source(
            "aes" if isinstance(source, AesPadSource) else "blake2",
            b"another-key-0016",
        )
        assert source.pad_block(1, 1, 0) != other.pad_block(1, 1, 0)


class TestUniqueness:
    def test_distinct_counters_distinct_pads(self, source):
        pads = {source.pad_block(9, ctr, 0) for ctr in range(64)}
        assert len(pads) == 64

    def test_distinct_addresses_distinct_pads(self, source):
        pads = {source.pad_block(addr, 3, 0) for addr in range(64)}
        assert len(pads) == 64

    def test_distinct_blocks_distinct_pads(self, source):
        pads = {source.pad_block(9, 3, b) for b in range(4)}
        assert len(pads) == 4


class TestAvalanche:
    def test_counter_increment_flips_about_half(self, source):
        a = source.line_pad(4, 10, 64)
        b = source.line_pad(4, 11, 64)
        flips = bit_flips(a, b)
        assert 180 <= flips <= 330  # ~256 of 512

    def test_address_change_flips_about_half(self, source):
        a = source.line_pad(4, 10, 64)
        b = source.line_pad(5, 10, 64)
        assert 180 <= bit_flips(a, b) <= 330


class TestFraming:
    def test_line_pad_is_concatenation_of_pad_blocks(self, source):
        line = source.line_pad(7, 3, 64)
        blocks = b"".join(source.pad_block(7, 3, i) for i in range(4))
        assert line == blocks

    def test_line_pad_partial_length(self, source):
        assert len(source.line_pad(7, 3, 40)) == 40
        assert source.line_pad(7, 3, 40) == source.line_pad(7, 3, 64)[:40]

    def test_pad_block_length(self, source):
        assert len(source.pad_block(1, 1, 1)) == PAD_BLOCK_BYTES

    def test_zero_length_line_pad(self, source):
        assert source.line_pad(1, 1, 0) == b""

    def test_blake2_high_block_indices(self):
        # Block indices past one digest lane must still be distinct.
        src = Blake2PadSource(KEY)
        pads = {src.pad_block(0, 0, b) for b in range(12)}
        assert len(pads) == 12


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown pad source"):
            make_pad_source("rot13", KEY)

    def test_empty_blake2_key(self):
        with pytest.raises(ValueError, match="non-empty"):
            Blake2PadSource(b"")

    def test_negative_n_bytes(self, source):
        with pytest.raises(ValueError):
            source.line_pad(0, 0, -1)

    @pytest.mark.parametrize(
        "addr,ctr,block",
        [(-1, 0, 0), (1 << 48, 0, 0), (0, -1, 0), (0, 1 << 56, 0), (0, 0, -1), (0, 0, 256)],
    )
    def test_tweak_bounds(self, addr, ctr, block):
        with pytest.raises(ValueError):
            _pack_tweak(addr, ctr, block)

    def test_tweak_is_injective_on_fields(self):
        seen = set()
        for addr in range(4):
            for ctr in range(4):
                for block in range(4):
                    seen.add(_pack_tweak(addr, ctr, block))
        assert len(seen) == 64


class TestCachingPadSource:
    def test_cache_hit_returns_same_pad(self):
        cache = CachingPadSource(Blake2PadSource(KEY), capacity=8)
        first = cache.pad_block(1, 2, 3)
        second = cache.pad_block(1, 2, 3)
        assert first == second
        assert cache.hits == 1
        assert cache.misses == 1

    def test_cache_eviction_is_bounded(self):
        cache = CachingPadSource(Blake2PadSource(KEY), capacity=4)
        for ctr in range(10):
            cache.pad_block(0, ctr, 0)
        assert len(cache.state_dict()["block_keys"]) <= 4

    def test_hit_rate(self):
        cache = CachingPadSource(Blake2PadSource(KEY), capacity=8)
        assert cache.hit_rate == 0.0
        cache.pad_block(0, 0, 0)
        cache.pad_block(0, 0, 0)
        assert cache.hit_rate == 0.5

    def test_matches_inner_source(self):
        inner = Blake2PadSource(KEY)
        cache = CachingPadSource(inner, capacity=8)
        assert cache.line_pad(3, 4, 64) == inner.line_pad(3, 4, 64)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            CachingPadSource(Blake2PadSource(KEY), capacity=0)

    def test_lru_keeps_recently_used_entry(self):
        """A hit refreshes recency, so the LRU victim is the stale entry."""
        cache = CachingPadSource(Blake2PadSource(KEY), capacity=2)
        cache.pad_block(0, 0, 0)  # A
        cache.pad_block(1, 0, 0)  # B
        cache.pad_block(0, 0, 0)  # hit A: recency order is now B, A
        cache.pad_block(2, 0, 0)  # C evicts B
        hits = cache.hits
        cache.pad_block(0, 0, 0)  # A must still be cached
        assert cache.hits == hits + 1
        misses = cache.misses
        cache.pad_block(1, 0, 0)  # B was the eviction victim
        assert cache.misses == misses + 1

    def test_fifo_order_would_evict_wrong_entry(self):
        """Regression pin: insertion-order eviction would fail this."""
        cache = CachingPadSource(Blake2PadSource(KEY), capacity=2)
        cache.pad_block(0, 0, 0)
        cache.pad_block(1, 0, 0)
        cache.pad_block(0, 0, 0)  # touch the oldest insertion
        cache.pad_block(2, 0, 0)
        keys = [tuple(k) for k in cache.state_dict()["block_keys"].tolist()]
        assert len(keys) == 2
        assert any(k[0] == 0 for k in keys)  # A survived its FIFO slot
        assert not any(k[0] == 1 for k in keys)

    def test_line_pad_array_cached(self):
        inner = Blake2PadSource(KEY)
        cache = CachingPadSource(inner, capacity=8)
        first = cache.line_pad_array(5, 6, 64)
        second = cache.line_pad_array(5, 6, 64)
        assert second is first  # same frozen array object on a hit
        assert not first.flags.writeable
        assert first.tobytes() == inner.line_pad(5, 6, 64)

    def test_inner_and_capacity_exposed(self):
        inner = Blake2PadSource(KEY)
        cache = CachingPadSource(inner, capacity=16)
        assert cache.inner is inner
        assert cache.capacity == 16


class TestCrossSourceProperties:
    @given(
        addr=st.integers(min_value=0, max_value=2**32),
        ctr=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_blake2_pads_do_not_collide_across_inputs(self, addr, ctr):
        src = Blake2PadSource(KEY)
        base = src.pad_block(addr, ctr, 0)
        assert src.pad_block(addr, ctr + 1, 0) != base
        assert src.pad_block(addr + 1, ctr, 0) != base
