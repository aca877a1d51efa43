"""``CachingPadSource`` against a reference LRU written out in full.

The cache keeps no pads: it counts hits and misses with a C-speed LRU
walk and rebuilds its contents from a log of the requested keys.  These
tests hold it to the plain definition, an ``OrderedDict`` per stream with
pop-and-reinsert recency, on mixed scalar and batch streams of line and
block requests: the returned pads, the hit and miss counts and
``state_dict()`` must match after every step, and a cache restored from
``state_dict()`` must count the rest of a stream as the uninterrupted one.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.pads import AesPadSource, Blake2PadSource, CachingPadSource

KEY = b"pad-oracle-key16"

SOURCES = {"blake2": Blake2PadSource, "aes": AesPadSource}


class ReferenceLru:
    """One ``OrderedDict`` per stream; a hit moves its key to the back."""

    def __init__(self, inner, capacity: int) -> None:
        self.inner, self.capacity = inner, capacity
        self.blocks: OrderedDict = OrderedDict()
        self.lines: OrderedDict = OrderedDict()
        self.hits = self.misses = 0

    def _get(self, cache: OrderedDict, key: tuple, make):
        pad = cache.pop(key, None)
        if pad is None:
            self.misses += 1
            pad = make(*key)
            if len(cache) >= self.capacity:
                cache.popitem(last=False)
        else:
            self.hits += 1
        cache[key] = pad
        return pad

    def pad_block(self, address: int, counter: int, block: int) -> bytes:
        return self._get(
            self.blocks, (address, counter, block), self.inner.pad_block
        )

    def line_pad_array(self, address: int, counter: int, n_bytes: int):
        return self._get(
            self.lines, (address, counter, n_bytes), self.inner.line_pad_array
        )

    def state_dict(self) -> dict:
        return {
            "block_keys": np.array(list(self.blocks), np.int64).reshape(-1, 3),
            "line_keys": np.array(list(self.lines), np.int64).reshape(-1, 3),
            "hits": self.hits,
            "misses": self.misses,
        }


def apply(cache, step) -> np.ndarray:
    """One step of a stream, as the cache under test takes it."""
    kind, payload, n_bytes = step
    if kind == "block":
        return np.frombuffer(cache.pad_block(*payload), np.uint8)
    if kind == "line":
        return np.asarray(cache.line_pad_array(*payload, n_bytes))
    if kind == "blocks":
        keys = np.asarray(payload, np.int64).reshape(-1, 3)
        return cache.pad_blocks_batch(*keys.T)
    addresses, counters = np.asarray(payload, np.int64).reshape(-1, 2).T
    return cache.line_pads_batch(addresses, counters, n_bytes)


def expect(ref: ReferenceLru, step) -> np.ndarray:
    """The same step as sequential lookups in the reference LRU."""
    kind, payload, n_bytes = step
    if kind == "block":
        return np.frombuffer(ref.pad_block(*payload), np.uint8)
    if kind == "line":
        return np.asarray(ref.line_pad_array(*payload, n_bytes))
    if kind == "blocks":
        rows = [np.frombuffer(ref.pad_block(*k), np.uint8) for k in payload]
        return np.array(rows, np.uint8).reshape(-1, 16)
    rows = [ref.line_pad_array(a, c, n_bytes) for a, c in payload]
    return np.array(rows, np.uint8).reshape(-1, n_bytes)


def assert_same_state(cache, ref) -> None:
    assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
    got, want = cache.state_dict(), ref.state_dict()
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


_addr = st.integers(min_value=0, max_value=9)
_ctr = st.integers(min_value=0, max_value=3)
_blk = st.integers(min_value=0, max_value=7)
_width = st.sampled_from([48, 64, 80])
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("block"), st.tuples(_addr, _ctr, _blk), st.just(0)),
        st.tuples(st.just("line"), st.tuples(_addr, _ctr), _width),
        st.tuples(
            st.just("blocks"),
            st.lists(st.tuples(_addr, _ctr, _blk), max_size=40),
            st.just(0),
        ),
        st.tuples(
            st.just("lines"),
            st.lists(st.tuples(_addr, _ctr), max_size=40),
            _width,
        ),
    ),
    max_size=8,
)


@pytest.mark.parametrize("source", sorted(SOURCES))
class TestAgainstReferenceLru:
    @given(capacity=st.integers(min_value=1, max_value=64), steps=_steps)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_step_matches(self, source, capacity, steps):
        inner = SOURCES[source](KEY)
        cache = CachingPadSource(inner, capacity=capacity)
        ref = ReferenceLru(inner, capacity)
        for step in steps:
            got = apply(cache, step)
            assert not got.flags.writeable
            assert np.array_equal(got, expect(ref, step))
            assert_same_state(cache, ref)

    @given(
        capacity=st.integers(min_value=1, max_value=64),
        steps=_steps,
        split=st.integers(min_value=0, max_value=8),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_resume_counts_as_uninterrupted(
        self, source, capacity, steps, split
    ):
        inner = SOURCES[source](KEY)
        whole = CachingPadSource(inner, capacity=capacity)
        first = CachingPadSource(inner, capacity=capacity)
        for step in steps[:split]:
            apply(whole, step)
            apply(first, step)
        resumed = CachingPadSource(inner, capacity=capacity)
        resumed.load_state_dict(first.state_dict())
        for step in steps[split:]:
            assert np.array_equal(apply(resumed, step), apply(whole, step))
        assert (resumed.hits, resumed.misses) == (whole.hits, whole.misses)
        got, want = resumed.state_dict(), whole.state_dict()
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def test_long_mixed_stream_compacts_its_key_log():
    """Streams many times the capacity long, scalar and batch interleaved."""
    rng = np.random.default_rng(7)
    inner = Blake2PadSource(KEY)
    cache = CachingPadSource(inner, capacity=16)
    ref = ReferenceLru(inner, 16)
    for i in range(40):
        n = int(rng.integers(0, 90))
        blocks = [
            tuple(row) for row in rng.integers(0, [40, 3, 8], (n, 3)).tolist()
        ]
        lines = [(a, c) for a, c, _ in blocks]
        for step in (
            ("blocks", blocks, 0),
            ("lines", lines, 64),
            ("block", blocks[0] if blocks else (1, 1, 1), 0),
            ("line", (i % 40, i % 3), 64),
        ):
            assert np.array_equal(apply(cache, step), expect(ref, step))
    assert ref.hits > 0
    assert_same_state(cache, ref)


def test_a_state_that_still_carries_pads_loads():
    """Older checkpoints also stored the cached pads; loading ignores them."""
    whole = CachingPadSource(Blake2PadSource(KEY), capacity=4)
    for address in range(6):
        whole.line_pad_array(address, 0, 64)
        whole.pad_block(address, 0, 1)
    legacy = dict(
        whole.state_dict(),
        block_pads=np.zeros((4, 16), np.uint8),
        line_pads=np.zeros(4 * 64, np.uint8),
    )
    resumed = CachingPadSource(Blake2PadSource(KEY), capacity=4)
    resumed.load_state_dict(legacy)
    for address in (5, 0, 3):
        resumed.line_pad_array(address, 0, 64)
        whole.line_pad_array(address, 0, 64)
    assert (resumed.hits, resumed.misses) == (whole.hits, whole.misses)
    assert resumed.state_dict().keys() == {
        "block_keys", "line_keys", "hits", "misses"
    }
