"""``CachingPadSource`` keys at the edges of the packed-int LRU key.

The cache's LRUs key a request by one ``int`` packed from (address,
counter, block or width) when they fit 31, 24 and 8 bits, and by a tuple
otherwise.  These tests mix both kinds in one stream, with keys on either
side of every boundary, numpy ``int64`` arguments to the scalar calls and
key logs too wide to pack into one int64 when they are compacted.  The
hit and miss counts and ``state_dict()`` must match an ``OrderedDict``
LRU after every step, and a cache restored from ``state_dict()`` must
count the rest of a stream as the uninterrupted one does.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.pads import Blake2PadSource, CachingPadSource

KEY = b"pad-packed-key16"

#: Values on both sides of each packed field's width, and far past it.
_addr = st.sampled_from([0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**40])
_ctr = st.sampled_from([0, 1, 2**24 - 1, 2**24, 2**24 + 1, 2**50])
_blk = st.sampled_from([0, 3, 255, 256, 257])
_width = st.sampled_from([64, 255, 256, 320])

_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("block"), st.tuples(_addr, _ctr, _blk), st.just(0),
            st.booleans(),
        ),
        st.tuples(
            st.just("line"), st.tuples(_addr, _ctr), _width, st.booleans()
        ),
        st.tuples(
            st.sampled_from(["blocks", "count_blocks"]),
            st.lists(st.tuples(_addr, _ctr, _blk), max_size=12),
            st.just(0),
            st.just(False),
        ),
        st.tuples(
            st.sampled_from(["lines", "count_lines"]),
            st.lists(st.tuples(_addr, _ctr), max_size=12),
            _width,
            st.just(False),
        ),
    ),
    max_size=10,
)


class ReferenceLru:
    """One ``OrderedDict`` of keys per stream; a hit moves its key last."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.streams = {"block": OrderedDict(), "line": OrderedDict()}
        self.hits = self.misses = 0

    def request(self, stream: str, key: tuple[int, int, int]) -> None:
        cache = self.streams[stream]
        if key in cache:
            self.hits += 1
            cache.move_to_end(key)
            return
        self.misses += 1
        if len(cache) >= self.capacity:
            cache.popitem(last=False)
        cache[key] = None

    def keys(self, stream: str) -> np.ndarray:
        return np.array(list(self.streams[stream]), np.int64).reshape(-1, 3)


def apply(cache: CachingPadSource, step, ref: ReferenceLru | None = None):
    """Send one step to the cache, and the same lookups to ``ref``."""
    kind, payload, n_bytes, numpy_args = step
    request = ref.request if ref is not None else lambda stream, key: None
    if kind in ("block", "line"):
        args = (*payload, n_bytes) if kind == "line" else payload
        request(kind, tuple(args))
        if numpy_args:
            args = tuple(np.int64(v) for v in args)
        call = cache.pad_block if kind == "block" else cache.line_pad_array
        call(*args)
        return
    if kind in ("blocks", "count_blocks"):
        for key in payload:
            request("block", key)
        columns = np.asarray(payload, np.int64).reshape(-1, 3).T
        call = cache.pad_blocks_batch if kind == "blocks" else (
            cache.count_pad_blocks
        )
        call(*columns)
        return
    for address, counter in payload:
        request("line", (address, counter, n_bytes))
    columns = np.asarray(payload, np.int64).reshape(-1, 2).T
    call = cache.line_pads_batch if kind == "lines" else cache.count_line_pads
    call(*columns, n_bytes)


def assert_same_counts(cache: CachingPadSource, ref: ReferenceLru) -> None:
    assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
    state = cache.state_dict()
    assert np.array_equal(state["block_keys"], ref.keys("block"))
    assert np.array_equal(state["line_keys"], ref.keys("line"))


@given(capacity=st.integers(min_value=1, max_value=8), steps=_steps)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_packed_and_wide_keys_match_reference(capacity, steps):
    cache = CachingPadSource(Blake2PadSource(KEY), capacity=capacity)
    ref = ReferenceLru(capacity)
    for step in steps:
        apply(cache, step, ref)
        assert_same_counts(cache, ref)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    steps=_steps,
    split=st.integers(min_value=0, max_value=10),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_resume_counts_as_uninterrupted(capacity, steps, split):
    inner = Blake2PadSource(KEY)
    whole = CachingPadSource(inner, capacity=capacity)
    first = CachingPadSource(inner, capacity=capacity)
    for step in steps[:split]:
        apply(whole, step)
        apply(first, step)
    resumed = CachingPadSource(inner, capacity=capacity)
    resumed.load_state_dict(first.state_dict())
    for step in steps[split:]:
        apply(whole, step)
        apply(resumed, step)
    assert (resumed.hits, resumed.misses) == (whole.hits, whole.misses)
    got, want = resumed.state_dict(), whole.state_dict()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_keys_that_would_alias_when_packed_stay_apart():
    # Packed without the width checks, (0, 2**24, 0) and (1, 0, 0) would
    # both be 2**32, and (0, 0, 256) would be (0, 1, 0).
    cache = CachingPadSource(Blake2PadSource(KEY), capacity=16)
    for key in [(0, 2**24, 0), (1, 0, 0), (0, 0, 256), (0, 1, 0)]:
        cache.pad_block(*key)
    assert (cache.hits, cache.misses) == (0, 4)
    cache.pad_block(np.int64(0), np.int64(2**24), np.int64(0))
    cache.pad_block(np.int64(1), np.int64(0), np.int64(0))
    assert (cache.hits, cache.misses) == (2, 4)
    cache.count_pad_blocks(
        np.array([0, 0], np.int64),
        np.array([0, 1], np.int64),
        np.array([256, 0], np.int64),
    )
    assert (cache.hits, cache.misses) == (4, 4)


def test_numpy_scalar_hits_the_int_key():
    # A scalar request with numpy arguments is the same key as a batch row.
    cache = CachingPadSource(Blake2PadSource(KEY), capacity=4)
    cache.count_line_pads(
        np.array([5], np.int64), np.array([9], np.int64), 64
    )
    pad = cache.line_pad_array(np.int64(5), np.int64(9), np.int64(64))
    assert (cache.hits, cache.misses) == (1, 1)
    assert np.array_equal(pad, Blake2PadSource(KEY).line_pad_array(5, 9, 64))
