"""The batched rotation schedule equals the scalar one, write for write.

``rotations(lines)`` hands the runner a whole chunk's HWL rotations in
one call, crossing any number of gap moves or refreshes.  These
properties pin it to the scalar reference: per write, ``rotation(line)``
then ``on_write()``, from any state the leveler can be in.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wear.hwl import HorizontalWearLeveler, NoWearLeveler
from repro.wear.security_refresh import SecurityRefresh, SecurityRefreshHWL
from repro.wear.startgap import StartGap, StartGapReference

LEVELERS = ("hwl", "hwl-hashed", "sr-hwl")


def _build(kind: str, n_lines: int, interval: int, bits: int):
    if kind == "sr-hwl":
        return SecurityRefreshHWL(
            SecurityRefresh(n_lines, interval, seed=n_lines), bits
        )
    return HorizontalWearLeveler(
        StartGap(n_lines, interval), bits, hashed=kind == "hwl-hashed"
    )


def _vwl(leveler):
    return getattr(leveler, "startgap", None) or leveler.refresh


def _same_state(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) for k in a
    )


@st.composite
def schedules(draw):
    """A leveler kind, its geometry, a warm-up and a batch of lines."""
    kind = draw(st.sampled_from(LEVELERS))
    n_lines = draw(st.sampled_from([2, 4, 8, 16]))
    interval = draw(st.integers(min_value=1, max_value=9))
    bits = draw(st.sampled_from([5, 17, 544]))
    warm = draw(st.integers(min_value=0, max_value=200))
    lines = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_lines - 1), max_size=300
        )
    )
    return kind, n_lines, interval, bits, warm, lines


class TestRotationsMatchScalar:
    @given(schedules())
    @settings(max_examples=200, deadline=None)
    def test_one_call_equals_per_write_queries(self, case):
        kind, n_lines, interval, bits, warm, lines = case
        batched = _build(kind, n_lines, interval, bits)
        scalar = _build(kind, n_lines, interval, bits)
        for leveler in (batched, scalar):
            # An arbitrary mid-interval, mid-round starting state.
            for _ in range(warm):
                leveler.on_write()
        got = batched.rotations(np.asarray(lines, dtype=np.int64))
        want = []
        for line in lines:
            want.append(scalar.rotation(line))
            scalar.on_write()
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert _same_state(batched.state_dict(), scalar.state_dict())

    @given(schedules(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_split_calls_equal_one_call(self, case, pieces):
        # The runner's chunk cuts must not matter either.
        kind, n_lines, interval, bits, warm, lines = case
        whole = _build(kind, n_lines, interval, bits)
        split = _build(kind, n_lines, interval, bits)
        _vwl(whole).advance(warm)
        _vwl(split).advance(warm)
        arr = np.asarray(lines, dtype=np.int64)
        got = [split.rotations(part) for part in np.array_split(arr, pieces)]
        assert np.concatenate(got).tolist() == whole.rotations(arr).tolist()
        assert _same_state(whole.state_dict(), split.state_dict())

    def test_triggering_write_keeps_the_old_rotation(self):
        # Interval 3: the third write moves the gap past line 3 (slot 3)
        # but is itself still rotated by Start' = 0.
        hwl = _build("hwl", 4, 3, 10)
        got = hwl.rotations(np.full(5, 3, dtype=np.int64))
        assert got.tolist() == [0, 0, 0, 1, 1]
        assert hwl.startgap.move_writes == 1

    def test_no_wear_leveler_rotates_nothing(self):
        got = NoWearLeveler().rotations(np.arange(7, dtype=np.int64))
        assert got.tolist() == [0] * 7


class TestAdvance:
    @given(
        n_lines=st.sampled_from([2, 4, 8, 16]),
        interval=st.integers(min_value=1, max_value=9),
        warm=st.integers(min_value=0, max_value=200),
        k=st.integers(min_value=0, max_value=400),
        security_refresh=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_advance_equals_k_on_writes(
        self, n_lines, interval, warm, k, security_refresh
    ):
        def build():
            if security_refresh:
                return SecurityRefresh(n_lines, interval, seed=7)
            return StartGap(n_lines, interval)

        jumped, stepped = build(), build()
        for vwl in (jumped, stepped):
            for _ in range(warm):
                vwl.on_write()
        events = jumped.advance(k)
        assert events == sum(stepped.on_write() for _ in range(k))
        assert _same_state(jumped.state_dict(), stepped.state_dict())
        for logical in range(n_lines):
            assert jumped.physical_index(logical) == stepped.physical_index(
                logical
            )

    def test_negative_k_rejected(self):
        for vwl in (StartGap(4), SecurityRefresh(4)):
            with pytest.raises(ValueError, match="advance"):
                vwl.advance(-1)


class TestStartGapMappingAfterJumps:
    @given(
        n_lines=st.integers(min_value=1, max_value=12),
        interval=st.integers(min_value=1, max_value=5),
        jumps=st.lists(st.integers(min_value=0, max_value=60), max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_mapping_matches_explicit_simulation(
        self, n_lines, interval, jumps
    ):
        # The closed-form jump across gap moves and Start wraps lands on
        # the permutation a literal copy-to-gap simulation reaches.
        sg = StartGap(n_lines, gap_write_interval=interval)
        ref = StartGapReference(n_lines, gap_write_interval=interval)
        for k in jumps:
            sg.advance(k)
            for _ in range(k):
                ref.on_write()
            for logical in range(n_lines):
                assert sg.physical_index(logical) == ref.physical_index(
                    logical
                )
