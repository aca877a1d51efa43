"""PCM array tests: write-slot accounting and per-bit wear tracking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.pcm import SLOT_BITS, PcmArray, slots_for_batch_diffs
from repro.schemes.base import WriteOutcome
from repro.schemes.batch import BatchOutcome


def outcome(address=0, data_positions=(), meta_positions=()):
    dp = np.array(data_positions, dtype=np.int64)
    mp = np.array(meta_positions, dtype=np.int64)
    return WriteOutcome(
        address=address,
        data_flips=len(dp),
        metadata_flips=len(mp),
        flipped_data_positions=dp,
        flipped_meta_positions=mp,
    )


def as_batch(*outcomes, line_bytes=64, meta_bits=32):
    return BatchOutcome.from_outcomes(
        outcomes, len(outcomes), line_bytes, meta_bits
    )


def slots_for_positions(positions, line_bits=512):
    """Slots of one write whose flips sit at ``positions`` of the line
    image (metadata bit ``j`` at ``line_bits + j``)."""
    data = [p for p in positions if p < line_bits]
    meta = [p - line_bits for p in positions if p >= line_bits]
    out = outcome(data_positions=data, meta_positions=meta)
    return slots_for_write(out, line_bits)


def slots_for_write(out, line_bits=512):
    batch = as_batch(out)
    return int(
        slots_for_batch_diffs(batch.data_diff, batch.meta_diff, line_bits)[0]
    )


class TestSlotsForPositions:
    def test_no_flips_no_slots(self):
        assert slots_for_positions([]) == 0

    def test_single_flip_one_slot(self):
        assert slots_for_positions([5]) == 1

    def test_flips_in_one_region(self):
        assert slots_for_positions([0, 64, 127]) == 1

    def test_flips_spanning_regions(self):
        assert slots_for_positions([0, 128, 256, 384]) == 4

    def test_region_boundary(self):
        assert slots_for_positions([127, 128]) == 2

    def test_metadata_positions_fold_into_last_region(self):
        # Positions beyond the data bits ride with the last region.
        assert slots_for_positions([512, 520]) == 1
        assert slots_for_positions([384, 520]) == 1

    def test_one_count_per_row_of_a_chunk(self):
        batch = as_batch(
            outcome(data_positions=[127, 128]),
            outcome(),
            outcome(data_positions=[0, 128, 256, 384], meta_positions=[3]),
            outcome(meta_positions=[0]),
        )
        slots = slots_for_batch_diffs(batch.data_diff, batch.meta_diff, 512)
        assert slots.tolist() == [2, 0, 4, 1]

    def test_slot_bits_must_be_byte_aligned(self):
        batch = as_batch(outcome(data_positions=[0]))
        with pytest.raises(ValueError, match="multiple of 8"):
            slots_for_batch_diffs(batch.data_diff, batch.meta_diff, 512, 100)


class TestSlotsForWrite:
    def test_combines_data_and_meta(self):
        out = outcome(data_positions=[0], meta_positions=[3])
        # data in region 0, meta rides region 3 -> 2 slots
        assert slots_for_write(out, 512) == 2

    def test_meta_only_write(self):
        out = outcome(meta_positions=[0, 1])
        assert slots_for_write(out, 512) == 1

    def test_encrypted_line_uses_all_slots(self):
        out = outcome(data_positions=list(range(0, 512, 2)))
        assert slots_for_write(out, 512) == 4


class TestPcmArray:
    """Wear accounting through the scalar ``apply_write``."""

    @staticmethod
    def apply(pcm, out, rotation=0):
        pcm.apply_write(out, rotation=rotation)
    def test_wear_accumulates_positions(self):
        pcm = PcmArray(line_bytes=64, meta_bits=0)
        self.apply(pcm, outcome(address=1, data_positions=[0, 5]))
        self.apply(pcm, outcome(address=1, data_positions=[5]))
        assert pcm.position_writes[0] == 1
        assert pcm.position_writes[5] == 2
        assert pcm.total_writes == 2
        assert pcm.total_flips == 3

    def test_meta_positions_offset_past_data(self):
        pcm = PcmArray(line_bytes=64, meta_bits=32)
        self.apply(pcm, outcome(address=0, meta_positions=[0]))
        assert pcm.position_writes[512] == 1

    def test_rotation_moves_positions(self):
        pcm = PcmArray(line_bytes=64, meta_bits=0)
        self.apply(pcm, outcome(address=0, data_positions=[0]), rotation=10)
        assert pcm.position_writes[10] == 1
        assert pcm.position_writes[0] == 0

    def test_rotation_wraps(self):
        pcm = PcmArray(line_bytes=64, meta_bits=32)
        # Metadata bit 28 is cell 540 of the 544-bit line.
        self.apply(pcm, outcome(address=0, meta_positions=[28]), rotation=10)
        assert pcm.position_writes[(540 + 10) % 544] == 1

    def test_per_line_wear(self):
        pcm = PcmArray(line_bytes=64, meta_bits=0, track_per_line=True)
        self.apply(pcm, outcome(address=7, data_positions=[3, 4]))
        wear = pcm.line_wear(7)
        assert wear[3] == 1
        assert wear[4] == 1
        assert pcm.line_wear(99).sum() == 0

    def test_per_line_disabled_raises(self):
        pcm = PcmArray(track_per_line=False)
        with pytest.raises(RuntimeError):
            pcm.line_wear(0)

    def test_summary_max_over_mean(self):
        pcm = PcmArray(line_bytes=64, meta_bits=0)
        for _ in range(4):
            self.apply(pcm, outcome(address=0, data_positions=[9]))
        summary = pcm.summary()
        assert summary.max_line_bit_writes == 4
        assert summary.max_over_mean == pytest.approx(4 / (4 / 512))

    def test_summary_empty(self):
        summary = PcmArray().summary()
        assert summary.total_writes == 0
        assert summary.max_over_mean == 0.0

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            PcmArray(line_bytes=0)
        with pytest.raises(ValueError):
            PcmArray(meta_bits=-1)

    def test_slot_bits_constant(self):
        assert SLOT_BITS == 128


class TestPcmArrayBatchDiffs(TestPcmArray):
    """The same cases through ``apply_batch_diffs``, one-row chunks."""

    @staticmethod
    def apply(pcm, out, rotation=0):
        batch = as_batch(out, meta_bits=pcm.meta_bits)
        pcm.apply_batch_diffs(
            batch.addresses, batch.data_diff, batch.meta_diff,
            rotations=np.array([rotation]),
        )


@st.composite
def chunks(draw):
    """A random chunk: addresses with repeats, flips, rotations."""
    m = draw(st.integers(1, 24))
    meta_bits = draw(st.sampled_from([0, 1, 7, 32]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, draw(st.integers(1, 6)), m) * 64
    density = draw(st.sampled_from([0.0, 0.02, 0.5]))
    data_bits = rng.random((m, 512)) < density
    meta = rng.random((m, meta_bits)) < density
    rotated = draw(st.booleans())
    rotations = (
        rng.integers(0, 3 * (512 + meta_bits), m) if rotated else None
    )
    outcomes = [
        outcome(
            address=int(addresses[i]),
            data_positions=np.flatnonzero(data_bits[i]),
            meta_positions=np.flatnonzero(meta[i]),
        )
        for i in range(m)
    ]
    return outcomes, meta_bits, rotations


@given(chunk=chunks(), track_per_line=st.booleans())
@settings(max_examples=150, deadline=None)
def test_apply_batch_diffs_equals_sequential_apply_write(chunk, track_per_line):
    outcomes, meta_bits, rotations = chunk
    sequential = PcmArray(64, meta_bits, track_per_line=track_per_line)
    flips = 0
    for i, out in enumerate(outcomes):
        rotation = 0 if rotations is None else int(rotations[i])
        flips += sequential.apply_write(out, rotation=rotation)
    batched = PcmArray(64, meta_bits, track_per_line=track_per_line)
    batch = as_batch(*outcomes, meta_bits=meta_bits)
    assert batched.apply_batch_diffs(
        batch.addresses, batch.data_diff, batch.meta_diff,
        rotations=rotations,
    ) == flips
    assert np.array_equal(batched.position_writes, sequential.position_writes)
    assert batched.total_writes == sequential.total_writes == len(outcomes)
    assert batched.total_flips == sequential.total_flips == flips
    if track_per_line:
        for address in {out.address for out in outcomes}:
            assert np.array_equal(
                batched.line_wear(address), sequential.line_wear(address)
            )
        assert (
            batched.summary().max_line_bit_writes
            == sequential.summary().max_line_bit_writes
        )
