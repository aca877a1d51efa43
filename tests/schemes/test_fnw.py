"""Flip-N-Write codec and scheme tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import bitops
from repro.schemes.batch import expand_groups, fnw_encode_runs, group_by_address
from repro.schemes.fnw import EncryptedFNW, FnwCodec, PlainFNW
from tests.conftest import mutate_words, random_line


class TestCodecBasics:
    def test_geometry(self):
        codec = FnwCodec(line_bytes=64, group_bits=16)
        assert codec.n_groups == 32
        assert codec.group_bytes == 2

    def test_encode_decode_round_trip(self, rng):
        codec = FnwCodec()
        stored = random_line(rng)
        flips = codec.fresh_flip_bits()
        target = random_line(rng)
        new_stored, new_flips = codec.encode(stored, flips, target)
        assert codec.decode(new_stored, new_flips) == target

    def test_identical_target_zero_cost(self, rng):
        codec = FnwCodec()
        data = random_line(rng)
        flips = codec.fresh_flip_bits()
        new_stored, new_flips = codec.encode(data, flips, data)
        assert new_stored == data
        assert np.array_equal(new_flips, flips)

    def test_inverts_group_when_cheaper(self):
        codec = FnwCodec(line_bytes=2, group_bits=16)
        stored = b"\xff\xff"
        flips = codec.fresh_flip_bits()
        # Target is all zeros: storing plain costs 16 flips, storing
        # inverted (0xffff) costs 0 data flips + 1 flip-bit.
        new_stored, new_flips = codec.encode(stored, flips, b"\x00\x00")
        assert new_stored == b"\xff\xff"
        assert new_flips[0] == 1
        assert codec.decode(new_stored, new_flips) == b"\x00\x00"

    def test_keeps_plain_when_cheaper(self):
        codec = FnwCodec(line_bytes=2, group_bits=16)
        new_stored, new_flips = codec.encode(
            b"\x00\x00", codec.fresh_flip_bits(), b"\x00\x01"
        )
        assert new_stored == b"\x00\x01"
        assert new_flips[0] == 0

    def test_tie_keeps_current_flip_bit(self):
        codec = FnwCodec(line_bytes=2, group_bits=16)
        # Exactly 8 of 16 bits differ: plain and inverted both cost 8 data
        # flips; keeping flip=0 avoids the metadata flip.
        target = b"\xff\x00"
        new_stored, new_flips = codec.encode(
            b"\x00\x00", codec.fresh_flip_bits(), target
        )
        assert new_flips[0] == 0
        assert new_stored == target


class TestCodecBound:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_flips_per_group_bounded_by_half_plus_flipbit(self, data):
        codec = FnwCodec(line_bytes=8, group_bits=16)
        stored = data.draw(st.binary(min_size=8, max_size=8))
        target = data.draw(st.binary(min_size=8, max_size=8))
        old_flips = np.array(
            data.draw(
                st.lists(st.sampled_from([0, 1]), min_size=4, max_size=4)
            ),
            dtype=np.uint8,
        )
        new_stored, new_flips = codec.encode(stored, old_flips, target)
        for g in range(4):
            data_flips = bitops.bit_flips(
                stored[g * 2: g * 2 + 2], new_stored[g * 2: g * 2 + 2]
            )
            meta = int(old_flips[g] != new_flips[g])
            assert data_flips + meta <= 8 + 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_encode_never_worse_than_plain_store(self, data):
        codec = FnwCodec(line_bytes=4, group_bits=16)
        stored = data.draw(st.binary(min_size=4, max_size=4))
        target = data.draw(st.binary(min_size=4, max_size=4))
        flips = codec.fresh_flip_bits()
        new_stored, new_flips = codec.encode(stored, flips, target)
        cost = bitops.bit_flips(stored, new_stored) + int(
            np.count_nonzero(flips != new_flips)
        )
        assert cost <= bitops.bit_flips(stored, target)


def _nudge(rng, logical: np.ndarray, group_bits: int, kind: int) -> np.ndarray:
    """A new target ``kind``-bits away from ``logical`` in every group.

    ``kind`` < 0 draws a fresh random distance per group instead.
    """
    bits = np.unpackbits(logical).reshape(-1, group_bits)
    for g in range(bits.shape[0]):
        k = kind if kind >= 0 else int(rng.integers(0, group_bits + 1))
        bits[g, rng.choice(group_bits, size=k, replace=False)] ^= 1
    return np.packbits(bits.reshape(-1))


class TestBatchEncoder:
    """``fnw_encode_runs`` == sequential ``FnwCodec.encode_array``."""

    @given(
        group_bits=st.sampled_from([8, 16, 32, 64]),
        n_lines=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_sequential_codec(self, group_bits, n_lines, m, seed):
        rng = np.random.default_rng(seed)
        line_bytes = 16
        codec = FnwCodec(line_bytes, group_bits)
        half = group_bits // 2
        stored = rng.integers(0, 256, (n_lines, line_bytes), dtype=np.uint8)
        flips = rng.integers(0, 2, (n_lines, codec.n_groups), dtype=np.uint8)
        # Repeated addresses: a chunk revisits its few lines many times.
        addresses = rng.integers(0, n_lines, m)
        # Each target sits a chosen distance from the line's current
        # logical image; ``half`` is the exact tie.
        logical = stored ^ expand_groups(flips, codec.group_bytes)
        targets = np.empty((m, line_bytes), dtype=np.uint8)
        for i, a in enumerate(addresses):
            kind = int(rng.choice([half, half, half - 1, half + 1, 0, -1]))
            targets[i] = logical[a] = _nudge(rng, logical[a], group_bits, kind)

        groups = group_by_address(addresses, targets)
        uniq = groups.unique_addresses
        got_stored, got_flips = fnw_encode_runs(
            groups.data, groups.starts, stored[uniq], flips[uniq], group_bits
        )

        want_stored = np.empty_like(targets)
        want_flips = np.empty((m, codec.n_groups), dtype=np.uint8)
        cur_stored, cur_flips = stored.copy(), flips.copy()
        for i, a in enumerate(addresses):
            cur_stored[a], cur_flips[a] = codec.encode_array(
                cur_stored[a], cur_flips[a], targets[i]
            )
            want_stored[i], want_flips[i] = cur_stored[a], cur_flips[a]
        assert np.array_equal(got_stored, want_stored[groups.order])
        assert np.array_equal(got_flips, want_flips[groups.order])

    @pytest.mark.parametrize("group_bits", [8, 16, 32, 64])
    @pytest.mark.parametrize("old_flip", [0, 1])
    def test_half_distance_keeps_flip_bit(self, group_bits, old_flip):
        codec = FnwCodec(group_bits // 8, group_bits)
        rng = np.random.default_rng(group_bits)
        stored = rng.integers(0, 256, (1, codec.line_bytes), dtype=np.uint8)
        flips = np.array([[old_flip]], dtype=np.uint8)
        logical = stored[0] ^ expand_groups(flips, codec.group_bytes)[0]
        tie = _nudge(rng, logical, group_bits, group_bits // 2)
        over = _nudge(rng, tie, group_bits, group_bits // 2 + 1)
        got_stored, got_flips = fnw_encode_runs(
            np.stack([tie, over]), np.array([0]), stored, flips, group_bits
        )
        assert got_flips[:, 0].tolist() == [old_flip, 1 - old_flip]
        want, want_flip = codec.encode_array(stored[0], flips[0], tie)
        assert np.array_equal(got_stored[0], want)
        assert got_flips[0, 0] == want_flip[0]


class TestCodecValidation:
    def test_group_bits_multiple_of_eight(self):
        with pytest.raises(ValueError):
            FnwCodec(group_bits=12)

    def test_group_bits_divides_line(self):
        with pytest.raises(ValueError):
            FnwCodec(line_bytes=6, group_bits=32)

    def test_wrong_flip_bit_count(self):
        codec = FnwCodec(line_bytes=4, group_bits=16)
        with pytest.raises(ValueError, match="flip bits"):
            codec.encode(bytes(4), np.zeros(3, dtype=np.uint8), bytes(4))

    def test_wrong_line_size(self):
        codec = FnwCodec(line_bytes=4, group_bits=16)
        with pytest.raises(ValueError):
            codec.encode(bytes(6), codec.fresh_flip_bits(), bytes(6))


class TestPlainFNW:
    def test_round_trip(self, rng):
        scheme = PlainFNW()
        data = random_line(rng)
        scheme.install(0, data)
        new = mutate_words(rng, data, 3)
        scheme.write(0, new)
        assert scheme.read(0) == new

    def test_overhead_is_one_bit_per_group(self):
        assert PlainFNW().metadata_bits_per_line == 32
        assert PlainFNW(group_bits=8).metadata_bits_per_line == 64

    def test_fnw_never_flips_more_than_dcw_raw_diff(self, rng):
        scheme = PlainFNW()
        data = random_line(rng)
        scheme.install(0, data)
        for _ in range(20):
            new = mutate_words(rng, data, 4)
            raw = bitops.bit_flips(scheme.stored(0).data, new)
            out = scheme.write(0, new)
            # Codec optimality: total cost cannot exceed the plain store.
            assert out.total_flips <= raw
            data = new


class TestEncryptedFNW:
    def test_round_trip(self, pads, rng):
        scheme = EncryptedFNW(pads)
        data = random_line(rng)
        scheme.install(0, data)
        for _ in range(5):
            data = mutate_words(rng, data, 2)
            scheme.write(0, data)
            assert scheme.read(0) == data

    def test_flip_rate_near_43_percent(self, pads, rng):
        scheme = EncryptedFNW(pads)
        data = random_line(rng)
        scheme.install(0, data)
        total = 0
        n = 300
        for _ in range(n):
            data = mutate_words(rng, data, 1)
            total += scheme.write(0, data).total_flips
        rate = total / n / 512
        assert 0.40 <= rate <= 0.46  # paper: 43%

    def test_every_write_reencrypts_fully(self, pads, rng):
        scheme = EncryptedFNW(pads)
        data = random_line(rng)
        scheme.install(0, data)
        out = scheme.write(0, data)  # even an identical writeback
        assert out.full_line_reencrypted
        assert out.total_flips > 100  # avalanche: ~43% of 512
