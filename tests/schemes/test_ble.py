"""Block-Level Encryption tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.schemes.ble import BlockLevelEncryption
from tests.conftest import mutate_words, random_line


class TestRoundTrip:
    def test_basic(self, pads, rng):
        scheme = BlockLevelEncryption(pads)
        data = random_line(rng)
        scheme.install(0, data)
        for _ in range(10):
            data = mutate_words(rng, data, 2)
            scheme.write(0, data)
            assert scheme.read(0) == data

    def test_with_aes(self, aes_pads, rng):
        scheme = BlockLevelEncryption(aes_pads)
        data = random_line(rng)
        scheme.install(0, data)
        data = mutate_words(rng, data, 1)
        scheme.write(0, data)
        assert scheme.read(0) == data


class TestBlockCounters:
    def test_only_modified_blocks_increment(self, pads, rng):
        scheme = BlockLevelEncryption(pads)
        data = random_line(rng)
        scheme.install(0, data)
        # Modify one byte in block 2 only.
        ba = bytearray(data)
        ba[36] ^= 0xFF
        out = scheme.write(0, bytes(ba))
        assert scheme.block_counters(0) == [0, 0, 1, 0]
        assert out.words_reencrypted == 1  # one block

    def test_unmodified_blocks_keep_ciphertext(self, pads, rng):
        scheme = BlockLevelEncryption(pads)
        data = random_line(rng)
        scheme.install(0, data)
        before = scheme.stored(0).data
        ba = bytearray(data)
        ba[0] ^= 1
        scheme.write(0, bytes(ba))
        after = scheme.stored(0).data
        assert before[16:] == after[16:]

    def test_whole_block_reencrypted_for_one_bit(self, pads, rng):
        """BLE's coarseness: a 1-bit change flips ~half of 128 bits."""
        scheme = BlockLevelEncryption(pads)
        data = random_line(rng)
        scheme.install(0, data)
        total = 0
        n = 100
        for _ in range(n):
            ba = bytearray(data)
            ba[5] ^= 1
            data = bytes(ba)
            total += scheme.write(0, data).total_flips
        avg = total / n
        assert 50 <= avg <= 78  # ~64 flips = half of one AES block

    def test_identical_write_touches_nothing(self, pads, rng):
        scheme = BlockLevelEncryption(pads)
        data = random_line(rng)
        scheme.install(0, data)
        out = scheme.write(0, data)
        assert out.total_flips == 0
        assert scheme.block_counters(0) == [0, 0, 0, 0]


class TestGeometry:
    def test_four_blocks_per_line(self, pads):
        assert BlockLevelEncryption(pads).n_blocks == 4

    def test_line_must_be_whole_blocks(self, pads):
        with pytest.raises(ValueError):
            BlockLevelEncryption(pads, line_bytes=40)

    def test_no_metadata_overhead(self, pads):
        assert BlockLevelEncryption(pads).metadata_bits_per_line == 0


class TestCheckpointFormat:
    """Both per-block-counter schemes keep the checkpoint layout: the line
    arrays plus ``extra/block_addresses`` and ``extra/block_counters``."""

    @pytest.mark.parametrize("name", ["ble", "ble+deuce"])
    def test_saved_layout_loads_and_decrypts(self, pads, rng, name):
        from repro.schemes.ble_deuce import BleDeuce

        cls = BlockLevelEncryption if name == "ble" else BleDeuce
        scheme = cls(pads)
        counters = [[3, 0, 5, 1], [0, 0, 0, 0]]
        addresses = np.array([0x40, 0x80], dtype=np.int64)
        plain = [random_line(rng) for _ in addresses]
        data = np.empty((2, 64), dtype=np.uint8)
        for i, addr in enumerate(addresses.tolist()):
            # Nothing modified mid-epoch: every block sits under its own
            # counter (BLE) or its epoch-start counter (BLE+DEUCE, 0 here).
            pad = b"".join(
                pads.pad_block(addr, ctr if name == "ble" else 0, b)
                for b, ctr in enumerate(counters[i])
            )
            data[i] = np.frombuffer(
                bytes(x ^ y for x, y in zip(plain[i], pad)), dtype=np.uint8
            )
        state = {
            "lines/addresses": addresses,
            "lines/counters": np.array([9, 0], dtype=np.int64),
            "lines/data": data,
            "lines/meta": np.zeros(
                (2, scheme.metadata_bits_per_line), dtype=np.uint8
            ),
            "extra/block_addresses": addresses,
            "extra/block_counters": np.array(counters, dtype=np.int64),
        }
        scheme.load_state_dict(state)
        assert [scheme.read(a) for a in addresses.tolist()] == plain
        assert scheme.block_counters(0x40) == counters[0]
        saved = scheme.state_dict()
        assert saved.keys() == state.keys()
        for key, value in state.items():
            assert np.array_equal(saved[key], value), key
