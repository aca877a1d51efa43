"""Microbenchmarks of the hot kernels (true pytest-benchmark usage).

These measure throughput of the pieces the paper experiments spend their
time in: AES blocks, BLAKE2 line pads, FNW encoding, and single DEUCE
writes.
"""

import random

from repro.crypto.aes import AES
from repro.crypto.pads import AesPadSource, Blake2PadSource
from repro.schemes.deuce import Deuce
from repro.schemes.fnw import FnwCodec

KEY = b"microbench-key16"


def test_aes_block_encrypt(benchmark):
    cipher = AES(KEY)
    block = bytes(range(16))
    out = benchmark(cipher.encrypt_block, block)
    assert len(out) == 16


def test_blake2_line_pad(benchmark):
    pads = Blake2PadSource(KEY)
    counter = iter(range(10**9))
    out = benchmark(lambda: pads.line_pad(0x40, next(counter), 64))
    assert len(out) == 64


def test_aes_line_pad(benchmark):
    pads = AesPadSource(KEY)
    counter = iter(range(10**9))
    out = benchmark(lambda: pads.line_pad(0x40, next(counter), 64))
    assert len(out) == 64


def test_fnw_encode(benchmark):
    rng = random.Random(0)
    codec = FnwCodec()
    stored = bytes(rng.randrange(256) for _ in range(64))
    target = bytes(rng.randrange(256) for _ in range(64))
    flips = codec.fresh_flip_bits()
    stored_out, _ = benchmark(codec.encode, stored, flips, target)
    assert len(stored_out) == 64


def test_deuce_write(benchmark):
    rng = random.Random(0)
    scheme = Deuce(Blake2PadSource(KEY), epoch_interval=32)
    data = bytes(rng.randrange(256) for _ in range(64))
    scheme.install(0, data)

    def one_write():
        ba = bytearray(scheme.read(0))
        ba[rng.randrange(64)] ^= rng.randrange(1, 256)
        return scheme.write(0, bytes(ba))

    out = benchmark(one_write)
    assert out.total_flips >= 0
