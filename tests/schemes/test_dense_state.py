"""The line table stays consistent between batch and serial paths.

Every scheme keeps its line state in one
:class:`repro.schemes.base.LineTable`, which the batch kernels gather and
scatter by row and the serial ``write``/``read``/``stored`` paths read and
write row by row.  These tests interleave batch and serial operations
every way the runner can, for every registered scheme, and check the
scheme never observes stale or diverged state: a batch-driven scheme and
a write-by-write twin must agree on reads, stored images, outcomes, and
``state_dict`` snapshots at every switchover point.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import registry
from repro.crypto.pads import Blake2PadSource
from repro.schemes import make_scheme
from repro.schemes.base import WriteScheme

KEY = b"dense-state-k-16"
LINE = 64


def _every_scheme(check):
    """One test that runs ``check(self, name, rng)`` for every registered
    scheme, naming the scheme a failure came from."""

    def test(self, rng):
        for name in registry.SCHEMES.names:
            try:
                check(self, name, rng)
            except AssertionError as exc:
                raise AssertionError(f"scheme {name!r}: {exc}") from exc

    return test


def _scheme(name: str) -> WriteScheme:
    return make_scheme(
        name, Blake2PadSource(KEY), line_bytes=LINE, epoch_interval=4
    )


def _rand_lines(rng: random.Random, n: int) -> list[bytes]:
    return [bytes(rng.randrange(256) for _ in range(LINE)) for _ in range(n)]


def _mutate(rng: random.Random, line: bytes) -> bytes:
    data = bytearray(line)
    for _ in range(rng.randrange(1, 4)):
        data[rng.randrange(LINE)] ^= rng.randrange(1, 256)
    return bytes(data)


def _install_batch(scheme: WriteScheme, lines: list[bytes]) -> None:
    scheme.install_batch(
        np.arange(len(lines), dtype=np.int64),
        np.frombuffer(b"".join(lines), np.uint8).reshape(len(lines), LINE),
    )


def _assert_same_state(
    batch: WriteScheme, serial: WriteScheme, n_lines: int
) -> None:
    assert batch.addresses() == serial.addresses()
    for addr in range(n_lines):
        assert batch.read(addr) == serial.read(addr)
        b_line, s_line = batch.stored(addr), serial.stored(addr)
        assert np.array_equal(b_line.arr, s_line.arr)
        assert np.array_equal(b_line.meta, s_line.meta)
        assert b_line.counter == s_line.counter
    b_state, s_state = batch.state_dict(), serial.state_dict()
    assert b_state.keys() == s_state.keys()
    for key, value in b_state.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, s_state[key]), key
        else:
            assert value == s_state[key], key


class TestBatchThenSerialAccess:
    @_every_scheme
    def test_install_batch_then_read(self, name, rng):
        lines = _rand_lines(rng, 5)
        scheme = _scheme(name)
        _install_batch(scheme, lines)
        for addr, line in enumerate(lines):
            assert scheme.read(addr) == line

    @_every_scheme
    def test_batch_writes_visible_to_serial_accessors(self, name, rng):
        lines = _rand_lines(rng, 4)
        batch, serial = _scheme(name), _scheme(name)
        _install_batch(batch, lines)
        for addr, line in enumerate(lines):
            serial.install(addr, line)
        writes = []
        current = dict(enumerate(lines))
        for _ in range(24):
            addr = rng.randrange(4)
            current[addr] = _mutate(rng, current[addr])
            writes.append((addr, current[addr]))
        outcome = batch.write_batch(
            np.asarray([a for a, _ in writes], dtype=np.int64),
            np.frombuffer(
                b"".join(d for _, d in writes), np.uint8
            ).reshape(len(writes), LINE),
        )
        serial_outcomes = [serial.write(a, d) for a, d in writes]
        _assert_same_state(batch, serial, 4)
        # Outcomes agree write for write (batch rows are address-sorted).
        order = np.argsort(
            np.asarray([a for a, _ in writes]), kind="stable"
        )
        assert outcome.data_flips.sum() == sum(
            o.data_flips for o in serial_outcomes
        )
        by_row = outcome.words_reencrypted[np.argsort(order, kind="stable")]
        assert list(by_row) == [
            o.words_reencrypted for o in serial_outcomes
        ]

    @_every_scheme
    def test_serial_write_after_batch_then_batch_again(self, name, rng):
        lines = _rand_lines(rng, 3)
        batch, serial = _scheme(name), _scheme(name)
        _install_batch(batch, lines)
        for addr, line in enumerate(lines):
            serial.install(addr, line)
        current = dict(enumerate(lines))

        def step_batch(writes):
            batch.write_batch(
                np.asarray([a for a, _ in writes], dtype=np.int64),
                np.frombuffer(
                    b"".join(d for _, d in writes), np.uint8
                ).reshape(len(writes), LINE),
            )
            for a, d in writes:
                serial.write(a, d)

        # batch -> serial mutation -> batch again
        first = []
        for _ in range(8):
            addr = rng.randrange(3)
            current[addr] = _mutate(rng, current[addr])
            first.append((addr, current[addr]))
        step_batch(first)
        current[1] = _mutate(rng, current[1])
        batch.write(1, current[1])
        serial.write(1, current[1])
        second = []
        for _ in range(8):
            addr = rng.randrange(3)
            current[addr] = _mutate(rng, current[addr])
            second.append((addr, current[addr]))
        step_batch(second)
        _assert_same_state(batch, serial, 3)

    @_every_scheme
    def test_reinstall_after_batch_falls_back(self, name, rng):
        # install() over a batch-installed line keeps its row, takes the
        # new value and leaves the other rows alone.
        lines = _rand_lines(rng, 3)
        scheme = _scheme(name)
        _install_batch(scheme, lines)
        replacement = _rand_lines(rng, 1)[0]
        scheme.install(1, replacement)
        assert scheme.read(1) == replacement
        assert scheme.read(0) == lines[0]
        assert scheme.stored(1).counter == 0


class TestStateDictRoundtrip:
    @_every_scheme
    def test_snapshot_restore_continue(self, name, rng):
        lines = _rand_lines(rng, 4)
        batch, serial = _scheme(name), _scheme(name)
        _install_batch(batch, lines)
        for addr, line in enumerate(lines):
            serial.install(addr, line)
        current = dict(enumerate(lines))
        writes = []
        for _ in range(16):
            addr = rng.randrange(4)
            current[addr] = _mutate(rng, current[addr])
            writes.append((addr, current[addr]))
        batch.write_batch(
            np.asarray([a for a, _ in writes], dtype=np.int64),
            np.frombuffer(
                b"".join(d for _, d in writes), np.uint8
            ).reshape(len(writes), LINE),
        )
        for a, d in writes:
            serial.write(a, d)
        # Restore the batch scheme's snapshot into a fresh instance and
        # keep writing through the batch path: still identical.
        restored = _scheme(name)
        restored.load_state_dict(batch.state_dict())
        more = []
        for _ in range(12):
            addr = rng.randrange(4)
            current[addr] = _mutate(rng, current[addr])
            more.append((addr, current[addr]))
        restored.write_batch(
            np.asarray([a for a, _ in more], dtype=np.int64),
            np.frombuffer(
                b"".join(d for _, d in more), np.uint8
            ).reshape(len(more), LINE),
        )
        for a, d in more:
            serial.write(a, d)
        _assert_same_state(restored, serial, 4)

    @_every_scheme
    def test_write_batch_unknown_address_raises(self, name, rng):
        scheme = _scheme(name)
        _install_batch(scheme, _rand_lines(rng, 2))
        with pytest.raises(KeyError, match="line 0x7 was never installed"):
            scheme.write_batch(
                np.asarray([0, 7], dtype=np.int64),
                np.zeros((2, LINE), dtype=np.uint8),
            )
