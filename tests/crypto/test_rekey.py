"""Key-versioning and counter-overflow re-keying tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.crypto.rekey import VersionedPadSource
from repro.schemes import make_scheme
from repro.memory.bitops import bit_flips
from repro.memory.controller import SecureMemoryController
from repro.security.invariants import PadUsageAuditor
from tests.conftest import mutate_words, random_line

KEY = b"rekey-master-016"


class TestVersionedPadSource:
    def test_version_zero_by_default(self):
        pads = VersionedPadSource(KEY)
        assert pads.version_of(0x40) == 0

    def test_bump_changes_the_pad_space(self):
        pads = VersionedPadSource(KEY)
        before = pads.line_pad(0x40, 3, 64)
        pads.bump_version(0x40)
        after = pads.line_pad(0x40, 3, 64)
        assert before != after
        assert 180 <= bit_flips(before, after) <= 330  # avalanche

    def test_versions_are_per_line(self):
        pads = VersionedPadSource(KEY)
        other_before = pads.line_pad(0x80, 3, 64)
        pads.bump_version(0x40)
        assert pads.line_pad(0x80, 3, 64) == other_before

    def test_deterministic_across_instances(self):
        a = VersionedPadSource(KEY)
        b = VersionedPadSource(KEY)
        a.bump_version(1)
        b.bump_version(1)
        assert a.line_pad(1, 5, 64) == b.line_pad(1, 5, 64)

    def test_aes_backend(self):
        pads = VersionedPadSource(KEY, kind="aes")
        assert len(pads.pad_block(0, 0, 0)) == 16

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            VersionedPadSource(b"")


def _versioned_scheme(name: str):
    """``name`` on a versioned source whose line 1 is one version up."""
    pads = VersionedPadSource(KEY)
    pads.bump_version(1)
    return make_scheme(name, pads, epoch_interval=4)


ENCRYPTED = [
    name for name in registry.SCHEMES.names
    if registry.SCHEMES.get(name).factory.requires_pads
]


class TestVersionedBatchCalls:
    """Every encrypted scheme runs its batch kernels on a versioned source."""

    @pytest.mark.parametrize("name", ENCRYPTED)
    def test_batch_matches_scalar(self, name, rng):
        lines = [random_line(rng) for _ in range(3)]
        writes = []
        current = list(lines)
        for _ in range(12):
            addr = rng.randrange(3)
            current[addr] = mutate_words(rng, current[addr], 2)
            writes.append((addr, current[addr]))
        batch, serial = _versioned_scheme(name), _versioned_scheme(name)
        batch.install_batch(
            np.arange(3, dtype=np.int64),
            np.frombuffer(b"".join(lines), np.uint8).reshape(3, -1),
        )
        outcome = batch.write_batch(
            np.asarray([a for a, _ in writes], dtype=np.int64),
            np.frombuffer(b"".join(d for _, d in writes), np.uint8)
            .reshape(len(writes), -1),
        )
        for addr, line in enumerate(lines):
            serial.install(addr, line)
        flips = sum(serial.write(a, d).data_flips for a, d in writes)
        assert int(outcome.data_flips.sum()) == flips
        for addr in range(3):
            b_line, s_line = batch.stored(addr), serial.stored(addr)
            assert np.array_equal(b_line.arr, s_line.arr)
            assert np.array_equal(b_line.meta, s_line.meta)
            assert batch.read(addr) == serial.read(addr) == current[addr]

    @pytest.mark.parametrize(
        "name", [n for n in ENCRYPTED
                 if registry.SCHEMES.get(n).factory.keeps_plain]
    )
    def test_keeps_plain_scheme_restores(self, name, rng):
        lines = [random_line(rng) for _ in range(3)]
        scheme = _versioned_scheme(name)
        for addr, line in enumerate(lines):
            scheme.install(addr, line)
            scheme.write(addr, mutate_words(rng, line, 2))
        expected = [scheme.read(addr) for addr in range(3)]
        restored = _versioned_scheme(name)
        restored.load_state_dict(scheme.state_dict())
        assert [restored.read(addr) for addr in range(3)] == expected
        nxt = mutate_words(rng, expected[1], 2)
        assert restored.write(1, nxt).data_flips == (
            scheme.write(1, nxt).data_flips
        )
        assert restored.read(1) == nxt


class TestControllerRekeying:
    def make(self, counter_bits=4, scheme="deuce"):
        return SecureMemoryController(
            scheme=scheme,
            key=KEY,
            wear_leveling="none",
            counter_bits=counter_bits,
        )

    def test_counter_never_exceeds_width(self, rng):
        mc = self.make(counter_bits=4)
        data = random_line(rng)
        mc.write(0, data)
        for _ in range(100):
            data = mutate_words(rng, data, 2)
            mc.write(0, data)
            assert mc.scheme.stored(0).counter < (1 << 4)

    def test_data_survives_rekeying(self, rng):
        mc = self.make(counter_bits=3)
        data = random_line(rng)
        mc.write(0, data)
        for _ in range(50):
            data = mutate_words(rng, data, 2)
            mc.write(0, data)
            assert mc.read(0) == data
        assert mc.stats.rekeys >= 6  # 50 writes / (2^3 - 1) counter steps

    def test_rekey_cost_accounted(self, rng):
        mc = self.make(counter_bits=3)
        data = random_line(rng)
        mc.write(0, data)
        for _ in range(20):
            data = mutate_words(rng, data, 1)
            mc.write(0, data)
        assert mc.stats.rekeys > 0
        assert mc.stats.rekey_flips > 100 * mc.stats.rekeys  # ~50% per rekey

    def test_no_pad_reuse_across_rekey_cycles(self, rng):
        """The invariant that motivates re-keying, checked mechanically:
        (version, counter) pad spaces never collide even though the raw
        counter values repeat after every re-key."""
        mc = self.make(counter_bits=3, scheme="encr-dcw")
        auditor = PadUsageAuditor()
        data = random_line(rng)
        mc.write(0, data)
        for _ in range(60):
            data = mutate_words(rng, data, 2)
            mc.write(0, data)
            line = mc.scheme.stored(0)
            version = mc._pads.version_of(0)
            # Fold the version into the audited counter namespace.
            auditor.record_encryption(0, (version << 32) | line.counter, data)
        assert auditor.is_clean

    def test_works_with_every_counter_scheme(self, rng):
        for scheme in ("encr-dcw", "encr-fnw", "deuce", "dyndeuce"):
            mc = self.make(counter_bits=3, scheme=scheme)
            data = random_line(rng)
            mc.write(0, data)
            for _ in range(30):
                data = mutate_words(rng, data, 2)
                mc.write(0, data)
                assert mc.read(0) == data, scheme

    def test_counter_bits_validation(self):
        with pytest.raises(ValueError):
            self.make(counter_bits=1)
