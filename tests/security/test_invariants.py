"""Pad-uniqueness auditing tests — the DEUCE security argument (4.3.5)."""

from __future__ import annotations

from repro.schemes.deuce import Deuce
from repro.security.invariants import PadUsageAuditor, audit_deuce_write_path
from repro.workloads.generator import WriteRecord
from tests.conftest import mutate_words, random_line


class TestAuditor:
    def test_clean_on_distinct_counters(self):
        auditor = PadUsageAuditor()
        auditor.record_encryption(0, 1, b"ab")
        auditor.record_encryption(0, 2, b"cd")
        assert auditor.is_clean

    def test_same_data_same_pad_is_allowed(self):
        # Leaving an unmodified word in place is not pad reuse.
        auditor = PadUsageAuditor()
        auditor.record_encryption(0, 1, b"ab")
        auditor.record_encryption(0, 1, b"ab")
        assert auditor.is_clean

    def test_detects_reuse_with_different_data(self):
        auditor = PadUsageAuditor()
        auditor.record_encryption(0, 1, b"ab")
        auditor.record_encryption(0, 1, b"xb")
        assert not auditor.is_clean
        violation = auditor.violations[0]
        assert violation.counter == 1
        assert violation.offset == 0
        assert (violation.first_plaintext, violation.second_plaintext) == (
            ord("a"),
            ord("x"),
        )

    def test_offset_distinguishes_words(self):
        auditor = PadUsageAuditor()
        auditor.record_encryption(0, 1, b"ab", offset=0)
        auditor.record_encryption(0, 1, b"cd", offset=2)
        assert auditor.is_clean

    def test_addresses_are_independent(self):
        auditor = PadUsageAuditor()
        auditor.record_encryption(0, 1, b"ab")
        auditor.record_encryption(1, 1, b"cd")
        assert auditor.is_clean
        assert auditor.n_uses == 4


class TestDeuceNeverReusesPads:
    def test_sparse_write_stream(self, pads, rng):
        scheme = Deuce(pads, epoch_interval=4)
        data = random_line(rng)
        scheme.install(0, data)
        records = []
        for _ in range(50):
            data = mutate_words(rng, data, 2)
            records.append(WriteRecord(0, data))
        auditor = audit_deuce_write_path(scheme, records)
        assert auditor.is_clean, auditor.violations[:3]

    def test_dense_write_stream(self, pads, rng):
        scheme = Deuce(pads, epoch_interval=8)
        data = random_line(rng)
        scheme.install(0, data)
        records = []
        for _ in range(40):
            data = mutate_words(rng, data, 32)
            records.append(WriteRecord(0, data))
        auditor = audit_deuce_write_path(scheme, records)
        assert auditor.is_clean

    def test_multiple_lines(self, pads, rng):
        scheme = Deuce(pads, epoch_interval=4)
        lines = {}
        for addr in range(4):
            lines[addr] = random_line(rng)
            scheme.install(addr, lines[addr])
        records = []
        for i in range(60):
            addr = i % 4
            lines[addr] = mutate_words(rng, lines[addr], 1 + i % 3)
            records.append(WriteRecord(addr, lines[addr]))
        auditor = audit_deuce_write_path(scheme, records)
        assert auditor.is_clean

    def test_auditor_catches_a_broken_scheme(self, pads, rng):
        """Sanity: the harness does detect violations when counters stall."""

        class BrokenDeuce(Deuce):
            def _write(self, address, plaintext):
                outcome = super()._write(address, plaintext)
                # Sabotage: freeze the counter, so the next write reuses
                # the same leading pad with different data.
                self.table.counters[self.table.row(address)] -= 1
                return outcome

        scheme = BrokenDeuce(pads, epoch_interval=32)
        data = random_line(rng)
        scheme.install(0, data)
        records = []
        for _ in range(6):
            data = mutate_words(rng, data, 2)
            records.append(WriteRecord(0, data))
        auditor = audit_deuce_write_path(scheme, records)
        assert not auditor.is_clean
