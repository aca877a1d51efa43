"""Trace container and file-format tests."""

from __future__ import annotations

import hashlib

import pytest

from repro.obs.instruments import RunAborted
from repro.workloads.trace import Trace, generate_trace


class TestGenerateTrace:
    def test_by_name(self):
        trace = generate_trace("mcf", 50, seed=1)
        assert trace.profile_name == "mcf"
        assert trace.n_writes == 50
        assert trace.line_bytes == 64

    def test_initial_covers_working_set(self):
        trace = generate_trace("mcf", 10, seed=1)
        assert len(trace.initial) == 2048
        assert all(len(d) == 64 for d in trace.initial.values())

    def test_records_reference_installed_lines(self):
        trace = generate_trace("libq", 100, seed=2)
        for rec in trace.records:
            assert rec.address in trace.initial

    def test_deterministic(self):
        a = generate_trace("wrf", 30, seed=5)
        b = generate_trace("wrf", 30, seed=5)
        assert [r.data for r in a.records] == [r.data for r in b.records]

    def test_abort_names_the_write_index(self):
        polls = []

        def abort():
            polls.append(len(polls))
            return len(polls) == 3

        with pytest.raises(RunAborted, match=r"at write 128/5000"):
            generate_trace("mcf", 5000, abort=abort, abort_every=64)
        assert len(polls) == 3

    def test_abort_that_never_fires_changes_nothing(self):
        polled = generate_trace(
            "mcf", 3000, seed=2, abort=lambda: False, abort_every=64
        )
        plain = generate_trace("mcf", 3000, seed=2)
        assert polled.initial == plain.initial
        assert polled.records == plain.records


class TestRecords:
    def test_records_compare_with_record_lists(self):
        trace = generate_trace("mcf", 40, seed=3)
        as_list = list(trace.records)
        assert trace.records == as_list
        assert as_list == trace.records
        assert trace.records != as_list[:-1]

    def test_records_materialize_once(self):
        trace = generate_trace("Gems", 50, seed=0)
        first = list(trace.records)
        assert all(a is b for a, b in zip(trace.records, first))
        assert trace.records[7] is first[7]
        assert trace.records[10:12] == first[10:12]


class TestSerialization:
    #: sha256 of the 40-write mcf trace (seed 3) as written by the
    #: per-record format-1 writer, without and with a phases header.
    FILE_DIGESTS = (
        "db7a2e57fd0b7e71e174a1255460622ffe563e931db6004ff7038721e26137aa",
        "c28863ff1746acec2eb305cac1d88009f3c989f400b473e1eb54aa83ba756230",
    )

    def test_save_load_round_trip(self, tmp_path):
        trace = generate_trace("mcf", 40, seed=3)
        path = tmp_path / "mcf.trc"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.profile_name == trace.profile_name
        assert loaded.seed == trace.seed
        assert loaded.line_bytes == trace.line_bytes
        assert loaded.initial == trace.initial
        assert loaded.records == trace.records

    def test_file_bytes_match_format_1(self, tmp_path):
        trace = generate_trace("mcf", 40, seed=3)
        path = tmp_path / "mcf.trc"
        digests = []
        for phases in ((), (("populate", 0), ("steady", 25))):
            trace.phases = phases
            trace.save(path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            assert Trace.load(path).phases == phases
        assert tuple(digests) == self.FILE_DIGESTS

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.trc"
        path.write_bytes(b"NOTATRACE" * 4)
        with pytest.raises(ValueError, match="not a DEUCE trace"):
            Trace.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.trc"
        generate_trace("mcf", 10, seed=0).save(path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            Trace.load(path)

    def test_addresses_sorted(self):
        trace = generate_trace("mcf", 5, seed=0)
        addrs = trace.addresses()
        assert addrs == sorted(addrs)
