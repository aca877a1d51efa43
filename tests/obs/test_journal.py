"""The one append-only JSONL journal and the three stores built on it.

A process SIGKILLed mid-append leaves a half-written last line.  Each
store must keep reading every whole record after that, and the next
append must land as a readable record of its own.
"""

from __future__ import annotations

from repro.api import Session
from repro.obs.journal import append_record, read_records
from repro.obs.ledger import RunLedger, build_manifest
from repro.service.jobs import Job, JobSpec, JobStore
from repro.sim.checkpoint import SweepCheckpoint, config_signature
from repro.sim.config import SimConfig

TORN = '{"run_id": "torn", "kind": "ru'


def _tear(path) -> None:
    with open(path, "a") as fh:
        fh.write(TORN)


class TestJournal:
    def test_missing_file_reads_empty(self, tmp_path):
        assert list(read_records(tmp_path / "none.jsonl")) == []

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_record(path, {"a": 1})
        with open(path, "a") as fh:
            fh.write("\n[1, 2]\n\x00\xff\n")
        _tear(path)
        assert list(read_records(path)) == [{"a": 1}]

    def test_append_after_a_torn_line_starts_a_new_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_record(path, {"a": 1})
        _tear(path)
        append_record(path, {"b": 2})
        assert list(read_records(path)) == [{"a": 1}, {"b": 2}]


class TestTornTrailingLine:
    """Each store after a crash mid-append: readable, and appendable."""

    def test_run_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        first = ledger.record(build_manifest(kind="bench", label="one"))
        _tear(ledger.index_path)
        assert [m.run_id for m in ledger.list()] == [first.run_id]
        second = ledger.record(build_manifest(kind="bench", label="two"))
        assert [m.run_id for m in ledger.list()] == [
            first.run_id, second.run_id
        ]
        assert len(ledger) == 2

    def test_job_store(self, tmp_path):
        store = JobStore(tmp_path / "service")
        config = SimConfig("mcf", "deuce", n_writes=100)
        first = Job(JobSpec(kind="run", configs=(config,)))
        store.record(first)
        _tear(store.path)
        second = Job(JobSpec(kind="run", configs=(config,)))
        store.record(second)
        assert list(store.load()) == [first.id, second.id]

    def test_sweep_checkpoint(self, tmp_path):
        configs = [SimConfig("mcf", s, n_writes=100) for s in ("deuce", "ble")]
        session = Session(ledger=False)
        checkpoint = SweepCheckpoint(tmp_path / "ckpt")
        checkpoint.record(0, configs[0], session.run(configs[0]))
        _tear(checkpoint.path)
        checkpoint.record(1, configs[1], session.run(configs[1]))
        assert set(checkpoint.restore()) == {
            config_signature(c) for c in configs
        }
