"""Job queue semantics: validation, backpressure, cancellation, drain."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import Session
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    JobError,
    JobManager,
    JobSpec,
    QueueFullError,
    ServiceDraining,
    UnknownJobError,
)
from repro.sim.config import SimConfig


def _run_payload(n_writes: int = 300, **config) -> dict:
    return {
        "kind": "run",
        "config": {
            "workload": "mcf",
            "scheme": "deuce",
            "n_writes": n_writes,
            **config,
        },
    }


def _sweep_payload(n: int = 2, n_writes: int = 300) -> dict:
    return {
        "kind": "sweep",
        "config": [
            {"workload": "mcf", "scheme": "deuce",
             "n_writes": n_writes, "seed": i}
            for i in range(n)
        ],
        "options": {"workers": 1},
    }


@pytest.fixture
def session(tmp_path):
    return Session(ledger=tmp_path / "runs")


def _manager(session, **kw) -> JobManager:
    kw.setdefault("job_workers", 2)
    kw.setdefault("queue_size", 8)
    return JobManager(session, **kw).start()


class TestJobSpec:
    def test_run_payload(self):
        spec = JobSpec.decode(_run_payload())
        assert spec.kind == "run"
        assert spec.configs[0] == SimConfig("mcf", "deuce", n_writes=300)
        assert spec.n_cells == 1

    def test_bad_kind(self):
        with pytest.raises(JobError, match="kind"):
            JobSpec.decode({"kind": "nope"})

    def test_unknown_field(self):
        with pytest.raises(JobError, match="unknown job field"):
            JobSpec.decode({**_run_payload(), "priority": 9})

    def test_config_errors_become_job_errors(self):
        with pytest.raises(JobError, match="n_writes"):
            JobSpec.decode(_run_payload(n_writes="many"))

    def test_sweep_needs_configs(self):
        with pytest.raises(JobError, match="non-empty array"):
            JobSpec.decode({"kind": "sweep", "config": []})

    def test_unknown_experiment(self):
        with pytest.raises(JobError, match="unknown experiment"):
            JobSpec.decode({"kind": "experiment", "config": "figX"})

    def test_bad_timeout(self):
        with pytest.raises(JobError, match="timeout_s"):
            JobSpec.decode({**_run_payload(), "options": {"timeout_s": -1}})


class TestExecution:
    def test_run_job_completes_and_records(self, session):
        manager = _manager(session)
        job = manager.submit(JobSpec.decode(_run_payload()))
        assert job.wait(30)
        assert job.state == DONE
        assert job.result["run_ids"][0]
        assert session.ledger.get(job.result["run_ids"][0]).kind == "run"
        assert job.result["results"][0]["total_flips"] > 0
        manager.drain(5)

    def test_run_job_bit_identical_to_direct_session(self, session):
        manager = _manager(session)
        job = manager.submit(JobSpec.decode(_run_payload()))
        assert job.wait(30)
        direct = Session(ledger=False).run(
            SimConfig("mcf", "deuce", n_writes=300)
        )
        via_job = dict(job.result["results"][0])
        expected = direct.to_dict()
        for volatile in ("wall_time_s", "run_id"):
            via_job.pop(volatile, None)
            expected.pop(volatile, None)
        via_job["summary"].pop("wall_s", None)
        expected["summary"].pop("wall_s", None)
        assert via_job == expected
        manager.drain(5)

    def test_sweep_job(self, session):
        manager = _manager(session)
        job = manager.submit(JobSpec.decode(_sweep_payload(3)))
        assert job.wait(60)
        assert job.state == DONE
        assert len(job.result["results"]) == 3
        assert job.cells_done == 3
        kinds = {
            session.ledger.get(rid).kind for rid in job.result["run_ids"]
        }
        assert kinds == {"sweep-cell"}
        manager.drain(5)

    def test_experiment_job(self, session):
        manager = _manager(session)
        job = manager.submit(
            JobSpec.decode(
                {
                    "kind": "experiment",
                    "config": "fig10",
                    "options": {"n_writes": 200},
                }
            )
        )
        assert job.wait(120)
        assert job.state == DONE, job.error
        assert job.result["rows"]
        assert job.result["run_id"]
        manager.drain(5)

    def test_failed_job_keeps_worker_alive(self, session):
        manager = _manager(session, job_workers=1)
        bad = manager.submit(
            JobSpec.decode(
                _run_payload(wear_leveling="hwl", hwl_region_lines=-5)
            )
        )
        good = manager.submit(JobSpec.decode(_run_payload()))
        assert bad.wait(30) and good.wait(30)
        assert bad.state == FAILED
        assert bad.error
        assert good.state == DONE
        manager.drain(5)

    def test_progress_events_stream(self, session):
        manager = _manager(session)
        job = manager.submit(JobSpec.decode(_sweep_payload(2)))
        assert job.wait(60)
        events = job.events_since(0)
        kinds = [e["kind"] for e in events]
        assert kinds.count("done") == 2
        assert kinds[-1] == "state"
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
        manager.drain(5)

    def test_timeout_fails_job(self, session):
        manager = _manager(session)
        job = manager.submit(
            JobSpec.decode(
                {**_run_payload(n_writes=2_000_000),
                 "options": {"timeout_s": 0.05}}
            )
        )
        assert job.wait(60)
        assert job.state == FAILED
        assert "deadline" in job.error
        manager.drain(5)


class TestBackpressureAndCancel:
    def test_queue_full_raises(self, session):
        manager = JobManager(session, job_workers=1, queue_size=2)
        # Not started: nothing dequeues, so the queue fills deterministically.
        manager.submit(JobSpec.decode(_run_payload()))
        manager.submit(JobSpec.decode(_run_payload()))
        with pytest.raises(QueueFullError):
            manager.submit(JobSpec.decode(_run_payload()))

    def test_cancel_queued_job(self, session):
        manager = JobManager(session, job_workers=1, queue_size=4)
        job = manager.submit(JobSpec.decode(_run_payload()))
        manager.cancel(job.id)
        assert job.state == QUEUED  # not yet dequeued
        manager.start()
        assert job.wait(30)
        assert job.state == CANCELLED
        manager.drain(5)

    def test_cancel_running_sweep(self, session):
        manager = _manager(session, job_workers=1)
        job = manager.submit(
            JobSpec.decode(_sweep_payload(8, n_writes=200_000))
        )
        deadline = time.monotonic() + 30
        while job.state == QUEUED and time.monotonic() < deadline:
            time.sleep(0.01)
        manager.cancel(job.id)
        assert job.wait(60)
        assert job.state == CANCELLED
        manager.drain(5)

    def test_unknown_job(self, session):
        manager = JobManager(session)
        with pytest.raises(UnknownJobError):
            manager.get("job-nope")

    def test_eight_concurrent_sweep_jobs(self, session):
        manager = _manager(session, job_workers=4, queue_size=16)
        jobs = [
            manager.submit(JobSpec.decode(_sweep_payload(2, 300)))
            for _ in range(8)
        ]
        for job in jobs:
            assert job.wait(120)
            assert job.state == DONE, job.error
        assert manager.counts()[DONE] == 8
        # 8 jobs x 2 cells, all recorded.
        assert len(session.ledger.list(kind="sweep-cell")) == 16
        manager.drain(5)


class TestDrain:
    def test_drain_rejects_new_jobs(self, session):
        manager = _manager(session)
        assert manager.drain(5)
        with pytest.raises(ServiceDraining):
            manager.submit(JobSpec.decode(_run_payload()))

    def test_drain_finishes_backlog(self, session):
        manager = _manager(session, job_workers=2)
        jobs = [
            manager.submit(JobSpec.decode(_run_payload()))
            for _ in range(4)
        ]
        assert manager.drain(60)
        assert all(job.state == DONE for job in jobs)
        # Worker threads are gone: nothing executes after a drain.
        assert all(not t.is_alive() for t in manager._threads)

    def test_drain_cancel_stops_long_jobs(self, session):
        manager = _manager(session, job_workers=2)
        jobs = [
            manager.submit(
                JobSpec.decode(_sweep_payload(4, n_writes=500_000))
            )
            for _ in range(3)
        ]
        deadline = time.monotonic() + 30
        while (
            all(job.state == QUEUED for job in jobs)
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert manager.drain(60, cancel=True)
        assert all(job.state == CANCELLED for job in jobs)
        # No orphaned worker processes: multiprocessing children are gone.
        import multiprocessing

        assert multiprocessing.active_children() == []
