"""Service restart durability (JobStore/rehydrate) and the /v1 surface."""

from __future__ import annotations

import json
import time

import pytest

from repro.api import Session
from repro.obs.journal import append_record, read_records
from repro.service.jobs import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    Job,
    JobError,
    JobManager,
    JobSpec,
    JobStore,
)
from repro.service.server import API_VERSION
from repro.sim.config import SimConfig
from tests.service.conftest import RUN_CONFIG, request


def _spec(**options) -> JobSpec:
    return JobSpec.decode(
        {"kind": "run", "config": RUN_CONFIG, "options": options}
    )


#: One ``jobs.jsonl`` line exactly as a server journaled it before the
#: legacy payload shape was removed; journals on disk must keep loading.
JOURNAL_LINE = (
    '{"cells_done": 0, "created_utc": "2026-10-01T12:00:00Z", "error": '
    '"", "finished_utc": "", "job_id": "job-20261001T120000-a1b2c3", '
    '"result": null, "spec": {"configs": [{"chunk_size": 512, '
    '"epoch_interval": 32, "fnw_group_bits": 16, "gap_write_interval": '
    '100, "hwl_region_lines": null, "key": '
    '"64657563652d726570726f2d6b657921", "line_bytes": 64, "n_writes": '
    '400, "pad_cache_lines": 1024, "pad_kind": "blake2", "scheme": '
    '"deuce", "seed": 7, "track_per_line_wear": false, "wear_leveling": '
    '"none", "word_bytes": 2, "workload": "mcf", "workload_params": {}}, '
    '{"chunk_size": 512, "epoch_interval": 32, "fnw_group_bits": 16, '
    '"gap_write_interval": 100, "hwl_region_lines": null, "key": '
    '"64657563652d726570726f2d6b657921", "line_bytes": 64, "n_writes": '
    '400, "pad_cache_lines": 1024, "pad_kind": "blake2", "scheme": "ble", '
    '"seed": 7, "track_per_line_wear": false, "wear_leveling": "none", '
    '"word_bytes": 2, "workload": "mcf", "workload_params": {}}], '
    '"experiment": "", "kind": "sweep", "label": "night-sweep", '
    '"options": {}, "retries": 2, "timeout_s": 12.5, "workers": 3}, '
    '"started_utc": "", "state": "queued", "trace_id": "", "writes_done": '
    '0}'
)


class TestJobSpecRoundTrip:
    def test_to_from_dict_round_trip(self):
        spec = JobSpec.decode(
            {
                "kind": "sweep",
                "config": [RUN_CONFIG, {**RUN_CONFIG, "scheme": "ble"}],
                "options": {
                    "workers": 3,
                    "timeout_s": 12.5,
                    "retries": 2,
                    "label": "night-sweep",
                },
            }
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_journal_record_from_before_the_envelope_loads(self, tmp_path):
        (tmp_path / JobStore.FILENAME).write_text(JOURNAL_LINE + "\n")
        (record,) = JobStore(tmp_path).load().values()
        job = Job.from_record(record)
        assert job.id == "job-20261001T120000-a1b2c3"
        assert job.state == QUEUED
        assert job.spec == JobSpec(
            kind="sweep",
            configs=(
                SimConfig("mcf", "deuce", n_writes=400, seed=7),
                SimConfig("mcf", "ble", n_writes=400, seed=7),
            ),
            workers=3,
            timeout_s=12.5,
            retries=2,
            label="night-sweep",
        )

    def test_dict_form_is_json_safe(self):
        spec = _spec(retries=1)
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_retries_validated(self):
        with pytest.raises(JobError, match="retries"):
            _spec(retries=-1)
        with pytest.raises(JobError, match="retries"):
            _spec(retries="two")


class TestJobStore:
    def test_last_record_per_job_wins(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job(_spec())
        store.record(job)
        job._transition(DONE)
        job.result = {"results": []}
        store.record(job)
        records = store.load()
        assert list(records) == [job.id]
        assert records[job.id]["state"] == DONE

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job(_spec())
        store.record(job)
        with open(store.path, "a") as fh:
            fh.write('{"job_id": "job-torn", "spec"')  # SIGKILL mid-append
        assert list(store.load()) == [job.id]

    def test_job_record_round_trip(self, tmp_path):
        job = Job(_spec(label="keepme"))
        job.started_utc = "2026-01-01T00:00:00Z"
        job._transition(DONE)
        job.result = {"results": [], "run_ids": []}
        job.cells_done = 1
        restored = Job.from_record(job.to_record())
        assert restored.id == job.id
        assert restored.spec == job.spec
        assert restored.state == DONE
        assert restored.result == job.result
        assert restored.wait(0)  # terminal: result endpoint won't block


class TestRehydration:
    def _manager(self, tmp_path, **kwargs) -> JobManager:
        session = Session(ledger=tmp_path / "runs")
        store = JobStore(session.ledger.root / "service")
        return JobManager(
            session, job_workers=1, max_sweep_workers=2, store=store,
            **kwargs,
        )

    def test_terminal_jobs_restore_as_snapshots(self, tmp_path):
        manager = self._manager(tmp_path).start()
        job = manager.submit(_spec())
        assert job.wait(60) and job.state == DONE
        manager.drain(10)

        reborn = self._manager(tmp_path).start()
        assert reborn.rehydrate() == []  # nothing to resubmit
        restored = reborn.get(job.id)
        assert restored.state == DONE
        assert restored.result == job.result
        reborn.drain(10)

    def test_unfinished_job_is_resubmitted_and_completes(self, tmp_path):
        # Journal a job that never got past "running" (simulated crash).
        store = JobStore(tmp_path / "runs" / "service")
        crashed = Job(_spec())
        crashed.state = "running"
        store.record(crashed)

        manager = self._manager(tmp_path).start()
        restored = manager.rehydrate()
        assert [j.id for j in restored] == [crashed.id]
        assert restored[0].wait(60)
        assert restored[0].state == DONE
        assert restored[0].result["results"][0]["n_writes"] == 400
        manager.drain(10)

    def test_resubmitted_sweep_resumes_from_keyed_checkpoint(self, tmp_path):
        configs = (
            SimConfig("libq", "deuce", n_writes=400, seed=7),
            SimConfig("mcf", "deuce", n_writes=400, seed=7),
        )
        spec = JobSpec(kind="sweep", configs=configs, workers=1)
        crashed = Job(spec)
        crashed.state = QUEUED
        store = JobStore(tmp_path / "runs" / "service")
        store.record(crashed)

        # One cell completed before the crash: it sits in the job-keyed
        # sweep checkpoint and must be restored, not re-simulated.
        session = Session(ledger=tmp_path / "runs")
        done_before = session.run(configs[0])
        session.sweep_checkpoint(crashed.id).record(
            0, configs[0], done_before, run_id="pre-crash"
        )

        manager = self._manager(tmp_path).start()
        (job,) = manager.rehydrate()
        assert job.wait(60) and job.state == DONE
        results = job.result["results"]
        assert results[0]["total_flips"] == done_before.total_flips
        assert results[1]["total_flips"] == session.run(configs[1]).total_flips
        # Only the missing cell ran, so only it emitted progress events.
        done_cells = {
            e["cell"] for e in job.events_since(0) if e.get("kind") == "done"
        }
        assert done_cells == {1}
        manager.drain(10)

    def test_each_jobs_queued_line_precedes_the_workers_lines(
        self, tmp_path
    ):
        class SlowFirstLine(JobStore):
            """Appends each job's first line late, as a slow disk would:
            the record is taken at once, written 0.2 s later."""

            seen: set[str] = set()

            def record(self, job: Job) -> None:
                record = job.to_record()
                if job.id not in self.seen:
                    self.seen.add(job.id)
                    time.sleep(0.2)
                self.root.mkdir(parents=True, exist_ok=True)
                append_record(self.path, record)

        store = SlowFirstLine(tmp_path / "runs" / "service")
        manager = JobManager(
            Session(ledger=tmp_path / "runs"), job_workers=1, store=store
        ).start()
        jobs = [manager.submit(_spec()) for _ in range(2)]
        assert all(job.wait(60) for job in jobs)
        manager.drain(10)
        states: dict[str, list[str]] = {job.id: [] for job in jobs}
        for record in read_records(store.path):
            states[record["job_id"]].append(record["state"])
        assert list(states.values()) == [[QUEUED, RUNNING, DONE]] * 2

    def test_cancelled_while_queued_is_journaled(self, tmp_path):
        manager = self._manager(tmp_path)  # workers not started yet
        job = manager.submit(_spec())
        job.request_cancel()
        manager.start()
        assert job.wait(30)
        assert job.state == CANCELLED
        manager.drain(10)
        assert JobStore(tmp_path / "runs" / "service").load()[job.id][
            "state"
        ] == CANCELLED


class TestApiVersioning:
    def test_healthz_reports_api_version(self, service):
        status, headers, body = request("GET", f"{service.url}/v1/healthz")
        assert status == 200
        assert body["api_version"] == API_VERSION == "v1"
        assert "Deprecation" not in headers

    def test_bare_paths_are_404_pointing_at_v1(self, service):
        for method, path in (
            ("GET", "/healthz"), ("GET", "/jobs"), ("GET", "/sweeps"),
            ("GET", "/runs"), ("POST", "/jobs"),
        ):
            payload = {"kind": "run", "config": RUN_CONFIG} \
                if method == "POST" else None
            status, _, body = request(method, service.url + path, payload)
            assert status == 404, path
            assert f"/v1{path}" in body["error"], path
        assert service.manager.jobs() == []

    def test_versioned_submission_echoes_v1_urls(self, service):
        status, headers, body = request(
            "POST", f"{service.url}/v1/jobs",
            {"kind": "run", "config": RUN_CONFIG},
        )
        assert status == 201
        assert "Deprecation" not in headers
        assert body["status_url"] == f"/v1/jobs/{body['job_id']}"
        assert body["result_url"].startswith("/v1/jobs/")
        # The echoed URL works as-is.
        status, _, snap = request("GET", service.url + body["status_url"])
        assert status == 200 and snap["job_id"] == body["job_id"]

    def test_full_job_lifecycle_on_v1(self, service):
        _, _, body = request(
            "POST", f"{service.url}/v1/jobs",
            {"kind": "run", "config": RUN_CONFIG},
        )
        job_id = body["job_id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, headers, snap = request(
                "GET", f"{service.url}/v1/jobs/{job_id}"
            )
            assert status == 200 and "Deprecation" not in headers
            if snap["state"] == "done":
                break
            time.sleep(0.02)
        assert snap["state"] == "done"
        status, _, result = request(
            "GET", f"{service.url}/v1/jobs/{job_id}/result"
        )
        assert status == 200
        assert result["result"]["results"][0]["n_writes"] == 400

    def test_delete_works_on_both_prefixes(self, service):
        _, _, body = request(
            "POST", f"{service.url}/v1/jobs",
            {"kind": "run", "config": RUN_CONFIG},
        )
        status, headers, snap = request(
            "DELETE", f"{service.url}/v1/jobs/{body['job_id']}"
        )
        assert status == 200
        assert snap["cancel_requested"] is True
        assert "Deprecation" not in headers
        # The bare path no longer reaches the job.
        status, _, _ = request(
            "DELETE", f"{service.url}/jobs/{body['job_id']}"
        )
        assert status == 404

    def test_unknown_route_under_v1_is_404(self, service):
        status, headers, _ = request("GET", f"{service.url}/v1/nope")
        assert status == 404
        assert "Deprecation" not in headers
