"""Fleet sweep tests: parity, worker death, steal-race dedup, and the
job service running its sweep jobs on a fleet (``serve --workers-url``).

The headline guarantee: a sweep sharded over two real ``deuce-sim
serve`` workers — one of which is SIGKILLed mid-sweep — produces a
merged ledger/checkpoint bit-identical to the same grid run single-node.
The steal-race test drives the first-completion-wins dedup path with
scripted fake workers.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import Session
from repro.obs.progress import DONE
from repro.service.coordinator import FleetExecutor
from repro.service.jobs import Job, JobManager, JobSpec, JobStore
from repro.sim.checkpoint import SweepCheckpoint, config_signature
from repro.sim.config import SimConfig
from tests.service.conftest import (
    FakeWorker,
    _poll_terminal,
    _two_inprocess_workers,
    request,
)


def _strip_volatile(payload: dict) -> dict:
    """Drop the documented per-run volatile fields for parity asserts."""
    payload = dict(payload)
    payload.pop("wall_time_s", None)
    payload.pop("run_id", None)
    summary = dict(payload.get("summary") or {})
    summary.pop("wall_s", None)
    payload["summary"] = summary
    return payload


def _grid(n_writes: int, seeds=(0,)) -> list[SimConfig]:
    return [
        SimConfig(workload, scheme, n_writes=n_writes, seed=seed)
        for workload in ("mcf", "lbm")
        for scheme in ("deuce", "encr-dcw")
        for seed in seeds
    ]


class TestFleetExecutor:
    def test_requires_workers(self):
        with pytest.raises(ValueError, match="at least one worker"):
            FleetExecutor([])

    def test_empty_grid_is_a_noop(self):
        executor = FleetExecutor(["http://127.0.0.1:9"])
        assert executor.run_suite([]) == []

    def test_fleet_sweep_bit_identical_to_local(self):
        configs = _grid(n_writes=300)
        session = Session(ledger=False)
        local = session.sweep(configs, workers=1)
        with _two_inprocess_workers() as urls:
            executor = FleetExecutor(urls, window=2, straggler_min_s=30.0)
            fleet = session.sweep(configs, executor=executor)
        assert len(fleet) == len(local)
        for mine, theirs in zip(local, fleet):
            assert _strip_volatile(mine.to_dict()) == _strip_volatile(
                theirs.to_dict()
            )
        # Both workers actually participated.
        completed = [s["completed"] for s in executor.fleet_stats()]
        assert sum(completed) == len(configs)
        assert all(c > 0 for c in completed)

    def test_fleet_checkpoint_resumes_like_local(self, tmp_path):
        """A fleet checkpoint restores into a plain local sweep and back."""
        configs = _grid(n_writes=200)
        session = Session(ledger=False)
        ckpt_dir = tmp_path / "ckpt"
        with _two_inprocess_workers() as urls:
            executor = FleetExecutor(urls, window=2, straggler_min_s=30.0)
            # Fleet-run only half the grid, checkpointing as it goes.
            session.sweep(
                configs[:2], executor=executor, checkpoint=ckpt_dir
            )
        # The local engine resumes the same checkpoint: restored cells are
        # not re-run, the missing half is.
        full = session.sweep(configs, workers=1, checkpoint=ckpt_dir)
        reference = session.sweep(configs, workers=1)
        for mine, theirs in zip(full, reference):
            assert _strip_volatile(mine.to_dict()) == _strip_volatile(
                theirs.to_dict()
            )
        restored = SweepCheckpoint(ckpt_dir).restore()
        assert set(restored) == {config_signature(c) for c in configs}


def _spawn_worker(tmp_path: Path, name: str) -> tuple[subprocess.Popen, str]:
    """Start a real ``deuce-sim serve`` worker on an ephemeral port.

    The worker logs one line per request, so its output goes to
    ``<name>.log`` rather than a pipe: a pipe nobody drains fills up
    and blocks the worker's request handlers mid-sweep.
    """
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    log_path = tmp_path / f"{name}.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--no-ledger", "--job-workers", "2",
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=tmp_path,
        )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        match = re.search(
            r"listening on (http://[\w.:]+)", log_path.read_text()
        )
        if match:
            return proc, match.group(1)
        if proc.poll() is not None:
            raise AssertionError(
                "worker died on startup: " + log_path.read_text()
            )
        time.sleep(0.05)
    proc.kill()
    proc.wait(timeout=10)
    raise AssertionError(
        f"no listen line from worker within 30s: {log_path.read_text()!r}"
    )


class TestWorkerDeath:
    def test_sigkill_one_worker_merged_checkpoint_bit_identical(
        self, tmp_path
    ):
        """The acceptance criterion: kill -9 one of two workers mid-sweep.

        The coordinator must detect the death, requeue the worker's
        in-flight cells onto the survivor, finish the grid, and leave a
        merged checkpoint + result set bit-identical to a single-node
        sweep of the same grid.
        """
        configs = _grid(n_writes=40_000, seeds=(0, 1))  # 8 cells
        ckpt_dir = tmp_path / "ckpt"
        session = Session(ledger=False)
        procs = []
        try:
            for i in range(2):
                procs.append(_spawn_worker(tmp_path, f"worker-{i}"))
            urls = [url for _, url in procs]
            executor = FleetExecutor(
                urls,
                window=2,
                probe_interval_s=0.2,
                poll_interval_s=0.02,
                straggler_min_s=30.0,
                fleet_down_timeout_s=30.0,
            )
            victim = procs[0][0]

            def kill_on_first_dispatch():
                # Kill as soon as the victim holds in-flight cells: a
                # 40k-write cell takes orders of magnitude longer than
                # the kill latency, so its window cannot drain first.
                # (Waiting for checkpoint progress instead would race
                # the kill against the victim's own completions and
                # sometimes leave nothing to requeue.)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if executor.workers[0].in_flight:
                        break
                    time.sleep(0.005)
                victim.send_signal(signal.SIGKILL)

            killer = threading.Thread(
                target=kill_on_first_dispatch, daemon=True
            )
            killer.start()
            fleet = session.sweep(
                configs, executor=executor, retries=3, checkpoint=ckpt_dir
            )
            killer.join(timeout=60)
            assert victim.poll() is not None, "victim worker survived"
        finally:
            for proc, _ in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)

        reference = session.sweep(configs, workers=1)
        assert len(fleet) == len(configs)
        for mine, theirs in zip(fleet, reference):
            assert _strip_volatile(mine.to_dict()) == _strip_volatile(
                theirs.to_dict()
            )
        # The merged checkpoint covers every cell exactly once, and its
        # payloads match the single-node run bit-for-bit.
        checkpoint = SweepCheckpoint(ckpt_dir)
        records = checkpoint.load()
        assert set(records) == {config_signature(c) for c in configs}
        restored = checkpoint.restore()
        for config, theirs in zip(configs, reference):
            mine = restored[config_signature(config)]
            assert _strip_volatile(mine.to_dict()) == _strip_volatile(
                theirs.to_dict()
            )
        # The survivor picked up the victim's requeued cells.
        assert executor.requeues >= 1
        stats = {s["name"]: s for s in executor.fleet_stats()}
        dead = [s for s in stats.values() if not s["healthy"]]
        assert len(dead) == 1


class TestStealRaceDedup:
    def test_duplicate_completion_is_deduplicated(self):
        """Both sides of a steal race complete; each cell lands once.

        The scripted timeline (deterministic in scheduler ticks): the
        slow worker gets both cells, the idle fast worker steals the
        oldest and wins the race, the coordinator's cancel is ignored,
        and the slow worker's late completion arrives while the sweep is
        still running — it must be dropped as a duplicate, not recorded
        twice.
        """
        config = SimConfig("mcf", "deuce", n_writes=50, seed=0)
        canned = Session(ledger=False).run(config)
        payload = {"results": [canned.to_dict()], "run_ids": [""]}

        # Two polls of "running" are long enough for a steal.
        slow = FakeWorker("http://slow", payload, delay_polls=2)
        fast = FakeWorker("http://fast", payload, delay_polls=0)
        workers = {"http://slow": slow, "http://fast": fast}
        executor = FleetExecutor(
            ["http://slow", "http://fast"],
            window=2,
            poll_interval_s=0.01,
            probe_interval_s=10.0,
            straggler_min_s=0.0,
            straggler_factor=100.0,
            client_factory=workers.__getitem__,
        )
        done_events = []

        def on_progress(event):
            if event.kind == DONE:
                done_events.append(event.cell)

        results = executor.run_suite([config, config], progress=on_progress)

        assert len(results) == 2
        for result in results:
            assert _strip_volatile(result.to_dict()) == _strip_volatile(
                canned.to_dict()
            )
        # The oldest cell was stolen from the slow worker, fast won...
        assert executor.steals == 1
        assert fast.submitted == 1
        # ...the winner tried to cancel the loser...
        assert slow.cancelled, "winner should cancel the losing dispatch"
        # ...and when the loser completed anyway it was dropped.
        assert executor.duplicates == 1
        # Exactly one DONE progress event per cell despite the 2x
        # dispatch of the raced cell.
        assert sorted(done_events) == [0, 1]

    def test_dead_worker_cells_requeue_to_survivor(self):
        config = SimConfig("mcf", "deuce", n_writes=50, seed=0)
        canned = Session(ledger=False).run(config)
        payload = {"results": [canned.to_dict()], "run_ids": [""]}

        dead = FakeWorker("http://dead", payload)
        dead.down = True
        alive = FakeWorker("http://alive", payload)
        clients = {"http://dead": dead, "http://alive": alive}
        executor = FleetExecutor(
            ["http://dead", "http://alive"],
            window=1,
            poll_interval_s=0.01,
            probe_interval_s=0.02,
            straggler_min_s=30.0,
            client_factory=clients.__getitem__,
        )
        results = executor.run_suite([config], retries=2)
        assert len(results) == 1
        assert _strip_volatile(results[0].to_dict()) == _strip_volatile(
            canned.to_dict()
        )
        stats = {s["url"]: s for s in executor.fleet_stats()}
        assert not stats["http://dead"]["healthy"]
        assert stats["http://alive"]["completed"] == 1


def _worker_jobs(url: str) -> list[dict]:
    status, _, body = request("GET", f"{url}/v1/jobs")
    assert status == 200, body
    return body["jobs"]


def _fleet_counter(manager: JobManager, name: str) -> float:
    """Sum of one ``fleet.*`` counter over the fleet's workers."""
    return sum(
        m["value"] for m in manager.telemetry.snapshot() if m["name"] == name
    )


@pytest.mark.service(fleet=True)
class TestCoordinateService:
    """``deuce-sim serve --workers-url``: sweep jobs run on the fleet."""

    def test_healthz_lists_the_fleet(self, service):
        status, _, body = request("GET", f"{service.url}/v1/healthz")
        assert status == 200
        assert len(body["fleet"]) == 2
        assert body["fleet"] == service.manager.worker_urls
        assert body["api_version"] == "v1"

    def test_sweep_envelope_round_trip(self, service):
        base = service.url
        configs = [
            SimConfig("mcf", s, n_writes=200, seed=0).to_dict()
            for s in ("deuce", "ble")
        ]
        status, _, body = request(
            "POST", f"{base}/v1/jobs",
            {"kind": "sweep", "config": configs, "options": {"label": "e2e"}},
        )
        assert status == 201
        job_id = body["job_id"]
        assert _poll_terminal(base, job_id)["state"] == "done"
        status, _, snap = request("GET", f"{base}{body['result_url']}")
        assert status == 200, snap
        results = snap["result"]["results"]
        reference = Session(ledger=False).sweep(
            [SimConfig.from_dict(c) for c in configs], workers=1
        )
        assert len(results) == len(reference)
        for mine, theirs in zip(results, reference):
            assert _strip_volatile(mine) == _strip_volatile(theirs.to_dict())
        # The cells ran on the fleet, not in this server's process pool.
        fleet = service.manager.worker_urls
        assert sum(len(_worker_jobs(url)) for url in fleet) >= 2
        status, _, metrics = request("GET", f"{base}/v1/metrics")
        assert status == 200
        names = {m["name"] for m in metrics["metrics"]}
        assert "fleet.cells_completed" in names
        assert _fleet_counter(service.manager, "fleet.cells_completed") == 2
        # The merged checkpoint is keyed by the job id, like a local sweep.
        ledger = service.session.ledger.root
        assert (ledger / "sweeps" / job_id / "cells.jsonl").exists()

    def test_delete_cancels_the_fleet_sweep_and_its_worker_jobs(
        self, service
    ):
        base, fleet = service.url, service.manager.worker_urls
        configs = [
            SimConfig("mcf", s, n_writes=1_000_000, seed=0).to_dict()
            for s in ("deuce", "encr-dcw")
        ]
        status, _, body = request(
            "POST", f"{base}/v1/jobs", {"kind": "sweep", "config": configs}
        )
        assert status == 201
        job_id = body["job_id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if any(_worker_jobs(url) for url in fleet):
                break
            time.sleep(0.02)
        else:
            raise AssertionError("no cell reached a fleet worker")
        status, _, _ = request("DELETE", f"{base}/v1/jobs/{job_id}")
        assert status == 200
        assert _poll_terminal(base, job_id)["state"] == "cancelled"
        # Every cell the sweep dispatched was cancelled on its worker.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            jobs = [j for url in fleet for j in _worker_jobs(url)]
            if all(j["state"] == "cancelled" for j in jobs):
                break
            time.sleep(0.05)
        assert jobs and all(j["state"] == "cancelled" for j in jobs), jobs

    def test_restart_redispatches_only_the_missing_cells(self, service):
        """A fleet sweep journaled as unfinished resumes on a new manager.

        Cell 0 completed before the simulated crash and sits in the
        job-keyed checkpoint; the reborn manager must restore it and send
        only cell 1 to the fleet.
        """
        configs = (
            SimConfig("libq", "deuce", n_writes=400, seed=7),
            SimConfig("mcf", "deuce", n_writes=400, seed=7),
        )
        crashed = Job(JobSpec(kind="sweep", configs=configs))
        crashed.state = "running"
        session = service.session
        store = JobStore(session.ledger.root / "service")
        store.record(crashed)
        done_before = session.run(configs[0])
        session.sweep_checkpoint(crashed.id).record(
            0, configs[0], done_before, run_id="pre-crash"
        )

        reborn = JobManager(
            session, job_workers=1, store=store,
            worker_urls=service.manager.worker_urls,
        ).start()
        try:
            (job,) = reborn.rehydrate()
            assert job.id == crashed.id
            assert job.wait(60) and job.state == "done", job.error
        finally:
            reborn.drain(10)
        results = job.result["results"]
        assert results[0]["total_flips"] == done_before.total_flips
        assert results[1]["total_flips"] == session.run(configs[1]).total_flips
        assert _fleet_counter(reborn, "fleet.cells_dispatched") == 1
        done_cells = {
            e["cell"] for e in job.events_since(0) if e.get("kind") == "done"
        }
        assert done_cells == {1}

    def test_run_job_completes_in_process(self, service):
        base = service.url
        config = SimConfig("mcf", "deuce", n_writes=300, seed=3)
        status, _, body = request(
            "POST", f"{base}/v1/jobs",
            {"kind": "run", "config": config.to_dict()},
        )
        assert status == 201
        assert _poll_terminal(base, body["job_id"])["state"] == "done"
        _, _, snap = request("GET", f"{base}{body['result_url']}")
        (result,) = snap["result"]["results"]
        assert _strip_volatile(result) == _strip_volatile(
            Session(ledger=False).run(config).to_dict()
        )
        fleet = service.manager.worker_urls
        assert fleet and all(_worker_jobs(url) == [] for url in fleet)
