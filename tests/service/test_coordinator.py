"""Fleet coordinator tests: parity, worker death, and steal-race dedup.

The headline guarantee is the ISSUE acceptance criterion: a sweep
sharded over two real ``deuce-sim serve`` workers — one of which is
SIGKILLed mid-sweep — produces a merged ledger/checkpoint bit-identical
to the same grid run single-node.  The steal-race test drives the
first-completion-wins dedup path with scripted fake workers.
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import Session
from repro.obs.progress import DONE
from repro.service.coordinator import (
    CoordinatorServer,
    CoordinatorState,
    FleetExecutor,
    WorkerClient,
    WorkerError,
)
from repro.service.loadtest import spawned_service
from repro.sim.checkpoint import SweepCheckpoint, config_signature
from repro.sim.config import SimConfig
from tests.service.conftest import request


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


@contextlib.contextmanager
def _two_inprocess_workers():
    with contextlib.ExitStack() as stack:
        yield [
            stack.enter_context(
                spawned_service(Session(ledger=False), job_workers=2)
            )
            for _ in range(2)
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


class _FakeWorker:
    """Scripted in-memory worker for scheduler-path tests.

    ``delay_polls`` holds a cell's DONE state for that many status polls
    — long enough for the straggler logic to steal it — and then
    completes anyway, exercising the duplicate-completion dedup.
    """

    def __init__(self, result_payload: dict, delay_polls: int = 0) -> None:
        self.result_payload = result_payload
        self.delay_polls = delay_polls
        self.jobs: dict[str, int] = {}
        self.cancelled: list[str] = []
        self.submitted = 0

    def client(self, url: str) -> "WorkerClient":
        worker = self

        class Client:
            def __init__(self) -> None:
                self.url = url

            def healthz(self) -> dict:
                return {"status": "ok"}

            def submit(self, envelope: dict, trace_id: str = "") -> str:
                worker.submitted += 1
                job_id = f"{url}-job-{worker.submitted}"
                worker.jobs[job_id] = 0
                return job_id

            def status(self, job_id: str) -> dict:
                worker.jobs[job_id] += 1
                if worker.jobs[job_id] <= worker.delay_polls:
                    return {"state": "running", "writes_done": 1}
                return {"state": "done"}

            def result(self, job_id: str) -> dict:
                return {"state": "done", "result": worker.result_payload}

            def cancel(self, job_id: str) -> None:
                # Deliberately NOT honoured: the slow job completes
                # anyway, forcing the dedup path instead of the cancel
                # path.
                worker.cancelled.append(job_id)

        return Client()


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

        slow = _FakeWorker(payload, delay_polls=2)
        fast = _FakeWorker(payload, delay_polls=0)
        workers = {"http://slow": slow, "http://fast": fast}
        executor = FleetExecutor(
            ["http://slow", "http://fast"],
            window=2,
            poll_interval_s=0.01,
            probe_interval_s=10.0,
            straggler_min_s=0.0,
            straggler_factor=100.0,
            client_factory=lambda url: workers[url].client(url),
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

        class DeadClient:
            def __init__(self, url: str) -> None:
                self.url = url

            def healthz(self) -> dict:
                raise WorkerError("connection refused")

            def submit(self, envelope, trace_id="") -> str:
                raise WorkerError("connection refused")

            def status(self, job_id):
                raise WorkerError("connection refused")

            def result(self, job_id):
                raise WorkerError("connection refused")

            def cancel(self, job_id) -> None:
                raise WorkerError("connection refused")

        alive = _FakeWorker(payload)
        clients = {
            "http://dead": DeadClient,
            "http://alive": lambda url: alive.client(url),
        }
        executor = FleetExecutor(
            ["http://dead", "http://alive"],
            window=1,
            poll_interval_s=0.01,
            probe_interval_s=0.02,
            straggler_min_s=30.0,
            client_factory=lambda url: clients[url](url),
        )
        results = executor.run_suite([config], retries=2)
        assert len(results) == 1
        assert _strip_volatile(results[0].to_dict()) == _strip_volatile(
            canned.to_dict()
        )
        stats = {s["url"]: s for s in executor.fleet_stats()}
        assert not stats["http://dead"]["healthy"]
        assert stats["http://alive"]["completed"] == 1


class TestCoordinateService:
    @pytest.fixture
    def coordinator(self):
        with _two_inprocess_workers() as urls:
            state = CoordinatorState(Session(ledger=False), urls)
            server = CoordinatorServer(("127.0.0.1", 0), state)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                yield f"http://127.0.0.1:{server.port}", state
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_healthz_names_role_and_workers(self, coordinator):
        base, state = coordinator
        status, _, body = request("GET", f"{base}/v1/healthz")
        assert status == 200
        assert body["role"] == "coordinator"
        assert body["workers"] == state.worker_urls
        assert body["api_version"] == "v1"

    def test_sweep_envelope_round_trip(self, coordinator):
        base, _ = coordinator
        configs = [
            SimConfig("mcf", s, n_writes=200, seed=0).to_dict()
            for s in ("deuce", "ble")
        ]
        status, _, body = request(
            "POST",
            f"{base}/v1/sweeps",
            {"kind": "sweep", "config": configs,
             "options": {"label": "e2e", "sweep_id": "fleet-e2e"}},
        )
        assert status == 201
        assert body["sweep_id"] == "fleet-e2e"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, _, snap = request("GET", f"{base}{body['result_url']}")
            if status != 202:
                break
            time.sleep(0.05)
        assert status == 200, snap
        assert len(snap["results"]) == 2
        reference = Session(ledger=False).sweep(
            [SimConfig.from_dict(c) for c in configs], workers=1
        )
        for mine, theirs in zip(snap["results"], reference):
            assert _strip_volatile(mine) == _strip_volatile(
                theirs.to_dict()
            )
        # Fleet + metrics surfaces reflect the finished sweep.
        status, _, fleet = request("GET", f"{base}/v1/fleet")
        assert status == 200
        assert sum(w["completed"] for w in fleet["workers"]) == 2
        status, _, metrics = request("GET", f"{base}/v1/metrics")
        assert status == 200
        names = {m["name"] for m in metrics}
        assert "fleet.cells_completed" in names
        # Re-POSTing a finished sweep id resumes (restores, no re-run).
        status, _, body = request(
            "POST",
            f"{base}/v1/sweeps",
            {"kind": "sweep", "config": configs,
             "options": {"sweep_id": "fleet-e2e"}},
        )
        assert status == 201

    def test_rejects_non_sweep_envelopes(self, coordinator):
        base, _ = coordinator
        status, _, body = request(
            "POST",
            f"{base}/v1/sweeps",
            {"kind": "run",
             "config": {"workload": "mcf", "scheme": "deuce"}},
        )
        assert status == 400
        assert "sweep" in body["error"]

    def test_unknown_sweep_404s(self, coordinator):
        base, _ = coordinator
        status, _, body = request("GET", f"{base}/v1/sweeps/nope")
        assert status == 404

    def test_bare_paths_are_404_pointing_at_v1(self, coordinator):
        base, state = coordinator
        for method, path in (
            ("GET", "/healthz"), ("GET", "/jobs"), ("GET", "/sweeps"),
            ("POST", "/sweeps"),
        ):
            payload = {"kind": "sweep", "config": []} \
                if method == "POST" else None
            status, _, body = request(method, base + path, payload)
            assert status == 404, path
            assert f"/v1{path}" in body["error"], path
        assert state.sweeps == {}

    def test_malformed_content_length_is_400(self, coordinator):
        base, state = coordinator
        for length in ("abc", "-5"):
            status, _, body = request(
                "POST", f"{base}/v1/sweeps",
                {"kind": "sweep", "config": []},
                headers={"Content-Length": length},
            )
            assert status == 400, length
            assert "Content-Length" in body["error"], length
        assert state.sweeps == {}

    def test_metrics_prometheus_negotiation(self, coordinator):
        base, _ = coordinator
        for url, accept in (
            (f"{base}/v1/metrics?format=prometheus", "application/json"),
            (f"{base}/v1/metrics", "text/plain"),
        ):
            req = urllib.request.Request(url, headers={"Accept": accept})
            with urllib.request.urlopen(req, timeout=30) as resp:
                content_type = resp.headers["Content-Type"]
            assert content_type == "text/plain; version=0.0.4; charset=utf-8"
