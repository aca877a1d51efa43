"""The in-process job server the HTTP tests share, and their one client."""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass

import pytest

from repro.api import Session
from repro.service.client import call
from repro.service.coordinator import WorkerError
from repro.service.jobs import JobManager
from repro.service.loadtest import spawned_service
from repro.service.server import SimulationServer

RUN_CONFIG = {"workload": "mcf", "scheme": "deuce", "n_writes": 400, "seed": 7}


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "service(**manager_kwargs, start=True, fleet=False): JobManager "
        "options for the 'service' fixture; start=False leaves its workers "
        "unstarted, fleet=True runs its sweep jobs on two in-process "
        "worker servers",
    )


def request(
    method: str,
    url: str,
    payload: object = None,
    *,
    headers: dict[str, str] | None = None,
    timeout: float = 60.0,
) -> tuple[int, dict[str, str], object]:
    """``(status, headers, decoded JSON body)`` of one :func:`call`."""
    reply_headers: dict[str, str] = {}
    status, body = call(
        method, url, payload, timeout=timeout, headers=headers,
        reply_headers=reply_headers,
    )
    assert status, body  # a transport error fails the test that sent it
    return status, reply_headers, body


def _poll_terminal(base: str, job_id: str, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = request("GET", f"{base}/v1/jobs/{job_id}")
        assert status == 200
        if body["state"] in ("done", "failed", "cancelled"):
            return body
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not settle within {timeout}s")


@contextlib.contextmanager
def _two_inprocess_workers():
    """Two ledger-less job servers on ephemeral ports; yields their URLs."""
    with contextlib.ExitStack() as stack:
        yield [
            stack.enter_context(
                spawned_service(Session(ledger=False), job_workers=2)
            )
            for _ in range(2)
        ]


class FakeWorker:
    """A fleet worker's client answering from memory, for scheduler tests.

    A job reports ``running`` for its first ``delay_polls`` status polls
    and then ``done``; with ``delay_polls=None`` it runs until
    :meth:`finish`.  ``down`` refuses every call, a job dropped from
    ``jobs`` answers 404, and a cancel is recorded but not honoured.
    """

    def __init__(
        self, url: str, result: dict, delay_polls: int | None = 0
    ) -> None:
        self.url = url
        self.result_body = result
        self.delay_polls = delay_polls
        self.down = False
        self.jobs: dict[str, str] = {}
        self.polls: dict[str, int] = {}
        self.cells: dict[str, int] = {}
        self.cancelled: list[str] = []

    @property
    def submitted(self) -> int:
        return len(self.cells)

    def _reach(self) -> None:
        if self.down:
            raise WorkerError(f"{self.url}: connection refused")

    def healthz(self) -> dict:
        self._reach()
        return {"status": "ok"}

    def submit(self, envelope: dict, trace_id: str = "") -> str:
        self._reach()
        job_id = f"{self.url}/job-{self.submitted}"
        label = envelope["options"]["label"]  # fleet/cell-<i>[/steal]
        self.cells[job_id] = int(label.split("cell-")[1].split("/")[0])
        self.jobs[job_id] = "running"
        self.polls[job_id] = 0
        return job_id

    def status(self, job_id: str) -> dict:
        self._reach()
        if job_id not in self.jobs:
            raise WorkerError("HTTP 404: unknown job", status=404)
        self.polls[job_id] += 1
        done_after = self.delay_polls
        if done_after is not None and self.polls[job_id] > done_after:
            self.jobs[job_id] = "done"
        return {"state": self.jobs[job_id], "writes_done": 1}

    def result(self, job_id: str) -> dict:
        self._reach()
        return {"state": "done", "result": self.result_body}

    def cancel(self, job_id: str) -> None:
        self._reach()
        self.cancelled.append(job_id)

    def job_of(self, cell: int) -> str:
        """The newest job this worker got for ``cell``."""
        return [j for j, c in self.cells.items() if c == cell][-1]

    def finish(self, cell: int) -> None:
        self.jobs[self.job_of(cell)] = "done"


@dataclass
class LiveService:
    url: str
    session: Session
    manager: JobManager
    server: SimulationServer


@pytest.fixture
def service(request, tmp_path):
    """A live job server on an ephemeral port with a ledgered session.

    Defaults: 4 job workers, queue 16, sweeps capped at 2 processes.  A
    ``@pytest.mark.service(...)`` marker overrides the manager options;
    ``fleet=True`` points it at :func:`_two_inprocess_workers`.
    """
    marker = request.node.get_closest_marker("service")
    options = {"job_workers": 4, "queue_size": 16, "max_sweep_workers": 2}
    options.update(marker.kwargs if marker else {})
    start = options.pop("start", True)
    with contextlib.ExitStack() as stack:
        if options.pop("fleet", False):
            options["worker_urls"] = stack.enter_context(
                _two_inprocess_workers()
            )
        session = Session(ledger=tmp_path / "runs")
        manager = JobManager(session, **options)
        if start:
            manager.start()
        server = SimulationServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield LiveService(
                f"http://127.0.0.1:{server.port}", session, manager, server
            )
        finally:
            if start:
                manager.drain(10, cancel=True)
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
