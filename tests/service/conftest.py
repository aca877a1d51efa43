"""The in-process job server the HTTP tests share, and their one client."""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import pytest

from repro.api import Session
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
    """``(status, headers, decoded JSON body)``; HTTP errors are returned."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    for name, value in (headers or {}).items():
        req.add_header(name, value)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return (
                resp.status, dict(resp.headers),
                json.loads(resp.read() or b"null"),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read() or b"null")


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
