"""HTTP front end for the simulation job service (``deuce-sim serve``).

Zero-dependency JSON API over :class:`http.server.ThreadingHTTPServer`.
Every route is served under the versioned ``/v1`` prefix; an unversioned
path answers ``404`` with a pointer to ``/v1``.  Endpoints:

============================  =================================================
``GET  /v1/healthz``          liveness + uptime + queue depth/in-flight/
                              completed counters + drain state +
                              ``api_version`` + ``fleet`` worker URLs
``GET  /v1/metrics``          service telemetry (request latency histograms,
                              job phase timings, queue gauges, worker
                              heartbeats) as JSON, or Prometheus text with
                              ``?format=prometheus`` / ``Accept: text/plain``
``POST /v1/jobs``             submit a ``{"kind", "config", "options"}`` job
                              envelope (``201``; ``400`` bad payload, ``429``
                              queue full, ``503`` draining)
``GET  /v1/jobs``             snapshots of every known job
``GET  /v1/jobs/{id}``        one job's status + progress counters
``GET  /v1/jobs/{id}/result`` the finished job's result (``202`` while
                              pending, ``409`` for failed/cancelled)
``GET  /v1/jobs/{id}/events`` chunked JSONL progress stream (``?since=N``
                              cursor, ``?follow=0`` for a one-shot page)
``DELETE /v1/jobs/{id}``      cooperative cancellation
``GET  /v1/runs``             ledger query (``kind``/``scheme``/``workload``/
                              ``label``/``limit`` filters)
============================  =================================================

Fleet: with ``worker_urls`` (``deuce-sim serve --workers-url``) the
manager runs each sweep job's cells on those ``deuce-sim serve`` workers
through :class:`~repro.service.coordinator.FleetExecutor`; the fleet's
per-worker ``fleet.*`` series join ``/v1/metrics`` and ``/v1/healthz``
lists the worker URLs.  Run and experiment jobs still run in-process.

Restart durability: when the session has a ledger, the manager journals
jobs to ``<ledger>/service/jobs.jsonl`` and rehydrates them on startup —
finished jobs stay queryable, unfinished ones are resubmitted and sweep
jobs resume from their per-job sweep checkpoint.

Graceful shutdown: SIGTERM/SIGINT flip the service into *draining* —
``POST /v1/jobs`` answers ``503``, ``/v1/healthz`` reports it — then the
job manager drains (in-flight sweeps finish or cancel cooperatively, no
orphaned worker processes) and the listener closes.

Transport: a non-streaming reply leaves in one write (status line,
headers and body together) on a ``TCP_NODELAY`` socket, and each
``/events`` chunk goes out as it is written.
"""

from __future__ import annotations

import itertools
import json
import re
import signal
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.api import Session
from repro.obs import promfmt
from repro.service.jobs import (
    TERMINAL_STATES,
    DONE,
    JobError,
    JobManager,
    JobSpec,
    JobStore,
    QueueFullError,
    ServiceDraining,
    UnknownJobError,
)

#: Version segment every route is served under.
API_VERSION = "v1"

#: Seconds between polls while following a job's event stream.
EVENT_POLL_S = 0.05

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9._-]+)(/result|/events)?$")


class SimulationServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a :class:`JobManager` + Session."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        manager: JobManager,
        *,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _Handler)
        self.manager = manager
        self.session = manager.session
        self.telemetry = manager.telemetry
        self.quiet = quiet
        self.started_monotonic = time.monotonic()

    @property
    def port(self) -> int:
        return self.server_address[1]


def route_template(path: str) -> str:
    """Collapse a request path to its bounded route template.

    Metric labels must never carry raw job ids (every distinct label set
    is a live time series); unknown and unversioned paths fold to
    ``"other"``.
    """
    if path in ("/healthz", "/metrics", "/runs", "/jobs", "/"):
        return path
    match = _JOB_PATH.match(path)
    if match:
        return "/jobs/{id}" + (match.group(2) or "")
    return "other"


class _Handler(BaseHTTPRequestHandler):
    """The ``/v1`` routes over the server's :class:`JobManager`.

    :meth:`_dispatch` strips the ``/v1`` prefix and hands ``(path,
    query)`` to ``_get``/``_post``/``_delete``; an unversioned path gets
    a ``404`` pointing at ``/v1``.
    """

    server: SimulationServer
    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every accepted socket: a reply already leaves in
    #: one write, and each event-stream chunk goes out as it is written.
    disable_nagle_algorithm = True

    #: The route path with the version prefix stripped, "" when the
    #: request did not use it (set per request).
    _route_path = ""
    #: Last status code sent on this request (for telemetry).
    _status = 0
    #: Trace id for this request (client ``X-Trace-Id`` or freshly minted).
    _trace_id = ""

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def send_response(self, code: int, message: str | None = None) -> None:
        self._status = code
        super().send_response(code, message)

    def end_headers(self, body: bytes = b"") -> None:
        """End the header block and send it together with ``body``.

        One write per reply: on a keep-alive connection a body sent after
        its headers would wait in the kernel (Nagle) for the client's
        delayed ACK of the headers, about 40 ms.
        """
        if self._trace_id:
            self.send_header("X-Trace-Id", self._trace_id)
        if self.request_version == "HTTP/0.9":  # a 0.9 reply has no head
            self.wfile.write(body)
            return
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._post)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._delete)

    def _dispatch(self, route: Callable[[str, dict], None]) -> None:
        """Route one request, recording latency by route template/status.

        The route template is derived after the handler ran (it parses the
        path), so labels reflect the normalized ``/jobs/{id}`` form; a
        handler that died before sending anything records status 500.

        Every request gets a trace id — the client's ``X-Trace-Id`` header
        when sent (so callers can correlate their own traces), otherwise a
        fresh one — echoed back on the response and attached to the latency
        histogram bucket as an exemplar.
        """
        t0 = time.perf_counter()
        self._status = 0
        self._route_path = ""
        header = (self.headers.get("X-Trace-Id") or "").strip()
        self._trace_id = header[:64] if header else uuid.uuid4().hex[:16]
        try:
            url = urlsplit(self.path)
            versioned = f"/{API_VERSION}"
            if not (url.path + "/").startswith(versioned + "/"):
                return self._error(
                    404,
                    f"no route for {self.command} {url.path}: the API is "
                    f"served under {versioned}/ (try {versioned}{url.path})",
                )
            self._route_path = url.path[len(versioned):] or "/"
            route(self._route_path, parse_qs(url.query))
        finally:
            self.server.telemetry.observe_request(
                self.command,
                route_template(self._route_path),
                self._status or 500,
                time.perf_counter() - t0,
                trace_id=self._trace_id,
            )

    def _no_route(self) -> None:
        self._error(
            404, f"no route for {self.command} {urlsplit(self.path).path}"
        )

    def _text(self, status: int, text: str, content_type: str,
              **headers: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), value)
        self.end_headers(body)

    def _json(self, status: int, payload: object, **headers: str) -> None:
        text = json.dumps(payload, sort_keys=True) + "\n"
        self._text(status, text, "application/json", **headers)

    def _error(self, status: int, message: str, **headers: str) -> None:
        self._json(status, {"error": message}, **headers)

    def _read_json(self) -> object:
        """Decode the request body; :class:`JobError` (a 400) on bad input."""
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown: the connection cannot be reused.
            self.close_connection = True
            raise JobError(
                f"'Content-Length' must be a non-negative integer, got "
                f"{declared!r}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise JobError(f"request body is not valid JSON: {exc}") from exc

    # -- routing -------------------------------------------------------------

    def _get(self, path: str, query: dict[str, list[str]]) -> None:
        if path == "/healthz":
            return self._get_healthz()
        if path == "/metrics":
            return self._get_metrics(query)
        if path == "/runs":
            return self._get_runs(query)
        if path == "/jobs":
            return self._json(
                200,
                {"jobs": [j.snapshot() for j in self.server.manager.jobs()]},
            )
        match = _JOB_PATH.match(path)
        if match:
            try:
                job = self.server.manager.get(match.group(1))
            except UnknownJobError as exc:
                return self._error(404, str(exc))
            tail = match.group(2)
            if tail is None:
                return self._json(200, job.snapshot())
            if tail == "/result":
                return self._get_result(job)
            return self._stream_events(job, query)
        self._no_route()

    def _post(self, path: str, query: dict[str, list[str]]) -> None:
        if path != "/jobs":
            return self._no_route()
        try:
            job = self.server.manager.submit(JobSpec.decode(self._read_json()))
        except JobError as exc:
            return self._error(400, str(exc))
        except QueueFullError as exc:
            return self._error(429, str(exc), Retry_After="1")
        except ServiceDraining as exc:
            return self._error(503, str(exc))
        base = f"/{API_VERSION}/jobs/{job.id}"
        self._json(
            201,
            {
                "job_id": job.id,
                "state": job.state,
                "status_url": base,
                "result_url": f"{base}/result",
                "events_url": f"{base}/events",
            },
        )

    def _delete(self, path: str, query: dict[str, list[str]]) -> None:
        match = _JOB_PATH.match(path)
        if not match or match.group(2):
            return self._no_route()
        try:
            job = self.server.manager.cancel(match.group(1))
        except UnknownJobError as exc:
            return self._error(404, str(exc))
        self._json(200, job.snapshot())

    # -- endpoint bodies -----------------------------------------------------

    def _get_healthz(self) -> None:
        manager = self.server.manager
        counts = manager.counts()
        self._json(
            200,
            {
                "status": "draining" if manager.draining else "ok",
                "api_version": API_VERSION,
                "jobs": counts,
                "jobs_completed": sum(
                    counts.get(state, 0) for state in TERMINAL_STATES
                ),
                "queue_depth": manager.queue_depth,
                "in_flight": manager.in_flight,
                "job_workers": manager.job_workers,
                "fleet": list(manager.worker_urls),
                "queue_capacity": manager._queue.maxsize,
                "ledger": (
                    str(self.server.session.ledger.root)
                    if self.server.session.ledger is not None
                    else None
                ),
                "uptime_s": round(
                    time.monotonic() - self.server.started_monotonic, 3
                ),
            },
        )

    def _get_metrics(self, query: dict[str, list[str]]) -> None:
        """One telemetry scrape, as JSON or Prometheus text exposition.

        Queue gauges are sampled at scrape time so they reflect this
        instant rather than the last request that happened to touch them.
        """
        manager = self.server.manager
        telemetry = self.server.telemetry
        telemetry.sample_queue(
            depth=manager.queue_depth,
            in_flight=manager.in_flight,
            capacity=manager._queue.maxsize,
            draining=manager.draining,
        )
        # ``?format=prometheus|text``, or an ``Accept`` of plain text only.
        fmt = query.get("format", [""])[0].lower()
        accept = self.headers.get("Accept", "")
        if fmt in ("prometheus", "text") or (
            not fmt
            and "text/plain" in accept
            and "application/json" not in accept
        ):
            return self._text(
                200, telemetry.to_prometheus(), promfmt.CONTENT_TYPE
            )
        self._json(
            200,
            {
                "api_version": API_VERSION,
                "uptime_s": round(telemetry.uptime_s, 3),
                "metrics": telemetry.snapshot(),
            },
        )

    def _get_runs(self, query: dict[str, list[str]]) -> None:
        ledger = self.server.session.ledger
        if ledger is None:
            return self._error(404, "ledger is disabled on this server")
        try:
            limit = int(query.get("limit", ["20"])[0])
        except ValueError:
            limit = -1
        if limit < 0:
            return self._error(400, "'limit' must be a non-negative integer")
        manifests = ledger.list(
            kind=query.get("kind", [None])[0],
            scheme=query.get("scheme", [None])[0],
            workload=query.get("workload", [None])[0],
            label=query.get("label", [None])[0],
            limit=limit or None,
        )
        self._json(200, {"runs": [m.to_dict() for m in manifests]})

    def _get_result(self, job) -> None:
        snapshot = job.snapshot()
        if snapshot["state"] not in TERMINAL_STATES:
            return self._json(202, snapshot)
        if snapshot["state"] != DONE:
            return self._json(409, snapshot)
        self._json(200, {**snapshot, "result": job.result})

    def _stream_events(self, job, query: dict[str, list[str]]) -> None:
        """Chunked JSONL: replay events from ``since``, follow until done."""
        try:
            since = int(query.get("since", ["0"])[0])
        except ValueError:
            return self._error(400, "'since' must be an integer")
        follow = query.get("follow", ["1"])[0] not in ("0", "false", "no")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        cursor = since
        try:
            while True:
                events = job.events_since(cursor)
                for event in events:
                    self._chunk(json.dumps(event, sort_keys=True) + "\n")
                    cursor = event["seq"] + 1
                snapshot = job.snapshot()
                if snapshot["state"] in TERMINAL_STATES or not follow:
                    self._chunk(
                        json.dumps(
                            {
                                "kind": "end",
                                "state": snapshot["state"],
                                "error": snapshot["error"],
                            },
                            sort_keys=True,
                        )
                        + "\n",
                        last=True,
                    )
                    break
                job.wait(EVENT_POLL_S)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up

    def _chunk(self, text: str, *, last: bool = False) -> None:
        """Send one chunk; ``last`` adds the terminating empty chunk to
        the same write."""
        data = text.encode()
        self.wfile.write(
            f"{len(data):x}\r\n".encode() + data + b"\r\n"
            + (b"0\r\n\r\n" if last else b"")
        )


def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    session: Session | None = None,
    job_workers: int = 2,
    queue_size: int = 16,
    job_timeout_s: float | None = None,
    max_sweep_workers: int = 4,
    drain_timeout_s: float = 30.0,
    worker_urls: Sequence[str] = (),
    fleet_window: int = 2,
    fleet_probe_interval_s: float = 2.0,
    quiet: bool = False,
    ready: threading.Event | None = None,
) -> int:
    """Run the job service until SIGTERM/SIGINT, then drain gracefully.

    Blocks the calling thread in ``serve_forever``.  The first signal
    starts a drain (new submissions get ``503``, in-flight jobs finish or
    cancel within ``drain_timeout_s``); a second signal cancels remaining
    jobs outright.  ``worker_urls`` runs sweep jobs on that fleet of
    ``deuce-sim serve`` workers (see :class:`JobManager`).  ``ready`` is
    set once the signal handlers are installed.  Returns the process exit
    code.
    """
    session = session if session is not None else Session()
    manager = JobManager(
        session,
        job_workers=job_workers,
        queue_size=queue_size,
        default_timeout_s=job_timeout_s,
        max_sweep_workers=max_sweep_workers,
        store=(
            JobStore(session.ledger.root / "service")
            if session.ledger is not None
            else None
        ),
        worker_urls=worker_urls,
        fleet_window=fleet_window,
        fleet_probe_interval_s=fleet_probe_interval_s,
    ).start()
    restored = manager.rehydrate()
    if not quiet and restored:
        print(
            f"deuce-sim serve: rehydrated {len(restored)} unfinished "
            f"job(s) from the ledger journal",
            flush=True,
        )
    server = SimulationServer((host, port), manager, quiet=quiet)
    signals_seen = itertools.count(1)

    def _drain_and_stop(signals: int) -> None:
        # A second signal cancels what the first one's drain waits for.
        manager.drain(drain_timeout_s, cancel=signals > 1)
        server.shutdown()

    def _on_signal(_signum, _frame) -> None:
        # shutdown() deadlocks on the serve_forever thread, which is the
        # one a signal interrupts: drain on a fresh thread instead.
        threading.Thread(
            target=_drain_and_stop, args=(next(signals_seen),), daemon=True
        ).start()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    if not quiet:
        fleet = (
            f", fleet {', '.join(manager.worker_urls)}"
            if manager.worker_urls else ""
        )
        print(
            f"deuce-sim serve: listening on http://{host}:{server.port} "
            f"({job_workers} job workers, queue {queue_size}, ledger "
            # "is not None": an empty-but-enabled RunLedger has len() == 0.
            f"{session.ledger.root if session.ledger is not None else 'off'}"
            f"{fleet})",
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
    if not quiet:
        print("deuce-sim serve: drained, bye", flush=True)
    return 0
