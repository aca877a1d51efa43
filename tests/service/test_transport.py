"""How ``/v1`` replies leave the server: one write each, no Nagle stall.

A reply sent as a header write and then a body write stalls on a
keep-alive connection: Nagle's algorithm holds the body until the
client's delayed ACK of the headers, about 40 ms per request.
"""

from __future__ import annotations

import http.client
import time

from repro.api import Session
from repro.service.loadtest import spawned_service
from repro.service.server import _Handler
from tests.service.conftest import RUN_CONFIG, request


class _WriteLog:
    """A handler's ``wfile`` that records every write it passes on."""

    def __init__(self, wfile, log: list[bytes]) -> None:
        self._wfile = wfile
        self._log = log

    def write(self, data: bytes) -> int:
        self._log.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name: str):
        return getattr(self._wfile, name)


def test_every_non_streaming_reply_is_one_write(service):
    writes: list[bytes] = []

    class Recording(_Handler):
        def setup(self) -> None:
            super().setup()
            self.wfile = _WriteLog(self.wfile, writes)

    service.server.RequestHandlerClass = Recording
    envelope = {"kind": "run", "config": RUN_CONFIG}
    status, _, body = request("POST", f"{service.url}/v1/jobs", envelope)
    assert status == 201
    probes = [
        ("GET", "/v1/healthz", None, 200),
        ("GET", f"/v1/jobs/{body['job_id']}", None, 200),
        ("GET", "/v1/jobs", None, 200),
        ("GET", "/v1/metrics?format=prometheus", None, 200),
        ("GET", "/v1/runs?limit=1", None, 200),
        ("POST", "/v1/jobs", {"kind": "nope"}, 400),
        ("GET", "/v1/nope", None, 404),
        ("GET", "/healthz", None, 404),
        ("POST", "/v1/jobs", envelope, 201),
    ]
    for method, path, payload, expected in probes:
        writes.clear()
        status, headers, _ = request(method, service.url + path, payload)
        assert status == expected, path
        assert len(writes) == 1, (path, writes)
        head, _, sent_body = writes[0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % expected), path
        assert len(sent_body) == int(headers["Content-Length"]), path


def test_keep_alive_requests_do_not_wait_for_a_delayed_ack():
    with spawned_service(Session(ledger=False)) as url:
        conn = http.client.HTTPConnection(
            "127.0.0.1", int(url.rsplit(":", 1)[1]), timeout=10
        )
        try:
            t0 = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/v1/healthz")
                reply = conn.getresponse()
                reply.read()
                assert reply.status == 200
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
    # ~0.9 s when every reply waits ~40 ms for the delayed ACK.
    assert elapsed < 0.4, f"20 keep-alive GETs took {elapsed:.3f} s"
