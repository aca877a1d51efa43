"""The one ``/v1`` client: :func:`call`.

Every HTTP client of the job service goes through it: the fleet's
:class:`~repro.service.coordinator.WorkerClient`, the load-test harness
(:mod:`repro.service.loadtest`), the service tests and the CI smoke
scripts.  It never raises for a failed request, so each caller decides
what a failure means to it.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request


def call(
    method: str,
    url: str,
    payload: object = None,
    *,
    timeout: float = 30.0,
    headers: dict[str, str] | None = None,
    reply_headers: dict[str, str] | None = None,
) -> tuple[int, object]:
    """One request; returns ``(status, decoded JSON body)``.

    ``payload`` (when not ``None``) is sent as a JSON body.  An HTTP
    error status is returned like any other, with its decoded body; the
    body is ``None`` when it is empty or not JSON.  Status 0 means the
    request got no HTTP response at all (connection refused, timeout,
    reset, a reply cut short); the body is then the error's text.  A
    ``reply_headers`` dict receives the response's headers.
    """
    data = None if payload is None else json.dumps(
        payload, sort_keys=True
    ).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    try:
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                status, raw, got = response.status, response.read(), response
        except urllib.error.HTTPError as exc:
            status, raw, got = exc.code, exc.read(), exc
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return 0, f"{method} {url} failed: {exc}"
    if reply_headers is not None:
        reply_headers.update(got.headers)
    try:
        return status, json.loads(raw) if raw else None
    except ValueError:
        return status, None
