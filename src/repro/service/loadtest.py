"""Concurrent load-test harness for the job service (``deuce-sim loadtest``).

Stdlib-only soak generator: N client threads hammer a running service with
a weighted mix of operations (job submission, status polling, sweep
submission, cancellation, health probes) for a fixed duration, while a
sampler thread records the queue-depth/in-flight time series from
``/v1/healthz``.  The result is a JSON report with exact latency
percentiles (client-side, every request measured — no bucketing error),
error rates, per-operation breakdowns, the queue time series, and a final
``/v1/metrics`` scrape from the server for cross-checking.

The report doubles as an SLO gate: give ``p99_slo_ms`` and/or
``max_error_rate`` and ``report["slo"]["passed"]`` says whether the
service held them.  429 backpressure responses are *not* errors — the
service shedding load by design is healthy behaviour; errors are
transport failures, 5xx, and every other 4xx (a rejected request means
the soak stopped measuring the path it meant to).

When a ledger is given the report is recorded as a ``kind="loadtest"``
manifest with the full JSON attached as an artifact, which is what the
dashboard's "Service SLO" tiles render.

:func:`spawned_service` spins up a private in-process service on an
ephemeral port for self-contained soaks (CI smoke, tests); point
``run_loadtest`` at an external URL to soak a real deployment.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.ledger import RunLedger, build_manifest
from repro.service.jobs import JobManager
from repro.service.server import SimulationServer

#: Relative operation weights of the default soak mix: mostly status
#: polling (the cheap, chatty op real clients do), a steady trickle of
#: run/sweep submissions, occasional cancels, and health probes.
DEFAULT_MIX: dict[str, float] = {
    "run": 2.0,
    "status": 6.0,
    "sweep": 0.5,
    "cancel": 0.5,
    "healthz": 1.0,
}

#: Operations :func:`parse_mix` accepts.
KNOWN_OPS = frozenset(DEFAULT_MIX)


def parse_mix(text: str) -> dict[str, float]:
    """``"run=2,status=6"`` → ``{"run": 2.0, "status": 6.0}``.

    Unlisted operations get weight 0 (never issued); at least one weight
    must be positive.
    """
    mix = dict.fromkeys(DEFAULT_MIX, 0.0)
    for part in filter(None, (p.strip() for p in text.split(","))):
        op, sep, weight = part.partition("=")
        op = op.strip()
        if op not in KNOWN_OPS:
            raise ValueError(
                f"unknown operation {op!r}; valid: "
                + ", ".join(sorted(KNOWN_OPS))
            )
        if not sep:
            raise ValueError(f"mix entry {part!r} must be 'op=weight'")
        try:
            value = float(weight)
        except ValueError:
            raise ValueError(
                f"weight for {op!r} must be a number, got {weight!r}"
            ) from None
        if value < 0:
            raise ValueError(f"weight for {op!r} must be >= 0, got {value}")
        mix[op] = value
    if not any(mix.values()):
        raise ValueError(f"mix {text!r} has no positive weights")
    return mix


def percentile(sorted_vals: list[float], q: float) -> float:
    """Exact linear-interpolation percentile of pre-sorted values.

    ``q`` in [0, 1].  Matches ``numpy.percentile``'s default ("linear")
    method; the empty list yields 0.0.
    """
    if not sorted_vals:
        return 0.0
    rank = q * (len(sorted_vals) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(sorted_vals[lo])
    frac = rank - lo
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * frac


@dataclass
class LoadTestOptions:
    """Knobs for one soak.

    ``p99_slo_ms`` <= 0 and ``max_error_rate`` < 0 disable the respective
    SLO checks (the report still carries the measured values).
    """

    duration_s: float = 10.0
    clients: int = 8
    mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    writes: int = 200
    workload: str = "mcf"
    scheme: str = "deuce"
    seed: int = 0
    timeout_s: float = 30.0
    sample_every_s: float = 0.25
    p99_slo_ms: float = 0.0
    max_error_rate: float = -1.0
    label: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "duration_s": self.duration_s,
            "clients": self.clients,
            "mix": dict(self.mix),
            "writes": self.writes,
            "workload": self.workload,
            "scheme": self.scheme,
            "seed": self.seed,
            "timeout_s": self.timeout_s,
            "p99_slo_ms": self.p99_slo_ms,
            "max_error_rate": self.max_error_rate,
        }


def _http(
    method: str,
    url: str,
    payload: object = None,
    timeout: float = 30.0,
) -> tuple[int, object, float]:
    """One request → ``(status, decoded body or None, latency seconds)``.

    Status 0 means the request never got an HTTP response (connection
    refused, timeout, reset) — a *transport* error, counted separately
    from server 5xx in the report.
    """
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers,
                                 method=method)
    t0 = time.perf_counter()
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            raw = resp.read()
            elapsed = time.perf_counter() - t0
            try:
                body = json.loads(raw) if raw else None
            except json.JSONDecodeError:
                body = None
            return resp.status, body, elapsed
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code, None, time.perf_counter() - t0
    except Exception:
        return 0, None, time.perf_counter() - t0


class _Soak:
    """Shared state of one running load test."""

    def __init__(self, base_url: str, options: LoadTestOptions) -> None:
        self.base = base_url.rstrip("/")
        self.options = options
        self.deadline = 0.0
        self._lock = threading.Lock()
        self._job_ids: list[str] = []
        self.records: list[list[tuple[str, int, float]]] = []
        self.queue_samples: list[tuple[float, int, int]] = []
        self.queue_capacity = 0

    # -- shared job-id pool --------------------------------------------------

    def _remember_job(self, job_id: str) -> None:
        with self._lock:
            self._job_ids.append(job_id)
            # Status/cancel ops only need recent ids; cap the pool.
            if len(self._job_ids) > 512:
                del self._job_ids[:256]

    def _pick_job(self, rng: random.Random) -> str | None:
        with self._lock:
            return rng.choice(self._job_ids) if self._job_ids else None

    def known_jobs(self) -> list[str]:
        with self._lock:
            return list(self._job_ids)

    # -- client threads ------------------------------------------------------

    def _config(self, rng: random.Random) -> dict[str, object]:
        opts = self.options
        return {
            "workload": opts.workload,
            "scheme": opts.scheme,
            "n_writes": opts.writes,
            "seed": rng.randrange(1_000_000),
        }

    def _do_op(
        self, op: str, rng: random.Random
    ) -> tuple[str, int, float]:
        timeout = self.options.timeout_s
        if op == "run":
            status, body, dt = _http(
                "POST", f"{self.base}/v1/jobs",
                {"kind": "run", "config": self._config(rng)},
                timeout,
            )
            if status == 201 and isinstance(body, dict):
                self._remember_job(body["job_id"])
            return op, status, dt
        if op == "sweep":
            configs = [self._config(rng), self._config(rng)]
            status, body, dt = _http(
                "POST", f"{self.base}/v1/jobs",
                {"kind": "sweep", "config": configs,
                 "options": {"workers": 1}},
                timeout,
            )
            if status == 201 and isinstance(body, dict):
                self._remember_job(body["job_id"])
            return op, status, dt
        if op == "cancel":
            job_id = self._pick_job(rng)
            if job_id is not None:
                status, _, dt = _http(
                    "DELETE", f"{self.base}/v1/jobs/{job_id}",
                    timeout=timeout,
                )
                return op, status, dt
            op = "status"  # nothing to cancel yet; fall through
        if op == "status":
            job_id = self._pick_job(rng)
            url = (
                f"{self.base}/v1/jobs/{job_id}"
                if job_id is not None
                else f"{self.base}/v1/jobs"
            )
            status, _, dt = _http("GET", url, timeout=timeout)
            return op, status, dt
        status, _, dt = _http(
            "GET", f"{self.base}/v1/healthz", timeout=timeout
        )
        return "healthz", status, dt

    def _client_loop(self, index: int) -> None:
        rng = random.Random(self.options.seed * 7919 + index)
        ops = [op for op, w in self.options.mix.items() if w > 0]
        weights = [self.options.mix[op] for op in ops]
        mine: list[tuple[str, int, float]] = []
        while time.monotonic() < self.deadline:
            op = rng.choices(ops, weights)[0]
            mine.append(self._do_op(op, rng))
        with self._lock:
            self.records.append(mine)

    # -- sampler thread ------------------------------------------------------

    def _sampler_loop(self, t0: float) -> None:
        while time.monotonic() < self.deadline:
            status, body, _ = _http(
                "GET", f"{self.base}/v1/healthz",
                timeout=self.options.timeout_s,
            )
            if status == 200 and isinstance(body, dict):
                sample = (
                    round(time.monotonic() - t0, 3),
                    int(body.get("queue_depth", 0)),
                    int(body.get("in_flight", 0)),
                )
                with self._lock:
                    self.queue_samples.append(sample)
                    self.queue_capacity = int(
                        body.get("queue_capacity", self.queue_capacity)
                    )
            time.sleep(self.options.sample_every_s)


def run_loadtest(
    base_url: str,
    options: LoadTestOptions | None = None,
    *,
    ledger: RunLedger | None = None,
) -> dict[str, object]:
    """Soak a running service and return (and optionally record) a report.

    Blocks for ``options.duration_s`` plus cleanup.  Outstanding jobs
    submitted by the soak are cancelled best-effort afterwards so a
    short-lived smoke run doesn't leave a service grinding through
    leftover work.
    """
    options = options if options is not None else LoadTestOptions()
    soak = _Soak(base_url, options)
    t0 = time.monotonic()
    soak.deadline = t0 + options.duration_s
    threads = [
        threading.Thread(
            target=soak._client_loop, args=(i,), daemon=True,
            name=f"loadtest-client-{i}",
        )
        for i in range(options.clients)
    ]
    sampler = threading.Thread(
        target=soak._sampler_loop, args=(t0,), daemon=True,
        name="loadtest-sampler",
    )
    for thread in threads:
        thread.start()
    sampler.start()
    for thread in threads:
        thread.join()
    sampler.join()
    wall_s = time.monotonic() - t0

    # Leave the service quiet: cancel anything the soak queued up.
    for job_id in soak.known_jobs():
        _http("DELETE", f"{soak.base}/v1/jobs/{job_id}",
              timeout=options.timeout_s)
    _, metrics_body, _ = _http(
        "GET", f"{soak.base}/v1/metrics", timeout=options.timeout_s
    )

    report = _build_report(soak, wall_s, metrics_body)
    if ledger is not None:
        record_report(ledger, report, label=options.label)
    return report


def _client_error(status: int) -> bool:
    """A rejected request: any 4xx but 429 backpressure."""
    return 400 <= status < 500 and status != 429


def _build_report(
    soak: _Soak, wall_s: float, metrics_body: object
) -> dict[str, object]:
    options = soak.options
    flat = [rec for client in soak.records for rec in client]
    latencies = sorted(dt * 1000.0 for _, _, dt in flat)
    transport = sum(1 for _, status, _ in flat if status == 0)
    server_5xx = sum(1 for _, status, _ in flat if status >= 500)
    backpressure = sum(1 for _, status, _ in flat if status == 429)
    client_4xx = sum(1 for _, status, _ in flat if _client_error(status))
    errors = transport + server_5xx + client_4xx
    total = len(flat)
    error_rate = errors / total if total else 0.0

    per_op: dict[str, dict[str, float]] = {}
    for op in sorted({rec[0] for rec in flat}):
        mine = sorted(dt * 1000.0 for o, _, dt in flat if o == op)
        op_errors = sum(
            1 for o, status, _ in flat
            if o == op
            and (status == 0 or status >= 500 or _client_error(status))
        )
        per_op[op] = {
            "requests": len(mine),
            "errors": op_errors,
            "p50_ms": round(percentile(mine, 0.50), 3),
            "p99_ms": round(percentile(mine, 0.99), 3),
        }

    depths = [depth for _, depth, _ in soak.queue_samples]
    p99_ms = percentile(latencies, 0.99)
    slo: dict[str, object] = {
        "p99_slo_ms": options.p99_slo_ms,
        "max_error_rate": options.max_error_rate,
        "p99_ms": round(p99_ms, 3),
        "error_rate": round(error_rate, 6),
    }
    passed = True
    if options.p99_slo_ms > 0 and p99_ms > options.p99_slo_ms:
        passed = False
    if 0 <= options.max_error_rate < error_rate:
        passed = False
    slo["passed"] = passed

    return {
        "kind": "loadtest",
        "base_url": soak.base,
        "options": options.to_dict(),
        "duration_s": round(wall_s, 3),
        "totals": {
            "requests": total,
            "rps": round(total / wall_s, 2) if wall_s else 0.0,
            "errors": errors,
            "error_rate": round(error_rate, 6),
            "backpressure_429": backpressure,
            "client_4xx": client_4xx,
            "server_5xx": server_5xx,
            "transport_errors": transport,
        },
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50), 3),
            "p90": round(percentile(latencies, 0.90), 3),
            "p95": round(percentile(latencies, 0.95), 3),
            "p99": round(p99_ms, 3),
            "mean": round(
                sum(latencies) / len(latencies), 3
            ) if latencies else 0.0,
            "max": round(latencies[-1], 3) if latencies else 0.0,
        },
        "ops": per_op,
        "queue": {
            "samples": [list(s) for s in soak.queue_samples],
            "depth_peak": max(depths) if depths else 0,
            "depth_mean": round(
                sum(depths) / len(depths), 3
            ) if depths else 0.0,
            "capacity": soak.queue_capacity,
        },
        "server_metrics": (
            metrics_body.get("metrics")
            if isinstance(metrics_body, dict)
            else None
        ),
        "slo": slo,
    }


def record_report(
    ledger: RunLedger, report: dict[str, object], *, label: str = ""
) -> "object":
    """Persist a loadtest report as a ledger manifest + JSON artifact.

    The summary carries the flat numbers the dashboard tiles need; the
    full report (queue time series included) lands in the
    ``loadtest.json`` artifact.
    """
    totals = report["totals"]
    latency = report["latency_ms"]
    queue = report["queue"]
    slo = report["slo"]
    capacity = queue["capacity"] or 0
    manifest = build_manifest(
        kind="loadtest",
        label=label,
        config={"options": report["options"]},
        wall_time_s=float(report["duration_s"]),
        summary={
            "requests": float(totals["requests"]),
            "rps": float(totals["rps"]),
            "errors": float(totals["errors"]),
            "error_rate": float(totals["error_rate"]),
            "backpressure_429": float(totals["backpressure_429"]),
            "p50_ms": float(latency["p50"]),
            "p95_ms": float(latency["p95"]),
            "p99_ms": float(latency["p99"]),
            "queue_depth_peak": float(queue["depth_peak"]),
            "saturation": (
                queue["depth_peak"] / capacity if capacity else 0.0
            ),
            "slo_passed": 1.0 if slo["passed"] else 0.0,
        },
    )
    return ledger.record(
        manifest,
        artifact_text={
            "loadtest.json": json.dumps(report, indent=2, sort_keys=True)
            + "\n"
        },
    )


@contextlib.contextmanager
def spawned_service(
    session,
    *,
    job_workers: int = 2,
    queue_size: int = 16,
    max_sweep_workers: int = 2,
) -> Iterator[str]:
    """A private in-process service on an ephemeral port; yields its URL.

    For self-contained soaks (tests, CI smoke): no sockets are shared, the
    service drains with cancellation on exit.
    """
    manager = JobManager(
        session,
        job_workers=job_workers,
        queue_size=queue_size,
        max_sweep_workers=max_sweep_workers,
    ).start()
    server = SimulationServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.port}"
    finally:
        manager.drain(10, cancel=True)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
