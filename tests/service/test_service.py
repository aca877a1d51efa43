"""End-to-end HTTP service tests over a live socket.

An in-process :class:`SimulationServer` (ephemeral port) covers the JSON
API; a subprocess test covers ``deuce-sim serve`` + SIGTERM drain.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import Session
from repro.sim.config import SimConfig
from tests.service.conftest import RUN_CONFIG, request


def _poll_terminal(base: str, job_id: str, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = request("GET", f"{base}/v1/jobs/{job_id}")
        assert status == 200
        if body["state"] in ("done", "failed", "cancelled"):
            return body
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not settle within {timeout}s")


class TestEndpoints:
    def test_healthz(self, service):
        status, _, body = request("GET", f"{service.url}/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["job_workers"] == 4
        assert body["ledger"]
        # Telemetry enrichment: uptime plus queue/completion counters.
        assert body["uptime_s"] >= 0.0
        assert body["queue_depth"] == 0
        assert body["in_flight"] == 0
        assert body["jobs_completed"] == 0
        assert body["queue_capacity"] == 16

    def test_submit_run_result_bit_identical(self, service):
        base, session = service.url, service.session
        status, _, body = request(
            "POST", f"{base}/v1/jobs", {"kind": "run", "config": RUN_CONFIG}
        )
        assert status == 201
        job_id = body["job_id"]
        final = _poll_terminal(base, job_id)
        assert final["state"] == "done", final["error"]
        status, _, body = request("GET", f"{base}/v1/jobs/{job_id}/result")
        assert status == 200
        via_http = body["result"]["results"][0]
        direct = Session(ledger=False).run(SimConfig.from_dict(RUN_CONFIG))
        expected = direct.to_dict()
        for side in (via_http, expected):
            side.pop("wall_time_s", None)
            side.pop("run_id", None)
            side["summary"].pop("wall_s", None)
        assert via_http == expected
        # The ledger holds the manifest the job reported.
        run_id = body["result"]["run_ids"][0]
        assert session.ledger.get(run_id).kind == "run"

    def test_sweep_job_with_events_stream(self, service):
        base, session = service.url, service.session
        configs = [dict(RUN_CONFIG, seed=i) for i in range(3)]
        status, _, body = request(
            "POST",
            f"{base}/v1/jobs",
            {"kind": "sweep", "config": configs,
             "options": {"workers": 1, "label": "e2e"}},
        )
        assert status == 201
        job_id = body["job_id"]
        # Follow the chunked JSONL stream until the terminal line.
        lines = []
        with urllib.request.urlopen(
            f"{base}/v1/jobs/{job_id}/events", timeout=60
        ) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            for raw in resp:
                lines.append(json.loads(raw))
                if lines[-1].get("kind") == "end":
                    break
        assert lines[-1]["state"] == "done"
        assert [e["kind"] for e in lines].count("done") == 3
        manifests = session.ledger.list(kind="sweep-cell", label="e2e")
        assert len(manifests) == 3

    def test_events_page_without_follow(self, service):
        base = service.url
        _, _, body = request(
            "POST", f"{base}/v1/jobs", {"kind": "run", "config": RUN_CONFIG}
        )
        job_id = body["job_id"]
        _poll_terminal(base, job_id)
        with urllib.request.urlopen(
            f"{base}/v1/jobs/{job_id}/events?follow=0", timeout=30
        ) as resp:
            lines = [json.loads(raw) for raw in resp]
        assert lines[-1]["kind"] == "end"

    def test_cancel_running_job(self, service):
        base = service.url
        big = [dict(RUN_CONFIG, n_writes=500_000, seed=i) for i in range(4)]
        _, _, body = request(
            "POST", f"{base}/v1/jobs", {"kind": "sweep", "config": big,
                                        "options": {"workers": 1}}
        )
        job_id = body["job_id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, _, status_body = request("GET", f"{base}/v1/jobs/{job_id}")
            if status_body["state"] == "running":
                break
            time.sleep(0.01)
        status, _, body = request("DELETE", f"{base}/v1/jobs/{job_id}")
        assert status == 200
        assert body["cancel_requested"]
        final = _poll_terminal(base, job_id)
        assert final["state"] == "cancelled"
        status, _, _ = request("GET", f"{base}/v1/jobs/{job_id}/result")
        assert status == 409

    def test_result_pending_is_202(self, service):
        base = service.url
        _, _, body = request(
            "POST",
            f"{base}/v1/jobs",
            {"kind": "run",
             "config": dict(RUN_CONFIG, n_writes=2_000_000)},
        )
        job_id = body["job_id"]
        status, _, _ = request("GET", f"{base}/v1/jobs/{job_id}/result")
        assert status == 202
        request("DELETE", f"{base}/v1/jobs/{job_id}")
        _poll_terminal(base, job_id)

    def test_bad_payload_is_400(self, service):
        status, _, body = request(
            "POST",
            f"{service.url}/v1/jobs",
            {"kind": "run",
             "config": dict(RUN_CONFIG, n_write=10)},
        )
        assert status == 400
        assert "n_writes" in body["error"]  # did-you-mean from from_dict

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, service, length):
        status, _, body = request(
            "POST", f"{service.url}/v1/jobs",
            {"kind": "run", "config": RUN_CONFIG},
            headers={"Content-Length": length},
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_unknown_job_is_404(self, service):
        base = service.url
        status, _, _ = request("GET", f"{base}/v1/jobs/job-nope")
        assert status == 404
        status, _, _ = request("DELETE", f"{base}/v1/jobs/job-nope")
        assert status == 404

    def test_runs_query(self, service):
        base = service.url
        _, _, body = request(
            "POST", f"{base}/v1/jobs",
            {"kind": "run", "config": RUN_CONFIG,
             "options": {"label": "query-me"}},
        )
        _poll_terminal(base, body["job_id"])
        status, _, body = request(
            "GET", f"{base}/v1/runs?label=query-me&scheme=deuce"
        )
        assert status == 200
        assert len(body["runs"]) == 1
        assert body["runs"][0]["workload"] == "mcf"

    def test_jobs_listing(self, service):
        base = service.url
        _, _, body = request(
            "POST", f"{base}/v1/jobs", {"kind": "run", "config": RUN_CONFIG}
        )
        _poll_terminal(base, body["job_id"])
        status, _, listing = request("GET", f"{base}/v1/jobs")
        assert status == 200
        assert any(j["job_id"] == body["job_id"] for j in listing["jobs"])


class TestBackpressure:
    # Workers not started: the queue fills deterministically.
    @pytest.mark.service(job_workers=1, queue_size=1, start=False)
    def test_429_when_queue_full(self, service):
        base, server = service.url, service.server
        status, _, _ = request(
            "POST", f"{base}/v1/jobs", {"kind": "run", "config": RUN_CONFIG}
        )
        assert status == 201
        status, _, body = request(
            "POST", f"{base}/v1/jobs", {"kind": "run", "config": RUN_CONFIG}
        )
        assert status == 429
        assert "queue" in body["error"]
        # The rejection lands in the dedicated backpressure counter
        # (recorded just after the response is written — poll briefly).
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            bp = next(
                s for s in server.telemetry.snapshot()
                if s["name"] == "deuce_http_backpressure_total"
            )
            if bp["value"]:
                break
            time.sleep(0.01)
        assert bp["value"] == 1

    @pytest.mark.service(job_workers=1)
    def test_503_when_draining(self, service):
        base = service.url
        service.manager.drain(5)
        status, _, _ = request(
            "POST", f"{base}/v1/jobs", {"kind": "run", "config": RUN_CONFIG}
        )
        assert status == 503
        status, _, body = request("GET", f"{base}/v1/healthz")
        assert body["status"] == "draining"


class TestMetricsEndpoint:
    def test_metrics_json(self, service):
        base = service.url
        request("GET", f"{base}/v1/healthz")  # generate one request first
        status, _, body = request("GET", f"{base}/v1/metrics")
        assert status == 200
        assert body["api_version"] == "v1"
        assert body["uptime_s"] >= 0.0
        names = {m["name"] for m in body["metrics"]}
        assert "deuce_http_requests_total" in names
        assert "deuce_queue_depth" in names
        req = next(
            m for m in body["metrics"]
            if m["name"] == "deuce_http_requests_total"
            and m.get("labels", {}).get("route") == "/healthz"
        )
        assert req["labels"]["status"] == "200"
        assert req["value"] >= 1

    def test_metrics_prometheus_format_param(self, service):
        base = service.url
        with urllib.request.urlopen(
            f"{base}/v1/metrics?format=prometheus", timeout=30
        ) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in resp.headers["Content-Type"]
            text = resp.read().decode()
        assert "# TYPE deuce_metrics_scrapes_total counter" in text
        assert "deuce_queue_capacity 16" in text

    def test_metrics_prometheus_accept_header(self, service):
        base = service.url
        req = urllib.request.Request(
            f"{base}/v1/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")

    def test_request_latency_labeled_by_route_template(self, service):
        base = service.url
        _, _, body = request(
            "POST", f"{base}/v1/jobs", {"kind": "run", "config": RUN_CONFIG}
        )
        _poll_terminal(base, body["job_id"])
        _, _, metrics = request("GET", f"{base}/v1/metrics")
        routes = {
            m["labels"]["route"]
            for m in metrics["metrics"]
            if m["name"] == "deuce_http_requests_total"
        }
        # Raw job ids never appear as label values — bounded cardinality.
        assert "/jobs/{id}" in routes
        assert not any(body["job_id"] in r for r in routes)

    def test_bare_path_404_is_labelled_other(self, service):
        status, _, _ = request("GET", f"{service.url}/healthz")
        assert status == 404
        # Recorded just after the response is written — poll briefly.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            labels = [
                s["labels"] for s in service.server.telemetry.snapshot()
                if s["name"] == "deuce_http_requests_total"
            ]
            if labels:
                break
            time.sleep(0.01)
        assert labels == [{"method": "GET", "route": "other", "status": "404"}]

    def test_job_phase_histograms_populate(self, service):
        base = service.url
        _, _, body = request(
            "POST", f"{base}/v1/jobs", {"kind": "run", "config": RUN_CONFIG}
        )
        _poll_terminal(base, body["job_id"])
        _, _, metrics = request("GET", f"{base}/v1/metrics")
        phases = {
            m["name"]: m
            for m in metrics["metrics"]
            if m["name"].startswith("deuce_job_")
            and m.get("labels", {}).get("kind") == "run"
        }
        assert phases["deuce_job_queue_wait_seconds"]["count"] >= 1
        assert phases["deuce_job_exec_seconds"]["count"] >= 1
        assert phases["deuce_job_total_seconds"]["count"] >= 1
        # healthz enrichment agrees once the job settled.
        _, _, health = request("GET", f"{base}/v1/healthz")
        assert health["jobs_completed"] >= 1


class TestServeProcess:
    def test_sigterm_drains_cleanly(self, tmp_path):
        """`deuce-sim serve` + SIGTERM: drain, exit 0, no orphans."""
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        env["DEUCE_RUNS_DIR"] = str(tmp_path / "runs")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--job-workers", "1", "--drain-timeout", "20"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=tmp_path,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no port in banner: {banner!r}"
            base = f"http://127.0.0.1:{match.group(1)}"
            status, _, _ = request("GET", f"{base}/v1/healthz")
            assert status == 200
            status, _, body = request(
                "POST", f"{base}/v1/jobs",
                {"kind": "run", "config": RUN_CONFIG},
            )
            assert status == 201
            _poll_terminal(base, body["job_id"])
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "drained, bye" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        # The job's manifest survived in the ledger directory.
        index = tmp_path / "runs" / "index.jsonl"
        assert index.exists() and index.read_text().strip()
