"""ServiceTelemetry instruments and their JobManager wiring."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api import Session
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JobManager, JobSpec
from repro.service.telemetry import ServiceTelemetry


def _find(snaps, name, **labels):
    for snap in snaps:
        if snap["name"] == name and snap.get("labels", {}) == (labels or {}):
            return snap
    raise AssertionError(f"no snapshot for {name} {labels}")


class TestServiceTelemetry:
    def test_idle_service_exposes_full_catalog(self):
        snaps = ServiceTelemetry().snapshot()
        names = {s["name"] for s in snaps}
        assert {
            "deuce_http_backpressure_total",
            "deuce_queue_depth",
            "deuce_jobs_in_flight",
            "deuce_service_uptime_seconds",
            "deuce_metrics_scrapes_total",
        } <= names

    def test_observe_request_labels_and_latency(self):
        t = ServiceTelemetry()
        t.observe_request("GET", "/jobs/{id}", 200, 0.003)
        t.observe_request("GET", "/jobs/{id}", 200, 0.004)
        t.observe_request("POST", "/jobs", 429, 0.001)
        snaps = t.snapshot()
        ok = _find(snaps, "deuce_http_requests_total",
                   method="GET", route="/jobs/{id}", status="200")
        assert ok["value"] == 2
        dur = _find(snaps, "deuce_http_request_duration_seconds",
                    method="GET", route="/jobs/{id}")
        assert dur["count"] == 2
        assert 0.0 < dur["p50"] <= 0.01

    def test_429_and_503_feed_dedicated_counters(self):
        t = ServiceTelemetry()
        t.observe_request("POST", "/jobs", 429, 0.001)
        t.observe_request("POST", "/jobs", 429, 0.001)
        t.observe_request("POST", "/jobs", 503, 0.001)
        snaps = t.snapshot()
        assert _find(snaps, "deuce_http_backpressure_total")["value"] == 2
        assert _find(snaps, "deuce_http_draining_total")["value"] == 1

    def test_job_lifecycle_phases(self):
        t = ServiceTelemetry()
        t.job_submitted("run")
        t.job_started("run", 0.2)
        t.job_finished("run", "done", 1.5, 1.7)
        snaps = t.snapshot()
        assert _find(snaps, "deuce_jobs_submitted_total",
                     kind="run")["value"] == 1
        assert _find(snaps, "deuce_jobs_finished_total",
                     kind="run", state="done")["value"] == 1
        assert _find(snaps, "deuce_job_queue_wait_seconds",
                     kind="run")["count"] == 1
        assert _find(snaps, "deuce_job_exec_seconds",
                     kind="run")["sum"] == pytest.approx(1.5)
        assert _find(snaps, "deuce_job_total_seconds",
                     kind="run")["sum"] == pytest.approx(1.7)

    def test_trace_id_exemplars_land_in_latency_buckets(self):
        t = ServiceTelemetry()
        t.observe_request("GET", "/jobs/{id}", 200, 0.003, trace_id="abc123")
        t.job_started("run", 0.2, trace_id="abc123")
        t.job_finished("run", "done", 1.5, 1.7, trace_id="abc123")
        snaps = t.snapshot()
        for family, labels in (
            ("deuce_http_request_duration_seconds",
             {"method": "GET", "route": "/jobs/{id}"}),
            ("deuce_job_queue_wait_seconds", {"kind": "run"}),
            ("deuce_job_exec_seconds", {"kind": "run"}),
            ("deuce_job_total_seconds", {"kind": "run"}),
        ):
            snap = _find(snaps, family, **labels)
            assert snap["exemplars"], family
            assert snap["exemplars"][-1]["trace_id"] == "abc123"

    def test_exemplars_survive_prometheus_rendering(self):
        # The 0.0.4 text renderer must ignore the extra snapshot key
        # rather than crash or emit malformed lines.
        t = ServiceTelemetry()
        t.observe_request("GET", "/healthz", 200, 0.002, trace_id="tid")
        text = t.to_prometheus()
        assert "deuce_http_request_duration_seconds_bucket" in text
        assert "tid" not in text

    def test_scrape_counter_is_monotonic(self):
        t = ServiceTelemetry()
        first = _find(t.snapshot(), "deuce_metrics_scrapes_total")["value"]
        second = _find(t.snapshot(), "deuce_metrics_scrapes_total")["value"]
        assert second == first + 1

    def test_worker_heartbeat_tracks_uptime(self):
        now = [100.0]
        t = ServiceTelemetry(clock=lambda: now[0])
        now[0] = 102.5
        t.worker_heartbeat("w0")
        snaps = t.snapshot()
        assert _find(snaps, "deuce_worker_heartbeat_seconds",
                     worker="w0")["value"] == pytest.approx(2.5)
        assert _find(snaps, "deuce_worker_busy", worker="w0")["value"] == 0.0
        t.worker_heartbeat("w0", busy=True)
        snaps = t.snapshot()
        assert _find(snaps, "deuce_worker_busy", worker="w0")["value"] == 1.0
        assert _find(snaps, "deuce_worker_jobs_total",
                     worker="w0")["value"] == 1

    def test_uses_injected_registry(self):
        registry = MetricsRegistry()
        t = ServiceTelemetry(registry=registry)
        t.job_submitted("run")
        assert t.registry is registry
        assert registry.counter(
            "deuce_jobs_submitted_total", {"kind": "run"}
        ).value == 1

    def test_prometheus_rendering_includes_histograms(self):
        t = ServiceTelemetry()
        t.observe_request("GET", "/healthz", 200, 0.002)
        text = t.to_prometheus()
        assert "# TYPE deuce_http_request_duration_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert text.endswith("\n")


class TestSharedRegistry:
    def test_fleet_updates_race_scrapes_under_one_lock(self):
        """Fleet counters and service scrapes share one registry safely.

        Each fleet update may create a new labelled instrument while a
        scrape iterates the registry; without the shared lock the scrape
        raises "dictionary changed size during iteration" or a counter
        loses increments.
        """
        from repro.service.coordinator import FleetTelemetry

        service = ServiceTelemetry()
        fleet = FleetTelemetry(service.registry, service.lock)
        threads_n, updates = 4, 300
        errors: list[BaseException] = []
        done = threading.Event()

        def update(t: int) -> None:
            try:
                for i in range(updates):
                    fleet.count(f"w{t}-{i}", "dispatched")
                    fleet.count("shared", "dispatched")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def scrape() -> None:
            try:
                while not done.is_set():
                    service.snapshot()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scraper = threading.Thread(target=scrape)
            workers = [
                threading.Thread(target=update, args=(t,))
                for t in range(threads_n)
            ]
            scraper.start()
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            done.set()
            scraper.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not scraper.is_alive()
        assert not any(thread.is_alive() for thread in workers)
        assert errors == []
        snaps = service.snapshot()
        shared = _find(snaps, "fleet.cells_dispatched", worker="shared")
        assert shared["value"] == threads_n * updates
        dispatched = [
            s for s in snaps if s["name"] == "fleet.cells_dispatched"
        ]
        assert len(dispatched) == threads_n * updates + 1


class TestJobManagerTelemetry:
    def test_executed_job_records_all_phases(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        manager = JobManager(session, job_workers=1, queue_size=4).start()
        try:
            spec = JobSpec.decode({
                "kind": "run",
                "config": {"workload": "mcf", "scheme": "deuce",
                           "n_writes": 200},
            })
            job = manager.submit(spec)
            assert job.wait(30)
            snaps = manager.telemetry.snapshot()
            assert _find(snaps, "deuce_jobs_submitted_total",
                         kind="run")["value"] == 1
            assert _find(snaps, "deuce_jobs_finished_total",
                         kind="run", state="done")["value"] == 1
            for family in ("deuce_job_queue_wait_seconds",
                           "deuce_job_exec_seconds",
                           "deuce_job_total_seconds"):
                snap = _find(snaps, family, kind="run")
                assert snap["count"] == 1
                assert snap["sum"] >= 0.0
        finally:
            manager.drain(10, cancel=True)

    def test_queue_depth_and_in_flight_properties(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        manager = JobManager(session, job_workers=1, queue_size=4)
        assert manager.queue_depth == 0
        assert manager.in_flight == 0

    def test_worker_heartbeats_appear_after_start(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        manager = JobManager(session, job_workers=2, queue_size=4).start()
        try:
            spec = JobSpec.decode({
                "kind": "run",
                "config": {"workload": "mcf", "scheme": "deuce",
                           "n_writes": 200},
            })
            manager.submit(spec).wait(30)
            snaps = manager.telemetry.snapshot()
            workers = {
                s["labels"]["worker"]
                for s in snaps
                if s["name"] == "deuce_worker_heartbeat_seconds"
            }
            assert len(workers) >= 1  # the executing worker beat at least
            jobs_done = sum(
                s["value"]
                for s in snaps
                if s["name"] == "deuce_worker_jobs_total"
            )
            assert jobs_done == 1
        finally:
            manager.drain(10, cancel=True)
