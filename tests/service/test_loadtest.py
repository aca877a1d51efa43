"""Load-test harness: mix parsing, percentiles, soak report, ledger, tiles."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Session
from repro.service.loadtest import (
    DEFAULT_MIX,
    LoadTestOptions,
    parse_mix,
    percentile,
    run_loadtest,
    spawned_service,
)


class TestParseMix:
    def test_basic(self):
        mix = parse_mix("run=2,status=6")
        assert mix["run"] == 2.0
        assert mix["status"] == 6.0
        assert mix["sweep"] == 0.0  # unlisted ops get weight 0

    def test_spaces_tolerated(self):
        assert parse_mix(" run=1 , healthz=2 ")["healthz"] == 2.0

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown operation"):
            parse_mix("teapot=1")

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError, match="number"):
            parse_mix("run=lots")
        with pytest.raises(ValueError, match=">= 0"):
            parse_mix("run=-1")

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="no positive weights"):
            parse_mix("run=0,status=0")

    def test_default_mix_covers_all_ops(self):
        assert set(parse_mix("run=1")) == set(DEFAULT_MIX)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.5) == 7.0

    def test_matches_numpy_linear(self):
        values = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3])
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q * 100))
            )


@pytest.fixture(scope="module")
def soak_report(tmp_path_factory):
    """One short soak against a private service, recorded in a ledger."""
    runs_dir = tmp_path_factory.mktemp("runs")
    session = Session(ledger=runs_dir)
    options = LoadTestOptions(
        duration_s=2.0,
        clients=3,
        writes=100,
        seed=1,
        p99_slo_ms=60_000.0,
        max_error_rate=0.5,
        label="ci-smoke",
    )
    with spawned_service(session, job_workers=2, queue_size=8) as base:
        report = run_loadtest(base, options, ledger=session.ledger)
    return report, session


class TestSoak:
    def test_report_structure(self, soak_report):
        report, _ = soak_report
        assert report["kind"] == "loadtest"
        totals = report["totals"]
        assert totals["requests"] > 0
        assert totals["requests"] == sum(
            op["requests"] for op in report["ops"].values()
        )
        latency = report["latency_ms"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["max"] >= latency["p99"]
        assert report["duration_s"] >= 2.0

    def test_no_errors_against_healthy_service(self, soak_report):
        report, _ = soak_report
        assert report["totals"]["server_5xx"] == 0
        assert report["totals"]["transport_errors"] == 0
        assert report["slo"]["passed"] is True

    def test_queue_time_series_sampled(self, soak_report):
        report, _ = soak_report
        queue = report["queue"]
        assert len(queue["samples"]) >= 2
        assert queue["capacity"] == 8
        assert 0 <= queue["depth_peak"] <= 8

    def test_server_metrics_scraped(self, soak_report):
        report, _ = soak_report
        names = {m["name"] for m in report["server_metrics"]}
        assert "deuce_http_requests_total" in names

    def test_ledger_manifest_and_artifact(self, soak_report):
        report, session = soak_report
        manifests = session.ledger.list(kind="loadtest", label="ci-smoke")
        assert len(manifests) == 1
        m = manifests[0]
        assert m.summary["requests"] == report["totals"]["requests"]
        assert m.summary["slo_passed"] == 1.0
        assert 0.0 <= m.summary["saturation"] <= 1.0
        artifact = session.ledger.run_dir(m.run_id) / m.artifacts["loadtest"]
        assert json.loads(artifact.read_text()) == report

    def test_dashboard_renders_slo_tiles(self, soak_report):
        from repro.analysis.dashboard import render_dashboard

        _, session = soak_report
        html_doc = render_dashboard(session.ledger)
        assert "Service SLO" in html_doc
        assert "p99 request latency" in html_doc
        assert "queue depth during soak" in html_doc
        assert "PASS" in html_doc


class TestSweepSoak:
    def test_sweep_ops_are_accepted(self, tmp_path):
        options = LoadTestOptions(
            duration_s=1.0, clients=2, writes=50, mix=parse_mix("sweep=1"),
        )
        session = Session(ledger=tmp_path / "runs")
        with spawned_service(session, job_workers=1, queue_size=64) as base:
            report = run_loadtest(base, options)
        assert report["ops"]["sweep"]["requests"] > 0
        assert report["totals"]["client_4xx"] == 0
        assert report["totals"]["errors"] == 0


class TestSloEvaluation:
    def _report(self, p99_slo_ms=0.0, max_error_rate=-1.0):
        from repro.service.loadtest import _Soak, _build_report

        options = LoadTestOptions(
            p99_slo_ms=p99_slo_ms, max_error_rate=max_error_rate
        )
        soak = _Soak("http://example.invalid", options)
        soak.records = [[
            ("status", 200, 0.010),
            ("status", 200, 0.020),
            ("run", 429, 0.005),
            ("run", 0, 0.001),
        ]]
        return _build_report(soak, wall_s=1.0, metrics_body=None)

    def test_429_not_counted_as_error(self):
        report = self._report()
        assert report["totals"]["backpressure_429"] == 1
        assert report["totals"]["errors"] == 1  # only the transport failure
        assert report["totals"]["error_rate"] == 0.25

    def test_rejected_request_counted_as_client_error(self):
        from repro.service.loadtest import _Soak, _build_report

        soak = _Soak("http://example.invalid", LoadTestOptions())
        soak.records = [[("sweep", 400, 0.001), ("cancel", 404, 0.001),
                         ("run", 429, 0.001), ("status", 200, 0.001)]]
        report = _build_report(soak, wall_s=1.0, metrics_body=None)
        assert report["totals"]["client_4xx"] == 2
        assert report["totals"]["errors"] == 2
        assert report["ops"]["sweep"]["errors"] == 1
        assert report["ops"]["run"]["errors"] == 0

    def test_p99_slo_violation_fails(self):
        report = self._report(p99_slo_ms=15.0)
        assert report["slo"]["passed"] is False

    def test_error_rate_slo_violation_fails(self):
        report = self._report(max_error_rate=0.1)
        assert report["slo"]["passed"] is False

    def test_no_targets_always_passes(self):
        assert self._report()["slo"]["passed"] is True

    def test_generous_targets_pass(self):
        report = self._report(p99_slo_ms=1000.0, max_error_rate=0.5)
        assert report["slo"]["passed"] is True


class TestCliWiring:
    def test_loadtest_subcommand_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["loadtest", "--duration", "1", "--clients", "2",
             "--p99-slo", "500", "--mix", "run=1,status=3"]
        )
        assert args.duration == 1.0
        assert args.p99_slo == 500.0
        assert args.func.__name__ == "_cmd_loadtest"
