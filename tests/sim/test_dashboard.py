"""Dashboard HTML: well-formed markup, one sparkline per tracked metric."""

from __future__ import annotations

from html.parser import HTMLParser

import pytest

from repro.analysis.dashboard import (
    TRACKED_METRICS,
    render_dashboard,
    scheme_color,
    sparkline_svg,
    write_dashboard,
)
from repro.obs.ledger import RunLedger, build_manifest
from tests.obs.test_gate import write_baselines

#: HTML void elements plus the self-closed SVG shapes the dashboard emits.
_VOID = {"meta", "br", "hr", "img", "input", "link", "circle", "polyline"}


class _WellFormedChecker(HTMLParser):
    """Fails on mismatched or unclosed tags (stack-based balance check)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.errors: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in _VOID:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unbalanced </{tag}>")
        else:
            self.stack.pop()


def assert_well_formed(html: str) -> None:
    checker = _WellFormedChecker()
    checker.feed(html)
    checker.close()
    assert not checker.errors, checker.errors
    assert not checker.stack, f"unclosed tags: {checker.stack}"


def seeded_ledger(tmp_path, schemes=("deuce", "encr-dcw"), runs_each=3):
    ledger = RunLedger(tmp_path / "runs")
    for scheme in schemes:
        for i in range(runs_each):
            ledger.record(
                build_manifest(
                    kind="run",
                    workload="mcf",
                    scheme=scheme,
                    n_writes=2000,
                    wall_time_s=0.1 + 0.01 * i,
                    summary={
                        "flips_pct": 10.0 + i,
                        "pad_hit_rate": 0.5,
                    },
                )
            )
    return ledger


class TestSparkline:
    def test_svg_structure_and_title(self):
        svg = sparkline_svg([1.0, 3.0, 2.0], "#2a78d6", title="deuce flips")
        assert svg.startswith('<svg class="spark"')
        assert svg.endswith("</svg>")
        assert "<title>deuce flips</title>" in svg
        assert 'stroke-width="2"' in svg  # 2px line spec
        assert "polyline" in svg and "circle" in svg

    def test_degenerate_series_still_render(self):
        for values in ([5.0], [2.0, 2.0, 2.0]):
            svg = sparkline_svg(values, "#2a78d6")
            assert "polyline" in svg
            assert "nan" not in svg and "inf" not in svg

    def test_title_is_escaped(self):
        svg = sparkline_svg([1.0, 2.0], "#2a78d6", title="a<b>&c")
        assert "<title>a&lt;b&gt;&amp;c</title>" in svg


class TestSchemeColor:
    def test_fixed_assignment_follows_entity_not_rank(self):
        # Colors are keyed on the canonical scheme order, so the same scheme
        # always wears the same color regardless of which schemes are shown.
        assert scheme_color("deuce") == scheme_color("deuce")
        assert scheme_color("deuce") != scheme_color("encr-dcw")

    def test_unknown_scheme_folds_to_gray(self):
        light, dark = scheme_color("not-a-scheme")
        assert light == "#6e6e6a"
        assert dark == "#9a9a95"


class TestRenderDashboard:
    def test_valid_markup_with_runs(self, tmp_path):
        ledger = seeded_ledger(tmp_path)
        html = render_dashboard(ledger, baselines_dir=tmp_path / "none")
        assert html.startswith("<!DOCTYPE html>")
        assert_well_formed(html)
        assert "DEUCE run ledger" in html

    def test_one_sparkline_per_tracked_metric(self, tmp_path):
        ledger = seeded_ledger(tmp_path, schemes=("deuce",))
        html = render_dashboard(ledger, baselines_dir=tmp_path / "none")
        # One light + one dark sparkline per tracked metric for the scheme.
        for metric in TRACKED_METRICS:
            assert html.count(f'class="spark m-{metric}"') == 2
        assert html.count('class="spark') == 2 * len(TRACKED_METRICS)

    def test_empty_ledger_renders_placeholder(self, tmp_path):
        html = render_dashboard(
            RunLedger(tmp_path / "runs"), baselines_dir=tmp_path / "none"
        )
        assert_well_formed(html)
        assert "no simulation runs" in html
        assert "not evaluated" in html  # gate tile degrades, not crashes

    def test_gate_tiles_reflect_verdicts(self, tmp_path):
        ledger = seeded_ledger(tmp_path, schemes=("deuce",))
        baselines = write_baselines(
            tmp_path / "b", {"deuce": 12.0}, min_writes_per_s=None
        )
        html = render_dashboard(ledger, baselines_dir=baselines)
        assert 'class="tile pass"' in html  # newest run: 12.0 within 12±2
        assert "PASS" in html
        baselines = write_baselines(
            tmp_path / "b2", {"deuce": 40.0}, min_writes_per_s=None
        )
        html = render_dashboard(ledger, baselines_dir=baselines)
        assert 'class="tile fail"' in html
        assert "FAIL" in html

    def test_runs_table_lists_newest_runs(self, tmp_path):
        ledger = seeded_ledger(tmp_path)
        html = render_dashboard(ledger, baselines_dir=tmp_path / "none")
        newest = ledger.list()[-1]
        assert f"<td>{newest.run_id}</td>" in html
        assert "<th>flips_pct</th>" in html

    def test_write_dashboard_is_self_contained(self, tmp_path):
        ledger = seeded_ledger(tmp_path)
        out = write_dashboard(
            tmp_path / "dash.html", ledger, baselines_dir=tmp_path / "none"
        )
        html = out.read_text()
        assert_well_formed(html)
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html
        assert 'rel="stylesheet"' not in html
        assert "http://" not in html and "https://" not in html


class TestProfilePanel:
    def test_profile_bars_from_newest_profiled_run(self, tmp_path):
        ledger = seeded_ledger(tmp_path, schemes=("deuce",), runs_each=1)
        profile = {
            "scheme.write": {"seconds": 0.08, "count": 4, "share": 0.8},
            "pcm.apply": {"seconds": 0.02, "count": 4, "share": 0.2},
        }
        import json as _json

        ledger.record(
            build_manifest(
                kind="run",
                workload="mcf",
                scheme="deuce",
                summary={"flips_pct": 11.0},
            ),
            artifact_text={"profile.json": _json.dumps(profile)},
        )
        html = render_dashboard(ledger, baselines_dir=tmp_path / "none")
        assert_well_formed(html)
        assert "Write-path profile" in html
        assert "scheme.write" in html and "pcm.apply" in html
        assert 'class="bar-fill' in html

    def test_no_profiles_renders_empty_state(self, tmp_path):
        ledger = seeded_ledger(tmp_path)
        html = render_dashboard(ledger, baselines_dir=tmp_path / "none")
        assert "no profiled runs" in html


class TestFleetPanel:
    def test_fleet_tiles_from_newest_fleet_sweep(self, tmp_path):
        import json

        ledger = seeded_ledger(tmp_path)
        ledger.record(
            build_manifest(
                kind="fleet-sweep",
                label="grid-9",
                n_writes=0,
                wall_time_s=4.2,
                summary={
                    "cells": 8, "workers": 2, "dispatched": 9,
                    "steals": 1, "requeues": 2, "duplicates": 1,
                },
            ),
            artifact_text={
                "fleet.json": json.dumps({
                    "workers": [
                        {"name": "w0:a:8787", "url": "http://a:8787",
                         "healthy": True, "in_flight": 0,
                         "dispatched": 5, "completed": 5},
                        {"name": "w1:b:8787", "url": "http://b:8787",
                         "healthy": False, "in_flight": 0,
                         "dispatched": 4, "completed": 3},
                    ]
                })
            },
        )
        html = render_dashboard(ledger)
        assert_well_formed(html)
        assert "Sweep fleet" in html
        assert "w0:a:8787" in html and "w1:b:8787" in html
        # The dead worker fails its tile; the fabric totals ride along.
        assert "dead" in html
        assert "1 steal(s)" in html and "2 requeue(s)" in html

    def test_no_fleet_sweeps_renders_empty_state(self, tmp_path):
        html = render_dashboard(seeded_ledger(tmp_path))
        assert "no fleet sweeps" in html
