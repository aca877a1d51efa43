"""Cross-process correlated tracing and the write-path profiler.

The acceptance properties for the correlated-tracing surface:

* a parallel sweep yields ONE trace — every lane (sweep + worker cells,
  and the service's job lane above them) shares a trace id and parents
  correctly under the lane that spawned it;
* worker lanes re-anchor their clocks, and the anchors agree: merged
  onto the wall axis, every cell span lands inside the sweep's window;
* the write-path profiler attributes phase time without changing a
  single simulated bit (instrumented runs stay bit-identical);
* one clock per phase: a recorded run's manifest phases, its
  ``profile.json`` and its trace spans are the same stamps.
"""

from __future__ import annotations

import json

import pytest

from repro.api import ObsOptions, Session
from repro.obs.context import TraceContext
from repro.obs.instruments import Instruments
from repro.obs.metrics import MetricsRegistry
from repro.obs.traceexport import build_report, load_trace, to_chrome_trace
from repro.sim.config import SimConfig
from repro.sim.runner import run

N_WRITES = 300


def _configs(n):
    return [
        SimConfig("mcf", "deuce", n_writes=N_WRITES, seed=i)
        for i in range(n)
    ]


class TestSweepTraceCorrelation:
    @pytest.fixture(scope="class")
    def traced_sweep(self, tmp_path_factory):
        """One two-worker traced sweep, loaded back as lanes."""
        tmp = tmp_path_factory.mktemp("traced")
        session = Session(ledger=tmp / "runs")
        results = session.sweep(
            _configs(4), workers=2, trace_dir=tmp / "trace"
        )
        return results, load_trace(tmp / "trace")

    def test_one_merged_trace_with_all_lanes(self, traced_sweep):
        results, lanes = traced_sweep
        assert len(results) == 4
        names = {ln.name for ln in lanes}
        assert names == {"sweep", "cell-0", "cell-1", "cell-2", "cell-3"}
        trace_ids = {ln.trace_id for ln in lanes}
        assert len(trace_ids) == 1 and "" not in trace_ids

    def test_cell_lanes_parent_under_the_sweep_span(self, traced_sweep):
        _, lanes = traced_sweep
        sweep = next(ln for ln in lanes if ln.name == "sweep")
        cells = [ln for ln in lanes if ln.name.startswith("cell-")]
        assert sweep.parent_id == ""  # the root lane
        assert all(ln.parent_id == sweep.span_id for ln in cells)
        # The sweep lane holds the scheduling story for every cell.
        events = {
            (r["name"], r.get("cell"))
            for r in sweep.records
            if r["type"] == "event"
        }
        for i in range(4):
            assert ("cell.submit", i) in events
            assert ("cell.done", i) in events

    def test_worker_lanes_reanchor_in_their_own_process(self, traced_sweep):
        _, lanes = traced_sweep
        sweep = next(ln for ln in lanes if ln.name == "sweep")
        cells = [ln for ln in lanes if ln.name.startswith("cell-")]
        # Two pool workers: cell lanes come from non-parent pids.
        assert {ln.pid for ln in cells} and all(
            ln.pid != sweep.pid for ln in cells
        )
        for ln in cells:
            assert ln.epoch_unix > 1.6e9
            assert any(r["name"] == "cell.run" for r in ln.records)

    def test_epoch_anchors_align_cells_inside_the_sweep_window(
        self, traced_sweep
    ):
        _, lanes = traced_sweep
        sweep = next(ln for ln in lanes if ln.name == "sweep")
        tolerance = 0.25  # generous: covers clock reads moments apart
        for ln in lanes:
            if not ln.name.startswith("cell-"):
                continue
            assert ln.wall_start >= sweep.wall_start - tolerance
            assert ln.wall_end <= sweep.wall_end + tolerance

    def test_chrome_export_and_report_cover_the_whole_trace(
        self, traced_sweep
    ):
        _, lanes = traced_sweep
        trace = to_chrome_trace(lanes)
        span_names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert {"sweep", "cell.run"} <= span_names
        report = build_report(lanes)
        assert "5 lanes" in report
        assert "* sweep" in report

    def test_serial_sweep_traces_identically_shaped_lanes(self, tmp_path):
        session = Session(ledger=False)
        session.sweep(_configs(2), workers=1, trace_dir=tmp_path / "t")
        lanes = load_trace(tmp_path / "t")
        sweep = next(ln for ln in lanes if ln.name == "sweep")
        cells = [ln for ln in lanes if ln.name.startswith("cell-")]
        assert len(cells) == 2
        assert all(ln.parent_id == sweep.span_id for ln in cells)

    def test_outer_context_parents_the_sweep_lane(self, tmp_path):
        outer = TraceContext.new()
        Session(ledger=False).sweep(
            _configs(2),
            workers=1,
            trace_dir=tmp_path / "t",
            trace_context=outer,
        )
        sweep = next(
            ln for ln in load_trace(tmp_path / "t") if ln.name == "sweep"
        )
        assert sweep.trace_id == outer.trace_id
        assert sweep.parent_id == outer.span_id


class TestServiceJobTrace:
    def test_sweep_job_yields_one_causally_linked_trace(self, tmp_path):
        from repro.service.jobs import DONE, JobManager, JobSpec

        session = Session(ledger=tmp_path / "runs")
        manager = JobManager(session, job_workers=1, queue_size=4).start()
        try:
            job = manager.submit(
                JobSpec.decode(
                    {
                        "kind": "sweep",
                        "config": [
                            {
                                "workload": "mcf",
                                "scheme": "deuce",
                                "n_writes": N_WRITES,
                                "seed": i,
                            }
                            for i in range(2)
                        ],
                        "options": {"workers": 2},
                    }
                )
            )
            assert job.wait(60)
            assert job.state == DONE
            assert job.trace_id
            assert job.snapshot()["trace_id"] == job.trace_id
        finally:
            manager.drain(10)
        lanes = load_trace(session.ledger.root / "traces" / job.id)
        by_name = {ln.name: ln for ln in lanes}
        assert {"job", "sweep", "cell-0", "cell-1"} <= set(by_name)
        job_lane = by_name["job"]
        assert job_lane.trace_id == job.trace_id
        assert {ln.trace_id for ln in lanes} == {job.trace_id}
        # Causality chain: cells -> sweep -> job.
        assert by_name["sweep"].parent_id == job_lane.span_id
        for i in range(2):
            assert by_name[f"cell-{i}"].parent_id == by_name["sweep"].span_id
        span_names = {
            r["name"] for r in job_lane.records if r["type"] == "span"
        }
        assert {"job.queue_wait", "job.exec"} <= span_names

    def test_run_job_traces_a_run_lane(self, tmp_path):
        from repro.service.jobs import DONE, JobManager, JobSpec

        session = Session(ledger=tmp_path / "runs")
        manager = JobManager(session, job_workers=1, queue_size=4).start()
        try:
            job = manager.submit(
                JobSpec.decode(
                    {
                        "kind": "run",
                        "config": {
                            "workload": "mcf",
                            "scheme": "deuce",
                            "n_writes": N_WRITES,
                        },
                    }
                )
            )
            assert job.wait(60)
            assert job.state == DONE
        finally:
            manager.drain(10)
        lanes = load_trace(session.ledger.root / "traces" / job.id)
        by_name = {ln.name: ln for ln in lanes}
        assert {"job", "run"} <= set(by_name)
        assert by_name["run"].parent_id == by_name["job"].span_id
        # Chunk-level spans, not one span per write: traced service runs
        # must keep the chunked fast path.
        writes = [
            r
            for r in by_name["run"].records
            if r["type"] == "span" and r["name"] == "scheme.write"
        ]
        assert writes and len(writes) < N_WRITES

    def test_ledgerless_manager_runs_untraced(self, tmp_path):
        from repro.service.jobs import DONE, JobManager, JobSpec

        manager = JobManager(
            Session(ledger=False), job_workers=1, queue_size=4
        ).start()
        try:
            job = manager.submit(
                JobSpec.decode(
                    {
                        "kind": "run",
                        "config": {
                            "workload": "mcf",
                            "scheme": "deuce",
                            "n_writes": N_WRITES,
                        },
                    }
                )
            )
            assert job.wait(60)
            assert job.state == DONE
            assert job.trace_id == ""
        finally:
            manager.drain(10)


class TestWritePathProfiler:
    def test_profiled_run_is_bit_identical(self):
        config = SimConfig("mcf", "deuce", n_writes=N_WRITES)

        plain = run(config)
        profiled = run(
            config, instruments=Instruments(metrics=MetricsRegistry())
        )
        assert profiled.profile is not None
        # The profile itself is NOT part of the comparable payload...
        assert "profile" not in plain.to_dict()
        assert "profile" not in profiled.to_dict()

        # ...and everything that is stays bit-identical (wall time is
        # timing metadata, never payload — same convention as the
        # chunked-parity oracles).
        def comparable(result):
            d = result.to_dict()
            d.pop("wall_time_s")
            return d

        assert comparable(profiled) == comparable(plain)

    def test_profile_attributes_the_chunked_phases(self):
        result = run(
            SimConfig("mcf", "deuce", n_writes=N_WRITES),
            instruments=Instruments(metrics=MetricsRegistry()),
        )
        phases = result.profile
        for name in ("trace.gen", "install", "scheme.write", "pcm.apply",
                     "accumulate"):
            assert name in phases, f"missing phase {name}"
            assert phases[name]["seconds"] >= 0.0
        shares = [
            entry["share"]
            for entry in phases.values()
            if "within" not in entry
        ]
        assert 0.99 <= sum(shares) <= 1.01

    def test_nested_pad_time_is_not_counted_twice(self):
        # pad.fetch runs inside scheme.write: the top-level shares sum to
        # one and the top-level seconds fit inside the run's wall time.
        result = run(
            SimConfig("Gems", "ble+deuce", n_writes=2_000),
            instruments=Instruments(metrics=MetricsRegistry()),
        )
        phases = result.profile
        assert phases["pad.fetch"]["within"] == "scheme.write"
        top = [entry for entry in phases.values() if "within" not in entry]
        assert sum(entry["share"] for entry in top) == pytest.approx(
            1.0, abs=0.01
        )
        assert sum(entry["seconds"] for entry in top) <= result.wall_time_s

    def test_profiler_overhead_is_negligible(self):
        """Profiled runtime must stay close to the uninstrumented runtime.

        The profiler's target budget is <5% overhead (it adds two dict
        ops per chunk phase); wall-clock comparisons on shared CI boxes
        are noisy, so the assertion allows 50% while the bit-identity
        check above pins correctness strictly.
        """
        import time

        config = SimConfig("mcf", "deuce", n_writes=2_000)
        run(config)  # warm caches

        def best_of(n, factory):
            best = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                run(config, instruments=factory())
                best = min(best, time.perf_counter() - t0)
            return best

        from repro.obs.instruments import DISABLED

        plain = best_of(3, lambda: DISABLED)
        profiled = best_of(3, lambda: Instruments(metrics=MetricsRegistry()))
        assert profiled <= plain * 1.5

    def test_session_records_profile_artifact(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        result = session.run(SimConfig("mcf", "deuce", n_writes=N_WRITES))
        assert result.profile
        manifest = result.manifest
        filename = manifest.artifacts.get("profile")
        assert filename
        stored = json.loads(
            (session.ledger.run_dir(manifest.run_id) / filename).read_text()
        )
        assert stored == result.profile

    def test_obs_options_profile_rides_into_run_jobs(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        obs = ObsOptions(trace_out=str(tmp_path / "run.jsonl"),
                         per_write_spans=False)
        result = session.run(
            SimConfig("mcf", "deuce", n_writes=N_WRITES), obs=obs
        )
        assert result.profile is not None
        lanes = load_trace(tmp_path / "run.jsonl")
        assert lanes[0].records

    def test_one_clock_feeds_manifest_profile_and_trace(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        trace_path = tmp_path / "run.jsonl"
        result = session.run(
            SimConfig("mcf", "deuce", n_writes=N_WRITES, seed=11),
            obs=ObsOptions(trace_out=str(trace_path), per_write_spans=False),
        )
        manifest = result.manifest
        stored = json.loads(
            (
                session.ledger.run_dir(manifest.run_id)
                / manifest.artifacts["profile"]
            ).read_text()
        )
        for name, seconds in manifest.phases.items():
            assert seconds == stored[name]["seconds"], name
        assert set(manifest.phases) == set(stored)
        span_s: dict[str, float] = {}
        for record in map(json.loads, trace_path.read_text().splitlines()):
            if record["type"] == "span":
                span_s[record["name"]] = (
                    span_s.get(record["name"], 0.0) + record["dur"]
                )
        shared = set(span_s) & set(manifest.phases)
        assert {"trace.gen", "install", "scheme.write", "pad.fetch"} <= shared
        for name in shared:
            assert span_s[name] == pytest.approx(
                manifest.phases[name], abs=1e-6
            ), name

    def test_ledger_only_run_builds_no_tracer(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        config = SimConfig("mcf", "deuce", n_writes=N_WRITES)
        instruments, metrics, tracer = session._resolve_instruments(
            config, ObsOptions(), None, None
        )
        assert tracer is None
        assert not instruments.tracer.enabled
        assert metrics is not None
