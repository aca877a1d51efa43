"""Observability end-to-end: bit-identity, reconciliation, live progress.

These are the acceptance tests for the ``repro.obs`` subsystem:

* a run with the null backend (or a fully live one) is bit-for-bit
  identical to an uninstrumented run — instrumentation is read-only;
* a disabled run builds no profile and no sampler;
* the sampled time-series *reconciles*: summing every delta column over
  all samples reproduces the run's final aggregates;
* the JSONL trace parses line-by-line and contains the pipeline's spans;
* parallel sweeps stream start/heartbeat/done events per cell without
  changing results.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.obs import (
    DISABLED,
    Instruments,
    JsonlSink,
    ListSink,
    MetricsRegistry,
    Tracer,
)
from repro.obs.progress import DONE, HEARTBEAT, START
from repro.sim import runner as runner_module
from repro.sim.config import SimConfig
from repro.sim.parallel import run_suite_parallel
from repro.sim.runner import cached_trace, run, run_suite


def assert_bit_identical(a, b) -> None:
    """Every aggregate field of two RunResults must match exactly."""
    assert a.total_flips == b.total_flips
    assert a.data_flips == b.data_flips
    assert a.meta_flips == b.meta_flips
    assert a.set_flips == b.set_flips
    assert a.reset_flips == b.reset_flips
    assert a.total_slots == b.total_slots
    assert a.total_words_reencrypted == b.total_words_reencrypted
    assert a.full_reencryptions == b.full_reencryptions
    assert a.epoch_resets == b.epoch_resets
    assert a.mode_switches == b.mode_switches
    assert a.slot_histogram == b.slot_histogram
    assert a.mode_histogram == b.mode_histogram
    assert a.pad_hits == b.pad_hits
    assert a.pad_misses == b.pad_misses
    assert np.array_equal(a.wear.position_writes, b.wear.position_writes)
    assert a.wear.total_writes == b.wear.total_writes
    assert a.lifetime.normalized == b.lifetime.normalized


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", ["deuce", "dyndeuce", "encr-fnw"])
    def test_null_backend_matches_baseline(self, scheme):
        config = SimConfig("mcf", scheme, n_writes=5_000, seed=7)
        baseline = run(config)
        observed = run(config, instruments=DISABLED)
        assert_bit_identical(baseline, observed)
        assert observed.series is None

    def test_fully_instrumented_matches_baseline(self):
        config = SimConfig("mcf", "dyndeuce", n_writes=2_000, seed=7)
        baseline = run(config)
        instruments = Instruments(
            metrics=MetricsRegistry(),
            tracer=Tracer(ListSink()),
            sample_interval=250,
        )
        observed = run(config, instruments=instruments)
        assert_bit_identical(baseline, observed)
        assert observed.series is not None

    def test_disabled_run_builds_no_instruments(self, monkeypatch):
        """run(instruments=DISABLED) takes the same hot loop as run().

        ``run`` resolves ``instruments=None`` to ``DISABLED`` itself, so a
        timing of the two compares one code path with itself.  What must
        hold is that a disabled run builds neither a phase profile nor an
        interval sampler, and that its result is the plain run's.
        """
        built = []
        for name in ("PhaseProfile", "IntervalSampler"):
            real = getattr(runner_module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                built.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(runner_module, name, spy)
        config = SimConfig("mcf", "deuce", n_writes=5_000, seed=7)
        baseline = run(config)
        disabled = run(config, instruments=DISABLED)
        assert built == []
        assert_bit_identical(baseline, disabled)
        # The spies do see an enabled run build both.
        run(
            config,
            instruments=Instruments(
                metrics=MetricsRegistry(), sample_interval=1_000
            ),
        )
        assert sorted(set(built)) == ["IntervalSampler", "PhaseProfile"]


class TestSeriesReconciliation:
    @pytest.fixture(scope="class")
    def sampled(self):
        config = SimConfig("mcf", "dyndeuce", n_writes=2_000, seed=7)
        result = run(config, instruments=Instruments(sample_interval=300))
        return config, result

    def test_sample_count_and_coverage(self, sampled):
        config, result = sampled
        series = result.series
        assert len(series) == math.ceil(config.n_writes / 300)
        assert series.samples[-1].write_index == config.n_writes
        assert series.total("interval_writes") == config.n_writes

    def test_delta_columns_sum_to_final_aggregates(self, sampled):
        _, result = sampled
        series = result.series
        assert series.total("flips") == result.total_flips
        assert series.total("data_flips") == result.data_flips
        assert series.total("meta_flips") == result.meta_flips
        assert series.total("slots") == result.total_slots
        assert (
            series.total("words_reencrypted")
            == result.total_words_reencrypted
        )
        assert series.total("full_reencryptions") == result.full_reencryptions
        assert series.total("epoch_resets") == result.epoch_resets
        assert series.total("mode_switches") == result.mode_switches
        assert series.total("pad_hits") == result.pad_hits
        assert series.total("pad_misses") == result.pad_misses
        assert series.mode_totals() == dict(result.mode_histogram)

    def test_wear_is_monotone_cumulative(self, sampled):
        _, result = sampled
        maxes = [s.wear_max for s in result.series]
        assert maxes == sorted(maxes)
        assert maxes[-1] == int(result.wear.position_writes.max())


class TestTraceOutput:
    def test_jsonl_parses_with_expected_span_names(self, tmp_path):
        self.check_per_write_trace(tmp_path, "mcf", "deuce")

    def test_dyndeuce_trace_has_mode_switch_events(self, tmp_path):
        self.check_per_write_trace(tmp_path, "Gems", "dyndeuce")

    @staticmethod
    def check_per_write_trace(tmp_path, workload, scheme):
        path = tmp_path / "trace.jsonl"
        config = SimConfig(
            workload, scheme, n_writes=300, seed=7, epoch_interval=4
        )
        with JsonlSink(path) as sink:
            result = run(config, instruments=Instruments(tracer=Tracer(sink)))
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records, "trace file is empty"
        # The opening meta record anchors the lane; spans/events follow.
        assert records[0]["type"] == "meta"
        records = [r for r in records if r["type"] != "meta"]
        names = {r["name"] for r in records}
        assert {
            "install",
            "scheme.write",
            "wear.rotation",
            "pcm.apply",
            "pad.fetch",
        } <= names
        # Epoch interval 4 over 300 writes of a hot trace must reset, and
        # every reset and mode switch is one event.
        resets = [r for r in records if r["name"] == "epoch.reset"]
        assert resets and all(r["type"] == "event" for r in resets)
        assert len(resets) == result.epoch_resets
        switches = [r for r in records if r["name"] == "mode.switch"]
        assert all(r["type"] == "event" for r in switches)
        assert len(switches) == result.mode_switches
        if scheme == "dyndeuce":
            assert switches
        # One span per write, in trace order, naming its line and mode.
        writes = [r for r in records if r["name"] == "scheme.write"]
        assert len(writes) == config.n_writes
        assert all(r["dur"] >= 0.0 for r in writes)
        assert all("addr" in r and "mode" in r for r in writes)
        assert [r["write"] for r in writes] == list(
            range(1, config.n_writes + 1)
        )
        addresses, _ = cached_trace(
            workload, config.n_writes, config.seed, config.line_bytes
        ).write_arrays()
        assert [r["addr"] for r in writes] == addresses.tolist()

    @pytest.mark.parametrize("with_tracer", [False, True])
    @pytest.mark.parametrize("chunk_size", [1, 64])
    def test_phase_timers_come_from_the_profile(
        self, chunk_size, with_tracer
    ):
        # The run times into one PhaseProfile; the metrics timers are
        # filled from it at the end with the same counts and sums, and a
        # live tracer's spans carry the same stamps.
        config = SimConfig(
            "mcf", "dyndeuce", n_writes=300, seed=7, chunk_size=chunk_size
        )
        metrics = MetricsRegistry()
        sink = ListSink()
        tracer = Tracer(sink) if with_tracer else DISABLED.tracer
        result = run(
            config,
            instruments=Instruments(
                metrics=metrics, tracer=tracer, per_write_spans=False
            ),
        )
        snap = {s["name"]: s for s in metrics.snapshot()}
        spans: dict[str, float] = {}
        for record in sink.records:
            if record["type"] == "span":
                name = record["name"]
                spans[name] = spans.get(name, 0.0) + record["dur"]
        assert bool(spans) == with_tracer
        for phase, timer in (
            ("scheme.write", "scheme.write_s"),
            ("wear.rotation", "wear.rotation_s"),
            ("pcm.apply", "pcm.apply_s"),
        ):
            assert snap[timer]["count"] == config.n_writes
            seconds = result.profile[phase]["seconds"]
            assert snap[timer]["sum"] == pytest.approx(seconds, abs=1e-6)
            assert result.profile[phase]["count"] == config.n_writes
            if with_tracer:
                assert spans[phase] == pytest.approx(seconds, abs=1e-6)

    def test_metrics_cover_the_pipeline(self):
        config = SimConfig("mcf", "deuce", n_writes=300, seed=7)
        metrics = MetricsRegistry()
        result = run(config, instruments=Instruments(metrics=metrics))
        snap = {s["name"]: s for s in metrics.snapshot()}
        assert snap["run.writes"]["value"] == config.n_writes
        assert snap["run.flips"]["value"] == result.total_flips
        assert snap["scheme.write_s"]["count"] == config.n_writes
        assert snap["pad.fetches"]["value"] > 0
        assert snap["pad.fetch_s"]["count"] == snap["pad.fetches"]["value"]
        assert (
            snap["pad.cache_hits"]["value"] + snap["pad.cache_misses"]["value"]
            == result.pad_hits + result.pad_misses
        )


class TestParallelProgress:
    def _configs(self):
        return [
            SimConfig(workload, scheme, n_writes=400, seed=3)
            for workload in ("mcf", "libq")
            for scheme in ("deuce", "encr-fnw")
        ]

    def test_events_stream_and_results_unchanged(self):
        configs = self._configs()
        events = []
        results = run_suite_parallel(
            configs, max_workers=2, progress=events.append,
            heartbeat_every=100,
        )
        serial = run_suite(configs)
        for observed, expected in zip(results, serial):
            assert_bit_identical(observed, expected)
        kinds = [e.kind for e in events]
        assert kinds.count(START) == len(configs)
        assert kinds.count(DONE) == len(configs)
        assert kinds.count(HEARTBEAT) >= len(configs)
        assert {e.cell for e in events} == set(range(len(configs)))
        assert all(e.n_cells == len(configs) for e in events)
        done = [e for e in events if e.kind == DONE]
        assert all(e.writes_done == e.n_writes == 400 for e in done)

    def test_serial_fallback_also_streams_events(self):
        configs = self._configs()[:2]
        events = []
        results = run_suite_parallel(
            configs, max_workers=1, progress=events.append,
            heartbeat_every=200,
        )
        assert len(results) == 2
        kinds = [e.kind for e in events]
        # Serial events arrive strictly in cell order.
        assert kinds[0] == START and kinds[-1] == DONE
        assert [e.cell for e in events] == sorted(e.cell for e in events)
        assert kinds.count(HEARTBEAT) == 4  # 400 writes / 200 per cell
