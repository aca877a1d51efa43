"""CLI tests."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def runs_root() -> Path:
    """The ledger root the autouse fixture pointed the suite at."""
    return Path(os.environ["DEUCE_RUNS_DIR"])


class TestList:
    def test_list_prints_inventory(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "deuce" in out
        assert "mcf" in out
        assert "fig10" in out


class TestRun:
    def test_run_prints_summary(self, capsys):
        code = main(
            ["run", "--workload", "mcf", "--scheme", "deuce", "--writes", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flips_pct" in out
        assert "lifetime" in out

    def test_run_with_hwl(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "libq",
                "--scheme",
                "deuce",
                "--writes",
                "100",
                "--wear-leveling",
                "hwl",
            ]
        )
        assert code == 0

    def test_run_with_sr_hwl(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "mcf",
                "--scheme",
                "deuce",
                "--writes",
                "100",
                "--wear-leveling",
                "sr-hwl",
            ]
        )
        assert code == 0

    def test_run_with_pad_cache_disabled(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "mcf",
                "--scheme",
                "deuce",
                "--writes",
                "100",
                "--pad-cache-lines",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pad_hit_rate" in out

    def test_bad_scheme_rejected(self, capsys):
        code = main(["run", "--workload", "mcf", "--scheme", "rot13"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scheme 'rot13'" in err
        assert "deuce" in err


    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_chunk_size_below_one_rejected(self, capsys, command):
        workload = "--workload" if command == "run" else "--workloads"
        scheme = "--scheme" if command == "run" else "--schemes"
        code = main(
            [command, workload, "mcf", scheme, "deuce", "--chunk-size", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "config key 'chunk_size' must be >= 1, got 0" in err

    def test_sweep_negative_workers_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--workloads", "mcf", "--schemes", "deuce",
                "--writes", "100", "--workers", "-1",
            ])
        assert exc.value.code == 2
        assert "argument --workers: must be >= 0" in capsys.readouterr().err


#: A non-default value for every SimConfig field: its flag and its value.
EVERY_FIELD = {
    "workload": ("--workload", "kv-udb", "kv-udb"),
    "scheme": ("--scheme", "dyndeuce", "dyndeuce"),
    "n_writes": ("--writes", "1234", 1234),
    "seed": ("--seed", "7", 7),
    "pad_kind": ("--pad-kind", "aes", "aes"),
    "key": ("--key", "00112233445566778899aabbccddeeff",
            "00112233445566778899aabbccddeeff"),
    "line_bytes": ("--line-bytes", "128", 128),
    "word_bytes": ("--word-bytes", "4", 4),
    "epoch_interval": ("--epoch-interval", "16", 16),
    "fnw_group_bits": ("--fnw-group-bits", "8", 8),
    "wear_leveling": ("--wear-leveling", "sr-hwl", "sr-hwl"),
    "gap_write_interval": ("--gap-write-interval", "50", 50),
    "hwl_region_lines": ("--hwl-region-lines", "8", 8),
    "track_per_line_wear": ("--track-per-line-wear", None, True),
    "pad_cache_lines": ("--pad-cache-lines", "0", 0),
    "chunk_size": ("--chunk-size", "64", 64),
    "workload_params": ("--workload-params", '{"n_keys": 256}',
                        {"n_keys": 256}),
}


class _Captured(Exception):
    """Raised by the stubbed Session once a command has built its configs."""


def _configs_of(monkeypatch, argv: list[str]) -> list:
    """The configs ``deuce-sim run|sweep <argv>`` hands its Session."""
    from repro.api import Session

    captured = []

    def stub(self, configs, **_):
        captured.extend(configs if isinstance(configs, list) else [configs])
        raise _Captured

    monkeypatch.setattr(Session, argv[0], stub)
    with pytest.raises(_Captured):
        main(argv)
    return captured


class TestConfigGrammar:
    """The config flags of ``run`` and ``sweep`` are SimConfig's fields."""

    @staticmethod
    def _argv(*names: str) -> list[str]:
        argv: list[str] = []
        for name in names:
            flag, raw, _ = EVERY_FIELD[name]
            argv += [flag] if raw is None else [flag, raw]
        return argv

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_flags_decode_like_from_dict_and_v1(self, monkeypatch, command):
        from dataclasses import fields

        from repro.service.jobs import JobSpec
        from repro.sim.config import SimConfig

        data = {name: value for name, (_, _, value) in EVERY_FIELD.items()}
        expected = SimConfig.from_dict(data)
        default = SimConfig("mcf", "deuce")
        assert list(data) == [f.name for f in fields(SimConfig)]
        for name in data:
            assert getattr(expected, name) != getattr(default, name), name
        if command == "run":
            argv = ["run", *self._argv(*EVERY_FIELD)]
        else:
            rest = [n for n in EVERY_FIELD if n not in ("workload", "scheme")]
            argv = ["sweep", "--workloads", "kv-udb", "--schemes", "dyndeuce",
                    *self._argv(*rest)]
        assert _configs_of(monkeypatch, [*argv, "--no-ledger"]) == [expected]
        spec = JobSpec.decode({"kind": "run", "config": data})
        assert spec.configs == (expected,)

    @pytest.mark.parametrize(
        "argv",
        [["run", "--workload", "mcf", "--scheme", "deuce"],
         ["sweep", "--workloads", "mcf", "--schemes", "deuce"]],
    )
    def test_bare_command_runs_simconfig_defaults(self, monkeypatch, argv):
        from repro.sim.config import DEFAULT_N_WRITES, SimConfig

        configs = _configs_of(monkeypatch, argv)
        assert configs == [SimConfig("mcf", "deuce")]
        assert configs[0].n_writes == DEFAULT_N_WRITES

    @pytest.mark.parametrize(
        "flags",
        [["--writes", "5"], ["--no-track-per-line-wear"],
         ["--workload", "mcf", "--hwl-region-lines", "8"]],
    )
    def test_resume_rejects_config_flags(self, capsys, flags):
        code = main(["run", "--resume", "no-such-run", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot be combined with --resume" in err
        for flag in flags:
            if flag.startswith("--"):
                assert flag.replace("--no-", "--") in err


class TestRunObservability:
    def test_metrics_trace_and_series_outputs(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        trace = tmp_path / "t.jsonl"
        series = tmp_path / "s.csv"
        code = main(
            [
                "run",
                "--workload",
                "mcf",
                "--scheme",
                "dyndeuce",
                "--writes",
                "400",
                "--sample-interval",
                "100",
                "--metrics-out",
                str(metrics),
                "--trace-out",
                str(trace),
                "--series-out",
                str(series),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled 4 intervals" in out
        for path in (metrics, trace):
            lines = path.read_text().splitlines()
            assert lines
            for line in lines:
                json.loads(line)
        rows = series.read_text().splitlines()
        assert len(rows) == 5  # header + 4 samples
        assert rows[0].startswith("write_index,")

    def test_series_out_defaults_sampling_cadence(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        code = main(
            [
                "run",
                "--workload",
                "mcf",
                "--scheme",
                "deuce",
                "--writes",
                "200",
                "--series-out",
                str(series),
            ]
        )
        assert code == 0
        assert series.exists()
        assert "sampled" in capsys.readouterr().out


class TestExperiment:
    def test_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "libq" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_small_figure_run(self, capsys):
        assert main(["experiment", "fig12", "--writes", "800"]) == 0
        assert "Fig 12" in capsys.readouterr().out

    def test_bad_writes_exits_2_naming_the_field(self, capsys):
        assert main(["experiment", "fig12", "--writes", "-5"]) == 2
        assert (
            "config key 'n_writes' must be >= 1, got -5"
            in capsys.readouterr().err
        )

    def test_negative_workers_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig12", "--writes", "100", "--workers", "-1"])
        assert exc.value.code == 2
        assert "argument --workers: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["table2", "fig18"])
    def test_zero_writes_exits_2_instead_of_the_default_scale(
        self, capsys, name
    ):
        assert main(["experiment", name, "--writes", "0"]) == 2
        captured = capsys.readouterr()
        assert "config key 'n_writes' must be >= 1, got 0" in captured.err
        assert captured.out == ""

    def test_progress_renders_on_stderr(self, capsys):
        code = main(
            ["experiment", "fig12", "--writes", "400", "--progress"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Fig 12" in captured.out
        assert "done" in captured.err and "ETA" in captured.err
        assert captured.err.endswith("\n")

    def test_no_progress_keeps_stderr_quiet(self, capsys):
        code = main(
            ["experiment", "fig12", "--writes", "400", "--no-progress"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""


class TestRunLedgerIntegration:
    def test_run_persists_a_manifest(self, capsys):
        from repro.obs.ledger import RunLedger

        code = main(
            [
                "run", "--workload", "mcf", "--scheme", "deuce",
                "--writes", "200", "--label", "cli-test",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recorded in" in out
        ledger = RunLedger()
        manifest = ledger.latest(kind="run", scheme="deuce")
        assert manifest is not None
        assert manifest.label == "cli-test"
        assert manifest.workload == "mcf"
        assert manifest.summary["flips_pct"] > 0
        assert manifest.wall_time_s > 0
        # Phase wall times came from tracer spans around the pipeline.
        assert "scheme.write" in manifest.phases
        # The summary table gained the ledger join columns.
        assert manifest.run_id in out
        assert "run_id" in out and "git_rev" in out
        # Metrics were captured as an artifact without any --metrics-out.
        run_dir = ledger.run_dir(manifest.run_id)
        assert (run_dir / "metrics.jsonl").exists()

    def test_no_ledger_skips_recording(self, capsys):
        code = main(
            [
                "run", "--workload", "mcf", "--scheme", "deuce",
                "--writes", "100", "--no-ledger",
            ]
        )
        assert code == 0
        assert "recorded in" not in capsys.readouterr().out
        assert not runs_root().exists()

    def test_no_ledger_run_is_bit_identical(self, capsys):
        """An unledgered CLI run equals the uninstrumented library run."""
        from repro.sim.config import SimConfig
        from repro.sim.runner import run

        assert main(
            [
                "run", "--workload", "mcf", "--scheme", "deuce",
                "--writes", "300", "--no-ledger",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["run", "--workload", "mcf", "--scheme", "deuce", "--writes", "300"]
        ) == 0
        ledgered = capsys.readouterr().out
        reference = run(SimConfig("mcf", "deuce", n_writes=300))
        expected = reference.summary_row()
        # Both CLI paths printed exactly the reference aggregates.
        for key in ("flips_pct", "data_flips_pct", "slots", "words_reenc"):
            assert str(expected[key]) in ledgered

    def test_ledgered_aggregates_match_uninstrumented(self):
        """Recording a manifest must not perturb simulation results."""
        from repro.obs.ledger import RunLedger
        from repro.sim.config import SimConfig
        from repro.sim.runner import run

        assert main(
            ["run", "--workload", "Gems", "--scheme", "dyndeuce",
             "--writes", "300"]
        ) == 0
        manifest = RunLedger().latest(kind="run", scheme="dyndeuce")
        reference = run(SimConfig("Gems", "dyndeuce", n_writes=300))
        row = reference.summary_row()
        assert {k: manifest.summary[k] for k in row} == row

    def test_experiment_records_cells_and_experiment(self, capsys):
        from repro.obs.ledger import RunLedger

        code = main(
            ["experiment", "fig12", "--writes", "300", "--no-progress"]
        )
        assert code == 0
        assert "recorded as" in capsys.readouterr().out
        ledger = RunLedger()
        exp = ledger.latest(kind="experiment", label="fig12")
        assert exp is not None and exp.wall_time_s > 0
        cells = ledger.list(kind="sweep-cell", label="fig12")
        assert cells and all(c.summary["flips_pct"] >= 0 for c in cells)


class TestRunsCommand:
    def _seed(self) -> list[str]:
        for scheme in ("deuce", "encr-dcw"):
            assert main(
                ["run", "--workload", "mcf", "--scheme", scheme,
                 "--writes", "150"]
            ) == 0
        from repro.obs.ledger import RunLedger

        return [m.run_id for m in RunLedger().list()]

    def test_list_show_diff_gc(self, capsys):
        ids = self._seed()
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert all(run_id in out for run_id in ids)
        assert main(["runs", "show", ids[0]]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == ids[0]
        assert main(["runs", "diff", ids[0], ids[1]]) == 0
        out = capsys.readouterr().out
        assert "flips_pct" in out and "delta" in out
        assert main(["runs", "gc", "--keep", "1"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_show_unknown_run_exits_2(self, capsys):
        assert main(["runs", "show", "missing-run"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_empty_ledger_lists_nothing(self, capsys):
        assert main(["runs", "list"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_limit_zero_lists_all_and_negative_is_rejected(self, capsys):
        ids = self._seed()
        capsys.readouterr()
        assert main(["runs", "list", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert ids[1] in out and ids[0] not in out
        assert main(["runs", "list", "--limit", "0"]) == 0
        out = capsys.readouterr().out
        assert all(run_id in out for run_id in ids)
        with pytest.raises(SystemExit) as exc:
            main(["runs", "list", "--limit", "-5"])
        assert exc.value.code == 2
        assert "--limit" in capsys.readouterr().err


class TestGateCommand:
    def _pin_and_seed(self, tmp_path, flips_pct_offset: float = 0.0) -> str:
        """Run the deuce cell, then write baselines around its measurement."""
        from tests.obs.test_gate import write_baselines

        assert main(
            ["run", "--workload", "mcf", "--scheme", "deuce",
             "--writes", "200"]
        ) == 0
        from repro.obs.ledger import RunLedger

        measured = RunLedger().latest(scheme="deuce").summary["flips_pct"]
        return str(
            write_baselines(
                tmp_path / "baselines",
                {"deuce": float(measured) + flips_pct_offset},
                min_writes_per_s=1.0,
            )
        )

    def test_gate_passes_in_band(self, tmp_path, capsys):
        baselines = self._pin_and_seed(tmp_path)
        assert main(["gate", "--baselines", baselines]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "OK" in out

    def test_gate_fails_outside_band_with_exit_1(self, tmp_path, capsys):
        baselines = self._pin_and_seed(tmp_path, flips_pct_offset=30.0)
        assert main(["gate", "--baselines", baselines]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "REGRESSION" in out

    def test_gate_missing_baselines_exits_2(self, tmp_path, capsys):
        assert main(["gate", "--baselines", str(tmp_path / "nope")]) == 2
        assert "gate error" in capsys.readouterr().err

    def test_gate_pin_rewrites_baselines(self, tmp_path, capsys):
        baselines = self._pin_and_seed(tmp_path, flips_pct_offset=30.0)
        assert main(["gate", "--baselines", baselines]) == 1
        capsys.readouterr()
        assert main(["gate", "--baselines", baselines, "--pin"]) == 0
        assert "re-pinned" in capsys.readouterr().out
        assert main(["gate", "--baselines", baselines]) == 0


class TestDashboardCommand:
    def test_dashboard_end_to_end(self, tmp_path, capsys):
        assert main(
            ["run", "--workload", "mcf", "--scheme", "deuce",
             "--writes", "150"]
        ) == 0
        out_path = tmp_path / "dash.html"
        assert main(["dashboard", "--output", str(out_path)]) == 0
        assert "dashboard written" in capsys.readouterr().out
        html = out_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert 'class="spark' in html and "deuce" in html

    def test_negative_limit_is_rejected(self, tmp_path, capsys):
        out_path = tmp_path / "dash.html"
        with pytest.raises(SystemExit) as exc:
            main(["dashboard", "--output", str(out_path), "--limit", "-1"])
        assert exc.value.code == 2
        assert "--limit" in capsys.readouterr().err
        assert not out_path.exists()


class TestTraceCommand:
    def _traced_sweep(self, tmp_path):
        trace_dir = tmp_path / "trace"
        assert main(
            ["sweep", "--workloads", "mcf", "--schemes", "deuce",
             "--writes", "150", "--workers", "1", "--no-ledger",
             "--no-progress", "--trace-dir", str(trace_dir)]
        ) == 0
        return trace_dir

    def test_sweep_trace_dir_writes_lanes(self, tmp_path, capsys):
        trace_dir = self._traced_sweep(tmp_path)
        assert "trace lanes written" in capsys.readouterr().out
        assert (trace_dir / "sweep.jsonl").exists()
        assert (trace_dir / "cell-0.jsonl").exists()

    def test_trace_export_writes_chrome_json(self, tmp_path, capsys):
        trace_dir = self._traced_sweep(tmp_path)
        out = tmp_path / "trace.json"
        assert main(["trace", "export", str(trace_dir),
                     "--out", str(out)]) == 0
        assert "chrome trace written" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        assert {e["ph"] for e in trace["traceEvents"]} >= {"M", "X"}

    def test_trace_report_prints_critical_path(self, tmp_path, capsys):
        trace_dir = self._traced_sweep(tmp_path)
        capsys.readouterr()
        assert main(["trace", "report", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "top 10 span names" in out

    def test_trace_resolves_job_ids_under_runs_dir(self, tmp_path, capsys):
        # A lane under <runs-dir>/traces/<id> is addressable by bare id.
        runs = Path(os.environ["DEUCE_RUNS_DIR"])
        lane_dir = runs / "traces" / "job-abc123"
        lane_dir.mkdir(parents=True)
        from repro.obs.context import TraceContext
        from repro.obs.tracing import JsonlSink, Tracer

        sink = JsonlSink(
            lane_dir / "job.jsonl",
            meta={**TraceContext.new().to_dict(), "lane": "job"},
        )
        Tracer(sink).span_event("job.exec", 0.0, 1.0)
        sink.close()
        assert main(["trace", "report", "job-abc123"]) == 0
        assert "job.exec" in capsys.readouterr().out

    def test_missing_trace_errors_cleanly(self, tmp_path, capsys):
        assert main(["trace", "report", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_config_flags_have_no_default(self):
        """Unset config flags stay out of the config, so every field keeps
        SimConfig's one default; the run-only flags keep theirs."""
        args = build_parser().parse_args(["run", "--workload", "mcf"])
        assert args.workload == "mcf"
        for name in ("scheme", "n_writes", "epoch_interval", "wear_leveling",
                     "pad_cache_lines", "track_per_line_wear"):
            assert getattr(args, name) is None, name
        assert args.sample_interval == 0
        assert args.metrics_out is None
        assert args.trace_out is None
        assert args.series_out is None
        assert args.resume is None
        sweep = build_parser().parse_args(
            ["sweep", "--workloads", "mcf", "--schemes", "deuce"]
        )
        assert sweep.n_writes is None and sweep.chunk_size is None
        assert build_parser().parse_args(["experiment", "fig12"]).writes is None

    def test_progress_flag_tristate(self):
        parse = build_parser().parse_args
        assert parse(["experiment", "fig12"]).progress is None
        assert parse(["experiment", "fig12", "--progress"]).progress is True
        assert parse(["experiment", "fig12", "--no-progress"]).progress is False

    def test_workers_zero_means_auto(self):
        args = build_parser().parse_args(
            ["experiment", "fig12", "--workers", "0"]
        )
        assert args.workers == 0  # resolve_workers treats 0 as auto


class TestReport:
    def test_report_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(
            ["report", "--output", str(out), "--writes", "300"]
        )
        assert code == 0
        text = out.read_text()
        assert "# DEUCE reproduction report" in text
        assert "fig10" in text
        assert "Paper reports" in text


class TestExportCommand:
    def test_export_writes_csvs(self, tmp_path, capsys):
        # Patch the experiment registry call path via small writes: use the
        # fast exhibits only by running the full command with tiny N would
        # be slow, so exercise the wiring through export_all directly here
        # and the CLI arg parsing below.
        args = build_parser().parse_args(["export", "--output", "x", "--writes", "7"])
        assert args.writes == 7
        assert args.output == "x"


class TestAnalyzeCommand:
    def test_analyze_generated_workload(self, capsys):
        code = main(["analyze", "--workload", "libq", "--writes", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended scheme: deuce" in out
        assert "flip_pct" in out

    def test_analyze_trace_file(self, tmp_path, capsys):
        from repro.workloads.trace import generate_trace

        path = tmp_path / "g.trc"
        generate_trace("Gems", 200, seed=0).save(path)
        code = main(["analyze", "--trace-file", str(path)])
        assert code == 0
        assert "encr-fnw" in capsys.readouterr().out


class TestKvWorkloadRun:
    def test_kv_run_prints_phase_columns(self, capsys):
        code = main(
            ["run", "--workload", "kv-udb", "--scheme", "deuce",
             "--writes", "600", "--no-ledger",
             "--workload-params", '{"n_keys": 256, "cache_kb": 8}']
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase_populate_writes" in out
        assert "phase_steady_flips_pct" in out

    def test_invalid_param_exits_2_with_field_path(self, capsys):
        code = main(
            ["run", "--workload", "kv-udb", "--scheme", "deuce",
             "--writes", "100", "--no-ledger",
             "--workload-params", '{"zipf_alpha": "hi"}']
        )
        assert code == 2
        err = capsys.readouterr().err
        assert (
            "workload_params.zipf_alpha: expected float, got str ('hi')"
            in err
        )

    def test_malformed_params_json_exits_2(self, capsys):
        code = main(
            ["run", "--workload", "kv-udb", "--scheme", "deuce",
             "--writes", "100", "--no-ledger",
             "--workload-params", "{not json"]
        )
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_sweep_accepts_kv_profiles(self, capsys):
        code = main(
            ["sweep", "--workloads", "kv-cache", "--schemes",
             "deuce", "noencr-dcw", "--writes", "1500", "--workers", "1",
             "--no-ledger", "--no-progress",
             "--workload-params", '{"n_keys": 256, "cache_kb": 8}']
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kv-cache" in out and "phase_steady_flips_pct" in out


class TestPluginsCommand:
    def test_plugins_lists_every_registry(self, capsys):
        assert main(["plugins"]) == 0
        out = capsys.readouterr().out
        for kind in ("schemes", "wear_levelers", "pad_sources", "workloads"):
            assert kind in out
        assert "deuce" in out and "kv-udb" in out

    def test_describe_renders_param_schema(self, capsys):
        assert main(["plugins", "describe", "kv-udb"]) == 0
        out = capsys.readouterr().out
        assert "zipf_alpha" in out
        assert "float" in out

    def test_describe_unknown_name_suggests(self, capsys):
        assert main(["plugins", "describe", "kv-ubd"]) == 2
        assert "kv-udb" in capsys.readouterr().err

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["plugins", "describe", "kv-udb", "--json"]) == 0
        described = json.loads(capsys.readouterr().out)
        params = {p["name"] for p in described["workloads"]["params"]}
        assert "zipf_alpha" in params and "n_keys" in params


class TestKvSuiteCommand:
    def test_suites_lists_canned_recipes(self, capsys):
        assert main(["kv", "suites"]) == 0
        out = capsys.readouterr().out
        assert "etc-smoke" in out and "udb-steady" in out

    def test_record_then_verify_round_trip(self, tmp_path, capsys):
        path = tmp_path / "suite.jsonl"
        code = main(
            ["kv", "record", "--profile", "kv-udb", "--writes", "600",
             "--seed", "4", "--out", str(path),
             "--workload-params", '{"n_keys": 256, "cache_kb": 8}']
        )
        assert code == 0
        assert "recorded to" in capsys.readouterr().out
        assert path.exists()
        assert main(["kv", "verify", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_record_canned_suite_by_name(self, tmp_path, capsys):
        path = tmp_path / "etc.npz"
        assert main(["kv", "record", "--suite", "etc-smoke",
                     "--out", str(path)]) == 0
        assert path.exists()
        assert main(["kv", "verify", str(path)]) == 0

    def test_verify_detects_tampering(self, tmp_path, capsys):
        path = tmp_path / "suite.jsonl"
        assert main(
            ["kv", "record", "--profile", "kv-udb", "--writes", "600",
             "--out", str(path),
             "--workload-params", '{"n_keys": 256, "cache_kb": 8}']
        ) == 0
        lines = path.read_text().splitlines()
        # swap one steady-phase op's key for another valid key
        tampered = json.loads(lines[-1])
        tampered[1] = (tampered[1] + 1) % 256
        lines[-1] = json.dumps(tampered)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["kv", "verify", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().err
