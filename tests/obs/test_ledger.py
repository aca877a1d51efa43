"""Run ledger: manifest round-trips, queries, diff, retention GC."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.obs.ledger import (
    LedgerError,
    RunLedger,
    RunManifest,
    build_manifest,
    config_dict,
    config_hash,
    default_runs_dir,
    manifest_from_result,
    new_run_id,
)
from repro.sim.config import SimConfig
from repro.sim.runner import run


def small_config(scheme: str = "deuce", workload: str = "mcf") -> SimConfig:
    return SimConfig(workload=workload, scheme=scheme, n_writes=150, seed=0)


def make_manifest(
    scheme: str = "deuce",
    workload: str = "mcf",
    kind: str = "run",
    label: str = "",
    flips_pct: float = 10.0,
) -> RunManifest:
    return build_manifest(
        kind=kind,
        label=label,
        workload=workload,
        scheme=scheme,
        n_writes=150,
        wall_time_s=0.5,
        summary={"flips_pct": flips_pct, "scheme": scheme},
    )


class TestManifest:
    def test_run_ids_sort_and_never_collide(self):
        ids = {new_run_id() for _ in range(50)}
        assert len(ids) == 50
        one = new_run_id()
        assert len(one.split("-")) == 2

    def test_config_hash_is_stable_and_json_safe(self):
        config = small_config()
        d1, d2 = config_dict(config), config_dict(config)
        assert d1 == d2
        assert isinstance(d1["key"], str)  # bytes hexified for JSON
        json.dumps(d1)
        assert config_hash(d1) == config_hash(d2)
        other = config_dict(small_config(scheme="encr-dcw"))
        assert config_hash(d1) != config_hash(other)

    def test_build_manifest_fills_provenance(self):
        manifest = make_manifest()
        assert manifest.run_id
        assert manifest.created_utc.endswith("Z")
        assert manifest.python_version.count(".") == 2
        assert manifest.numpy_version
        assert manifest.writes_per_s == pytest.approx(150 / 0.5)

    def test_git_revision_is_read_once_per_directory(
        self, monkeypatch, tmp_path
    ):
        calls = []

        def fake_run(argv, **kwargs):
            calls.append(argv)
            return subprocess.CompletedProcess(argv, 0, "abc1234\n", "")

        monkeypatch.setattr(subprocess, "run", fake_run)
        monkeypatch.chdir(tmp_path)  # a directory no manifest has seen
        first, second = make_manifest(), make_manifest()
        assert first.git_rev == second.git_rev == "abc1234"
        assert len(calls) == 1

    def test_manifest_from_result_carries_summary(self):
        config = small_config()
        result = run(config)
        manifest = manifest_from_result(result, config)
        assert manifest.scheme == "deuce"
        assert manifest.workload == "mcf"
        assert manifest.n_writes == 150
        assert manifest.config_hash == config_hash(config_dict(config))
        assert manifest.summary["flips_pct"] == result.summary_row()["flips_pct"]
        assert manifest.wall_time_s > 0  # runner stamps wall time

    def test_dict_round_trip_ignores_unknown_keys(self):
        manifest = make_manifest()
        data = manifest.to_dict()
        data["future_field"] = "tolerated"
        assert RunManifest.from_dict(data) == manifest


class TestRunLedger:
    def test_default_root_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DEUCE_RUNS_DIR", str(tmp_path / "elsewhere"))
        assert default_runs_dir() == tmp_path / "elsewhere"
        assert RunLedger().root == tmp_path / "elsewhere"

    def test_record_list_get_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        recorded = ledger.record(make_manifest())
        assert len(ledger) == 1
        listed = ledger.list()
        assert [m.run_id for m in listed] == [recorded.run_id]
        fetched = ledger.get(recorded.run_id)
        assert fetched == recorded
        # Both the index line and the per-run manifest.json exist.
        assert (ledger.root / "index.jsonl").exists()
        assert (ledger.run_dir(recorded.run_id) / "manifest.json").exists()

    def test_get_falls_back_to_index(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        recorded = ledger.record(make_manifest())
        (ledger.run_dir(recorded.run_id) / "manifest.json").unlink()
        assert ledger.get(recorded.run_id).run_id == recorded.run_id

    def test_get_unknown_run_raises(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        with pytest.raises(LedgerError, match="not found"):
            ledger.get("nope")

    def test_artifact_text_and_copies(self, tmp_path):
        source = tmp_path / "trace.jsonl"
        source.write_text('{"type":"span"}\n')
        ledger = RunLedger(tmp_path / "runs")
        manifest = ledger.record(
            make_manifest(),
            artifacts={"trace": source},
            artifact_text={"metrics.jsonl": '{"c":1}\n'},
        )
        run_dir = ledger.run_dir(manifest.run_id)
        assert manifest.artifacts["metrics"] == "metrics.jsonl"
        assert (run_dir / "metrics.jsonl").read_text() == '{"c":1}\n'
        assert (run_dir / manifest.artifacts["trace"]).read_text() == (
            source.read_text()
        )

    def test_filters_and_latest(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ledger.record(make_manifest(scheme="deuce"))
        ledger.record(make_manifest(scheme="encr-dcw"))
        newest = ledger.record(make_manifest(scheme="deuce", label="second"))
        assert len(ledger.list(scheme="deuce")) == 2
        assert len(ledger.list(scheme="encr-dcw", workload="mcf")) == 1
        assert ledger.list(workload="gems") == []
        assert ledger.latest(scheme="deuce").run_id == newest.run_id
        assert ledger.latest(scheme="ble") is None
        assert ledger.list(limit=1)[0].run_id == newest.run_id

    def test_negative_limit_raises(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ledger.record(make_manifest())
        with pytest.raises(ValueError, match="limit"):
            ledger.list(limit=-5)

    def test_diff_reports_numeric_deltas(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        a = ledger.record(make_manifest(flips_pct=10.0))
        b = ledger.record(make_manifest(scheme="encr-dcw", flips_pct=50.0))
        deltas = ledger.diff(a.run_id, b.run_id)
        assert deltas["flips_pct"] == {"a": 10.0, "b": 50.0, "delta": 40.0}
        assert "wall_time_s" in deltas
        # Non-numeric values that differ are surfaced with delta=None.
        assert deltas["scheme"]["delta"] is None

    def test_gc_keeps_newest_and_prunes_dirs(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        manifests = [ledger.record(make_manifest()) for _ in range(5)]
        removed = ledger.gc(keep=2)
        assert removed == [m.run_id for m in manifests[:3]]
        assert len(ledger) == 2
        kept = {m.run_id for m in ledger.list()}
        assert kept == {m.run_id for m in manifests[3:]}
        for run_id in removed:
            assert not ledger.run_dir(run_id).exists()
        assert ledger.gc(keep=2) == []  # idempotent

    def test_gc_rejects_negative_keep(self, tmp_path):
        with pytest.raises(ValueError):
            RunLedger(tmp_path / "runs").gc(keep=-1)

    def test_gc_crash_leaves_no_orphaned_dirs(self, tmp_path, monkeypatch):
        """Regression: gc once rewrote the index *before* deleting the
        pruned artifact dirs, so a crash in between leaked the dirs
        forever (no index row ever points at them again).  The fixed
        ordering deletes dirs first — a crash then leaves dangling index
        rows, which the next gc prunes."""
        from pathlib import Path

        ledger = RunLedger(tmp_path / "runs")
        manifests = [ledger.record(make_manifest()) for _ in range(4)]

        real_replace = Path.replace

        def crash_on_index_rewrite(self, target):
            if str(target).endswith("index.jsonl"):
                raise OSError("simulated crash mid-gc")
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", crash_on_index_rewrite)
        with pytest.raises(OSError, match="simulated crash"):
            ledger.gc(keep=1)
        monkeypatch.undo()

        # Artifact dirs of the pruned runs are already gone ...
        for manifest in manifests[:3]:
            assert not ledger.run_dir(manifest.run_id).exists()
        # ... and the (dangling) index rows survive and re-prune cleanly.
        assert len(ledger) == 4
        assert ledger.gc(keep=1) == [m.run_id for m in manifests[:3]]
        assert {m.run_id for m in ledger.list()} == {manifests[3].run_id}


class TestLedgerThroughRunner:
    def test_record_result_persists_a_runnable_manifest(self, tmp_path):
        config = small_config()
        result = run(config)
        ledger = RunLedger(tmp_path / "runs")
        manifest = ledger.record_result(result, config, label="unit")
        fetched = ledger.get(manifest.run_id)
        assert fetched.label == "unit"
        assert fetched.config["scheme"] == "deuce"
        assert fetched.summary["flips_pct"] > 0

    def test_diff_adds_one_row_per_phase(self, tmp_path):
        from repro.obs.instruments import Instruments
        from repro.obs.metrics import MetricsRegistry

        ledger = RunLedger(tmp_path / "runs")
        manifests = []
        for scheme in ("deuce", "noencr-dcw"):
            config = small_config(scheme=scheme)
            result = run(
                config, instruments=Instruments(metrics=MetricsRegistry())
            )
            manifests.append(ledger.record_result(result, config))
        a, b = manifests
        deltas = ledger.diff(a.run_id, b.run_id)
        row = deltas["phase.scheme.write"]
        assert (row["a"], row["b"]) == (
            a.phases["scheme.write"], b.phases["scheme.write"]
        )
        assert row["delta"] == pytest.approx(row["b"] - row["a"], abs=1e-6)
        # Only the encrypted run fetches pads: no delta to take.
        assert deltas["phase.pad.fetch"]["b"] is None
        assert deltas["phase.pad.fetch"]["delta"] is None
        # A run without metrics keeps no profile, so records no phases.
        config = small_config()
        assert ledger.record_result(run(config), config).phases == {}
