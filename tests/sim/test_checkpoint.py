"""Checkpoint/resume: run snapshots, sweep cell records, retry budgets."""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.obs.instruments import Instruments, RunAborted
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    RunCheckpoint,
    SweepCheckpoint,
    config_signature,
    load_run_checkpoint,
    save_run_checkpoint,
)
from repro.sim.config import SimConfig
from repro.sim.parallel import SweepCellFailed, run_suite_parallel
from repro.sim.runner import run, run_suite

CFG = SimConfig("libq", "deuce", n_writes=600, seed=3)


def _result_dicts_equal(a, b) -> bool:
    """Bit-identity modulo wall clock (the documented equality contract)."""
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time_s"), db.pop("wall_time_s")
    return da == db


class TestConfigSignature:
    def test_stable_across_instances(self):
        assert config_signature(CFG) == config_signature(
            SimConfig("libq", "deuce", n_writes=600, seed=3)
        )

    def test_sensitive_to_every_knob(self):
        base = config_signature(CFG)
        assert config_signature(
            SimConfig("libq", "deuce", n_writes=600, seed=4)
        ) != base
        assert config_signature(
            SimConfig("mcf", "deuce", n_writes=600, seed=3)
        ) != base


class TestRunCheckpointIO:
    def _checkpoint(self) -> RunCheckpoint:
        return RunCheckpoint(
            config=CFG,
            write_index=123,
            result_state={"total_flips": 7, "data_flips": 5},
            scheme_state={
                "lines/addresses": np.arange(4, dtype=np.int64),
                "extra/epoch": 2,
            },
            pcm_state={"wear": np.ones((4, 8), dtype=np.int64)},
            leveler_state={"start": 0},
            pad_cache_state=None,
        )

    def test_round_trip(self, tmp_path):
        save_run_checkpoint(tmp_path, self._checkpoint())
        loaded = load_run_checkpoint(tmp_path)
        assert loaded.write_index == 123
        assert loaded.config == CFG
        assert loaded.result_state == {"total_flips": 7, "data_flips": 5}
        assert np.array_equal(
            loaded.scheme_state["lines/addresses"], np.arange(4)
        )
        assert loaded.scheme_state["extra/epoch"] == 2
        assert np.array_equal(loaded.pcm_state["wear"], np.ones((4, 8)))
        assert loaded.pad_cache_state is None

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_run_checkpoint(tmp_path / "nowhere")

    def test_corrupt_manifest_raises(self, tmp_path):
        save_run_checkpoint(tmp_path, self._checkpoint())
        (tmp_path / "checkpoint.json").write_text("{truncated")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_run_checkpoint(tmp_path)

    def test_wrong_schema_raises(self, tmp_path):
        save_run_checkpoint(tmp_path, self._checkpoint())
        manifest = json.loads((tmp_path / "checkpoint.json").read_text())
        manifest["schema"] = CHECKPOINT_SCHEMA + 1
        (tmp_path / "checkpoint.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="schema"):
            load_run_checkpoint(tmp_path)

    def test_unserializable_leaf_raises(self, tmp_path):
        bad = self._checkpoint()
        bad.scheme_state["extra/bogus"] = object()
        with pytest.raises(CheckpointError, match="bogus"):
            save_run_checkpoint(tmp_path, bad)

    def test_stale_state_files_pruned(self, tmp_path):
        first = self._checkpoint()
        save_run_checkpoint(tmp_path, first)
        second = self._checkpoint()
        second.write_index = 456
        save_run_checkpoint(tmp_path, second)
        npz = sorted(p.name for p in tmp_path.glob("state-*.npz"))
        assert npz == ["state-000000000456.npz"]


class TestRunnerResume:
    def test_checkpointed_run_is_bit_identical_to_plain(self, tmp_path):
        clean = run(CFG)
        checkpointed = run(CFG, checkpoint_dir=tmp_path, checkpoint_every=200)
        assert _result_dicts_equal(clean, checkpointed)

    def test_resume_from_mid_run_checkpoint(self, tmp_path):
        clean = run(CFG)
        # A full checkpointed run leaves its last snapshot (write 500 of
        # 600) behind; resuming replays only the tail.
        run(CFG, checkpoint_dir=tmp_path, checkpoint_every=250)
        assert load_run_checkpoint(tmp_path).write_index == 500
        resumed = run(resume_from=str(tmp_path))
        assert _result_dicts_equal(clean, resumed)

    @pytest.mark.parametrize(
        "scheme",
        ("noencr-fnw", "encr-dcw", "dyndeuce", "deuce+fnw", "ble+deuce",
         "invmm"),
    )
    def test_resume_bit_identity_per_scheme(self, tmp_path, scheme):
        cfg = SimConfig("mcf", scheme, n_writes=500, seed=9)
        clean = run(cfg)
        run(cfg, checkpoint_dir=tmp_path, checkpoint_every=150)
        resumed = run(resume_from=str(tmp_path))
        assert _result_dicts_equal(clean, resumed)

    def test_aborted_run_resumes_to_clean_result(self, tmp_path):
        """The in-process kill-and-resume drill: abort after the first
        snapshot lands, resume from disk, match the uninterrupted run."""
        clean = run(CFG)
        aborted = Instruments(
            abort=lambda: (tmp_path / "checkpoint.json").is_file()
        )
        with pytest.raises(RunAborted):
            run(
                CFG,
                instruments=aborted,
                checkpoint_dir=tmp_path,
                checkpoint_every=100,
            )
        resumed = run(resume_from=str(tmp_path))
        assert _result_dicts_equal(clean, resumed)

    def test_resume_config_mismatch_raises(self, tmp_path):
        run(CFG, checkpoint_dir=tmp_path, checkpoint_every=200)
        other = SimConfig("libq", "deuce", n_writes=600, seed=4)
        with pytest.raises(CheckpointError, match="does not match"):
            run(other, resume_from=str(tmp_path))

    def test_run_needs_config_or_checkpoint(self):
        with pytest.raises(ValueError, match="config or a resume_from"):
            run()


class TestSweepCheckpoint:
    def _grid(self):
        return [
            SimConfig(w, s, n_writes=300, seed=1)
            for w in ("libq", "mcf")
            for s in ("deuce", "noencr-dcw")
        ]

    def test_record_restore_round_trip(self, tmp_path):
        configs = self._grid()
        results = [run(c) for c in configs]
        checkpoint = SweepCheckpoint(tmp_path)
        for i, (config, result) in enumerate(zip(configs, results)):
            checkpoint.record(i, config, result, run_id=f"r{i}")
        restored = checkpoint.restore()
        assert len(restored) == len(configs)
        for config, result in zip(configs, results):
            hit = restored[config_signature(config)]
            assert hit.total_flips == result.total_flips
            assert hit.slot_histogram == result.slot_histogram

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        configs = self._grid()
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.record(0, configs[0], run(configs[0]))
        with open(checkpoint.path, "a") as fh:
            fh.write('{"config_signature": "dead", "resu')  # SIGKILL here
        assert set(checkpoint.restore()) == {config_signature(configs[0])}

    def test_resume_runs_only_missing_cells(self, tmp_path):
        configs = self._grid()
        full = run_suite_parallel(configs, max_workers=1)
        checkpoint = SweepCheckpoint(tmp_path)
        for i in (0, 2):  # pretend these finished before a crash
            checkpoint.record(i, configs[i], full[i])
        executed = []
        resumed = run_suite_parallel(
            configs,
            max_workers=1,
            progress=lambda e: executed.append(e.cell)
            if e.kind == "done"
            else None,
            checkpoint=checkpoint,
        )
        assert sorted(set(executed)) == [1, 3]  # restored cells not re-run
        assert [r.total_flips for r in resumed] == [
            r.total_flips for r in full
        ]

    def test_completed_cells_recorded_as_they_finish(self, tmp_path):
        configs = self._grid()
        run_suite_parallel(
            configs, max_workers=1, checkpoint=str(tmp_path / "ck")
        )
        restored = SweepCheckpoint(tmp_path / "ck").restore()
        assert len(restored) == len(configs)


class TestRetries:
    def test_flaky_cell_succeeds_within_budget(self, tmp_path, monkeypatch):
        configs = [SimConfig("libq", "deuce", n_writes=200, seed=1)]
        real_run = run
        attempts = {"n": 0}

        def flaky(config, **kwargs):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError("transient")
            return real_run(config, **kwargs)

        monkeypatch.setattr("repro.sim.runner.run", flaky)
        results = run_suite_parallel(
            configs, max_workers=1, retries=2, retry_backoff_s=0.001
        )
        assert attempts["n"] == 3
        assert results[0].total_flips == real_run(configs[0]).total_flips

    def test_exhausted_budget_raises_with_partials(self, monkeypatch):
        configs = [
            SimConfig("libq", "noencr-dcw", n_writes=200, seed=1),
            SimConfig("mcf", "deuce", n_writes=200, seed=1),
        ]
        real_run = run

        def half_broken(config, **kwargs):
            if config.scheme == "deuce":
                raise OSError("persistent")
            return real_run(config, **kwargs)

        monkeypatch.setattr("repro.sim.runner.run", half_broken)
        with pytest.raises(SweepCellFailed) as exc_info:
            run_suite_parallel(
                configs, max_workers=1, retries=1, retry_backoff_s=0.001
            )
        failure = exc_info.value
        assert failure.index == 1
        assert failure.attempts == 2  # initial try + 1 retry
        assert failure.config == configs[1]
        assert failure.results[0] is not None  # the healthy cell survived
        assert failure.results[1] is None

    # The pool cases rely on the fork start method: the monkeypatched
    # ``repro.sim.runner.run`` is inherited by every worker, and a marker
    # file under ``tmp_path`` makes each injected fault fire only once.
    POOL_CONFIGS = [
        SimConfig("libq", "noencr-dcw", n_writes=200, seed=1),
        SimConfig("mcf", "deuce", n_writes=200, seed=1),
        SimConfig("mcf", "encr-fnw", n_writes=200, seed=2),
    ]

    @staticmethod
    def _first_time(marker) -> bool:
        """True exactly once per marker path, across processes."""
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return False
        return True

    def test_pool_retries_a_cell_that_raises_once(self, tmp_path, monkeypatch):
        configs = self.POOL_CONFIGS
        expected = run_suite(configs)
        real_run = run

        def raises_once(config, **kwargs):
            if config.scheme == "deuce" and self._first_time(
                tmp_path / "raised"
            ):
                raise OSError("transient")
            return real_run(config, **kwargs)

        monkeypatch.setattr("repro.sim.runner.run", raises_once)
        results = run_suite_parallel(
            configs, max_workers=2, retries=1, retry_backoff_s=0.001
        )
        assert (tmp_path / "raised").exists()
        for observed, reference in zip(results, expected):
            assert _result_dicts_equal(observed, reference)

    def test_pool_rebuilds_after_a_worker_dies(self, tmp_path, monkeypatch):
        configs = self.POOL_CONFIGS
        expected = run_suite(configs)
        real_run = run

        def dies_once(config, **kwargs):
            if config.scheme == "deuce" and self._first_time(
                tmp_path / "died"
            ):
                os._exit(1)  # a hard crash: the pool breaks
            return real_run(config, **kwargs)

        monkeypatch.setattr("repro.sim.runner.run", dies_once)
        # A broken pool charges every in-flight cell, not only the culprit.
        results = run_suite_parallel(
            configs, max_workers=2, retries=2, retry_backoff_s=0.001
        )
        assert (tmp_path / "died").exists()
        for observed, reference in zip(results, expected):
            assert _result_dicts_equal(observed, reference)

    def test_pool_exhausted_budget_raises_with_partials(
        self, tmp_path, monkeypatch
    ):
        configs = self.POOL_CONFIGS[:2]
        real_run = run
        healthy_done = tmp_path / "healthy-done"

        def half_broken(config, **kwargs):
            if config.scheme != "deuce":
                result = real_run(config, **kwargs)
                healthy_done.touch()
                return result
            # Fail only once the healthy cell has finished, so its result
            # is in hand (the backoff leaves time to collect it) before
            # the budget runs out.
            deadline = time.monotonic() + 60
            while not healthy_done.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise OSError("persistent")

        monkeypatch.setattr("repro.sim.runner.run", half_broken)
        with pytest.raises(SweepCellFailed) as exc_info:
            run_suite_parallel(
                configs, max_workers=2, retries=1, retry_backoff_s=0.3
            )
        failure = exc_info.value
        assert failure.index == 1
        assert failure.attempts == 2  # initial try + 1 retry
        assert failure.config == configs[1]
        assert isinstance(failure.__cause__, OSError)
        assert _result_dicts_equal(failure.results[0], real_run(configs[0]))
        assert failure.results[1] is None

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_suite_parallel(
                [SimConfig("libq", "deuce", n_writes=100)], retries=-1
            )
