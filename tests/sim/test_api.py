"""The ``repro.api`` facade: Session entry points and SimConfig round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ObsOptions, Session
from repro.obs.instruments import RunAborted
from repro.obs.ledger import RunLedger
from repro.sim.config import ConfigError, SimConfig
from repro.sim.parallel import SweepCancelled
from repro.sim.runner import run


CFG = SimConfig("mcf", "deuce", n_writes=400, seed=7)


class TestSessionRun:
    def test_matches_direct_runner(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        direct = run(CFG)
        via_session = session.run(CFG)
        assert via_session.total_flips == direct.total_flips
        assert via_session.slot_histogram == direct.slot_histogram
        assert via_session.summary_row() == direct.summary_row()

    def test_records_manifest(self, tmp_path):
        session = Session(ledger=tmp_path / "runs", label="api-test")
        result = session.run(CFG)
        assert result.manifest is not None
        assert result.manifest.kind == "run"
        assert result.manifest.label == "api-test"
        assert session.ledger.get(result.manifest.run_id).scheme == "deuce"

    def test_ledger_off_no_manifest(self):
        result = Session(ledger=False).run(CFG)
        assert result.manifest is None

    def test_ledger_accepts_instance_and_path(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        assert Session(ledger=ledger).ledger is ledger
        assert Session(ledger=str(tmp_path / "other")).ledger.root == (
            tmp_path / "other"
        )

    def test_accepts_config_dict(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        result = session.run(
            {"workload": "mcf", "scheme": "deuce", "n_writes": 400, "seed": 7}
        )
        assert result.total_flips == run(CFG).total_flips

    def test_progress_events(self):
        events = []
        Session(ledger=False).run(CFG, progress=events.append)
        kinds = [e.kind for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "done"
        assert events[-1].writes_done == CFG.n_writes

    def test_should_stop_aborts(self):
        with pytest.raises(RunAborted):
            Session(ledger=False).run(CFG, should_stop=lambda: True)

    def test_obs_outputs(self, tmp_path):
        session = Session(ledger=False)
        result = session.run(
            CFG,
            obs=ObsOptions(
                metrics_out=str(tmp_path / "m.jsonl"),
                series_out=str(tmp_path / "s.csv"),
            ),
        )
        assert (tmp_path / "m.jsonl").exists()
        assert (tmp_path / "s.csv").exists()
        assert result.series is not None


class TestSessionSweep:
    def test_bit_identical_to_run(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        configs = [
            SimConfig("mcf", s, n_writes=300, seed=1)
            for s in ("deuce", "encr-fnw")
        ]
        swept = session.sweep(configs, workers=1)
        for config, result in zip(configs, swept):
            assert result.to_dict()["total_flips"] == (
                Session(ledger=False).run(config).total_flips
            )
            assert result.manifest is not None
            assert result.manifest.kind == "sweep-cell"

    def test_should_stop_cancels(self, tmp_path):
        session = Session(ledger=False)
        configs = [SimConfig("mcf", "deuce", n_writes=300, seed=i)
                   for i in range(4)]
        with pytest.raises(SweepCancelled):
            session.sweep(configs, workers=1, should_stop=lambda: True)


class TestSessionExperiment:
    def test_runs_and_records(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        result = session.experiment("fig10", n_writes=300)
        assert result.rows
        assert result.manifest is not None
        assert result.manifest.kind == "experiment"
        assert result.manifest.label == "fig10"

    def test_table2_signature_filtering(self):
        # table2 takes no kwargs; Session must drop the uniform knobs.
        result = Session(ledger=False).experiment("table2", n_writes=123)
        assert result.rows

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            Session(ledger=False).experiment("fig999")

    def test_unknown_option_rejected_with_hint(self):
        with pytest.raises(ConfigError) as info:
            Session(ledger=False).experiment("table2", bogus=1)
        assert "'bogus'" in str(info.value)
        with pytest.raises(ConfigError, match="did you mean 'n_writes'"):
            Session(ledger=False).experiment("table2", n_writs=300)

    def test_manifest_records_the_scale_each_exhibit_ran_at(self, tmp_path):
        from repro.sim.experiments import EXPERIMENTS

        session = Session(ledger=tmp_path / "runs")
        results = session.experiments(["fig12", "table2"])
        for name, result in results.items():
            assert result.manifest.n_writes == EXPERIMENTS[name].n_writes
        assert results["fig12"].manifest.n_writes == 15_000
        cells = session.ledger.list(kind="sweep-cell", label="fig12")
        assert {c.n_writes for c in cells} == {15_000}
        scaled = session.experiment("table2", n_writes=123)
        assert scaled.manifest.n_writes == 123

    def test_experiments_record_each_exhibit_and_each_cell_once(
        self, tmp_path
    ):
        session = Session(ledger=tmp_path / "runs")
        results = session.experiments(["fig10", "fig18"], n_writes=200)
        assert list(results) == ["fig10", "fig18"]
        for name, result in results.items():
            assert result.manifest.label == name
            assert result.manifest.wall_time_s > 0
        cells = session.ledger.list(kind="sweep-cell")
        # 12 workloads x (5 fig10 + 3 fig18) columns, DEUCE shared.
        assert len(cells) == 12 * 7
        deuce = session.ledger.list(kind="sweep-cell", scheme="deuce")
        assert len(deuce) == 12
        assert {c.label for c in deuce} == {"fig10,fig18"}
        assert {c.label for c in cells} == {"fig10", "fig18", "fig10,fig18"}
        # A shared cell is found under each exhibit it is labelled with.
        assert len(session.ledger.list(kind="sweep-cell", label="fig10")) \
            == 12 * 5
        assert len(session.ledger.list(kind="sweep-cell", label="fig18")) \
            == 12 * 3
        assert len(
            session.ledger.list(kind="sweep-cell", label="fig10,fig18")
        ) == 12


class TestConfigRoundTrip:
    def test_to_dict_hex_key(self):
        d = CFG.to_dict()
        assert d["key"] == CFG.key.hex()
        assert SimConfig.from_dict(d) == CFG

    def test_with_accepts_hex_string_key(self):
        c = CFG.with_(key="00ff" * 8)
        assert c.key == bytes.fromhex("00ff" * 8)

    def test_bad_hex_key(self):
        with pytest.raises(ConfigError, match="hex"):
            SimConfig.from_dict(
                {"workload": "mcf", "scheme": "deuce", "key": "zz"}
            )

    def test_unknown_key_did_you_mean(self):
        with pytest.raises(ConfigError, match="n_writes"):
            SimConfig.from_dict(
                {"workload": "mcf", "scheme": "deuce", "n_write": 10}
            )

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="workload"):
            SimConfig.from_dict({"scheme": "deuce"})

    def test_wrong_type(self):
        with pytest.raises(ConfigError, match="n_writes"):
            SimConfig.from_dict(
                {"workload": "mcf", "scheme": "deuce", "n_writes": "many"}
            )

    def test_bool_rejected_for_int(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict(
                {"workload": "mcf", "scheme": "deuce", "n_writes": True}
            )

    @settings(max_examples=50, deadline=None)
    @given(
        n_writes=st.integers(min_value=1, max_value=10**6),
        seed=st.integers(min_value=0, max_value=2**31),
        epoch_interval=st.integers(min_value=1, max_value=512),
        key=st.binary(min_size=1, max_size=32),
        scheme=st.sampled_from(["deuce", "encr-fnw", "dyndeuce"]),
        wear_leveling=st.sampled_from(["none", "hwl", "sr-hwl"]),
    )
    def test_round_trip_property(
        self, n_writes, seed, epoch_interval, key, scheme, wear_leveling
    ):
        config = SimConfig(
            "mcf",
            scheme,
            n_writes=n_writes,
            seed=seed,
            epoch_interval=epoch_interval,
            key=key,
            wear_leveling=wear_leveling,
        )
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_json_safe(self):
        import json

        assert json.loads(json.dumps(CFG.to_dict())) == CFG.to_dict()
