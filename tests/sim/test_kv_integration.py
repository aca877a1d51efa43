"""KV workloads end to end: config dict -> run -> phases, on every surface.

The acceptance criteria for the KV engine as an API:

* a named profile plus a ``workload_params`` dict is all any surface
  needs (``SimConfig.from_dict``, :class:`repro.api.Session`, ``/v1``
  ``JobSpec.decode``);
* all execution paths (serial, chunked, instrumented, checkpoint/resume,
  shared-memory sweep) produce bit-identical results including the
  per-phase aggregates;
* an invalid ``workload_params`` field is rejected with the *same*
  field-path message on every surface.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.obs.instruments import Instruments
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JobError, JobSpec
from repro.sim.config import ConfigError, SimConfig
from repro.sim.runner import cached_trace, run

# Small keyspace + small cache so traces build in milliseconds while
# still crossing the populate -> steady boundary well before n_writes.
KV_PARAMS = {"n_keys": 256, "cache_kb": 8, "value_bytes": 48}
CONFIG = {
    "workload": "kv-udb",
    "scheme": "deuce",
    "n_writes": 2000,
    "seed": 3,
    "workload_params": KV_PARAMS,
}

BAD_CONFIG = dict(CONFIG, workload_params={"zipf_alpha": "hi"})
FIELD_PATH_MSG = "workload_params.zipf_alpha: expected float, got str ('hi')"


def result_payload(result):
    d = result.to_dict()
    d.pop("wall_time_s")
    d.pop("run_id")
    d.pop("config")  # runs below vary execution knobs, not simulation ones
    return d


class TestEndToEnd:
    def test_config_dict_runs_and_reports_phases(self):
        config = SimConfig.from_dict(dict(CONFIG))
        result = run(config)
        assert set(result.phase_stats) == {"populate", "steady"}
        rows = result.phase_summary()
        assert [r["phase"] for r in rows] == ["populate", "steady"]
        assert sum(r["writes"] for r in rows) == config.n_writes
        assert rows[0]["start"] == 0
        assert rows[1]["start"] == rows[0]["end"]
        row = result.summary_row()
        assert "phase_steady_flips_pct" in row
        assert row["phase_populate_writes"] == rows[0]["writes"]

    def test_phaseless_workloads_stay_phaseless(self):
        config = SimConfig.from_dict(
            {"workload": "mcf", "scheme": "deuce", "n_writes": 300, "seed": 0}
        )
        result = run(config)
        assert result.phase_stats == {}
        assert not any(k.startswith("phase_") for k in result.summary_row())

    def test_chunked_and_instrumented_match_serial(self):
        config = SimConfig.from_dict(dict(CONFIG))
        serial = run(SimConfig.from_dict(dict(CONFIG, chunk_size=1)))
        chunked = run(SimConfig.from_dict(dict(CONFIG, chunk_size=128)))
        instrumented = run(
            config, instruments=Instruments(metrics=MetricsRegistry())
        )
        assert result_payload(serial) == result_payload(chunked)
        assert result_payload(serial) == result_payload(instrumented)

    def test_checkpoint_resume_crosses_phase_boundary(self, tmp_path):
        # checkpoint lands mid-steady; the resumed run must restore the
        # populate snapshot verbatim and re-record only what follows.
        ckpt = tmp_path / "ckpt"
        full = run(SimConfig.from_dict(dict(CONFIG)))
        run(
            SimConfig.from_dict(dict(CONFIG)),
            checkpoint_dir=ckpt, checkpoint_every=700,
        )
        resumed = run(resume_from=str(ckpt))
        assert result_payload(resumed) == result_payload(full)
        assert resumed.phase_stats == full.phase_stats

    def test_shared_memory_sweep_carries_phases(self):
        from repro.sim.shm import TracePublisher, attach_trace

        config = SimConfig.from_dict(dict(CONFIG))
        reference = cached_trace(
            config.workload, config.n_writes, config.seed,
            config.line_bytes, params=config.workload_params,
        )
        with TracePublisher() as publisher:
            spec = publisher.publish(config)
            assert spec is not None
            assert spec.phases == reference.phases
            attached = attach_trace(spec)
            assert attached.phases == reference.phases
            # attached records are an array-backed view; compare contents
            assert [(r.address, r.data) for r in attached.records] == [
                (r.address, r.data) for r in reference.records
            ]


class TestErrorParityAcrossSurfaces:
    """One invalid field, three surfaces, one message."""

    def test_from_dict_surface(self):
        with pytest.raises(ConfigError) as err:
            SimConfig.from_dict(dict(BAD_CONFIG))
        assert FIELD_PATH_MSG in str(err.value)

    def test_session_surface(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        with pytest.raises(ConfigError) as err:
            session.run(dict(BAD_CONFIG))
        assert FIELD_PATH_MSG in str(err.value)

    def test_v1_decode_surface(self):
        with pytest.raises(JobError) as err:
            JobSpec.decode({"kind": "run", "config": dict(BAD_CONFIG)})
        assert FIELD_PATH_MSG in str(err.value)

    def test_unknown_profile_names_the_known_ones(self):
        with pytest.raises(ConfigError) as err:
            SimConfig.from_dict(dict(CONFIG, workload="kv-bogus"))
        assert "kv-udb" in str(err.value)

    def test_out_of_range_param_reports_bounds(self):
        with pytest.raises(ConfigError) as err:
            SimConfig.from_dict(
                dict(CONFIG, workload_params={"n_keys": 4})
            )
        assert "workload_params.n_keys" in str(err.value)

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError) as err:
            SimConfig.from_dict(
                dict(CONFIG, workload_params={"zipf": 1.0})
            )
        assert "workload_params.zipf" in str(err.value)


class TestSessionAndDashboard:
    def test_session_run_manifests_phase_summary(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        result = session.run(dict(CONFIG))
        assert result.manifest is not None
        assert result.manifest.summary.get("phase_steady_writes", 0) > 0

        from repro.analysis.dashboard import render_dashboard

        html = render_dashboard(RunLedger(tmp_path / "runs"))
        assert "KV service phases" in html
        assert "kv-udb" in html
        assert "populate" in html and "steady" in html

    def test_dashboard_empty_state_without_phased_runs(self, tmp_path):
        from repro.analysis.dashboard import render_dashboard

        html = render_dashboard(RunLedger(tmp_path / "runs"))
        assert "KV service phases" in html  # panel renders its empty state
