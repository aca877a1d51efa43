"""The ``/v1`` job envelope: ``{"kind", "config", "options"}``.

``JobSpec.decode`` accepts the envelope strictly and is the only job
grammar: a payload carrying pre-envelope top-level fields (``configs``,
``experiment``, ``workers``, ``timeout_s``, ``retries``, ``label``) is a
400 that names the field.
"""

from __future__ import annotations

import pytest

from repro.service.jobs import JobError, JobSpec
from tests.service.conftest import request

RUN_CONFIG = {"workload": "mcf", "scheme": "deuce", "n_writes": 50, "seed": 0}


class TestDecodeEnvelope:
    def test_run_envelope(self):
        spec = JobSpec.decode(
            {"kind": "run", "config": RUN_CONFIG,
             "options": {"label": "x", "timeout_s": 5}}
        )
        assert spec.kind == "run"
        assert spec.label == "x"
        assert spec.timeout_s == 5
        assert spec.configs[0].workload == "mcf"

    def test_sweep_envelope(self):
        spec = JobSpec.decode(
            {"kind": "sweep",
             "config": [RUN_CONFIG, dict(RUN_CONFIG, seed=1)],
             "options": {"workers": 2, "retries": 1}}
        )
        assert spec.kind == "sweep"
        assert len(spec.configs) == 2
        assert spec.workers == 2
        assert spec.retries == 1

    def test_experiment_envelope_forwards_extra_options(self):
        spec = JobSpec.decode(
            {"kind": "experiment", "config": "fig8",
             "options": {"n_writes": 100}}
        )
        assert spec.experiment == "fig8"
        assert spec.options == {"n_writes": 100}

    def test_experiment_envelope_rejects_unknown_option(self):
        with pytest.raises(JobError) as info:
            JobSpec.decode(
                {"kind": "experiment", "config": "fig10",
                 "options": {"n_writs": 300}}
            )
        message = str(info.value)
        assert "'n_writs'" in message
        assert "did you mean 'n_writes'" in message

    def test_experiment_envelope_checks_option_types(self):
        with pytest.raises(JobError, match="'seed' must be an integer"):
            JobSpec.decode(
                {"kind": "experiment", "config": "fig10",
                 "options": {"seed": "1"}}
            )
        with pytest.raises(JobError, match="'seed' must be an integer"):
            JobSpec.decode(
                {"kind": "experiment", "config": "fig10",
                 "options": {"seed": None}}
            )
        spec = JobSpec.decode(
            {"kind": "experiment", "config": "fig10",
             "options": {"n_writes": None}}
        )
        assert spec.options == {"n_writes": None}

    def test_experiment_envelope_takes_n_writes_and_seed(self):
        spec = JobSpec.decode(
            {"kind": "experiment", "config": "fig10",
             "options": {"n_writes": 300, "seed": 2, "workers": 2}}
        )
        assert spec.options == {"n_writes": 300, "seed": 2}
        assert spec.workers == 2

    def test_minimal_run_payload_is_both_shapes(self):
        # {"kind","config"} is the smallest envelope: options default.
        spec = JobSpec.decode(
            {"kind": "run", "config": RUN_CONFIG}
        )
        assert spec.kind == "run"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(JobError, match="unknown"):
            JobSpec.decode(
                {"kind": "run", "config": RUN_CONFIG, "bogus": 1}
            )

    def test_unknown_option_rejected_for_run(self):
        with pytest.raises(JobError, match="unknown option"):
            JobSpec.decode(
                {"kind": "run", "config": RUN_CONFIG,
                 "options": {"n_writes": 10}}
            )

    def test_unknown_option_for_sweep_carries_hint(self):
        with pytest.raises(JobError, match="did you mean 'workers'"):
            JobSpec.decode(
                {"kind": "sweep", "config": [RUN_CONFIG],
                 "options": {"worker": 2}}
            )

    def test_sweep_config_must_be_list(self):
        with pytest.raises(JobError):
            JobSpec.decode({"kind": "sweep", "config": RUN_CONFIG})

    def test_bad_config_name_carries_suggestion(self):
        with pytest.raises(JobError, match="did you mean 'deuce'"):
            JobSpec.decode(
                {"kind": "run", "config": dict(RUN_CONFIG, scheme="duece")}
            )

    def test_legacy_fields_rejected_naming_the_field(self):
        for legacy, field in (
            ({"kind": "run", "config": {}, "label": "old"}, "label"),
            ({"kind": "sweep", "configs": [{}], "workers": 1}, "configs"),
            ({"kind": "experiment", "experiment": "fig8"}, "experiment"),
            ({"kind": "run", "config": {}, "timeout_s": 5}, "timeout_s"),
            ({"kind": "run", "config": {}, "retries": 1}, "retries"),
        ):
            with pytest.raises(JobError) as info:
                JobSpec.decode(legacy)
            message = str(info.value)
            assert f"unknown job field(s): {field!r}" in message, legacy
            assert "{kind, config, options}" in message


class TestDeprecationHeaders:
    """No payload shape gets a ``Deprecation`` header; a legacy one is a 400."""

    def test_legacy_shape_on_v1_path_is_400_naming_the_field(self, service):
        status, headers, body = request(
            "POST", f"{service.url}/v1/jobs",
            {"kind": "run", "config": RUN_CONFIG, "label": "old-shape"},
        )
        assert status == 400
        assert "'label'" in body["error"]
        assert "{kind, config, options}" in body["error"]
        assert "Deprecation" not in headers
        assert service.manager.jobs() == []

    def test_envelope_shape_on_v1_path_is_clean(self, service):
        status, headers, _ = request(
            "POST", f"{service.url}/v1/jobs",
            {"kind": "run", "config": RUN_CONFIG,
             "options": {"label": "new-shape"}},
        )
        assert status == 201
        assert "Deprecation" not in headers


KV_CONFIG = {
    "workload": "kv-udb", "scheme": "deuce", "n_writes": 600, "seed": 0,
    "workload_params": {"n_keys": 256, "cache_kb": 8},
}


class TestKvThroughTheEnvelope:
    """KV configs ride the registry decode path on /v1 unchanged."""

    def test_invalid_workload_param_rejected_with_field_path(
        self, service
    ):
        bad = dict(KV_CONFIG, workload_params={"zipf_alpha": "hi"})
        status, _, body = request(
            "POST", f"{service.url}/v1/jobs",
            {"kind": "run", "config": bad, "options": {}},
        )
        assert status == 400
        # identical message to SimConfig.from_dict and Session
        assert (
            "workload_params.zipf_alpha: expected float, got str ('hi')"
            in body["error"]
        )

    def test_chunk_size_below_one_rejected_naming_the_field(self, service):
        bad = dict(KV_CONFIG, chunk_size=0)
        status, _, body = request(
            "POST", f"{service.url}/v1/jobs",
            {"kind": "run", "config": bad, "options": {}},
        )
        assert status == 400
        assert "config key 'chunk_size' must be >= 1, got 0" in body["error"]

    def test_decode_matches_from_dict_for_kv(self):
        spec = JobSpec.decode(
            {"kind": "run", "config": KV_CONFIG, "options": {}}
        )
        assert spec.configs[0].workload == "kv-udb"
        assert spec.configs[0].workload_params == KV_CONFIG["workload_params"]


#: One bad value per row: the config override and the message every
#: surface must give for it.
BAD_VALUES = [
    ({"wear_leveling": "hwl-hashd"}, "did you mean 'hwl-hashed'?"),
    ({"chunk_size": 0}, "config key 'chunk_size' must be >= 1, got 0"),
    ({"n_writes": 0}, "config key 'n_writes' must be >= 1, got 0"),
    ({"n_writes": -5}, "config key 'n_writes' must be >= 1, got -5"),
    ({"line_bytes": 0}, "config key 'line_bytes' must be >= 1, got 0"),
    ({"pad_cache_lines": -1},
     "config key 'pad_cache_lines' must be >= 0, got -1"),
]


class TestOneConfigGrammar:
    """The CLI, ``SimConfig.from_dict`` and ``/v1`` reject a bad value at
    decode with the same message naming the field."""

    @pytest.mark.parametrize(("override", "expected"), BAD_VALUES)
    def test_same_message_on_every_surface(
        self, service, capsys, override, expected
    ):
        from repro.cli import main
        from repro.sim.config import ConfigError, SimConfig

        config = dict(RUN_CONFIG, **override)
        with pytest.raises(ConfigError) as info:
            SimConfig.from_dict(config)
        message = str(info.value)
        assert expected in message

        (key, value), = override.items()
        flag = "--writes" if key == "n_writes" else (
            "--" + key.replace("_", "-")
        )
        code = main(["run", "--workload", "mcf", "--scheme", "deuce",
                     flag, str(value), "--no-ledger"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

        status, _, body = request(
            "POST", f"{service.url}/v1/jobs",
            {"kind": "run", "config": config, "options": {}},
        )
        assert status == 400
        assert body["error"] == message
        assert service.manager.jobs() == []
