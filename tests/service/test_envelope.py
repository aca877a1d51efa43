"""The unified ``/v1`` job envelope: ``{"kind", "config", "options"}``.

``JobSpec.decode`` accepts the envelope strictly and routes any payload
carrying legacy top-level fields through the deprecated
``from_payload`` shape; over HTTP, legacy-shaped submissions on ``/v1``
paths get the same ``Deprecation`` + ``Link`` successor headers the
bare-path aliases have carried since the path versioning change.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Session
from repro.service.jobs import JobError, JobManager, JobSpec
from repro.service.server import SimulationServer

RUN_CONFIG = {"workload": "mcf", "scheme": "deuce", "n_writes": 50, "seed": 0}


class TestDecodeEnvelope:
    def test_run_envelope(self):
        spec, deprecated = JobSpec.decode(
            {"kind": "run", "config": RUN_CONFIG,
             "options": {"label": "x", "timeout_s": 5}}
        )
        assert not deprecated
        assert spec.kind == "run"
        assert spec.label == "x"
        assert spec.timeout_s == 5
        assert spec.configs[0].workload == "mcf"

    def test_sweep_envelope(self):
        spec, deprecated = JobSpec.decode(
            {"kind": "sweep",
             "config": [RUN_CONFIG, dict(RUN_CONFIG, seed=1)],
             "options": {"workers": 2, "retries": 1}}
        )
        assert not deprecated
        assert spec.kind == "sweep"
        assert len(spec.configs) == 2
        assert spec.workers == 2
        assert spec.retries == 1

    def test_experiment_envelope_forwards_extra_options(self):
        spec, deprecated = JobSpec.decode(
            {"kind": "experiment", "config": "fig8",
             "options": {"n_writes": 100}}
        )
        assert not deprecated
        assert spec.experiment == "fig8"
        assert spec.options == {"n_writes": 100}

    def test_minimal_run_payload_is_both_shapes(self):
        # {"kind","config"} is valid under either grammar; it decodes via
        # the envelope and is NOT flagged deprecated.
        spec, deprecated = JobSpec.decode(
            {"kind": "run", "config": RUN_CONFIG}
        )
        assert not deprecated
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

    def test_sweep_config_must_be_list(self):
        with pytest.raises(JobError):
            JobSpec.decode({"kind": "sweep", "config": RUN_CONFIG})

    def test_bad_config_name_carries_suggestion(self):
        with pytest.raises(JobError, match="did you mean 'deuce'"):
            JobSpec.decode(
                {"kind": "run", "config": dict(RUN_CONFIG, scheme="duece")}
            )

    def test_legacy_fields_route_to_deprecated_shape(self):
        for legacy in (
            {"kind": "run", "config": RUN_CONFIG, "label": "old"},
            {"kind": "sweep", "configs": [RUN_CONFIG], "workers": 1},
            {"kind": "experiment", "experiment": "fig8"},
        ):
            spec, deprecated = JobSpec.decode(legacy)
            assert deprecated, legacy
            assert spec.kind == legacy["kind"]

    def test_envelope_and_legacy_decode_identically(self):
        old, _ = JobSpec.decode(
            {"kind": "sweep", "configs": [RUN_CONFIG], "workers": 1,
             "retries": 2, "label": "same"}
        )
        new, _ = JobSpec.decode(
            {"kind": "sweep", "config": [RUN_CONFIG],
             "options": {"workers": 1, "retries": 2, "label": "same"}}
        )
        assert old == new


def _post(url: str, payload: dict):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


class TestDeprecationHeaders:
    @pytest.fixture
    def service(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        manager = JobManager(
            session, job_workers=1, queue_size=8, max_sweep_workers=1
        ).start()
        server = SimulationServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.port}"
        finally:
            manager.drain(10, cancel=True)
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_legacy_shape_on_v1_path_gets_deprecation_headers(
        self, service
    ):
        status, headers, _ = _post(
            f"{service}/v1/jobs",
            {"kind": "run", "config": RUN_CONFIG, "label": "old-shape"},
        )
        assert status == 201
        assert headers.get("Deprecation") == "true"
        assert 'rel="successor-version"' in headers.get("Link", "")

    def test_envelope_shape_on_v1_path_is_clean(self, service):
        status, headers, _ = _post(
            f"{service}/v1/jobs",
            {"kind": "run", "config": RUN_CONFIG,
             "options": {"label": "new-shape"}},
        )
        assert status == 201
        assert "Deprecation" not in headers

KV_CONFIG = {
    "workload": "kv-udb", "scheme": "deuce", "n_writes": 600, "seed": 0,
    "workload_params": {"n_keys": 256, "cache_kb": 8},
}


def _post_error(url: str, payload: dict):
    """POST expecting a 4xx; returns (status, body dict)."""
    try:
        _post(url, payload)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError("expected an HTTP error response")


class TestKvThroughTheEnvelope:
    """KV configs ride the registry decode path on /v1 unchanged."""

    @pytest.fixture
    def service(self, tmp_path):
        session = Session(ledger=tmp_path / "runs")
        manager = JobManager(
            session, job_workers=1, queue_size=8, max_sweep_workers=1
        ).start()
        server = SimulationServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.port}"
        finally:
            manager.drain(10, cancel=True)
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_legacy_kv_payload_keeps_deprecation_headers(self, service):
        # pinned: registry-validated workload_params must not break the
        # legacy-shape compatibility path or its migration headers
        status, headers, body = _post(
            f"{service}/v1/jobs",
            {"kind": "run", "config": KV_CONFIG, "label": "kv-legacy"},
        )
        assert status == 201
        assert headers.get("Deprecation") == "true"
        assert 'rel="successor-version"' in headers.get("Link", "")
        assert body["job_id"]

    def test_invalid_workload_param_rejected_with_field_path(
        self, service
    ):
        bad = dict(KV_CONFIG, workload_params={"zipf_alpha": "hi"})
        status, body = _post_error(
            f"{service}/v1/jobs",
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
        status, body = _post_error(
            f"{service}/v1/jobs",
            {"kind": "run", "config": bad, "options": {}},
        )
        assert status == 400
        assert "config key 'chunk_size' must be >= 1, got 0" in body["error"]

    def test_decode_matches_from_dict_for_kv(self):
        spec, deprecated = JobSpec.decode(
            {"kind": "run", "config": KV_CONFIG, "options": {}}
        )
        assert not deprecated
        assert spec.configs[0].workload == "kv-udb"
        assert spec.configs[0].workload_params == KV_CONFIG["workload_params"]
