"""The unified plugin registry (:mod:`repro.registry`).

Schemes, wear levelers, pad sources, and workloads all resolve through
the same :class:`~repro.registry.Registry` machinery, so config decoding
gets uniform unknown-name errors (with did-you-mean suggestions) no
matter which axis is wrong, and ``describe()`` gives tooling one schema
surface for every plugin kind.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.registry import (
    PAD_SOURCES,
    SCHEMES,
    WEAR_LEVELERS,
    WORKLOADS,
    FieldSpec,
    RegistryError,
    validate_config_names,
)
from repro.sim.config import ConfigError, SimConfig


class TestRegistryCore:
    def test_all_axes_are_populated(self):
        assert "deuce" in SCHEMES
        assert "none" in WEAR_LEVELERS and "hwl" in WEAR_LEVELERS
        assert set(PAD_SOURCES.names) == {"aes", "blake2"}
        assert "mcf" in WORKLOADS

    def test_unknown_name_suggests_nearest(self):
        with pytest.raises(RegistryError, match="did you mean 'deuce'"):
            SCHEMES.get("duece")

    def test_registry_error_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            SCHEMES.get("nope")

    def test_describe_lists_schema(self):
        description = SCHEMES.describe()["deuce"]
        assert "epoch_interval" in description["schema"]
        assert description["description"]

    def test_scheme_factories_match_runner(self):
        from repro.sim.runner import build_scheme

        config = SimConfig("mcf", "encr-dcw", n_writes=10)
        built = build_scheme(config)
        assert type(built) is SCHEMES.get("encr-dcw").factory

    def test_wear_leveler_factory_builds(self):
        config = SimConfig("mcf", "deuce", n_writes=10, wear_leveling="hwl")
        leveler = WEAR_LEVELERS.create("hwl", config, 64, 512)
        assert leveler is not None

    def test_pad_source_factory_builds(self):
        pads = PAD_SOURCES.create("blake2", b"k" * 16)
        assert len(pads.line_pad(0, 0, 64)) == 64


class TestConfigDecode:
    def test_validate_config_names_accepts_valid(self):
        validate_config_names(
            scheme="deuce", workload="mcf", pad_kind="aes",
            wear_leveling="none",
        )

    def test_from_dict_unknown_scheme_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'deuce'"):
            SimConfig.from_dict(
                {"workload": "mcf", "scheme": "duece"}
            )

    def test_from_dict_unknown_workload(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            SimConfig.from_dict(
                {"workload": "mcg", "scheme": "deuce"}
            )

    def test_from_dict_unknown_pad_kind(self):
        with pytest.raises(ConfigError, match="unknown pad source"):
            SimConfig.from_dict(
                {"workload": "mcf", "scheme": "deuce",
                 "pad_kind": "blake3"}
            )

    def test_from_dict_unknown_wear_leveling(self):
        with pytest.raises(ConfigError, match="wear_leveling"):
            SimConfig.from_dict(
                {"workload": "mcf", "scheme": "deuce",
                 "wear_leveling": "hlw"}
            )

    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        message = f"config key 'chunk_size' must be >= 1, got {chunk_size}"
        with pytest.raises(ConfigError, match=message):
            SimConfig("mcf", "deuce", chunk_size=chunk_size)
        with pytest.raises(ConfigError, match=message):
            SimConfig.from_dict(
                {"workload": "mcf", "scheme": "deuce",
                 "chunk_size": chunk_size}
            )

    def test_registry_error_surfaces_suggestion_attribute(self):
        try:
            registry.WORKLOADS.get("mfc")
        except RegistryError as exc:
            assert exc.suggestion == "mcf"
        else:  # pragma: no cover
            pytest.fail("expected RegistryError")

class TestFieldSpecValidation:
    def test_type_mismatch_names_the_field_path(self):
        spec = FieldSpec("alpha", "float")
        with pytest.raises(
            RegistryError, match=r"p\.alpha: expected float, got str"
        ):
            spec.check("hi", "p.alpha")

    def test_float_accepts_json_integers(self):
        FieldSpec("alpha", "float").check(2, "p.alpha")

    def test_bool_is_not_an_int(self):
        with pytest.raises(RegistryError, match="expected int, got bool"):
            FieldSpec("n", "int").check(True, "p.n")

    def test_bounds_are_inclusive(self):
        spec = FieldSpec("n", "int", minimum=16, maximum=32)
        spec.check(16, "p.n")
        spec.check(32, "p.n")
        with pytest.raises(RegistryError, match="must be >= 16"):
            spec.check(15, "p.n")
        with pytest.raises(RegistryError, match="must be <= 32"):
            spec.check(33, "p.n")

    def test_choices_enforced(self):
        spec = FieldSpec("mode", "str", choices=("a", "b"))
        spec.check("a", "p.mode")
        with pytest.raises(RegistryError, match="must be one of 'a', 'b'"):
            spec.check("c", "p.mode")

    def test_unknown_type_name_rejected_at_declaration(self):
        with pytest.raises(ValueError, match="FieldSpec type"):
            FieldSpec("x", "complex")


class TestValidateParams:
    def test_valid_params_pass(self):
        assert (
            WORKLOADS.validate(
                "kv-udb", {"zipf_alpha": 1.2}, path="workload_params"
            )
            == "kv-udb"
        )

    def test_unknown_param_gets_did_you_mean(self):
        with pytest.raises(
            RegistryError,
            match=r"workload_params\.zipf_alph.*did you mean 'zipf_alpha'",
        ):
            WORKLOADS.validate(
                "kv-udb", {"zipf_alph": 1.2}, path="workload_params"
            )

    def test_unknown_param_lists_declared_fields(self):
        with pytest.raises(
            RegistryError, match=r"declared: n_keys, value_bytes"
        ):
            WORKLOADS.validate(
                "kv-udb", {"zipf": 1.2}, path="workload_params"
            )

    def test_paramless_plugin_rejects_any_params(self):
        from repro.workloads.profiles import PROFILES

        WORKLOADS.register("paramless-mcf", lambda: PROFILES["mcf"])
        try:
            with pytest.raises(RegistryError, match="accepts no parameters"):
                WORKLOADS.validate(
                    "paramless-mcf", {"zipf_alpha": 1.2},
                    path="workload_params",
                )
        finally:
            WORKLOADS.unregister("paramless-mcf")

    def test_table2_workload_declares_working_set_lines(self):
        assert WORKLOADS.validate(
            "mcf", {"working_set_lines": 128}, path="workload_params"
        ) == "mcf"
        with pytest.raises(
            RegistryError, match=r"workload_params\.working_set_lines: must be >= 1"
        ):
            WORKLOADS.validate(
                "mcf", {"working_set_lines": 0}, path="workload_params"
            )
        with pytest.raises(RegistryError, match="did you mean 'working_set_lines'"):
            WORKLOADS.validate(
                "mcf", {"working_set_line": 128}, path="workload_params"
            )

    def test_error_message_identical_to_config_decode(self):
        # the registry message IS the from_dict message (same funnel)
        try:
            WORKLOADS.validate(
                "kv-udb", {"zipf_alpha": "hi"}, path="workload_params"
            )
        except RegistryError as registry_err:
            with pytest.raises(ConfigError) as config_err:
                SimConfig.from_dict({
                    "workload": "kv-udb", "scheme": "deuce",
                    "workload_params": {"zipf_alpha": "hi"},
                })
            assert str(registry_err) in str(config_err.value)
        else:  # pragma: no cover
            pytest.fail("expected RegistryError")


class _FakeEntryPoint:
    """Duck-typed importlib.metadata.EntryPoint for injection."""

    def __init__(self, name, hook):
        self.name = name
        self._hook = hook

    def load(self):
        return self._hook


class TestEntryPointPlugins:
    def test_dummy_plugin_registers_and_runs(self):
        from dataclasses import replace

        from repro.registry import load_entry_point_plugins
        from repro.sim.runner import run
        from repro.workloads.kv import KV_PARAM_SPECS, KV_PROFILES

        base = replace(
            KV_PROFILES["kv-udb"], name="kv-plugin-test",
            n_keys=256, cache_kb=8,
        )

        def hook(registries):
            registries["workloads"].register(
                "kv-plugin-test",
                lambda **kw: replace(base, **kw),
                schema=("n_writes", "seed", "line_bytes", "workload_params"),
                params=KV_PARAM_SPECS,
                description="test plugin workload",
            )

        loaded = load_entry_point_plugins(
            entry_points=[_FakeEntryPoint("dummy", hook)]
        )
        try:
            assert loaded == ["dummy"]
            assert "kv-plugin-test" in WORKLOADS
            # the registered name is immediately runnable from a config
            # dict, params validated like any built-in
            result = run(SimConfig.from_dict({
                "workload": "kv-plugin-test", "scheme": "noencr-dcw",
                "n_writes": 500, "seed": 1,
                "workload_params": {"zipf_alpha": 1.0},
            }))
            assert result.n_writes == 500
            assert set(result.phase_stats) == {"populate", "steady"}
            with pytest.raises(ConfigError, match="workload_params.bogus"):
                SimConfig.from_dict({
                    "workload": "kv-plugin-test", "scheme": "deuce",
                    "workload_params": {"bogus": 1},
                })
        finally:
            WORKLOADS.unregister("kv-plugin-test")
        assert "kv-plugin-test" not in WORKLOADS

    def test_broken_plugin_is_skipped_not_fatal(self):
        from repro.registry import load_entry_point_plugins

        def bad_hook(registries):
            raise RuntimeError("boom")

        before = set(WORKLOADS.names)
        loaded = load_entry_point_plugins(
            entry_points=[
                _FakeEntryPoint("bad", bad_hook),
                _FakeEntryPoint(
                    "ok", lambda registries: None
                ),
            ]
        )
        assert loaded == ["ok"]
        assert set(WORKLOADS.names) == before


class TestDeferredScan:
    """The entry-point scan runs on the first miss, once per process.

    That importing the registry scans nothing is checked in a fresh
    interpreter by ``tests/integration/test_import_layering.py``.
    """

    def test_first_miss_finds_an_installed_plugin_and_scans_once(
        self, monkeypatch
    ):
        import importlib.metadata

        from repro.workloads.profiles import PROFILES

        scans = []

        def hook(registries):
            registries["workloads"].register(
                "ext-mcf", lambda: PROFILES["mcf"],
                description="entry-point test workload",
            )

        def entry_points(**params):
            scans.append(params)
            if params.get("group") == registry.ENTRY_POINT_GROUP:
                return [_FakeEntryPoint("ext", hook)]
            return []

        monkeypatch.setattr(importlib.metadata, "entry_points", entry_points)
        monkeypatch.setattr(registry, "_plugins_scanned", False)
        try:
            # hits never scan
            assert SCHEMES.get("deuce").name == "deuce"
            assert "mcf" in WORKLOADS
            assert scans == []
            # the first miss does, and finds the plugin
            assert WORKLOADS.get("ext-mcf").description == (
                "entry-point test workload"
            )
            assert scans == [{"group": registry.ENTRY_POINT_GROUP}]
            # later misses, listings and did-you-mean errors reuse it
            assert "nope" not in SCHEMES
            with pytest.raises(RegistryError, match="did you mean 'deuce'"):
                SCHEMES.get("duece")
            assert "ext-mcf" in WORKLOADS.names
            assert len(WEAR_LEVELERS) == len(list(WEAR_LEVELERS))
            assert len(scans) == 1
        finally:
            WORKLOADS.unregister("ext-mcf")

    @pytest.mark.parametrize(
        "first_use",
        [
            lambda: "nope" in PAD_SOURCES,
            lambda: PAD_SOURCES.names,
            lambda: list(PAD_SOURCES),
            lambda: len(PAD_SOURCES),
            lambda: PAD_SOURCES.describe(),
        ],
        ids=["contains-miss", "names", "iter", "len", "describe"],
    )
    def test_each_listing_or_miss_triggers_the_scan(
        self, monkeypatch, first_use
    ):
        scans = []
        monkeypatch.setattr(
            registry, "load_entry_point_plugins", lambda: scans.append(1)
        )
        monkeypatch.setattr(registry, "_plugins_scanned", False)
        first_use()
        first_use()
        assert scans == [1]

    def test_unknown_name_message_is_unchanged(self):
        with pytest.raises(RegistryError) as err:
            SCHEMES.get("duece")
        assert str(err.value) == (
            f"unknown scheme 'duece' (choose from {SCHEMES.names})"
            " — did you mean 'deuce'?"
        )
        assert err.value.suggestion == "deuce"
