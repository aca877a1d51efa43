"""Uniform named-plugin registries for every configurable backend.

Schemes, wear levelers, pad sources, and workloads are all selected by
name in :class:`~repro.sim.config.SimConfig`.  Before this module each
family had its own bespoke lookup (``SCHEME_REGISTRY.get`` in the runner,
an ``if``/``elif`` chain for wear levelers, :func:`make_pad_source`'s
two-way branch, ``PROFILES[...]`` for workloads) with four different
error-message shapes.  They now share one mechanism:

* :class:`Registry` — an ordered name -> :class:`PluginSpec` table with
  did-you-mean errors (:class:`RegistryError` carries the suggestion).
* :data:`SCHEMES`, :data:`WEAR_LEVELERS`, :data:`PAD_SOURCES`,
  :data:`WORKLOADS` — the four populated registries.

Each :class:`PluginSpec` records the plugin's factory plus a ``schema``
(the tuple of :class:`~repro.sim.config.SimConfig` field names the factory
reads) and ``params`` — a tuple of :class:`FieldSpec` declaring the
plugin's *own* keyword parameters with types, ranges, and enums.
:meth:`Registry.validate` checks a params dict against those declarations
and raises one uniform :class:`RegistryError` whose message names the
offending field path (``workload_params.zipf_alpha: ...``), so
``SimConfig.from_dict``, :class:`~repro.api.Session`, the CLI, and the
``/v1`` service all reject an invalid value with the identical message.

Out-of-tree plugins register through the ``importlib.metadata`` entry
point group :data:`ENTRY_POINT_GROUP` (``deuce_sim.plugins``): each entry
point resolves to a callable invoked with the registry mapping
(:data:`REGISTRIES`), letting external packages add schemes or workloads
without editing this repo.  The installed distributions are scanned once
per process, on the first lookup of a name no registry holds or the first
listing of a registry, so a run that only names built-in plugins never
imports ``importlib.metadata``.

Downstream lookups (``build_scheme``, ``_build_leveler``,
``make_pad_source``, ``get_profile``, ``SimConfig.from_dict`` name
validation) all resolve through these registries, so registering a new
plugin here is the single step needed to make it constructible from a
config dict, a CLI flag, or a service payload.
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.fieldspec import FieldSpec, RegistryError

__all__ = [
    "ENTRY_POINT_GROUP",
    "PAD_SOURCES",
    "REGISTRIES",
    "SCHEMES",
    "WEAR_LEVELERS",
    "WORKLOADS",
    "FieldSpec",
    "PluginSpec",
    "Registry",
    "RegistryError",
    "load_entry_point_plugins",
    "validate_config_names",
]

#: ``importlib.metadata`` entry-point group scanned for external plugins.
ENTRY_POINT_GROUP = "deuce_sim.plugins"


@dataclass(frozen=True)
class PluginSpec:
    """One registered backend.

    Attributes
    ----------
    name:
        Registry key (the value used in configs/CLI flags).
    factory:
        Callable that builds the plugin.  Call signatures are
        family-specific — see each registry's docstring.
    schema:
        ``SimConfig`` field names the factory reads; generic validators
        use this to describe a backend without instantiating it.
    params:
        :class:`FieldSpec` declarations of the plugin's own keyword
        parameters (validated by :meth:`Registry.validate`).  A plugin
        with no declared params rejects any params dict entries.
    description:
        One-line human summary (shown by ``describe()`` and docs).
    """

    name: str
    factory: Callable[..., Any]
    schema: tuple[str, ...] = ()
    params: tuple[FieldSpec, ...] = ()
    description: str = ""

    def param(self, name: str) -> FieldSpec | None:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None


class Registry:
    """Ordered name -> :class:`PluginSpec` table with did-you-mean errors."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._specs: dict[str, PluginSpec] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any],
        *,
        schema: tuple[str, ...] = (),
        params: Sequence[FieldSpec] = (),
        description: str = "",
    ) -> PluginSpec:
        """Register ``factory`` under ``name``; re-registering replaces."""
        spec = PluginSpec(
            name=name,
            factory=factory,
            schema=tuple(schema),
            params=tuple(params),
            description=description,
        )
        self._specs[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove a registration (test plugins, hot plugin reloads)."""
        self._specs.pop(name, None)

    @property
    def names(self) -> tuple[str, ...]:
        _scan_plugins_once()
        return tuple(self._specs)

    def __contains__(self, name: object) -> bool:
        if name in self._specs:
            return True
        _scan_plugins_once()
        return name in self._specs

    def __iter__(self) -> Iterator[PluginSpec]:
        _scan_plugins_once()
        return iter(self._specs.values())

    def __len__(self) -> int:
        _scan_plugins_once()
        return len(self._specs)

    def get(self, name: str) -> PluginSpec:
        """The spec for ``name``; :class:`RegistryError` with a suggestion."""
        spec = self._specs.get(name)
        if spec is None:
            _scan_plugins_once()
            spec = self._specs.get(name)
        if spec is not None:
            return spec
        matches = difflib.get_close_matches(str(name), self._specs, n=1)
        hint = f" — did you mean {matches[0]!r}?" if matches else ""
        raise RegistryError(
            f"unknown {self.kind} {name!r} (choose from {self.names}){hint}",
            suggestion=matches[0] if matches else "",
        )

    def validate(
        self,
        name: str,
        params: Mapping[str, object] | None = None,
        *,
        path: str = "params",
    ) -> str:
        """Validate a name and (optionally) its parameter values.

        With ``params`` given, every key must be declared by the plugin's
        :class:`FieldSpec` list and every value must satisfy its declared
        type/range/enum; violations raise :class:`RegistryError` whose
        message starts with ``<path>.<field>`` so callers on any surface
        (CLI, ``Session``, ``/v1``) report the identical field path.
        Returns ``name`` unchanged.
        """
        spec = self.get(name)
        if not params:
            return name
        declared = {f.name: f for f in spec.params}
        for key, value in params.items():
            field = declared.get(key)
            if field is None:
                if not declared:
                    raise RegistryError(
                        f"{path}.{key}: {self.kind} {name!r} accepts no "
                        "parameters"
                    )
                close = difflib.get_close_matches(str(key), declared, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                raise RegistryError(
                    f"{path}.{key}: unknown parameter for {self.kind} "
                    f"{name!r}{hint}; declared: {', '.join(declared)}",
                    suggestion=close[0] if close else "",
                )
            field.check(value, f"{path}.{key}")
        return name

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Look up ``name`` and call its factory."""
        return self.get(name).factory(*args, **kwargs)

    def describe(self) -> dict[str, dict[str, object]]:
        """JSON-friendly summary: name -> {schema, params, description}."""
        return {
            spec.name: {
                "schema": list(spec.schema),
                "params": [f.to_dict() for f in spec.params],
                "description": spec.description,
            }
            for spec in self
        }


def _first_doc_line(obj: object) -> str:
    doc = getattr(obj, "__doc__", None) or ""
    return doc.strip().splitlines()[0].strip() if doc.strip() else ""


#: Write schemes.  ``factory`` is the scheme class; construct through
#: ``cls.from_config(config, pads=...)`` (or ``build_scheme`` which also
#: wires the pad cache).  ``schema`` lists the config fields
#: ``from_config`` reads (``config_fields``) plus the pad-source fields
#: for encrypted schemes.
SCHEMES = Registry("scheme")

#: Wear levelers.  ``factory(config, n_lines, bits_per_line)`` returns a
#: ready leveler; ``schema`` lists the config fields consumed.
WEAR_LEVELERS = Registry("wear_leveling mode")

#: Pad sources.  ``factory(key: bytes)`` returns a
#: :class:`~repro.crypto.pads.PadSource`.
PAD_SOURCES = Registry("pad source kind")

#: Workloads.  ``factory(**params)`` returns the profile object
#: (:class:`~repro.workloads.profiles.WorkloadProfile` or
#: :class:`~repro.workloads.kv.KvProfile`); ``params`` must satisfy the
#: spec's declared :class:`FieldSpec` list.
WORKLOADS = Registry("workload")

#: The registry mapping handed to entry-point plugins and the CLI.
REGISTRIES: dict[str, Registry] = {
    "schemes": SCHEMES,
    "wear_levelers": WEAR_LEVELERS,
    "pad_sources": PAD_SOURCES,
    "workloads": WORKLOADS,
}


def _populate() -> None:
    from repro.crypto.pads import AesPadSource, Blake2PadSource
    from repro.schemes import SCHEME_REGISTRY
    from repro.wear import (
        HorizontalWearLeveler,
        NoWearLeveler,
        SecurityRefresh,
        SecurityRefreshHWL,
        StartGap,
    )
    from repro.workloads.kv import KV_PROFILES, KV_PARAM_SPECS
    from repro.workloads.profiles import PROFILES

    for name, cls in SCHEME_REGISTRY.items():
        schema = tuple(cls.config_fields)
        if cls.requires_pads:
            schema += ("pad_kind", "key", "pad_cache_lines")
        SCHEMES.register(
            name, cls, schema=schema, description=_first_doc_line(cls)
        )

    WEAR_LEVELERS.register(
        "none",
        lambda config, n_lines, bits_per_line: NoWearLeveler(),
        description="no wear leveling (identity mapping)",
    )

    def _hwl(hashed: bool) -> Callable[..., Any]:
        def build(config: Any, n_lines: int, bits_per_line: int) -> Any:
            startgap = StartGap(n_lines, config.gap_write_interval)
            return HorizontalWearLeveler(
                startgap, bits_per_line, hashed=hashed
            )

        return build

    WEAR_LEVELERS.register(
        "hwl",
        _hwl(False),
        schema=("gap_write_interval",),
        description="Start-Gap horizontal wear leveling",
    )
    WEAR_LEVELERS.register(
        "hwl-hashed",
        _hwl(True),
        schema=("gap_write_interval",),
        description="Start-Gap HWL with hashed line remapping",
    )

    def _sr_hwl(config: Any, n_lines: int, bits_per_line: int) -> Any:
        refresh = SecurityRefresh(n_lines, config.gap_write_interval)
        return SecurityRefreshHWL(refresh, bits_per_line)

    WEAR_LEVELERS.register(
        "sr-hwl",
        _sr_hwl,
        schema=("gap_write_interval",),
        description="Security-Refresh horizontal wear leveling",
    )

    PAD_SOURCES.register(
        "aes",
        AesPadSource,
        schema=("key",),
        description="AES counter-mode pad source (the real cipher)",
    )
    PAD_SOURCES.register(
        "blake2",
        Blake2PadSource,
        schema=("key",),
        description="BLAKE2b keyed-hash pad source (fast surrogate)",
    )

    from dataclasses import replace as _replace

    def overridable(profile: Any) -> Callable[..., Any]:
        """The profile with its declared params applied as field overrides."""
        return lambda **params: _replace(profile, **params)

    for name, profile in PROFILES.items():
        WORKLOADS.register(
            name,
            overridable(profile),
            schema=("n_writes", "seed", "line_bytes", "workload_params"),
            params=(
                FieldSpec(
                    "working_set_lines", "int",
                    default=profile.working_set_lines, minimum=1,
                    doc="distinct lines the write stream cycles over",
                ),
            ),
            description=f"Table 2 workload profile {name!r}",
        )

    for name, kv_profile in KV_PROFILES.items():
        WORKLOADS.register(
            name,
            overridable(kv_profile),
            schema=("n_writes", "seed", "line_bytes", "workload_params"),
            params=KV_PARAM_SPECS,
            description=(
                f"KV-service profile {name!r}: {kv_profile.summary()}"
            ),
        )


def load_entry_point_plugins(entry_points=None) -> list[str]:
    """Load out-of-tree plugins from the ``deuce_sim.plugins`` group.

    Each entry point must resolve to a callable accepting the registry
    mapping (:data:`REGISTRIES`); the callable registers whatever plugins
    its package provides.  ``entry_points`` may be injected for tests (any
    iterable of objects with ``.name`` and ``.load()``); by default the
    installed-distribution metadata is scanned.  A plugin that fails to
    import or register is skipped — an external package must not be able
    to break a lookup.  Returns the entry-point names loaded.
    """
    if entry_points is None:
        import importlib.metadata as metadata

        try:
            entry_points = metadata.entry_points(group=ENTRY_POINT_GROUP)
        except TypeError:  # Python 3.9 dict-shaped API
            entry_points = metadata.entry_points().get(ENTRY_POINT_GROUP, ())
        except Exception:
            return []
    loaded: list[str] = []
    for entry in entry_points:
        try:
            hook = entry.load()
            hook(REGISTRIES)
            loaded.append(entry.name)
        except Exception:
            continue
    return loaded


_SCAN_LOCK = threading.RLock()
_plugins_scanned = False


def _scan_plugins_once() -> None:
    """Load the installed entry-point plugins, once per process.

    Other threads wait for a scan in progress; a plugin hook that looks a
    name up re-enters here and returns at once.
    """
    global _plugins_scanned
    with _SCAN_LOCK:
        if _plugins_scanned:
            return
        _plugins_scanned = True
        load_entry_point_plugins()


_populate()


def validate_config_names(
    *,
    scheme: str | None = None,
    workload: str | None = None,
    pad_kind: str | None = None,
    wear_leveling: str | None = None,
    workload_params: Mapping[str, object] | None = None,
) -> None:
    """Validate backend names (and workload params) in one call.

    ``None`` skips a family.  The shared decode path for configs:
    ``SimConfig.from_dict`` (and through it the CLI, ``Session``, the job
    service, and fleet workers checking a dispatched cell spec) funnels
    here, so an unknown name — or an out-of-range workload parameter —
    fails with the same field-path error everywhere.
    """
    if scheme is not None:
        SCHEMES.validate(scheme)
    if workload is not None:
        WORKLOADS.validate(
            workload, workload_params, path="workload_params"
        )
    if pad_kind is not None:
        PAD_SOURCES.validate(pad_kind)
    if wear_leveling is not None:
        WEAR_LEVELERS.validate(wear_leveling)
