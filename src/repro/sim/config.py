"""Simulation configuration.

One :class:`SimConfig` pins everything that determines a run's outcome:
the workload, the scheme and its parameters, the trace length and seed, the
pad source, and the wear-leveling mode.  Identical configs produce identical
results.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

#: Default trace length: long enough for flip statistics to converge to
#: well under a percentage point while keeping full-suite sweeps fast.
DEFAULT_N_WRITES = 20_000

#: Default secret key for pad sources (any bytes; simulations only).
DEFAULT_KEY = b"deuce-repro-key!"


class ConfigError(ValueError):
    """A config dict that cannot become a valid :class:`SimConfig`.

    Raised with messages meant for API/service clients: the offending key,
    what was expected, and a close-match suggestion for typos.
    """


def unknown_keys(
    keys: Iterable[str], valid: Sequence[str], what: str = "config key"
) -> str:
    """``""`` when every key is in ``valid``, else the error message.

    The message names each unknown key with a did-you-mean hint, then
    lists the valid ones.
    """
    parts = []
    for key in keys:
        if key not in valid:
            close = difflib.get_close_matches(str(key), valid, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            parts.append(f"{key!r}{hint}")
    if not parts:
        return ""
    return (
        f"unknown {what}(s): " + ", ".join(parts)
        + f"; valid {what.split()[-1]}s: " + ", ".join(valid)
    )


#: Accepted runtime types per field, for :meth:`SimConfig.from_dict`.
#: ``key`` also accepts ``str`` (hex), normalized in ``__post_init__``.
_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "workload": (str,),
    "scheme": (str,),
    "n_writes": (int,),
    "seed": (int,),
    "pad_kind": (str,),
    "key": (bytes, str),
    "line_bytes": (int,),
    "word_bytes": (int,),
    "epoch_interval": (int,),
    "fnw_group_bits": (int,),
    "wear_leveling": (str,),
    "gap_write_interval": (int,),
    "hwl_region_lines": (int, type(None)),
    "track_per_line_wear": (bool,),
    "pad_cache_lines": (int,),
    "chunk_size": (int,),
    "workload_params": (dict,),
}


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one (workload, scheme) run.

    Attributes
    ----------
    workload:
        Table 2 benchmark name.
    scheme:
        Scheme registry name (see :data:`repro.schemes.SCHEME_NAMES`).
    n_writes:
        Writebacks to stream through the scheme.
    seed:
        Trace generator seed.
    pad_kind:
        ``"blake2"`` (fast surrogate, default) or ``"aes"`` (real cipher).
    key:
        Pad-source secret key.
    line_bytes / word_bytes / epoch_interval / fnw_group_bits:
        Scheme geometry; defaults are the paper's (64B lines, 2B DEUCE
        words, epoch 32, 16-bit FNW groups).
    wear_leveling:
        ``"none"``, ``"hwl"`` (Start-Gap-derived rotation), or
        ``"hwl-hashed"`` (footnote-2 keyed rotation).
    gap_write_interval:
        Start-Gap's ψ (writes per gap movement).
    hwl_region_lines:
        Lines per Start-Gap region.  Defaults to the trace's working set
        (rounded down to a power of two for ``"sr-hwl"``).  An explicit
        value must be >= 1, and a power of two >= 2 under ``"sr-hwl"``;
        :func:`~repro.sim.runner.run` raises ``ValueError`` otherwise.  Set
        it smaller to accelerate Start increments so a short simulated
        window exhibits the rotation coverage a real device accumulates
        over its lifetime (the paper's Start advances "several hundred
        thousand" times, section 5.3).
    track_per_line_wear:
        Keep the full (line, bit) wear matrix (needed for exact hottest-
        cell queries; the per-position aggregate is always kept).
    pad_cache_lines:
        Capacity (in cached line pads) of the LRU pad cache wrapped around
        the pad source; ``0`` disables caching.
    chunk_size:
        Writes the runner hands to ``scheme.write_batch`` at once, for
        every scheme; ``1`` runs the scalar install/write reference.  Must
        be at least 1.  Results are bit-identical at any value (chunks are
        cut at checkpoint, sampling, heartbeat, abort-poll and phase
        boundaries; epoch resets are handled inside the batch, and each
        write gets its own wear-leveler rotation however many gap moves
        or refreshes the chunk spans); larger chunks amortize dispatch
        overhead across the whole batch.
    workload_params:
        Per-workload parameter overrides (a KV profile's ``n_keys``,
        ``zipf_alpha``, mix weights, ...), validated against the
        workload plugin's declared :class:`~repro.registry.FieldSpec`
        schema at decode time.  Table 2 workloads declare no parameters,
        so any override there is rejected.
    """

    workload: str
    scheme: str
    n_writes: int = DEFAULT_N_WRITES
    seed: int = 0
    pad_kind: str = "blake2"
    key: bytes = DEFAULT_KEY
    line_bytes: int = 64
    word_bytes: int = 2
    epoch_interval: int = 32
    fnw_group_bits: int = 16
    wear_leveling: str = "none"
    gap_write_interval: int = 100
    hwl_region_lines: int | None = None
    track_per_line_wear: bool = False
    pad_cache_lines: int = 1024
    chunk_size: int = 512
    workload_params: dict = field(default_factory=dict)

    def __hash__(self) -> int:
        # The workload_params dict is the one unhashable field; fold it in
        # as sorted items so equal configs keep equal hashes.
        params = tuple(sorted(self.workload_params.items()))
        rest = tuple(
            getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "workload_params"
        )
        return hash((rest, params))

    def __post_init__(self) -> None:
        # Accept a hex string for ``key`` so configs survive JSON: to_dict
        # hex-encodes, and from_dict / with_(key="...") / direct
        # construction all land here and decode back to bytes.
        if isinstance(self.key, str):
            try:
                decoded = bytes.fromhex(self.key)
            except ValueError:
                raise ConfigError(
                    f"config key 'key' must be bytes or a hex string, "
                    f"got {self.key!r} (not valid hex)"
                ) from None
            object.__setattr__(self, "key", decoded)
        if self.chunk_size < 1:
            raise ConfigError(
                f"config key 'chunk_size' must be >= 1, got {self.chunk_size}"
            )

    def with_(self, **changes: object) -> "SimConfig":
        """A modified copy (dataclasses.replace convenience).

        ``key`` may be given as bytes or a hex string; either round-trips.
        """
        return replace(self, **changes)  # type: ignore[arg-type]

    def to_dict(self) -> dict[str, object]:
        """A JSON-safe dict: every field, with ``key`` hex-encoded.

        The inverse of :meth:`from_dict`:
        ``SimConfig.from_dict(c.to_dict()) == c`` for every config.
        """
        data = dataclasses.asdict(self)
        data["key"] = self.key.hex()
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SimConfig":
        """Build a config from a JSON-decoded dict, strictly validated.

        Unknown keys are rejected (with a did-you-mean suggestion), the
        required ``workload``/``scheme`` keys must be present, and every
        value must have the field's type (``key`` accepts a hex string).
        Raises :class:`ConfigError` with a message fit to echo back to an
        API client.
        """
        if not isinstance(data, dict):
            raise ConfigError(
                f"config must be a JSON object, got {type(data).__name__}"
            )
        message = unknown_keys(data, [f.name for f in dataclasses.fields(cls)])
        if message:
            raise ConfigError(message)
        for required in ("workload", "scheme"):
            if required not in data:
                raise ConfigError(
                    f"missing required config key {required!r} "
                    "(a config needs at least 'workload' and 'scheme')"
                )
        for key, value in data.items():
            expected = _FIELD_TYPES[key]
            ok = isinstance(value, expected) and not (
                isinstance(value, bool) and bool not in expected
            )
            if not ok:
                wanted = " or ".join(t.__name__ for t in expected)
                raise ConfigError(
                    f"config key {key!r} expects {wanted}, "
                    f"got {type(value).__name__} ({value!r})"
                )
        # Backend names resolve through the uniform plugin registries, so
        # a typo'd scheme/workload/pad/leveler fails decode with the same
        # did-you-mean error everywhere a config dict enters the system
        # (CLI, Session, job service, fleet workers validating cell specs).
        from repro import registry

        try:
            registry.validate_config_names(
                scheme=str(data["scheme"]),
                workload=str(data["workload"]),
                pad_kind=(
                    str(data["pad_kind"]) if "pad_kind" in data else None
                ),
                wear_leveling=(
                    str(data["wear_leveling"])
                    if "wear_leveling" in data
                    else None
                ),
                workload_params=data.get("workload_params"),  # type: ignore[arg-type]
            )
        except registry.RegistryError as exc:
            raise ConfigError(str(exc)) from None
        return cls(**data)  # type: ignore[arg-type]
