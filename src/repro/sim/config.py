"""Simulation configuration.

One :class:`SimConfig` pins everything that determines a run's outcome:
the workload, the scheme and its parameters, the trace length and seed, the
pad source, and the wear-leveling mode.  Identical configs produce identical
results.
"""

import dataclasses
import difflib
from dataclasses import MISSING, dataclass, field, replace
from typing import Iterable, Sequence, get_args

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


def _field(help: str, default=MISSING, *, default_factory=MISSING,
           minimum: int | None = None, flag: str = "",
           types: tuple[type, ...] = ()):
    """A :class:`SimConfig` field declared with its grammar.

    ``help`` is the one-line description (the CLI flag's help);
    ``minimum`` an inclusive lower bound, checked on construction;
    ``flag`` the CLI spelling when it is not the name with dashes;
    ``types`` the accepted runtime types when they are wider than the
    annotation.  :meth:`SimConfig.from_dict` and the ``deuce-sim run`` /
    ``sweep`` flags are both built from these declarations.
    """
    return field(default=default, default_factory=default_factory, metadata={
        "help": help, "minimum": minimum, "flag": flag, "types": types,
    })


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one (workload, scheme) run.

    Each field carries its help line, lower bound and CLI spelling (see
    :func:`_field`); the comments below add what one line cannot.
    """

    workload: str = _field(
        "workload registry name: a Table 2 trace or a KV profile "
        "(see 'deuce-sim plugins')"
    )
    scheme: str = _field("scheme registry name (see 'deuce-sim plugins')")
    n_writes: int = _field(
        "writebacks to stream through the scheme", DEFAULT_N_WRITES,
        minimum=1, flag="writes",
    )
    seed: int = _field("trace generator seed", 0)
    pad_kind: str = _field(
        "pad source registry name: blake2 (fast surrogate) or aes "
        "(the real cipher)", "blake2",
    )
    # ``key`` also accepts a hex string, decoded in ``__post_init__``.
    key: bytes = _field(
        "pad-source secret key, as hex", DEFAULT_KEY, types=(bytes, str)
    )
    # Scheme geometry: the defaults are the paper's (64B lines, 2B DEUCE
    # words, epoch 32, 16-bit FNW groups).
    line_bytes: int = _field("bytes per memory line", 64, minimum=1)
    word_bytes: int = _field("DEUCE word size in bytes", 2)
    epoch_interval: int = _field(
        "writes per DEUCE epoch (full re-encryption)", 32
    )
    fnw_group_bits: int = _field("bits per Flip-N-Write group", 16)
    wear_leveling: str = _field(
        "wear leveler registry name: none, hwl (Start-Gap-derived "
        "rotation), hwl-hashed (footnote-2 keyed rotation) or sr-hwl",
        "none",
    )
    gap_write_interval: int = _field(
        "Start-Gap's psi: writes per gap movement", 100
    )
    # Defaults to the trace's working set (rounded down to a power of two
    # for "sr-hwl").  An explicit value must be >= 1, and a power of two
    # >= 2 under "sr-hwl"; repro.sim.runner.run raises ValueError
    # otherwise.  Set it smaller to accelerate Start increments so a short
    # simulated window exhibits the rotation coverage a real device
    # accumulates over its lifetime (the paper's Start advances "several
    # hundred thousand" times, section 5.3).
    hwl_region_lines: int | None = _field(
        "lines per Start-Gap region (default: the trace's working set)",
        None,
    )
    # The per-position aggregate is always kept; the full matrix is needed
    # for exact hottest-cell queries.
    track_per_line_wear: bool = _field(
        "keep the full (line, bit) wear matrix", False
    )
    pad_cache_lines: int = _field(
        "LRU pad-cache capacity in line pads (0 disables caching)", 1024,
        minimum=0,
    )
    # Results are bit-identical at any value: chunks are cut at
    # checkpoint, sampling, heartbeat, abort-poll and phase boundaries;
    # epoch resets are handled inside the batch, and each write gets its
    # own wear-leveler rotation however many gap moves or refreshes the
    # chunk spans.  Larger chunks amortize dispatch overhead.
    chunk_size: int = _field(
        "writes handed to the scheme's batched write path at once "
        "(1 runs the scalar install/write reference)", 512, minimum=1,
    )
    # Validated against the workload plugin's declared FieldSpec schema
    # at decode time (a KV profile's n_keys, zipf_alpha, mix weights, ...;
    # a Table 2 trace's working_set_lines).
    workload_params: dict = _field(
        "workload parameter overrides as a JSON object, validated against "
        "the plugin's declared schema (see 'deuce-sim plugins describe')",
        default_factory=dict,
    )

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
        for f in dataclasses.fields(self):
            check_minimum(f.name, getattr(self, f.name))

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
        required ``workload``/``scheme`` keys must be present, every value
        must have the field's type (``key`` accepts a hex string), and a
        bounded field must lie within its bound.
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
        for f in dataclasses.fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            expected = f.metadata["types"] or get_args(f.type) or (f.type,)
            ok = isinstance(value, expected) and not (
                isinstance(value, bool) and bool not in expected
            )
            if not ok:
                wanted = " or ".join(t.__name__ for t in expected)
                raise ConfigError(
                    f"config key {f.name!r} expects {wanted}, "
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


def check_minimum(name: str, value: int) -> None:
    """Hold ``value`` to the lower bound of :class:`SimConfig`'s field
    ``name``; a :class:`ConfigError` naming the field when it is below.

    Options that set a field, such as an exhibit's ``n_writes``, are
    checked against the same bound as the field itself.
    """
    minimum = _MINIMUMS[name]
    if minimum is not None and value < minimum:
        raise ConfigError(
            f"config key {name!r} must be >= {minimum}, got {value}"
        )


_MINIMUMS = {
    f.name: f.metadata["minimum"] for f in dataclasses.fields(SimConfig)
}
