"""Physics oracle: fingerprints of run results and the checks on them.

A fingerprint is the sha256 of a result's ``RunResult.to_dict()`` payload
without the fields that legitimately differ between two runs of the same
config: ``wall_time_s``, ``run_id``, ``profile`` (present when a ledger is
on) and ``config.chunk_size``.  Every other field is an exact integer
aggregate or a value derived from one, so equal fingerprints mean
bit-identical physics.

Within one benchmark invocation every fingerprint seen for a config must
be the same: across the rounds of ``fig10-gems``, between the traced and
the untraced pass, and between a ``/v1`` job and the in-process
``Session.run`` of its config.  Where ``fingerprints.json`` pins a config,
the pin is the reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).with_name("fingerprints.json")


def config_key(config: dict) -> str:
    """A readable key naming everything the benchmark varies in a config."""
    return (
        f"{config['workload']}/{config['scheme']}/{config['n_writes']}"
        f"/s{config['seed']}/{config.get('wear_leveling', 'none')}"
    )


def fingerprint(result: dict) -> str:
    """sha256 of a ``RunResult.to_dict()`` payload minus run-to-run noise."""
    payload = {
        k: v
        for k, v in result.items()
        if k not in ("wall_time_s", "run_id", "profile")
    }
    config = dict(payload.get("config") or {})
    config.pop("chunk_size", None)
    payload["config"] = config
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def invariant_error(result: dict) -> str:
    """The first accounting identity a result breaks, or ``""``.

    These hold for every scheme and config, so they check ops no pin
    covers: every write lands in the slot histogram, flips split exactly
    into data and metadata, and data flips into SETs and RESETs.
    """
    n = result["n_writes"]
    if n != result["config"]["n_writes"]:
        return f"n_writes {n} != configured {result['config']['n_writes']}"
    if sum(result["slot_histogram"].values()) != n:
        return "slot histogram does not sum to n_writes"
    if result["total_flips"] != result["data_flips"] + result["meta_flips"]:
        return "total_flips != data_flips + meta_flips"
    if result["data_flips"] != result["set_flips"] + result["reset_flips"]:
        return "data_flips != set_flips + reset_flips"
    return ""


def observe(result: dict) -> tuple[str, str, str]:
    """``(config key, fingerprint, invariant error)`` for one op result."""
    return (
        config_key(result["config"]),
        fingerprint(result),
        invariant_error(result),
    )


def load_pins(path: Path = PINS_PATH) -> dict[str, str]:
    return json.loads(path.read_text()) if path.exists() else {}


def save_pins(pins: dict[str, str], path: Path = PINS_PATH) -> None:
    path.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n")


def check_ops(ops: list[list[str]], pins: dict[str, str]) -> list[str]:
    """Check every op; returns one failure message per failed op.

    ``ops`` holds ``[key, fingerprint, error]`` per op, in run order; an
    op whose ``error`` is set failed before it produced a result, or broke
    an invariant.  A fingerprint that differs from the pin, or (for an
    unpinned config) from the first one seen, fails its op.
    """
    reference = dict(pins)
    failures = []
    for key, digest, error in ops:
        if error:
            failures.append(f"{key}: {error}")
            continue
        expected = reference.setdefault(key, digest)
        if digest != expected:
            source = "pin" if key in pins else "first result"
            failures.append(
                f"{key}: fingerprint {digest[:12]} != {source} {expected[:12]}"
            )
    return failures
