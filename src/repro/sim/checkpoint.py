"""Durable checkpoint/resume for runs and sweeps.

A *run checkpoint* is an exact snapshot of every piece of mutable
simulation state at a write index: the scheme's line map and per-scheme
extras (counters, modified bits, mode bits), the PCM wear arrays, the
wear-leveling registers, the pad cache (its keys in LRU order and its
hit counters), and the partial :class:`~repro.sim.results.RunResult`
aggregates.  The workload cursor is the write index itself — traces are
fully materialized, deterministic functions of ``(workload, n_writes,
seed, line_bytes)``, so resuming regenerates the identical stream and
continues from the saved index.  A resumed run is bit-identical to an
uninterrupted one; tests pin this per scheme.

On disk a checkpoint is two files in one directory:

* ``state-<index>.npz`` — every array leaf, keys namespaced as
  ``section/key`` (sections: ``scheme``, ``pcm``, ``leveler``, ``pads``).
* ``checkpoint.json`` — schema version, the full config, the write index,
  scalar state leaves, the partial result aggregates, and the name of the
  ``.npz`` it belongs to.

Writes are atomic and ordered so a crash at any instant leaves a loadable
checkpoint: the ``.npz`` lands first under a versioned name, then
``checkpoint.json`` is atomically replaced (the commit point), then stale
``.npz`` files are pruned.  No pickle anywhere — arrays and JSON only.

A *sweep checkpoint* (:class:`SweepCheckpoint`) is an append-only
``cells.jsonl`` of completed sweep cells keyed by config signature; a
resumed sweep re-runs only the missing cells.  It is a
:mod:`repro.obs.journal`, so a torn trailing line (the appending process
was SIGKILLed mid-write) is skipped on load.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs.journal import append_record, read_records
from repro.sim.config import SimConfig
from repro.sim.results import RunResult

#: Bump when the on-disk layout changes incompatibly.
CHECKPOINT_SCHEMA = 1

#: Subdirectory of a run's ledger artifact dir that holds its checkpoint.
RUN_CHECKPOINT_DIRNAME = "checkpoint"

_SECTIONS = ("scheme", "pcm", "leveler", "pads")


class CheckpointError(RuntimeError):
    """A checkpoint that cannot be saved, loaded, or resumed from."""


def config_signature(config: SimConfig) -> str:
    """Stable short hash of a config; keys sweep cells and resume checks."""
    payload = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunCheckpoint:
    """One run's complete mutable state at ``write_index`` applied writes."""

    config: SimConfig
    write_index: int
    result_state: dict[str, object]
    scheme_state: dict[str, object]
    pcm_state: dict[str, object]
    leveler_state: dict[str, object]
    pad_cache_state: dict[str, object] | None = None


def save_run_checkpoint(
    directory: str | Path, checkpoint: RunCheckpoint
) -> Path:
    """Atomically persist a checkpoint; returns the manifest path.

    Crash-safe at every instant: the new ``.npz`` is written under a
    versioned name before ``checkpoint.json`` is replaced, so an
    interrupted save leaves the previous (still consistent) checkpoint
    behind, and the stale-file prune afterwards is pure cleanup.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    scalars: dict[str, object] = {}
    sections = {
        "scheme": checkpoint.scheme_state,
        "pcm": checkpoint.pcm_state,
        "leveler": checkpoint.leveler_state,
        "pads": checkpoint.pad_cache_state,
    }
    for section, state in sections.items():
        if state is None:
            continue
        for key, value in state.items():
            full = f"{section}/{key}"
            if isinstance(value, np.ndarray):
                arrays[full] = value
            elif isinstance(value, (int, float, str, bool)) or value is None:
                scalars[full] = value
            else:
                raise CheckpointError(
                    f"state leaf {full!r} is neither an array nor a "
                    f"JSON-safe scalar: {type(value).__name__}"
                )

    npz_name = f"state-{checkpoint.write_index:012d}.npz"
    npz_tmp = directory / (npz_name + ".tmp")
    with open(npz_tmp, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(npz_tmp, directory / npz_name)

    manifest = {
        "schema": CHECKPOINT_SCHEMA,
        "config": checkpoint.config.to_dict(),
        "config_signature": config_signature(checkpoint.config),
        "write_index": checkpoint.write_index,
        "state_file": npz_name,
        "result": checkpoint.result_state,
        "scalars": scalars,
    }
    manifest_path = directory / "checkpoint.json"
    json_tmp = directory / "checkpoint.json.tmp"
    with open(json_tmp, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(json_tmp, manifest_path)

    for stale in directory.glob("state-*.npz"):
        if stale.name != npz_name:
            stale.unlink(missing_ok=True)
    return manifest_path


def load_run_checkpoint(directory: str | Path) -> RunCheckpoint:
    """Load the checkpoint committed in ``directory``."""
    directory = Path(directory)
    manifest_path = directory / "checkpoint.json"
    if not manifest_path.is_file():
        raise CheckpointError(
            f"no checkpoint at {directory} (missing checkpoint.json)"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint manifest {manifest_path}: {exc}"
        ) from exc
    schema = manifest.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {schema!r} "
            f"(this build reads schema {CHECKPOINT_SCHEMA})"
        )
    npz_path = directory / str(manifest["state_file"])
    if not npz_path.is_file():
        raise CheckpointError(f"checkpoint state file missing: {npz_path}")

    sections: dict[str, dict[str, object]] = {s: {} for s in _SECTIONS}
    with np.load(npz_path) as npz:
        for full in npz.files:
            section, _, key = full.partition("/")
            sections[section][key] = npz[full]
    for full, value in manifest.get("scalars", {}).items():
        section, _, key = str(full).partition("/")
        sections[section][key] = value

    return RunCheckpoint(
        config=SimConfig.from_dict(manifest["config"]),
        write_index=int(manifest["write_index"]),
        result_state=manifest["result"],
        scheme_state=sections["scheme"],
        pcm_state=sections["pcm"],
        leveler_state=sections["leveler"],
        # The pads section is written iff a pad cache existed; an encrypted
        # cache's state always carries hits/misses, so empty means absent.
        pad_cache_state=sections["pads"] or None,
    )


class RunCheckpointer:
    """Periodic snapshots of live simulation objects into a directory.

    Holds references to the scheme, PCM array, leveler, partial result,
    and (optionally) the pad cache; :meth:`maybe` saves whenever the write
    index hits a multiple of ``every``.  Saving only *reads* simulation
    state, so checkpointed and plain runs stay bit-identical.
    """

    def __init__(
        self,
        directory: str | Path,
        every: int,
        *,
        config: SimConfig,
        scheme,
        pcm,
        leveler,
        result: RunResult,
        pad_cache=None,
    ) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1 write")
        self.directory = Path(directory)
        self.every = every
        self.config = config
        self.scheme = scheme
        self.pcm = pcm
        self.leveler = leveler
        self.result = result
        self.pad_cache = pad_cache
        self.saves = 0

    def maybe(self, write_index: int) -> bool:
        """Save iff ``write_index`` completes a checkpoint interval."""
        if write_index % self.every:
            return False
        self.save(write_index)
        return True

    def save(self, write_index: int) -> None:
        checkpoint = RunCheckpoint(
            config=self.config,
            write_index=write_index,
            result_state=self.result.checkpoint_state(),
            scheme_state=self.scheme.state_dict(),
            pcm_state=self.pcm.state_dict(),
            leveler_state=self.leveler.state_dict(),
            pad_cache_state=(
                self.pad_cache.state_dict()
                if self.pad_cache is not None
                else None
            ),
        )
        save_run_checkpoint(self.directory, checkpoint)
        self.saves += 1


class SweepCheckpoint:
    """Append-only completed-cell record for fault-tolerant sweeps.

    Each completed cell appends one JSON line — its position, config
    signature, ledger run id (when recorded), and full
    ``RunResult.to_dict()`` payload — flushed and fsynced so a crash
    immediately after completion cannot lose the cell.  ``--resume``
    restores the finished cells and re-runs only the missing ones.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "cells.jsonl"

    def load(self) -> dict[str, dict]:
        """Completed cells by config signature (raw records)."""
        return {
            str(record["config_signature"]): record
            for record in read_records(self.path)
            if "config_signature" in record
        }

    def restore(self) -> dict[str, RunResult]:
        """Completed cells as :class:`RunResult`s, by config signature."""
        return {
            signature: RunResult.from_dict(record["result"])
            for signature, record in self.load().items()
        }

    def record(
        self,
        index: int,
        config: SimConfig,
        result: RunResult,
        run_id: str = "",
    ) -> None:
        """Durably append one completed cell."""
        append_record(self.path, {
            "index": index,
            "config_signature": config_signature(config),
            "run_id": run_id,
            "result": result.to_dict(),
        })
