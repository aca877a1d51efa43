"""Run ledger: persist every run's evidence as a queryable manifest.

PR 2 gave runs live telemetry; this module makes it *durable*.  Every
``run``/``experiment``/sweep records a :class:`RunManifest` — run id, UTC
timestamp, git revision, interpreter/numpy versions, a hash of the exact
config, per-phase wall times from the run's phase profile, summary
metrics, and paths to any metrics/trace/series artifacts — into an
append-only ledger directory (``.deuce-runs/`` by default):

.. code-block:: text

    .deuce-runs/
        index.jsonl              # one manifest per line, append-only
        <run_id>/
            manifest.json        # the same manifest, pretty-printed
            metrics.jsonl        # whatever artifacts the run attached
            series.csv
            ...

:class:`RunLedger` is the API: :meth:`~RunLedger.record` appends,
:meth:`~RunLedger.list`/:meth:`~RunLedger.get`/:meth:`~RunLedger.latest`
query (with scheme/workload/kind filters), :meth:`~RunLedger.diff` compares
two runs' summaries, and :meth:`~RunLedger.gc` applies retention.  The
regression gate (:mod:`repro.obs.gate`) and the HTML dashboard
(:mod:`repro.analysis.dashboard`) are both built on this API.

The ledger directory defaults to ``.deuce-runs/`` under the current working
directory; the ``DEUCE_RUNS_DIR`` environment variable overrides it (the
test suite points it at a temp dir so runs never dirty the repo).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import shutil
import subprocess
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.journal import append_record, read_records

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids import cycles
    from repro.sim.config import SimConfig
    from repro.sim.results import RunResult

#: Environment variable overriding the default ledger directory.
RUNS_DIR_ENV = "DEUCE_RUNS_DIR"

#: Default ledger directory (relative to the current working directory).
DEFAULT_RUNS_DIR = ".deuce-runs"

#: Manifest schema version (bump on breaking manifest changes).
SCHEMA_VERSION = 1


class LedgerError(Exception):
    """Raised for ledger lookups that cannot be satisfied."""


def default_runs_dir() -> Path:
    """The ledger root: ``$DEUCE_RUNS_DIR`` or ``./.deuce-runs``."""
    return Path(os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_DIR)


def git_revision(cwd: str | Path | None = None) -> str:
    """The current short git revision, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def config_dict(config: "SimConfig") -> dict[str, object]:
    """A JSON-safe dict of a :class:`~repro.sim.config.SimConfig`.

    Thin wrapper over :meth:`SimConfig.to_dict` (kept for callers that
    predate it); the hex-encoded ``key`` round-trips through
    :meth:`SimConfig.from_dict`.
    """
    return config.to_dict()


def config_hash(config: dict[str, object]) -> str:
    """Short stable hash of a config dict (manifest identity/join key)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def new_run_id(clock=time.time) -> str:
    """Sortable unique run id: UTC timestamp plus a random suffix."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(clock()))
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


@dataclass
class RunManifest:
    """Everything needed to identify, compare, and audit one run.

    Attributes
    ----------
    run_id:
        Sortable unique id (also the artifact directory name).
    kind:
        ``"run"`` (one simulation), ``"experiment"`` (a figure/table),
        ``"sweep-cell"`` (one cell of a parallel sweep), or ``"bench"``.
    label:
        Freeform grouping key (experiment id, bench id, CLI ``--label``).
    created_utc:
        ISO-8601 UTC timestamp.
    git_rev / python_version / numpy_version:
        Provenance of the code that produced the run.
    config / config_hash:
        The JSON-safe run configuration and its short hash.
    workload / scheme / n_writes:
        Denormalized query keys (empty/zero for non-run kinds).
    wall_time_s / writes_per_s:
        End-to-end wall time and throughput (the perf-gate inputs).
    phases:
        Per-phase wall seconds, read from the run's phase profile
        (``RunResult.profile``, also stored as ``profile.json``):
        ``{"scheme.write": 0.41, "pcm.apply": 0.08, ...}``.  Empty when
        the run kept no profile (sweep cells, experiments).
    summary:
        Flat summary metrics (:meth:`RunResult.summary_row` for runs,
        suite averages for experiments, bench payloads for benches).
    artifacts:
        Artifact name -> path.  Paths are relative to the run's ledger
        directory unless absolute (externally-written files).
    """

    run_id: str
    kind: str
    label: str = ""
    created_utc: str = ""
    git_rev: str = ""
    python_version: str = ""
    numpy_version: str = ""
    config: dict[str, object] = field(default_factory=dict)
    config_hash: str = ""
    workload: str = ""
    scheme: str = ""
    n_writes: int = 0
    wall_time_s: float = 0.0
    writes_per_s: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)
    summary: dict[str, object] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def build_manifest(
    *,
    kind: str,
    label: str = "",
    config: dict[str, object] | None = None,
    workload: str = "",
    scheme: str = "",
    n_writes: int = 0,
    wall_time_s: float = 0.0,
    phases: dict[str, float] | None = None,
    summary: dict[str, object] | None = None,
    run_id: str = "",
) -> RunManifest:
    """A manifest with identity/provenance fields filled in.

    ``run_id`` pins the id when the caller allocated one up front (e.g. a
    checkpointed run whose artifact dir must exist before the run starts);
    empty draws a fresh :func:`new_run_id`.
    """
    import numpy as np

    cfg = config or {}
    return RunManifest(
        run_id=run_id or new_run_id(),
        kind=kind,
        label=label,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        git_rev=git_revision(),
        python_version=platform.python_version(),
        numpy_version=np.__version__,
        config=cfg,
        config_hash=config_hash(cfg) if cfg else "",
        workload=workload,
        scheme=scheme,
        n_writes=n_writes,
        wall_time_s=round(wall_time_s, 6),
        writes_per_s=(
            round(n_writes / wall_time_s, 3) if wall_time_s > 0 else 0.0
        ),
        phases={k: round(v, 6) for k, v in (phases or {}).items()},
        summary=dict(summary or {}),
    )


def manifest_from_result(
    result: "RunResult",
    config: "SimConfig",
    *,
    kind: str = "run",
    label: str = "",
    run_id: str = "",
) -> RunManifest:
    """Build a run manifest from a finished simulation.

    ``phases`` are the seconds of ``result.profile``, so they equal the
    run's ``profile.json`` exactly.
    """
    return build_manifest(
        kind=kind,
        label=label,
        config=config_dict(config),
        workload=config.workload,
        scheme=config.scheme,
        n_writes=result.n_writes,
        wall_time_s=result.wall_time_s,
        phases={
            name: entry["seconds"]
            for name, entry in (result.profile or {}).items()
        },
        summary=result.summary_row(),
        run_id=run_id,
    )


def _diff_values(manifest: RunManifest) -> dict[str, object]:
    """A manifest's summary, wall time and ``phase.<name>`` seconds."""
    return {
        **manifest.summary,
        "wall_time_s": manifest.wall_time_s,
        **{f"phase.{k}": v for k, v in manifest.phases.items()},
    }


class RunLedger:
    """Append-only ledger of run manifests with per-run artifact dirs.

    Parameters
    ----------
    root:
        Ledger directory; ``None`` uses :func:`default_runs_dir` (the
        ``DEUCE_RUNS_DIR`` env var or ``./.deuce-runs``).  Created lazily on
        first :meth:`record`.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_runs_dir()

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    def run_dir(self, run_id: str) -> Path:
        return self.root / run_id

    # -- write side ---------------------------------------------------------

    def record(
        self,
        manifest: RunManifest,
        artifacts: dict[str, str | Path] | None = None,
        artifact_text: dict[str, str] | None = None,
    ) -> RunManifest:
        """Persist a manifest (and optional artifacts); returns it.

        ``artifacts`` maps artifact names to existing files, copied into the
        run's directory (names keep the source suffix).  ``artifact_text``
        maps file names to content written directly.  Both are registered in
        ``manifest.artifacts`` before it is sealed.
        """
        run_dir = self.run_dir(manifest.run_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        for name, source in (artifacts or {}).items():
            source = Path(source)
            if source.exists():
                dest = run_dir / (name + "".join(source.suffixes))
                if source.resolve() != dest.resolve():
                    shutil.copyfile(source, dest)
                manifest.artifacts[name] = dest.name
        for filename, content in (artifact_text or {}).items():
            (run_dir / filename).write_text(content)
            name = filename.rsplit(".", 1)[0]
            manifest.artifacts[name] = filename
        (run_dir / "manifest.json").write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        append_record(self.index_path, manifest.to_dict())
        return manifest

    def record_result(
        self,
        result: "RunResult",
        config: "SimConfig",
        *,
        kind: str = "run",
        label: str = "",
        artifacts: dict[str, str | Path] | None = None,
        artifact_text: dict[str, str] | None = None,
        run_id: str = "",
    ) -> RunManifest:
        """Build a manifest from a finished run and :meth:`record` it."""
        manifest = manifest_from_result(
            result, config, kind=kind, label=label, run_id=run_id
        )
        return self.record(
            manifest, artifacts=artifacts, artifact_text=artifact_text
        )

    # -- read side ----------------------------------------------------------

    def list(
        self,
        *,
        kind: str | None = None,
        scheme: str | None = None,
        workload: str | None = None,
        label: str | None = None,
        limit: int | None = None,
    ) -> list[RunManifest]:
        """Manifests in recording order, optionally filtered.

        ``label`` matches a manifest whose label equals it or whose
        comma-separated label lists it: a sweep cell that several exhibits
        share is recorded once, labelled ``fig8,fig9,...``, and is found
        under each of those ids.  ``limit`` keeps only the *newest* N after filtering; a negative
        ``limit`` raises :class:`ValueError`.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        manifests = [
            m
            for m in self._read_index()
            if (kind is None or m.kind == kind)
            and (scheme is None or m.scheme == scheme)
            and (workload is None or m.workload == workload)
            and (label is None or m.label == label
                 or label in m.label.split(","))
        ]
        if limit is not None:
            manifests = manifests[len(manifests) - limit:]
        return manifests

    def get(self, run_id: str) -> RunManifest:
        """The manifest for one run id (manifest.json, index fallback)."""
        path = self.run_dir(run_id) / "manifest.json"
        if path.exists():
            return RunManifest.from_dict(json.loads(path.read_text()))
        for manifest in self._read_index():
            if manifest.run_id == run_id:
                return manifest
        raise LedgerError(f"run {run_id!r} not found in ledger {self.root}")

    def latest(self, **filters: str | None) -> RunManifest | None:
        """The newest manifest matching the :meth:`list` filters, if any."""
        manifests = self.list(**filters)  # type: ignore[arg-type]
        return manifests[-1] if manifests else None

    def config_of(self, manifest: RunManifest) -> "SimConfig | None":
        """The manifest's embedded config decoded back to a SimConfig.

        ``None`` when the manifest carries no config (experiments,
        benches).  The decode goes through the strict
        :meth:`~repro.sim.config.SimConfig.from_dict`, so a manifest whose
        config no longer matches the schema raises
        :class:`~repro.sim.config.ConfigError` rather than silently
        misreproducing a run.
        """
        if not manifest.config:
            return None
        from repro.sim.config import SimConfig

        return SimConfig.from_dict(dict(manifest.config))

    def diff(self, run_id_a: str, run_id_b: str) -> dict[str, dict[str, object]]:
        """Numeric summary metrics side by side: ``{metric: {a, b, delta}}``.

        Includes ``wall_time_s`` and one ``phase.<name>`` row per manifest
        phase, so perf drift shows up next to the simulation metrics and
        names the phase it came from; non-numeric summary values (and a
        phase only one run has) are compared for equality and reported
        with ``delta=None`` when they differ.  When
        both runs embed configs, differing config fields are surfaced as
        ``config.<field>`` rows (decoded through the strict
        :meth:`SimConfig.from_dict <repro.sim.config.SimConfig.from_dict>`
        so equivalent representations — e.g. a hex vs bytes key — never
        show as spurious deltas).
        """
        a, b = self.get(run_id_a), self.get(run_id_b)
        rows: dict[str, dict[str, object]] = {}
        flat_a, flat_b = _diff_values(a), _diff_values(b)
        for key in dict.fromkeys([*flat_a, *flat_b]):
            va, vb = flat_a.get(key), flat_b.get(key)
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                rows[key] = {"a": va, "b": vb, "delta": round(vb - va, 6)}
            elif va != vb:
                rows[key] = {"a": va, "b": vb, "delta": None}
        config_a, config_b = self.config_of(a), self.config_of(b)
        if config_a is not None and config_b is not None:
            dict_a, dict_b = config_a.to_dict(), config_b.to_dict()
            for key in dict_a:
                va, vb = dict_a[key], dict_b[key]
                if va == vb:
                    continue
                if isinstance(va, (int, float)) and isinstance(
                    vb, (int, float)
                ) and not isinstance(va, bool) and not isinstance(vb, bool):
                    rows[f"config.{key}"] = {
                        "a": va, "b": vb, "delta": round(vb - va, 6)
                    }
                else:
                    rows[f"config.{key}"] = {"a": va, "b": vb, "delta": None}
        return rows

    def gc(self, keep: int) -> list[str]:
        """Retention: drop all but the newest ``keep`` runs; returns removed ids.

        Deletes the pruned runs' artifact directories *before* rewriting the
        index to the surviving manifests.  The order matters for crash
        safety: a dangling index row (dir gone, row still present) is
        visible and re-prunable on the next gc, whereas an orphaned artifact
        directory (row gone, dir still present) would never be looked at
        again and would leak disk forever.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        manifests = self._read_index()
        cut = max(0, len(manifests) - keep)
        pruned, kept = manifests[:cut], manifests[cut:]
        if not pruned:
            return []
        removed = []
        for manifest in pruned:
            run_dir = self.run_dir(manifest.run_id)
            if run_dir.is_dir():
                shutil.rmtree(run_dir, ignore_errors=True)
            removed.append(manifest.run_id)
        tmp = self.index_path.with_suffix(".jsonl.tmp")
        with open(tmp, "w") as fh:
            for manifest in kept:
                fh.write(json.dumps(manifest.to_dict(), sort_keys=True) + "\n")
        tmp.replace(self.index_path)
        return removed

    def _read_index(self) -> list[RunManifest]:
        return [RunManifest.from_dict(r) for r in read_records(self.index_path)]

    def __len__(self) -> int:
        return len(self._read_index())

    def __iter__(self) -> Iterable[RunManifest]:
        return iter(self._read_index())
