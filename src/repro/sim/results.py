"""Result containers for simulation runs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.memory.pcm import WearSummary
from repro.obs.sampling import TimeSeries
from repro.sim.config import SimConfig
from repro.wear.lifetime import LifetimeReport

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids import cycles
    from repro.obs.ledger import RunManifest


@dataclass
class RunResult:
    """Aggregated outcome of streaming one trace through one scheme.

    All percentages are relative to the 512 data bits per line, matching
    the paper's normalization (metadata flips are *counted* but the
    denominator stays 512 — section 3.3 reports "modified bits per
    cacheline" including metadata flips).
    """

    workload: str
    scheme: str
    n_writes: int
    line_bits: int
    meta_bits: int
    total_flips: int = 0
    data_flips: int = 0
    meta_flips: int = 0
    set_flips: int = 0
    reset_flips: int = 0
    total_slots: int = 0
    total_words_reencrypted: int = 0
    full_reencryptions: int = 0
    epoch_resets: int = 0
    mode_switches: int = 0
    slot_histogram: Counter = field(default_factory=Counter)
    mode_histogram: Counter = field(default_factory=Counter)
    pad_hits: int = 0
    pad_misses: int = 0
    wear: WearSummary | None = None
    lifetime: LifetimeReport | None = None
    series: TimeSeries | None = None
    #: End-to-end wall time of the producing run() call (trace reuse, scheme
    #: install, and the write loop).  Timing metadata, not simulation state:
    #: bit-identity guarantees cover the aggregates above, never this.
    wall_time_s: float = 0.0
    #: The config that produced this result (set by run(); lets the ledger
    #: and sweep engines manifest results without re-threading configs).
    config: "SimConfig | None" = None
    #: The ledger manifest recorded for this result, when one was (set by
    #: repro.api.Session and the sweep engine's ledger hook).
    manifest: "RunManifest | None" = None
    #: ``summary_row``'s lifetime_norm carried over by :meth:`from_dict`
    #: for results restored from stored payloads (the raw wear/lifetime
    #: detail is not embedded in ``to_dict``, but the headline number is).
    restored_lifetime_norm: float | None = None
    #: Per-phase time attribution from the write-path profiler
    #: (:meth:`repro.obs.profile.PhaseProfile.to_dict`).  Timing metadata
    #: like ``wall_time_s``: deliberately NOT part of :meth:`to_dict`, so
    #: bit-identity oracles comparing payloads stay valid whether or not a
    #: run was profiled.  The ledger records it as a run artifact instead.
    profile: dict | None = None
    #: Per-phase cumulative aggregates, keyed by trace phase name
    #: (``{"start", "end", "total_flips", "data_flips", "meta_flips",
    #: "total_slots", "epoch_resets"}``), snapshotted by the write loops
    #: exactly when the phase's last write lands.  Cumulative (not deltas)
    #: so checkpoint/resume restores them verbatim; :meth:`phase_summary`
    #: derives the per-phase rates.  Empty for phase-less traces.
    phase_stats: dict[str, dict] = field(default_factory=dict)

    @property
    def avg_flips_per_write(self) -> float:
        return self.total_flips / self.n_writes if self.n_writes else 0.0

    @property
    def avg_flips_pct(self) -> float:
        """Modified bits per write as % of the line's data bits."""
        if not self.n_writes:
            return 0.0
        return 100.0 * self.total_flips / (self.n_writes * self.line_bits)

    @property
    def avg_data_flips_pct(self) -> float:
        if not self.n_writes:
            return 0.0
        return 100.0 * self.data_flips / (self.n_writes * self.line_bits)

    @property
    def avg_slots_per_write(self) -> float:
        return self.total_slots / self.n_writes if self.n_writes else 0.0

    @property
    def pad_hit_rate(self) -> float:
        """Fraction of pad lookups served by the pad cache (0 when uncached)."""
        lookups = self.pad_hits + self.pad_misses
        return self.pad_hits / lookups if lookups else 0.0

    @property
    def writes_per_s(self) -> float:
        """Write throughput of the producing run (0 when untimed)."""
        return self.n_writes / self.wall_time_s if self.wall_time_s else 0.0

    @property
    def avg_words_reencrypted(self) -> float:
        return (
            self.total_words_reencrypted / self.n_writes if self.n_writes else 0.0
        )

    def record_phase(self, name: str, start: int, end: int) -> None:
        """Snapshot the cumulative aggregates at a phase's last write.

        Called by the write loops when write ``end`` has just been folded
        in, so the snapshot is exact regardless of chunking (the chunked
        loop cuts chunks at phase boundaries).
        """
        self.phase_stats[name] = {
            "start": start,
            "end": end,
            "total_flips": self.total_flips,
            "data_flips": self.data_flips,
            "meta_flips": self.meta_flips,
            "total_slots": self.total_slots,
            "epoch_resets": self.epoch_resets,
        }

    def phase_summary(self) -> list[dict[str, object]]:
        """Per-phase rates derived from the cumulative snapshots.

        Phases are returned in stream order with delta counts (this
        phase's writes only) and the same normalization as the headline
        numbers (flip %% of the line's data bits).
        """
        phases = sorted(self.phase_stats.items(), key=lambda kv: kv[1]["start"])
        rows: list[dict[str, object]] = []
        prev = {
            "total_flips": 0, "data_flips": 0, "meta_flips": 0,
            "total_slots": 0, "epoch_resets": 0,
        }
        for name, snap in phases:
            writes = int(snap["end"]) - int(snap["start"])
            delta = {k: int(snap[k]) - prev[k] for k in prev}
            bits = max(writes, 1) * self.line_bits
            rows.append({
                "phase": name,
                "start": int(snap["start"]),
                "end": int(snap["end"]),
                "writes": writes,
                "flips_pct": round(100.0 * delta["total_flips"] / bits, 2),
                "data_flips_pct": round(
                    100.0 * delta["data_flips"] / bits, 2
                ),
                "meta_flips": delta["meta_flips"],
                "slots_per_write": round(
                    delta["total_slots"] / max(writes, 1), 3
                ),
                "epoch_resets": delta["epoch_resets"],
            })
            prev = {k: int(snap[k]) for k in prev}
        return rows

    def to_dict(self) -> dict[str, object]:
        """Full JSON-safe aggregates (service results, stored artifacts).

        Every simulation aggregate is integer-exact, so equality of two
        ``to_dict`` payloads (ignoring ``wall_time_s``/``run_id``) means the
        producing runs were bit-identical.  Wear/lifetime/series detail is
        summarized via :meth:`summary_row` rather than embedded raw.
        """
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "n_writes": self.n_writes,
            "line_bits": self.line_bits,
            "meta_bits": self.meta_bits,
            "total_flips": self.total_flips,
            "data_flips": self.data_flips,
            "meta_flips": self.meta_flips,
            "set_flips": self.set_flips,
            "reset_flips": self.reset_flips,
            "total_slots": self.total_slots,
            "total_words_reencrypted": self.total_words_reencrypted,
            "full_reencryptions": self.full_reencryptions,
            "epoch_resets": self.epoch_resets,
            "mode_switches": self.mode_switches,
            "slot_histogram": {
                str(k): v for k, v in sorted(self.slot_histogram.items())
            },
            "mode_histogram": {
                str(k): v for k, v in sorted(self.mode_histogram.items())
            },
            "pad_hits": self.pad_hits,
            "pad_misses": self.pad_misses,
            "phase_stats": {
                name: dict(snap) for name, snap in self.phase_stats.items()
            },
            "wall_time_s": self.wall_time_s,
            "run_id": self.manifest.run_id if self.manifest else "",
            "summary": self.summary_row(),
            "config": self.config.to_dict() if self.config else None,
        }

    def summary_row(self) -> dict[str, object]:
        """Flat dict for tables and JSON dumps."""
        row: dict[str, object] = {
            "workload": self.workload,
            "scheme": self.scheme,
            "n_writes": self.n_writes,
            "flips_pct": round(self.avg_flips_pct, 2),
            "data_flips_pct": round(self.avg_data_flips_pct, 2),
            "slots": round(self.avg_slots_per_write, 3),
            "words_reenc": round(self.avg_words_reencrypted, 2),
            "pad_hits": self.pad_hits,
            "pad_misses": self.pad_misses,
            "pad_hit_rate": round(self.pad_hit_rate, 3),
        }
        if self.lifetime is not None:
            row["lifetime_norm"] = round(self.lifetime.normalized, 3)
        elif self.restored_lifetime_norm is not None:
            row["lifetime_norm"] = self.restored_lifetime_norm
        # Per-phase rates for phased (KV) traces; keys are distinct from
        # RunManifest.phases (the phase profile's wall-seconds).
        for phase in self.phase_summary():
            prefix = f"phase_{phase['phase']}"
            row[f"{prefix}_writes"] = phase["writes"]
            row[f"{prefix}_flips_pct"] = phase["flips_pct"]
        return row

    # -- restore / checkpoint ----------------------------------------------

    #: The mutable aggregates the write loop folds outcomes into; exactly
    #: what a mid-run checkpoint must capture (everything else is either
    #: static geometry or derived after the loop).
    _MUTABLE_FIELDS = (
        "total_flips",
        "data_flips",
        "meta_flips",
        "set_flips",
        "reset_flips",
        "total_slots",
        "total_words_reencrypted",
        "full_reencryptions",
        "epoch_resets",
        "mode_switches",
    )

    def checkpoint_state(self) -> dict[str, object]:
        """JSON-safe snapshot of the in-loop aggregates (histograms too).

        Encodings match :meth:`to_dict`, so :meth:`load_checkpoint_state`
        accepts either a checkpoint snapshot or a full ``to_dict`` payload.
        """
        state: dict[str, object] = {
            name: getattr(self, name) for name in self._MUTABLE_FIELDS
        }
        state["slot_histogram"] = {
            str(k): v for k, v in sorted(self.slot_histogram.items())
        }
        state["mode_histogram"] = {
            str(k): v for k, v in sorted(self.mode_histogram.items())
        }
        state["phase_stats"] = {
            name: dict(snap) for name, snap in self.phase_stats.items()
        }
        return state

    def load_checkpoint_state(self, state: dict[str, object]) -> None:
        """Restore :meth:`checkpoint_state` output bit-identically."""
        for name in self._MUTABLE_FIELDS:
            setattr(self, name, int(state[name]))
        self.slot_histogram = Counter(
            {int(k): int(v) for k, v in state["slot_histogram"].items()}
        )
        self.mode_histogram = Counter(
            {str(k): int(v) for k, v in state["mode_histogram"].items()}
        )
        # .get: payloads written before phases existed restore with none.
        self.phase_stats = {
            str(name): {k: int(v) for k, v in snap.items()}
            for name, snap in (state.get("phase_stats") or {}).items()
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RunResult":
        """Rebuild a result from a :meth:`to_dict` payload.

        The inverse up to what ``to_dict`` drops: raw wear/lifetime/series
        detail is not embedded, so those stay ``None`` (the summary's
        ``lifetime_norm`` is carried over verbatim), and no ledger manifest
        is attached.  Used by sweep-checkpoint resume to treat completed
        cells stored as JSON as first-class results.
        """
        result = cls(
            workload=str(data["workload"]),
            scheme=str(data["scheme"]),
            n_writes=int(data["n_writes"]),
            line_bits=int(data["line_bits"]),
            meta_bits=int(data["meta_bits"]),
            pad_hits=int(data.get("pad_hits", 0)),
            pad_misses=int(data.get("pad_misses", 0)),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
        )
        result.load_checkpoint_state(data)
        config = data.get("config")
        if config is not None:
            result.config = SimConfig.from_dict(dict(config))
        summary = data.get("summary") or {}
        if "lifetime_norm" in summary:
            result.restored_lifetime_norm = float(summary["lifetime_norm"])
        return result
