"""Per-figure experiments: the code behind every table and figure.

Each ``fig*``/``table*`` function reproduces one exhibit from the paper's
evaluation (see DESIGN.md's experiment index) and returns an
:class:`ExperimentResult` holding per-workload rows, suite averages, and the
paper's reported numbers for side-by-side comparison.  The ``ablation_*``
functions quantify the implementation's own knobs (DESIGN.md section 6).
``tests/integration/test_paper_scorecard.py`` checks every one of them
against the paper's targets; EXPERIMENTS.md records the outcomes.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.analysis.tables import render_table
from repro.obs.progress import ProgressEvent
from repro.perf.energy import EnergyConfig, energy_report
from repro.perf.system import CoreConfig, simulate_execution
from repro.sim.config import SimConfig
from repro.sim.parallel import SweepCancelled, run_suite_parallel
from repro.sim.results import RunResult
from repro.sim.runner import run
from repro.workloads.profiles import (
    PAPER_TARGETS,
    PROFILES,
    WORKLOAD_NAMES,
    get_profile,
)
from repro.workloads.trace import generate_trace

#: Default writebacks per (workload, scheme) cell.  Flip statistics converge
#: to well under 1pp by a few thousand writes; benchmarks may pass more.
DEFAULT_WRITES = 5_000


def _timed(fn: Callable[..., "ExperimentResult"]):
    """Stamp ``wall_time_s`` on the returned result (unless already set).

    ``_scheme_sweep``-based exhibits time their sweep themselves; this
    decorator covers the hand-rolled ones (table3, fig12, fig14, ...) so
    every experiment's ledger manifest carries a real wall time.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        if not result.wall_time_s:
            result.wall_time_s = time.perf_counter() - t0
        return result

    return wrapper


@dataclass
class ExperimentResult:
    """Outcome of one figure/table reproduction.

    Attributes
    ----------
    exp_id:
        Paper exhibit id ("fig10", "table3", ...).
    title:
        Human-readable description.
    columns:
        Column order for rendering.
    rows:
        One dict per workload (or per configuration).
    averages:
        Suite averages keyed like row columns.
    paper:
        The paper's reported values for the same quantities (for the
        side-by-side in EXPERIMENTS.md).
    """

    exp_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, object]] = field(default_factory=list)
    averages: dict[str, float] = field(default_factory=dict)
    paper: dict[str, float] = field(default_factory=dict)
    #: End-to-end wall seconds of the producing sweep (ledger manifests).
    wall_time_s: float = 0.0
    #: The experiment-kind ledger manifest recorded for this result, when
    #: one was (set by repro.api.Session).
    manifest: object | None = None

    def render(self) -> str:
        out = [render_table(self.columns, self.rows, title=self.title)]
        if self.averages:
            avg_row = {self.columns[0]: "AVG", **self.averages}
            out.append(
                render_table(self.columns, [avg_row], title="Suite average:")
            )
        if self.paper:
            out.append(
                "Paper reports: "
                + ", ".join(f"{k}={v}" for k, v in self.paper.items())
            )
        return "\n\n".join(out)


def _scheme_sweep(
    exp_id: str,
    title: str,
    schemes: dict[str, Callable[[str], SimConfig]],
    paper: dict[str, float],
    value: Callable[[RunResult], float] = lambda r: r.avg_flips_pct,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """Shared driver: run each scheme over each workload, tabulate a metric.

    The (workload, scheme) grid is materialized up front and dispatched
    through :func:`~repro.sim.parallel.run_suite_parallel`, so
    ``max_workers > 1`` fans cells out over processes; the default of 1 runs
    serially in-process.  Results are identical either way.  ``progress``
    (any :class:`~repro.obs.progress.ProgressEvent` consumer) receives live
    per-cell start/heartbeat/done events in both modes.  ``ledger`` (a
    :class:`~repro.obs.ledger.RunLedger`) records each cell as a sweep-cell
    manifest labelled with the exhibit id.
    """
    t0 = time.perf_counter()
    result = ExperimentResult(
        exp_id=exp_id,
        title=title,
        columns=["workload", *schemes],
        paper=paper,
    )
    cells = [
        (workload, label, make_config(workload))
        for workload in workloads
        for label, make_config in schemes.items()
    ]
    runs = run_suite_parallel(
        [config for _, _, config in cells],
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
        ledger_label=exp_id,
    )
    sums = dict.fromkeys(schemes, 0.0)
    rows: dict[str, dict[str, object]] = {
        workload: {"workload": workload} for workload in workloads
    }
    for (workload, label, _), r in zip(cells, runs):
        v = value(r)
        rows[workload][label] = round(v, 2)
        sums[label] += v
    result.rows = [rows[workload] for workload in workloads]
    result.averages = {
        label: round(total / len(workloads), 2) for label, total in sums.items()
    }
    result.wall_time_s = time.perf_counter() - t0
    return result


# -- Figure 1b / Figure 5 ----------------------------------------------------


@_timed
def fig5_encryption_overhead(
    n_writes: int = DEFAULT_WRITES,
    seed: int = 0,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """Modified bits per write: NoEncr vs Encr under DCW and FNW."""
    mk = lambda scheme: lambda wl: SimConfig(wl, scheme, n_writes, seed)
    return _scheme_sweep(
        "fig5",
        "Fig 5: avg modified bits per write (%) — encryption costs ~4x",
        {
            "NoEncr-DCW": mk("noencr-dcw"),
            "NoEncr-FNW": mk("noencr-fnw"),
            "Encr-DCW": mk("encr-dcw"),
            "Encr-FNW": mk("encr-fnw"),
        },
        paper={
            "NoEncr-DCW": PAPER_TARGETS["avg_dcw_noencr_pct"],
            "NoEncr-FNW": PAPER_TARGETS["avg_fnw_noencr_pct"],
            "Encr-DCW": PAPER_TARGETS["avg_dcw_encr_pct"],
            "Encr-FNW": PAPER_TARGETS["avg_fnw_encr_pct"],
        },
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
    )


# -- Table 2 -------------------------------------------------------------------


@_timed
def table2_workloads() -> ExperimentResult:
    """Benchmark characteristics (model inputs, reported for completeness)."""
    result = ExperimentResult(
        exp_id="table2",
        title="Table 2: benchmark characteristics (8-copy rate mode)",
        columns=["workload", "read_mpki", "wbpki"],
    )
    for name in WORKLOAD_NAMES:
        p = PROFILES[name]
        result.rows.append(
            {"workload": name, "read_mpki": p.read_mpki, "wbpki": p.wbpki}
        )
    return result


# -- Figure 8: word-size sweep ---------------------------------------------------


@_timed
def fig8_word_size(
    n_writes: int = DEFAULT_WRITES,
    seed: int = 0,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """DEUCE modified bits vs tracking granularity (1/2/4/8 bytes)."""
    mk = lambda wb: lambda wl: SimConfig(
        wl, "deuce", n_writes, seed, word_bytes=wb
    )
    return _scheme_sweep(
        "fig8",
        "Fig 8: DEUCE modified bits (%) vs tracking granularity (epoch 32)",
        {"1B": mk(1), "2B": mk(2), "4B": mk(4), "8B": mk(8)},
        paper={
            "1B": PAPER_TARGETS["deuce_word1_pct"],
            "2B": PAPER_TARGETS["deuce_word2_pct"],
            "4B": PAPER_TARGETS["deuce_word4_pct"],
            "8B": PAPER_TARGETS["deuce_word8_pct"],
        },
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
    )


# -- Figure 9: epoch-interval sweep -------------------------------------------------


@_timed
def fig9_epoch_interval(
    n_writes: int = DEFAULT_WRITES,
    seed: int = 0,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """DEUCE modified bits vs epoch interval (8/16/32)."""
    mk = lambda ep: lambda wl: SimConfig(
        wl, "deuce", n_writes, seed, epoch_interval=ep
    )
    return _scheme_sweep(
        "fig9",
        "Fig 9: DEUCE modified bits (%) vs epoch interval (2B words)",
        {"epoch8": mk(8), "epoch16": mk(16), "epoch32": mk(32)},
        paper={
            "epoch8": PAPER_TARGETS["deuce_epoch8_pct"],
            "epoch16": PAPER_TARGETS["deuce_epoch16_pct"],
            "epoch32": PAPER_TARGETS["deuce_epoch32_pct"],
        },
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
    )


# -- Figure 10: scheme comparison ------------------------------------------------------


@_timed
def fig10_scheme_comparison(
    n_writes: int = DEFAULT_WRITES,
    seed: int = 0,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """Bit flips across FNW, DEUCE, DynDEUCE, DEUCE+FNW, and NoEncr-FNW."""
    mk = lambda scheme: lambda wl: SimConfig(wl, scheme, n_writes, seed)
    return _scheme_sweep(
        "fig10",
        "Fig 10: bit flips per write (%) by scheme",
        {
            "Encr-FNW": mk("encr-fnw"),
            "DEUCE": mk("deuce"),
            "DynDEUCE": mk("dyndeuce"),
            "DEUCE+FNW": mk("deuce+fnw"),
            "NoEncr-FNW": mk("noencr-fnw"),
        },
        paper={
            "Encr-FNW": PAPER_TARGETS["avg_fnw_encr_pct"],
            "DEUCE": PAPER_TARGETS["avg_deuce_pct"],
            "DynDEUCE": PAPER_TARGETS["avg_dyndeuce_pct"],
            "DEUCE+FNW": PAPER_TARGETS["avg_deuce_fnw_pct"],
            "NoEncr-FNW": PAPER_TARGETS["avg_fnw_noencr_pct"],
        },
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
    )


# -- Table 3: storage overhead -----------------------------------------------------------


@_timed
def table3_storage_overhead(
    n_writes: int = DEFAULT_WRITES,
    seed: int = 0,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """Per-line metadata bits vs average flip reduction."""
    from repro.sim.runner import build_scheme

    result = ExperimentResult(
        exp_id="table3",
        title="Table 3: storage overhead and effectiveness",
        columns=["scheme", "overhead_bits", "avg_flips_pct"],
        paper={
            "FNW": PAPER_TARGETS["avg_fnw_encr_pct"],
            "DEUCE": PAPER_TARGETS["avg_deuce_pct"],
            "DynDEUCE": PAPER_TARGETS["avg_dyndeuce_pct"],
            "DEUCE+FNW": PAPER_TARGETS["avg_deuce_fnw_pct"],
        },
    )
    entries = (
        ("FNW", "encr-fnw"),
        ("DEUCE", "deuce"),
        ("DynDEUCE", "dyndeuce"),
        ("DEUCE+FNW", "deuce+fnw"),
    )
    runs = run_suite_parallel(
        [
            SimConfig(workload, scheme, n_writes, seed)
            for _, scheme in entries
            for workload in WORKLOAD_NAMES
        ],
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
        ledger_label="table3",
    )
    per_scheme = len(WORKLOAD_NAMES)
    for i, (label, scheme) in enumerate(entries):
        chunk = runs[i * per_scheme: (i + 1) * per_scheme]
        total = sum(r.avg_flips_pct for r in chunk)
        overhead = build_scheme(
            SimConfig(WORKLOAD_NAMES[0], scheme)
        ).metadata_bits_per_line
        result.rows.append(
            {
                "scheme": label,
                "overhead_bits": overhead,
                "avg_flips_pct": round(total / per_scheme, 2),
            }
        )
    return result


# -- Figure 12: per-bit-position write skew ----------------------------------------------


@_timed
def fig12_bit_position_skew(
    n_writes: int = 3 * DEFAULT_WRITES,
    seed: int = 0,
    workloads: tuple[str, ...] = ("mcf", "libq"),
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """Writes per bit position, normalized to the per-position average."""
    result = ExperimentResult(
        exp_id="fig12",
        title="Fig 12: per-bit-position write skew (max/mean)",
        columns=["workload", "max_over_mean", "p99_over_mean"],
        paper={
            "mcf": PAPER_TARGETS["skew_mcf"],
            "libq": PAPER_TARGETS["skew_libq"],
        },
    )
    runs = run_suite_parallel(
        [
            SimConfig(workload, "noencr-dcw", n_writes, seed)
            for workload in workloads
        ],
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
        ledger_label="fig12",
    )
    for workload, r in zip(workloads, runs):
        positions = r.wear.position_writes[: r.line_bits].astype(float)
        mean = positions.mean() or 1.0
        result.rows.append(
            {
                "workload": workload,
                "max_over_mean": round(float(positions.max()) / mean, 1),
                "p99_over_mean": round(
                    float(np.percentile(positions, 99)) / mean, 1
                ),
            }
        )
    return result


def bit_position_profile(
    workload: str, n_writes: int = 3 * DEFAULT_WRITES, seed: int = 0
) -> np.ndarray:
    """The raw normalized per-position profile (for plotting/sparklines)."""
    r = run(SimConfig(workload, "noencr-dcw", n_writes, seed))
    positions = r.wear.position_writes[: r.line_bits].astype(float)
    return positions / (positions.mean() or 1.0)


# -- Figure 14: lifetime ------------------------------------------------------------------


@_timed
def fig14_lifetime(
    n_writes: int = 2 * DEFAULT_WRITES,
    seed: int = 0,
    working_set_lines: int = 128,
    hwl_region_lines: int = 16,
    gap_write_interval: int = 1,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """Lifetime of FNW, DEUCE, and DEUCE+HWL normalized to encrypted memory.

    ``max_workers`` and ``progress`` are accepted for CLI uniformity but
    ignored: this exhibit feeds each run an explicitly generated
    shrunken-working-set trace, so the cells are not expressible as
    standalone configs.

    Uses a compact working set, a small Start-Gap region, and per-write gap
    movement so the Start register sweeps the full line width inside the
    simulated window — emulating the rotation coverage a real device
    accumulates over its lifetime (Start advances "several hundred
    thousand" times, section 5.3).  The HWL bar should track each
    workload's perfect-leveling bound (lifetime proportional to that
    workload's flip reduction); Gems and soplex stay near 1.0 because
    DEUCE cannot reduce their dense writes.
    """
    result = ExperimentResult(
        exp_id="fig14",
        title="Fig 14: lifetime normalized to encrypted memory",
        columns=["workload", "FNW", "DEUCE", "DEUCE-HWL"],
        paper={
            "FNW": PAPER_TARGETS["lifetime_fnw"],
            "DEUCE": PAPER_TARGETS["lifetime_deuce"],
            "DEUCE-HWL": PAPER_TARGETS["lifetime_deuce_hwl"],
        },
    )
    sums = {"FNW": 0.0, "DEUCE": 0.0, "DEUCE-HWL": 0.0}
    for wi, workload in enumerate(WORKLOAD_NAMES):
        if should_stop is not None and should_stop():
            raise SweepCancelled(
                f"fig14 cancelled before workload {wi}/{len(WORKLOAD_NAMES)}"
            )
        profile = replace(
            get_profile(workload), working_set_lines=working_set_lines
        )
        trace = generate_trace(profile, n_writes, seed=seed)
        configs = {
            "baseline": SimConfig(workload, "encr-dcw", n_writes, seed),
            "FNW": SimConfig(workload, "encr-fnw", n_writes, seed),
            "DEUCE": SimConfig(workload, "deuce", n_writes, seed),
            "DEUCE-HWL": SimConfig(
                workload,
                "deuce",
                n_writes,
                seed,
                wear_leveling="hwl",
                gap_write_interval=gap_write_interval,
                hwl_region_lines=hwl_region_lines,
            ),
        }
        rates = {
            label: run(cfg, trace=trace).lifetime.max_position_rate
            for label, cfg in configs.items()
        }
        row: dict[str, object] = {"workload": workload}
        for label in ("FNW", "DEUCE", "DEUCE-HWL"):
            norm = rates["baseline"] / rates[label]
            row[label] = round(norm, 2)
            sums[label] += norm
        result.rows.append(row)
    result.averages = {
        label: round(total / len(WORKLOAD_NAMES), 2)
        for label, total in sums.items()
    }
    return result


# -- Figure 15: write slots ------------------------------------------------------------------


@_timed
def fig15_write_slots(
    n_writes: int = DEFAULT_WRITES,
    seed: int = 0,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """Average write slots consumed per write request."""
    mk = lambda scheme: lambda wl: SimConfig(wl, scheme, n_writes, seed)
    return _scheme_sweep(
        "fig15",
        "Fig 15: avg write slots per write (of 4)",
        {
            "Encr": mk("encr-dcw"),
            "Encr-FNW": mk("encr-fnw"),
            "DEUCE": mk("deuce"),
            "NoEncr": mk("noencr-dcw"),
            "NoEncr-FNW": mk("noencr-fnw"),
        },
        value=lambda r: r.avg_slots_per_write,
        paper={
            "Encr": PAPER_TARGETS["slots_encr"],
            "DEUCE": PAPER_TARGETS["slots_deuce"],
            "NoEncr": PAPER_TARGETS["slots_noencr"],
        },
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
    )


# -- Figure 16: speedup -----------------------------------------------------------------------


@_timed
def fig16_speedup(
    n_writes: int = DEFAULT_WRITES,
    seed: int = 0,
    instructions: int = 1_000_000,
    core: CoreConfig | None = None,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """System speedup over the encrypted-memory baseline."""
    schemes = ("encr-dcw", "encr-fnw", "deuce", "noencr-fnw")
    labels = {"encr-fnw": "Encr-FNW", "deuce": "DEUCE", "noencr-fnw": "NoEncr-FNW"}
    result = ExperimentResult(
        exp_id="fig16",
        title="Fig 16: speedup vs encrypted memory",
        columns=["workload", *labels.values()],
        paper={
            "DEUCE": PAPER_TARGETS["speedup_deuce"],
            "NoEncr-FNW": PAPER_TARGETS["speedup_noencr_fnw"],
        },
    )
    sums = dict.fromkeys(labels.values(), 0.0)
    runs = run_suite_parallel(
        [
            SimConfig(workload, scheme, n_writes, seed)
            for workload in WORKLOAD_NAMES
            for scheme in schemes
        ],
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
        ledger_label="fig16",
    )
    for wi, workload in enumerate(WORKLOAD_NAMES):
        profile = get_profile(workload)
        execs = {}
        for si, scheme in enumerate(schemes):
            r = runs[wi * len(schemes) + si]
            execs[scheme] = simulate_execution(
                profile,
                r.slot_histogram,
                instructions=instructions,
                core=core,
                seed=seed,
                scheme=scheme,
            )
        base = execs["encr-dcw"]
        row: dict[str, object] = {"workload": workload}
        for scheme, label in labels.items():
            speedup = execs[scheme].speedup_over(base)
            row[label] = round(speedup, 3)
            sums[label] += speedup
        result.rows.append(row)
    result.averages = {
        label: round(total / len(WORKLOAD_NAMES), 3)
        for label, total in sums.items()
    }
    return result


# -- Figure 17: energy / power / EDP --------------------------------------------------------------


@_timed
def fig17_energy_power_edp(
    n_writes: int = DEFAULT_WRITES,
    seed: int = 0,
    instructions: int = 1_000_000,
    energy_config: EnergyConfig | None = None,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """Speedup, memory energy, memory power, and EDP vs encrypted memory."""
    schemes = {"Encr-FNW": "encr-fnw", "DEUCE": "deuce", "NoEncr-FNW": "noencr-fnw"}
    result = ExperimentResult(
        exp_id="fig17",
        title="Fig 17: suite-average speedup/energy/power/EDP vs Encr",
        columns=["scheme", "speedup", "energy", "power", "edp"],
        paper={
            "DEUCE energy": 0.57,
            "DEUCE power": 0.72,
            "DEUCE edp": 0.57,
            "Encr-FNW energy": 0.89,
        },
    )
    sums: dict[str, dict[str, float]] = {
        label: {"speedup": 0.0, "energy": 0.0, "power": 0.0, "edp": 0.0}
        for label in schemes
    }
    cells = {"base": "encr-dcw", **schemes}
    runs = run_suite_parallel(
        [
            SimConfig(workload, scheme, n_writes, seed)
            for workload in WORKLOAD_NAMES
            for scheme in cells.values()
        ],
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
        ledger_label="fig17",
    )
    for wi, workload in enumerate(WORKLOAD_NAMES):
        profile = get_profile(workload)
        reports = {}
        for ci, (label, scheme) in enumerate(cells.items()):
            r = runs[wi * len(cells) + ci]
            ex = simulate_execution(
                profile,
                r.slot_histogram,
                instructions=instructions,
                seed=seed,
                scheme=scheme,
            )
            flips = r.avg_flips_per_write * ex.writes
            reports[label] = energy_report(
                workload,
                scheme,
                total_flips=int(flips),
                n_reads=ex.reads,
                exec_time_ns=ex.exec_time_ns,
                config=energy_config,
            )
        for label in schemes:
            rel = reports[label].relative_to(reports["base"])
            for metric in ("speedup", "energy", "power", "edp"):
                sums[label][metric] += rel[metric]
    for label in schemes:
        result.rows.append(
            {
                "scheme": label,
                **{
                    m: round(v / len(WORKLOAD_NAMES), 3)
                    for m, v in sums[label].items()
                },
            }
        )
    return result


# -- Figure 18: BLE --------------------------------------------------------------------------------


@_timed
def fig18_ble(
    n_writes: int = DEFAULT_WRITES,
    seed: int = 0,
    max_workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> ExperimentResult:
    """Block-Level Encryption vs DEUCE vs their combination."""
    mk = lambda scheme: lambda wl: SimConfig(wl, scheme, n_writes, seed)
    return _scheme_sweep(
        "fig18",
        "Fig 18: bit flips (%) — BLE, DEUCE, BLE+DEUCE",
        {"BLE": mk("ble"), "DEUCE": mk("deuce"), "BLE+DEUCE": mk("ble+deuce")},
        paper={
            "BLE": PAPER_TARGETS["avg_ble_pct"],
            "DEUCE": PAPER_TARGETS["avg_deuce_pct"],
            "BLE+DEUCE": PAPER_TARGETS["avg_ble_deuce_pct"],
        },
        max_workers=max_workers,
        progress=progress,
        ledger=ledger,
        should_stop=should_stop,
    )


#: Registry used by the CLI: experiment id -> callable.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig5": fig5_encryption_overhead,
    "table2": table2_workloads,
    "fig8": fig8_word_size,
    "fig9": fig9_epoch_interval,
    "fig10": fig10_scheme_comparison,
    "table3": table3_storage_overhead,
    "fig12": fig12_bit_position_skew,
    "fig14": fig14_lifetime,
    "fig15": fig15_write_slots,
    "fig16": fig16_speedup,
    "fig17": fig17_energy_power_edp,
    "fig18": fig18_ble,
}


# -- Ablations (DESIGN.md section 6) -----------------------------------------------------
#
# Not paper exhibits: these quantify the knobs the implementation exposes.
# They stay out of EXPERIMENTS (and so out of ``deuce-sim experiment all``);
# the paper scorecard checks them.  Their sizes and seed are fixed.

_ABLATION_WORKLOADS = ("libq", "mcf", "lbm", "Gems")


@_timed
def ablation_pad_source() -> ExperimentResult:
    """DEUCE on mcf with real AES pads vs the BLAKE2 surrogate."""
    mk = lambda kind: lambda wl: SimConfig(wl, "deuce", 600, pad_kind=kind)
    return _scheme_sweep(
        "ablation_pad_source",
        "Ablation: AES vs BLAKE2 pad source (DEUCE, flips %)",
        {"blake2": mk("blake2"), "aes": mk("aes")},
        paper={},
        workloads=("mcf",),
    )


@_timed
def ablation_fnw_group() -> ExperimentResult:
    """Encrypted FNW flips vs flip-group width (512/width flip bits)."""
    mk = lambda bits: lambda wl: SimConfig(
        wl, "encr-fnw", 2_000, fnw_group_bits=bits
    )
    return _scheme_sweep(
        "ablation_fnw_group",
        "Ablation: FNW group granularity (encrypted, flips %)",
        {f"{bits}b": mk(bits) for bits in (8, 16, 32, 64)},
        paper={},
        workloads=_ABLATION_WORKLOADS,
    )


@_timed
def ablation_extreme_epochs() -> ExperimentResult:
    """DEUCE flips at epoch intervals beyond the paper's 8-32 sweep."""
    mk = lambda ep: lambda wl: SimConfig(wl, "deuce", 2_000, epoch_interval=ep)
    return _scheme_sweep(
        "ablation_extreme_epochs",
        "Ablation: extreme epoch intervals (DEUCE, flips %)",
        {f"epoch{ep}": mk(ep) for ep in (2, 4, 64, 128)},
        paper={},
        workloads=_ABLATION_WORKLOADS,
    )


@_timed
def ablation_hwl_variants() -> ExperimentResult:
    """DEUCE lifetime on mcf under no, algebraic, hashed and SR-driven HWL."""
    n_writes, working_set_lines = 8_000, 128
    result = ExperimentResult(
        exp_id="ablation_hwl_variants",
        title="Ablation: HWL variants (DEUCE on mcf)",
        columns=["variant", "lifetime_vs_encr", "perfect_bound"],
    )
    profile = replace(get_profile("mcf"), working_set_lines=working_set_lines)
    trace = generate_trace(profile, n_writes, seed=0)
    base = run(
        SimConfig("mcf", "encr-dcw", n_writes), trace=trace
    ).lifetime.max_position_rate
    for mode, region in (
        ("none", None),
        ("hwl", 16),
        ("hwl-hashed", working_set_lines),
        ("sr-hwl", working_set_lines),
    ):
        config = SimConfig(
            "mcf",
            "deuce",
            n_writes,
            wear_leveling=mode,
            gap_write_interval=1,
            hwl_region_lines=region,
        )
        lifetime = run(config, trace=trace).lifetime
        result.rows.append(
            {
                "variant": mode,
                "lifetime_vs_encr": round(base / lifetime.max_position_rate, 2),
                "perfect_bound": round(base / lifetime.mean_position_rate, 2),
            }
        )
    return result


@_timed
def ablation_write_pausing() -> ExperimentResult:
    """Write pausing [6] and power tokens [22] behind encrypted writes (mcf)."""
    result = ExperimentResult(
        exp_id="ablation_write_pausing",
        title="Ablation: controller policies (mcf, encrypted writes)",
        columns=["controller", "exec_ms", "avg_read_ns"],
    )
    profile = get_profile("mcf")
    hist = Counter({4: 1})  # every encrypted write takes all four slots
    for label, core in (
        ("baseline", CoreConfig()),
        ("write-pausing", CoreConfig(write_pausing=True)),
        ("power-tokens-8", CoreConfig(max_concurrent_write_slots=8)),
    ):
        ex = simulate_execution(
            profile, hist, instructions=400_000, seed=0, core=core
        )
        result.rows.append(
            {
                "controller": label,
                "exec_ms": round(ex.exec_time_ns / 1e6, 3),
                "avg_read_ns": round(ex.avg_read_latency_ns, 1),
            }
        )
    return result
