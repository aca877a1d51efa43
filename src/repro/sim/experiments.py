"""Per-figure experiments: the code behind every table and figure.

Each paper exhibit (see DESIGN.md's experiment index) is an
:class:`Exhibit` declaration: its id, title, columns and paper values; the
cells (plain :class:`SimConfig`\\ s) it needs for a given ``(n_writes,
seed)``; and a reducer from those cells' results to its rows and suite
averages.  The ``ablation_*`` exhibits quantify the implementation's own
knobs (DESIGN.md section 6).

:func:`run_exhibits` is the one driver.  It runs the union of the cells of
the exhibits asked for, each distinct cell once, and hands every reducer
its results, so exhibits that share a cell share its run (DEUCE at its
defaults on every workload is a cell of eight exhibits).
``tests/integration/test_paper_scorecard.py`` checks every exhibit against
the paper's targets; EXPERIMENTS.md records the outcomes.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.analysis.tables import render_table
from repro.obs.progress import ProgressEvent
from repro.perf.energy import energy_report
from repro.perf.system import CoreConfig, ExecutionResult, simulate_execution
from repro.sim.config import SimConfig
from repro.sim.parallel import run_suite_parallel
from repro.sim.results import RunResult
from repro.sim.runner import build_scheme, run
from repro.workloads.profiles import (
    PAPER_TARGETS,
    PROFILES,
    WORKLOAD_NAMES,
    get_profile,
)

#: Default writebacks per (workload, scheme) cell.  Flip statistics converge
#: to well under 1pp by a few thousand writes; benchmarks may pass more.
DEFAULT_WRITES = 5_000

#: The arguments every exhibit takes.
EXHIBIT_OPTIONS = ("n_writes", "seed")

#: Instructions each Fig 16/17 cell executes in the system model.
INSTRUCTIONS = 1_000_000
#: Fig 12's workloads: the paper's two skew examples.
FIG12_WORKLOADS = ("mcf", "libq")
#: Fig 14's lifetime set-up: a compact working set, a small Start-Gap
#: region and per-write gap movement, so the Start register sweeps the full
#: line width inside the simulated window — the rotation coverage a real
#: device accumulates over its lifetime (Start advances "several hundred
#: thousand" times, section 5.3).
WORKING_SET_LINES = 128
HWL_REGION_LINES = 16
GAP_WRITE_INTERVAL = 1
#: The config fields that shrink a Table 2 workload's working set.
_SHRUNK = {"workload_params": {"working_set_lines": WORKING_SET_LINES}}


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
    #: Wall seconds of the :func:`run_exhibits` call that produced it.
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


#: A reducer's second argument: the system model's execution of a cell's
#: result, made once per distinct input within one driver call.
Execute = Callable[[RunResult], ExecutionResult]
Rows = list[dict[str, object]]


@dataclass(frozen=True)
class Exhibit:
    """One exhibit: what it shows, the cells it needs, how it reduces them.

    ``cells(n_writes, seed)`` lists the cells; ``reduce(runs, execute)``
    turns their results (in the same order) into ``(rows, averages)``.
    ``n_writes`` is the scale used when a caller passes none.
    """

    exp_id: str
    title: str
    columns: tuple[str, ...]
    paper: dict[str, float]
    cells: Callable[[int, int], list[SimConfig]]
    reduce: Callable[[list[RunResult], Execute], tuple[Rows, dict]]
    n_writes: int = DEFAULT_WRITES

    def __call__(
        self, n_writes: int | None = None, seed: int = 0
    ) -> ExperimentResult:
        """This exhibit alone, serially, through :func:`run_exhibits`."""
        return run_exhibits([self.exp_id], n_writes, seed)[self.exp_id]


def _sweep(
    exp_id: str,
    title: str,
    variants: dict[str, tuple[str | dict, str | None]],
    value: Callable[[RunResult], float] = lambda r: r.avg_flips_pct,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> Exhibit:
    """A (workload, variant) grid tabulating one metric per cell.

    ``variants`` maps a column label to its cells' scheme, or to their
    :class:`SimConfig` fields (which win over the exhibit's ``(n_writes,
    seed)``), and to the :data:`PAPER_TARGETS` key of its paper value.
    """
    fields = {
        label: {"scheme": spec} if isinstance(spec, str) else spec
        for label, (spec, _) in variants.items()
    }

    def cells(n_writes: int, seed: int) -> list[SimConfig]:
        return [
            SimConfig(**{
                "workload": workload, "n_writes": n_writes, "seed": seed,
                **variant,
            })
            for workload in workloads
            for variant in fields.values()
        ]

    def reduce(runs: list[RunResult], _execute: Execute):
        sums = dict.fromkeys(variants, 0.0)
        rows: Rows = []
        for workload, chunk in _per_workload(runs, len(variants), workloads):
            row: dict[str, object] = {"workload": workload}
            for label, r in zip(variants, chunk):
                v = value(r)
                row[label] = round(v, 2)
                sums[label] += v
            rows.append(row)
        return rows, _averages(sums, 2, len(workloads))

    paper = {
        label: PAPER_TARGETS[key]
        for label, (_, key) in variants.items() if key is not None
    }
    return Exhibit(
        exp_id, title, ("workload", *variants), paper, cells, reduce
    )


def _grid(*schemes: str) -> Callable[[int, int], list[SimConfig]]:
    """Cells of ``schemes`` on every workload, workload-major."""
    return lambda n_writes, seed: [
        SimConfig(workload, scheme, n_writes, seed)
        for workload in WORKLOAD_NAMES
        for scheme in schemes
    ]


def _per_workload(runs: list, width: int, workloads=WORKLOAD_NAMES):
    """``(workload, its width results)`` pairs of a workload-major list."""
    return zip(workloads, zip(*[iter(runs)] * width))


def _averages(sums: dict[str, float], digits: int, n=len(WORKLOAD_NAMES)):
    return {label: round(total / n, digits) for label, total in sums.items()}


def _no_cells(n_writes: int, seed: int) -> list[SimConfig]:
    return []


# -- Figure 1b / Figure 5, Figures 8-10 --------------------------------------

FIG5 = _sweep(
    "fig5",
    "Fig 5: avg modified bits per write (%) — encryption costs ~4x",
    {
        "NoEncr-DCW": ("noencr-dcw", "avg_dcw_noencr_pct"),
        "NoEncr-FNW": ("noencr-fnw", "avg_fnw_noencr_pct"),
        "Encr-DCW": ("encr-dcw", "avg_dcw_encr_pct"),
        "Encr-FNW": ("encr-fnw", "avg_fnw_encr_pct"),
    },
)
FIG8 = _sweep(
    "fig8",
    "Fig 8: DEUCE modified bits (%) vs tracking granularity (epoch 32)",
    {
        f"{wb}B": ({"scheme": "deuce", "word_bytes": wb},
                   f"deuce_word{wb}_pct")
        for wb in (1, 2, 4, 8)
    },
)
FIG9 = _sweep(
    "fig9",
    "Fig 9: DEUCE modified bits (%) vs epoch interval (2B words)",
    {
        f"epoch{ep}": ({"scheme": "deuce", "epoch_interval": ep},
                       f"deuce_epoch{ep}_pct")
        for ep in (8, 16, 32)
    },
)
FIG10 = _sweep(
    "fig10",
    "Fig 10: bit flips per write (%) by scheme",
    {
        "Encr-FNW": ("encr-fnw", "avg_fnw_encr_pct"),
        "DEUCE": ("deuce", "avg_deuce_pct"),
        "DynDEUCE": ("dyndeuce", "avg_dyndeuce_pct"),
        "DEUCE+FNW": ("deuce+fnw", "avg_deuce_fnw_pct"),
        "NoEncr-FNW": ("noencr-fnw", "avg_fnw_noencr_pct"),
    },
)


# -- Table 2 -------------------------------------------------------------------

TABLE2 = Exhibit(
    "table2",
    "Table 2: benchmark characteristics (8-copy rate mode)",
    ("workload", "read_mpki", "wbpki"),
    {},
    _no_cells,
    lambda _runs, _execute: ([
        {"workload": name, "read_mpki": PROFILES[name].read_mpki,
         "wbpki": PROFILES[name].wbpki}
        for name in WORKLOAD_NAMES
    ], {}),
)


# -- Table 3: storage overhead -----------------------------------------------------------

_TABLE3 = {
    "FNW": ("encr-fnw", "avg_fnw_encr_pct"),
    "DEUCE": ("deuce", "avg_deuce_pct"),
    "DynDEUCE": ("dyndeuce", "avg_dyndeuce_pct"),
    "DEUCE+FNW": ("deuce+fnw", "avg_deuce_fnw_pct"),
}


def _table3(runs: list[RunResult], _execute: Execute):
    """Per-line metadata bits vs average flip reduction."""
    rows: Rows = []
    for i, (label, (scheme, _)) in enumerate(_TABLE3.items()):
        flips = [r.avg_flips_pct for r in runs[i:: len(_TABLE3)]]
        overhead = build_scheme(
            SimConfig(WORKLOAD_NAMES[0], scheme)
        ).metadata_bits_per_line
        rows.append({
            "scheme": label,
            "overhead_bits": overhead,
            "avg_flips_pct": round(sum(flips) / len(flips), 2),
        })
    return rows, {}


TABLE3 = Exhibit(
    "table3",
    "Table 3: storage overhead and effectiveness",
    ("scheme", "overhead_bits", "avg_flips_pct"),
    {label: PAPER_TARGETS[key] for label, (_, key) in _TABLE3.items()},
    _grid(*(scheme for scheme, _ in _TABLE3.values())),
    _table3,
)


# -- Figure 12: per-bit-position write skew ----------------------------------------------


def _fig12(runs: list[RunResult], _execute: Execute):
    """Writes per bit position, normalized to the per-position average."""
    rows: Rows = []
    for workload, r in zip(FIG12_WORKLOADS, runs):
        positions = r.wear.position_writes[: r.line_bits].astype(float)
        mean = positions.mean() or 1.0
        rows.append({
            "workload": workload,
            "max_over_mean": round(float(positions.max()) / mean, 1),
            "p99_over_mean": round(
                float(np.percentile(positions, 99)) / mean, 1
            ),
        })
    return rows, {}


FIG12 = Exhibit(
    "fig12",
    "Fig 12: per-bit-position write skew (max/mean)",
    ("workload", "max_over_mean", "p99_over_mean"),
    {"mcf": PAPER_TARGETS["skew_mcf"], "libq": PAPER_TARGETS["skew_libq"]},
    lambda n_writes, seed: [
        SimConfig(workload, "noencr-dcw", n_writes, seed)
        for workload in FIG12_WORKLOADS
    ],
    _fig12,
    n_writes=3 * DEFAULT_WRITES,
)


def bit_position_profile(
    workload: str, n_writes: int = 3 * DEFAULT_WRITES, seed: int = 0
) -> np.ndarray:
    """The raw normalized per-position profile (for plotting/sparklines)."""
    r = run(SimConfig(workload, "noencr-dcw", n_writes, seed))
    positions = r.wear.position_writes[: r.line_bits].astype(float)
    return positions / (positions.mean() or 1.0)


# -- Figure 14: lifetime ------------------------------------------------------------------

_FIG14 = ("FNW", "DEUCE", "DEUCE-HWL")


def _fig14_cells(n_writes: int, seed: int) -> list[SimConfig]:
    return [
        config
        for workload in WORKLOAD_NAMES
        for config in (
            SimConfig(workload, "encr-dcw", n_writes, seed, **_SHRUNK),
            SimConfig(workload, "encr-fnw", n_writes, seed, **_SHRUNK),
            SimConfig(workload, "deuce", n_writes, seed, **_SHRUNK),
            SimConfig(
                workload, "deuce", n_writes, seed, wear_leveling="hwl",
                gap_write_interval=GAP_WRITE_INTERVAL,
                hwl_region_lines=HWL_REGION_LINES, **_SHRUNK,
            ),
        )
    ]


def _fig14(runs: list[RunResult], _execute: Execute):
    """Lifetime of FNW, DEUCE, and DEUCE+HWL normalized to encrypted memory.

    The HWL bar should track each workload's perfect-leveling bound
    (lifetime proportional to that workload's flip reduction); Gems and
    soplex stay near 1.0 because DEUCE cannot reduce their dense writes.
    """
    sums = dict.fromkeys(_FIG14, 0.0)
    rows: Rows = []
    for workload, (base, *others) in _per_workload(runs, 1 + len(_FIG14)):
        row: dict[str, object] = {"workload": workload}
        for label, r in zip(_FIG14, others):
            norm = (
                base.lifetime.max_position_rate
                / r.lifetime.max_position_rate
            )
            row[label] = round(norm, 2)
            sums[label] += norm
        rows.append(row)
    return rows, _averages(sums, 2)


FIG14 = Exhibit(
    "fig14",
    "Fig 14: lifetime normalized to encrypted memory",
    ("workload", *_FIG14),
    {
        "FNW": PAPER_TARGETS["lifetime_fnw"],
        "DEUCE": PAPER_TARGETS["lifetime_deuce"],
        "DEUCE-HWL": PAPER_TARGETS["lifetime_deuce_hwl"],
    },
    _fig14_cells,
    _fig14,
    n_writes=2 * DEFAULT_WRITES,
)


# -- Figure 15: write slots ------------------------------------------------------------------

FIG15 = _sweep(
    "fig15",
    "Fig 15: avg write slots per write (of 4)",
    {
        "Encr": ("encr-dcw", "slots_encr"),
        "Encr-FNW": ("encr-fnw", None),
        "DEUCE": ("deuce", "slots_deuce"),
        "NoEncr": ("noencr-dcw", "slots_noencr"),
        "NoEncr-FNW": ("noencr-fnw", None),
    },
    value=lambda r: r.avg_slots_per_write,
)


# -- Figures 16 and 17: the system model -------------------------------------------------
#
# Both figures reduce the same cells, the encrypted-memory baseline first,
# and one execution of each cell serves both.

_SYSTEM = {"Encr-FNW": "encr-fnw", "DEUCE": "deuce", "NoEncr-FNW": "noencr-fnw"}
_SYSTEM_CELLS = _grid("encr-dcw", *_SYSTEM.values())


def _fig16(runs: list[RunResult], execute: Execute):
    """System speedup over the encrypted-memory baseline."""
    sums = dict.fromkeys(_SYSTEM, 0.0)
    rows: Rows = []
    for workload, (base, *others) in _per_workload(runs, 1 + len(_SYSTEM)):
        row: dict[str, object] = {"workload": workload}
        for label, r in zip(_SYSTEM, others):
            speedup = execute(r).speedup_over(execute(base))
            row[label] = round(speedup, 3)
            sums[label] += speedup
        rows.append(row)
    return rows, _averages(sums, 3)


FIG16 = Exhibit(
    "fig16",
    "Fig 16: speedup vs encrypted memory",
    ("workload", *_SYSTEM),
    {
        "DEUCE": PAPER_TARGETS["speedup_deuce"],
        "NoEncr-FNW": PAPER_TARGETS["speedup_noencr_fnw"],
    },
    _SYSTEM_CELLS,
    _fig16,
)

_FIG17 = ("speedup", "energy", "power", "edp")


def _fig17(runs: list[RunResult], execute: Execute):
    """Speedup, memory energy, memory power, and EDP vs encrypted memory."""
    sums = {label: dict.fromkeys(_FIG17, 0.0) for label in _SYSTEM}
    for workload, chunk in _per_workload(runs, 1 + len(_SYSTEM)):
        base, *reports = [
            energy_report(
                workload,
                r.config.scheme,
                total_flips=int(r.avg_flips_per_write * ex.writes),
                n_reads=ex.reads,
                exec_time_ns=ex.exec_time_ns,
            )
            for r, ex in ((r, execute(r)) for r in chunk)
        ]
        for label, report in zip(_SYSTEM, reports):
            rel = report.relative_to(base)
            for metric in _FIG17:
                sums[label][metric] += rel[metric]
    return [
        {"scheme": label, **_averages(sums[label], 3)} for label in _SYSTEM
    ], {}


FIG17 = Exhibit(
    "fig17",
    "Fig 17: suite-average speedup/energy/power/EDP vs Encr",
    ("scheme", *_FIG17),
    {
        "DEUCE energy": 0.57,
        "DEUCE power": 0.72,
        "DEUCE edp": 0.57,
        "Encr-FNW energy": 0.89,
    },
    _SYSTEM_CELLS,
    _fig17,
)


# -- Figure 18: BLE --------------------------------------------------------------------------------

FIG18 = _sweep(
    "fig18",
    "Fig 18: bit flips (%) — BLE, DEUCE, BLE+DEUCE",
    {
        "BLE": ("ble", "avg_ble_pct"),
        "DEUCE": ("deuce", "avg_deuce_pct"),
        "BLE+DEUCE": ("ble+deuce", "avg_ble_deuce_pct"),
    },
)


#: The paper's exhibits, in paper order: experiment id -> exhibit.
EXPERIMENTS: dict[str, Exhibit] = {
    exhibit.exp_id: exhibit
    for exhibit in (
        FIG5, TABLE2, FIG8, FIG9, FIG10, TABLE3,
        FIG12, FIG14, FIG15, FIG16, FIG17, FIG18,
    )
}


# -- Ablations (DESIGN.md section 6) -----------------------------------------------------
#
# Not paper exhibits: these quantify the knobs the implementation exposes.
# They stay out of EXPERIMENTS (and so out of ``deuce-sim experiment all``);
# the paper scorecard checks them.  Their sizes and seed are fixed: they
# ignore the ``(n_writes, seed)`` they are given.

_ABLATION_WORKLOADS = ("libq", "mcf", "lbm", "Gems")
_FIXED = {"scheme": "deuce", "n_writes": 2_000, "seed": 0}
_HWL_VARIANTS = (
    ("none", None),
    ("hwl", 16),
    ("hwl-hashed", WORKING_SET_LINES),
    ("sr-hwl", WORKING_SET_LINES),
)


def _hwl_variant_cells(_n_writes: int, _seed: int) -> list[SimConfig]:
    return [SimConfig("mcf", "encr-dcw", 8_000, **_SHRUNK)] + [
        SimConfig("mcf", "deuce", 8_000, wear_leveling=mode,
                  gap_write_interval=1, hwl_region_lines=region, **_SHRUNK)
        for mode, region in _HWL_VARIANTS
    ]


def _hwl_variants(runs: list[RunResult], _execute: Execute):
    """DEUCE lifetime on mcf under no, algebraic, hashed and SR-driven HWL."""
    base, *variants = runs
    rate = base.lifetime.max_position_rate
    return [
        {
            "variant": mode,
            "lifetime_vs_encr": round(rate / r.lifetime.max_position_rate, 2),
            "perfect_bound": round(rate / r.lifetime.mean_position_rate, 2),
        }
        for (mode, _), r in zip(_HWL_VARIANTS, variants)
    ], {}


def _write_pausing(_runs: list[RunResult], _execute: Execute):
    """Write pausing [6] and power tokens [22] behind encrypted writes (mcf)."""
    profile = get_profile("mcf")
    hist = Counter({4: 1})  # every encrypted write takes all four slots
    rows: Rows = []
    for label, core in (
        ("baseline", CoreConfig()),
        ("write-pausing", CoreConfig(write_pausing=True)),
        ("power-tokens-8", CoreConfig(max_concurrent_write_slots=8)),
    ):
        ex = simulate_execution(
            profile, hist, instructions=400_000, seed=0, core=core
        )
        rows.append({
            "controller": label,
            "exec_ms": round(ex.exec_time_ns / 1e6, 3),
            "avg_read_ns": round(ex.avg_read_latency_ns, 1),
        })
    return rows, {}


#: The ablations: id -> exhibit.
ABLATIONS: dict[str, Exhibit] = {
    exhibit.exp_id: exhibit
    for exhibit in (
        _sweep(
            "ablation_pad_source",
            "Ablation: AES vs BLAKE2 pad source (DEUCE, flips %)",
            {
                kind: (dict(_FIXED, n_writes=600, pad_kind=kind), None)
                for kind in ("blake2", "aes")
            },
            workloads=("mcf",),
        ),
        _sweep(
            "ablation_fnw_group",
            "Ablation: FNW group granularity (encrypted, flips %)",
            {
                f"{bits}b": (dict(_FIXED, scheme="encr-fnw",
                                  fnw_group_bits=bits), None)
                for bits in (8, 16, 32, 64)
            },
            workloads=_ABLATION_WORKLOADS,
        ),
        Exhibit(
            "ablation_hwl_variants",
            "Ablation: HWL variants (DEUCE on mcf)",
            ("variant", "lifetime_vs_encr", "perfect_bound"),
            {},
            _hwl_variant_cells,
            _hwl_variants,
        ),
        _sweep(
            "ablation_extreme_epochs",
            "Ablation: extreme epoch intervals (DEUCE, flips %)",
            {
                f"epoch{ep}": (dict(_FIXED, epoch_interval=ep), None)
                for ep in (2, 4, 64, 128)
            },
            workloads=_ABLATION_WORKLOADS,
        ),
        Exhibit(
            "ablation_write_pausing",
            "Ablation: controller policies (mcf, encrypted writes)",
            ("controller", "exec_ms", "avg_read_ns"),
            {},
            _no_cells,
            _write_pausing,
        ),
    )
}
_EXHIBITS = {**EXPERIMENTS, **ABLATIONS}


# -- The driver -------------------------------------------------------------------------


def run_exhibits(
    exhibits: Iterable[str],
    n_writes: int | None = None,
    seed: int = 0,
    *,
    workers: int | None = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    ledger=None,
    should_stop: Callable[[], bool] | None = None,
) -> dict[str, ExperimentResult]:
    """Build the exhibits ``exhibits`` (ids), running each distinct cell once.

    ``n_writes`` is every exhibit's scale; with ``None`` each runs at its
    own default.  The union of the exhibits' cells runs in one
    :func:`~repro.sim.parallel.run_suite_parallel` call (``workers``
    processes, ``progress`` and ``should_stop`` as there; ``ledger``
    records each cell once, labelled with the ids of the exhibits that
    share it).  Returns the results by id, in the order asked for.
    """
    t0 = time.perf_counter()
    ids = list(exhibits)
    unknown = [e for e in ids if e not in _EXHIBITS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}")
    wanted = {
        e: _EXHIBITS[e].cells(n_writes or _EXHIBITS[e].n_writes, seed)
        for e in ids
    }
    sharers: dict[SimConfig, list[str]] = {}
    for e, cells in wanted.items():
        for cell in dict.fromkeys(cells):
            sharers.setdefault(cell, []).append(e)
    results = dict(zip(sharers, run_suite_parallel(
        list(sharers),
        max_workers=workers,
        progress=progress,
        ledger=ledger,
        ledger_label=[",".join(names) for names in sharers.values()],
        should_stop=should_stop,
    )))

    executions: dict[tuple, ExecutionResult] = {}

    def execute(r: RunResult) -> ExecutionResult:
        c = r.config
        key = (c.workload, c.scheme, tuple(sorted(r.slot_histogram.items())),
               c.seed)
        if key not in executions:
            executions[key] = simulate_execution(
                get_profile(c.workload), r.slot_histogram,
                instructions=INSTRUCTIONS, seed=c.seed, scheme=c.scheme,
            )
        return executions[key]

    out = {}
    for e, cells in wanted.items():
        exhibit = _EXHIBITS[e]
        rows, averages = exhibit.reduce([results[c] for c in cells], execute)
        out[e] = ExperimentResult(
            e, exhibit.title, list(exhibit.columns), rows, averages,
            dict(exhibit.paper),
        )
    wall = time.perf_counter() - t0
    for result in out.values():
        result.wall_time_s = wall
    return out

