"""The paper scorecard: every evaluation target in one table, one check.

Each :data:`SCORECARD` row names an exhibit (a
:data:`repro.sim.experiments.EXPERIMENTS` id, or one of the
:data:`~repro.sim.experiments.ABLATIONS` of DESIGN.md section 6), the
quantity it measures, a bound on that quantity, and the paper's value.  Where the exhibit's
``ExperimentResult.paper`` already holds the paper's value, the row names
its key instead of typing the number again.  Shape relations (orderings,
ratios) have no single paper value.

Every exhibit runs once per session, through one
:func:`~repro.sim.experiments.run_exhibits` call per scale (so a cell
several exhibits share runs once), at a fixed scale: 3,000 writes per (workload,
scheme) cell, 12,000 for Fig 12, 10,000 for Fig 14, and the ablations at
their own fixed sizes.  Renders of the same exhibits come from
``deuce-sim experiment <id>`` and ``deuce-sim report``.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Any, Callable, NamedTuple

import pytest

from repro.sim.experiments import (
    ABLATIONS,
    EXPERIMENTS,
    ExperimentResult,
    run_exhibits,
)
from repro.workloads.profiles import PAPER_TARGETS

#: Writebacks per (workload, scheme) cell.
WRITES = 3_000
#: Exhibits that run at another scale.
EXHIBIT_WRITES = {"fig12": 4 * WRITES, "fig14": 10_000}


@functools.cache
def results() -> dict[str, ExperimentResult]:
    """Every exhibit and ablation at its scorecard scale.

    The exhibits at another scale share no cell with the rest (and the
    ablations fix their own sizes), so one driver call per scale still
    runs each distinct cell once.
    """
    rest = [e for e in EXPERIMENTS if e not in EXHIBIT_WRITES]
    out = run_exhibits([*rest, *ABLATIONS], WRITES)
    for name, n_writes in EXHIBIT_WRITES.items():
        out |= run_exhibits([name], n_writes)
    return out


def result_of(exhibit: str) -> ExperimentResult:
    return results()[exhibit]


def avg(r: ExperimentResult, label: str) -> float:
    return r.averages[label]


def cell(r: ExperimentResult, key: str, column: str) -> Any:
    """``column`` of the row whose first column is ``key``."""
    (row,) = [row for row in r.rows if row[r.columns[0]] == key]
    return row[column]


class Row(NamedTuple):
    exhibit: str
    quantity: str
    measure: Callable[[ExperimentResult], Any]
    #: One of OPS, or "±": within ``bound`` of the paper's value.
    op: str
    bound: Any
    #: The paper's value, a key into the exhibit's
    #: ``ExperimentResult.paper``, or None for a shape relation.
    paper: Any = None


OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "in": lambda value, bound: bound[0] <= value <= bound[1],
}

#: Table 3's metadata bits per line, verbatim.
TABLE3_OVERHEAD_BITS = {"FNW": 32, "DEUCE": 32, "DynDEUCE": 33, "DEUCE+FNW": 64}

SCORECARD: list[Row] = [
    # -- Fig 5: encryption costs almost 4x the bit writes.
    Row("fig5", "Encr-DCW / NoEncr-DCW",
        lambda r: avg(r, "Encr-DCW") / avg(r, "NoEncr-DCW"), ">", 3.0),
    Row("fig5", "avg Encr-DCW", lambda r: avg(r, "Encr-DCW"),
        "±", 0.5, "Encr-DCW"),
    Row("fig5", "avg Encr-FNW", lambda r: avg(r, "Encr-FNW"),
        "±", 0.7, "Encr-FNW"),
    Row("fig5", "avg NoEncr-DCW", lambda r: avg(r, "NoEncr-DCW"),
        "±", 2.0, "NoEncr-DCW"),
    Row("fig5", "avg NoEncr-FNW", lambda r: avg(r, "NoEncr-FNW"),
        "±", 2.0, "NoEncr-FNW"),
    Row("fig5", "NoEncr-DCW - NoEncr-FNW",
        lambda r: avg(r, "NoEncr-DCW") - avg(r, "NoEncr-FNW"), ">=", 0.0),
    # -- Table 2: model inputs, verbatim from the paper.
    Row("table2", "workloads", lambda r: len(r.rows), "==", 12),
    Row("table2", "libq read_mpki", lambda r: cell(r, "libq", "read_mpki"),
        "==", 22.9),
    Row("table2", "libq wbpki", lambda r: cell(r, "libq", "wbpki"),
        "==", 9.78),
    Row("table2", "astar wbpki", lambda r: cell(r, "astar", "wbpki"),
        "==", 1.29),
    Row("table2", "min wbpki", lambda r: min(row["wbpki"] for row in r.rows),
        ">=", 1.0),
    # -- Fig 8: finer tracking flips fewer bits.
    Row("fig8", "2B - 1B", lambda r: avg(r, "2B") - avg(r, "1B"), ">", 0.0),
    Row("fig8", "4B - 2B", lambda r: avg(r, "4B") - avg(r, "2B"), ">", 0.0),
    Row("fig8", "8B - 4B", lambda r: avg(r, "8B") - avg(r, "4B"), ">", 0.0),
    Row("fig8", "avg 2B", lambda r: avg(r, "2B"), "in", (20.0, 27.0), "2B"),
    Row("fig8", "avg 8B", lambda r: avg(r, "8B"), "in", (29.0, 35.7), "8B"),
    # -- Fig 9: the epoch interval barely matters, but burst-prone
    # workloads get worse with longer epochs.
    Row("fig9", "|epoch8 - epoch32|",
        lambda r: abs(avg(r, "epoch8") - avg(r, "epoch32")), "<", 1.5),
    Row("fig9", "wrf epoch32 - epoch8",
        lambda r: cell(r, "wrf", "epoch32") - cell(r, "wrf", "epoch8"),
        ">", 0.0),
    Row("fig9", "milc epoch32 - epoch16",
        lambda r: cell(r, "milc", "epoch32") - cell(r, "milc", "epoch16"),
        ">", 0.0),
    # -- Fig 10: the headline scheme comparison.
    # Its Encr-FNW and NoEncr-FNW cells are Fig 5's, bounded there.
    Row("fig10", "avg DEUCE", lambda r: avg(r, "DEUCE"), "±", 2.5, "DEUCE"),
    Row("fig10", "avg DynDEUCE", lambda r: avg(r, "DynDEUCE"),
        "±", 2.5, "DynDEUCE"),
    Row("fig10", "avg DEUCE+FNW", lambda r: avg(r, "DEUCE+FNW"),
        "±", 2.5, "DEUCE+FNW"),
    Row("fig10", "DEUCE+FNW - NoEncr-FNW",
        lambda r: avg(r, "DEUCE+FNW") - avg(r, "NoEncr-FNW"), ">", 0.0),
    Row("fig10", "DynDEUCE - DEUCE+FNW",
        lambda r: avg(r, "DynDEUCE") - avg(r, "DEUCE+FNW"), ">=", 0.0),
    Row("fig10", "DEUCE - DynDEUCE",
        lambda r: avg(r, "DEUCE") - avg(r, "DynDEUCE"), ">", 0.0),
    Row("fig10", "Encr-FNW - DEUCE",
        lambda r: avg(r, "Encr-FNW") - avg(r, "DEUCE"), ">", 0.0),
    # DEUCE removes about two-thirds of encryption's extra flips.
    Row("fig10", "extra flips DEUCE removes",
        lambda r: (50.0 - avg(r, "DEUCE")) / (50.0 - avg(r, "NoEncr-FNW")),
        ">=", 0.60),
    # Dense writers defeat DEUCE; DynDEUCE rescues them.
    *(
        row
        for workload in ("Gems", "soplex")
        for row in (
            Row("fig10", f"{workload} DEUCE",
                lambda r, w=workload: cell(r, w, "DEUCE"), ">", 43.0),
            Row("fig10", f"{workload} DynDEUCE",
                lambda r, w=workload: cell(r, w, "DynDEUCE"), "<", 45.0),
            Row("fig10", f"{workload} DEUCE - DynDEUCE",
                lambda r, w=workload: (
                    cell(r, w, "DEUCE") - cell(r, w, "DynDEUCE")
                ),
                ">", 0.0),
        )
    ),
    # Sparse writers shine under DEUCE (below 15%, so also below half of
    # Fig 5's Encr-FNW, >= 42.0 on the same cells).
    *(
        Row("fig10", f"{workload} DEUCE",
            lambda r, w=workload: cell(r, w, "DEUCE"), "<", 15.0)
        for workload in ("libq", "mcf", "omnetpp")
    ),
    # -- Table 3: storage overhead vs effectiveness.
    Row("table3", "overhead bits",
        lambda r: {row["scheme"]: row["overhead_bits"] for row in r.rows},
        "==", TABLE3_OVERHEAD_BITS, TABLE3_OVERHEAD_BITS),
    Row("table3", "FNW - DEUCE flips",
        lambda r: (
            cell(r, "FNW", "avg_flips_pct") - cell(r, "DEUCE", "avg_flips_pct")
        ),
        ">", 0.0),
    Row("table3", "DEUCE - DynDEUCE flips",
        lambda r: (
            cell(r, "DEUCE", "avg_flips_pct")
            - cell(r, "DynDEUCE", "avg_flips_pct")
        ),
        ">=", 0.0),
    Row("table3", "DynDEUCE - DEUCE+FNW flips",
        lambda r: (
            cell(r, "DynDEUCE", "avg_flips_pct")
            - cell(r, "DEUCE+FNW", "avg_flips_pct")
        ),
        ">=", 0.0),
    # -- Fig 12: hot bit positions (max/mean writes per position).
    Row("fig12", "libq skew / mcf skew",
        lambda r: (
            cell(r, "libq", "max_over_mean") / cell(r, "mcf", "max_over_mean")
        ),
        ">", 2.5),
    Row("fig12", "mcf skew", lambda r: cell(r, "mcf", "max_over_mean"),
        "in", (4.0, 9.0), "mcf"),
    Row("fig12", "libq skew", lambda r: cell(r, "libq", "max_over_mean"),
        ">=", 14.0, "libq"),
    # -- Fig 14: lifetime normalized to encrypted memory.
    Row("fig14", "DEUCE-HWL / DEUCE",
        lambda r: avg(r, "DEUCE-HWL") / avg(r, "DEUCE"), ">=", 1.7),
    Row("fig14", "avg DEUCE-HWL", lambda r: avg(r, "DEUCE-HWL"),
        ">=", 1.8, "DEUCE-HWL"),
    Row("fig14", "avg DEUCE", lambda r: avg(r, "DEUCE"), "<=", 1.35, "DEUCE"),
    Row("fig14", "avg FNW", lambda r: avg(r, "FNW"),
        "in", (1.0, 1.35), "FNW"),
    *(
        Row("fig14", f"{workload} DEUCE-HWL",
            lambda r, w=workload: cell(r, w, "DEUCE-HWL"), "<=", 1.25)
        for workload in ("Gems", "soplex")
    ),
    Row("fig14", "libq DEUCE-HWL", lambda r: cell(r, "libq", "DEUCE-HWL"),
        ">", 3.0),
    # -- Fig 15: write slots per write.  The slot model charges one slot
    # per 128-bit region with any flip, so absolute counts run above the
    # paper's; the ordering and the gap DEUCE bridges hold.
    Row("fig15", "avg Encr", lambda r: avg(r, "Encr"), "±", 0.01, "Encr"),
    Row("fig15", "avg Encr-FNW", lambda r: avg(r, "Encr-FNW"), ">=", 3.8),
    Row("fig15", "DEUCE - NoEncr",
        lambda r: avg(r, "DEUCE") - avg(r, "NoEncr"), ">", 0.0),
    Row("fig15", "Encr - DEUCE",
        lambda r: avg(r, "Encr") - avg(r, "DEUCE"), ">", 0.0),
    Row("fig15", "Encr-NoEncr gap DEUCE bridges",
        lambda r: (
            (avg(r, "Encr") - avg(r, "DEUCE"))
            / (avg(r, "Encr") - avg(r, "NoEncr"))
        ),
        ">=", 0.5),
    # -- Fig 16: speedup over encrypted memory.
    Row("fig16", "avg Encr-FNW", lambda r: avg(r, "Encr-FNW"),
        "in", (0.95, 1.05), 1.0),
    Row("fig16", "avg DEUCE", lambda r: avg(r, "DEUCE"),
        ">=", 1.12, "DEUCE"),
    Row("fig16", "avg NoEncr-FNW", lambda r: avg(r, "NoEncr-FNW"),
        ">", 1.0, "NoEncr-FNW"),
    Row("fig16", "NoEncr-FNW / DEUCE",
        lambda r: avg(r, "NoEncr-FNW") / avg(r, "DEUCE"), ">=", 0.98),
    Row("fig16", "speedup gap DEUCE bridges",
        lambda r: (avg(r, "DEUCE") - 1.0) / (avg(r, "NoEncr-FNW") - 1.0),
        ">=", 0.5),
    # -- Fig 17: energy, power and EDP relative to encrypted memory.
    Row("fig17", "DEUCE energy", lambda r: cell(r, "DEUCE", "energy"),
        "<=", 0.70, "DEUCE energy"),
    Row("fig17", "DEUCE power - energy",
        lambda r: cell(r, "DEUCE", "power") - cell(r, "DEUCE", "energy"),
        ">=", 0.0),
    Row("fig17", "DEUCE edp", lambda r: cell(r, "DEUCE", "edp"),
        "<=", 0.65, "DEUCE edp"),
    Row("fig17", "Encr-FNW energy", lambda r: cell(r, "Encr-FNW", "energy"),
        "in", (0.80, 0.95), "Encr-FNW energy"),
    Row("fig17", "Encr-FNW edp - DEUCE edp",
        lambda r: cell(r, "Encr-FNW", "edp") - cell(r, "DEUCE", "edp"),
        ">=", 0.0),
    Row("fig17", "DEUCE edp - NoEncr-FNW edp",
        lambda r: cell(r, "DEUCE", "edp") - cell(r, "NoEncr-FNW", "edp"),
        ">=", 0.0),
    # -- Fig 18: DEUCE is orthogonal to Block-Level Encryption.
    Row("fig18", "avg BLE", lambda r: avg(r, "BLE"), "±", 3.5, "BLE"),
    Row("fig18", "BLE - DEUCE",
        lambda r: avg(r, "BLE") - avg(r, "DEUCE"), ">", 0.0),
    Row("fig18", "BLE - BLE+DEUCE",
        lambda r: avg(r, "BLE") - avg(r, "BLE+DEUCE"), ">", 0.0),
    Row("fig18", "BLE+DEUCE - DEUCE",
        lambda r: avg(r, "BLE+DEUCE") - avg(r, "DEUCE"), "<=", 0.5),
    Row("fig18", "Gems BLE", lambda r: cell(r, "Gems", "BLE"), ">=", 49.0),
    # -- Ablations (DESIGN.md section 6).
    Row("ablation_pad_source", "|aes - blake2|",
        lambda r: abs(avg(r, "aes") - avg(r, "blake2")), "<", 1.5),
    Row("ablation_fnw_group", "64b - 8b",
        lambda r: avg(r, "64b") - avg(r, "8b"), ">", 0.0),
    Row("ablation_hwl_variants", "hwl / none",
        lambda r: (
            cell(r, "hwl", "lifetime_vs_encr")
            / cell(r, "none", "lifetime_vs_encr")
        ),
        ">", 1.5),
    Row("ablation_hwl_variants", "hwl-hashed / none",
        lambda r: (
            cell(r, "hwl-hashed", "lifetime_vs_encr")
            / cell(r, "none", "lifetime_vs_encr")
        ),
        ">", 1.3),
    Row("ablation_extreme_epochs", "epoch2 - epoch64",
        lambda r: avg(r, "epoch2") - avg(r, "epoch64"), ">", 0.0),
    Row("ablation_write_pausing", "pausing - baseline read ns",
        lambda r: (
            cell(r, "write-pausing", "avg_read_ns")
            - cell(r, "baseline", "avg_read_ns")
        ),
        "<", 0.0),
    Row("ablation_write_pausing", "pausing - baseline exec ms",
        lambda r: (
            cell(r, "write-pausing", "exec_ms")
            - cell(r, "baseline", "exec_ms")
        ),
        "<=", 0.0),
    Row("ablation_write_pausing", "power-tokens-8 / baseline exec ms",
        lambda r: (
            cell(r, "power-tokens-8", "exec_ms")
            / cell(r, "baseline", "exec_ms")
        ),
        ">=", 0.99),
]


def row_id(row: Row) -> str:
    """``fig10_avg_DEUCE``: the row's test id, free of spaces and slashes."""
    name = f"{row.exhibit} {row.quantity}".replace(" / ", " per ")
    return re.sub(r"[^\w+.-]+", "_", name).strip("_")


def verdict(row: Row, result: ExperimentResult) -> str | None:
    """None when ``result`` meets ``row``, else the failure message."""
    paper = row.paper
    if isinstance(paper, str):
        if paper not in result.paper:
            return f"{row.exhibit}: ExperimentResult.paper has no key {paper!r}"
        paper = result.paper[paper]
    value = row.measure(result)
    if row.op == "±":
        ok = abs(value - paper) <= row.bound
    else:
        ok = OPS[row.op](value, row.bound)
    if ok:
        return None
    return (
        f"{row.exhibit} {row.quantity}: measured {value!r}, "
        f"bound {row.op} {row.bound!r}, paper {paper!r}"
    )


@pytest.mark.slow
@pytest.mark.parametrize("row", SCORECARD, ids=row_id)
def test_scorecard_row(row: Row):
    message = verdict(row, result_of(row.exhibit))
    if message:
        pytest.fail(message, pytrace=False)


(DYNDEUCE,) = [
    row for row in SCORECARD
    if (row.exhibit, row.quantity) == ("fig10", "avg DynDEUCE")
]


def test_failure_names_exhibit_quantity_value_bound_and_paper():
    result = ExperimentResult(
        "fig10", "", ["workload"],
        averages={"DynDEUCE": 23.76}, paper={"DynDEUCE": 22.0},
    )
    assert verdict(DYNDEUCE, result) is None
    result.averages["DynDEUCE"] = 24.6
    assert verdict(DYNDEUCE, result) == (
        "fig10 avg DynDEUCE: measured 24.6, bound ± 2.5, paper 22.0"
    )


def test_missing_paper_key_names_exhibit_and_key():
    result = ExperimentResult("fig10", "", ["workload"],
                              averages={"DynDEUCE": 22.0})
    assert verdict(DYNDEUCE, result) == (
        "fig10: ExperimentResult.paper has no key 'DynDEUCE'"
    )


def test_every_exhibit_has_a_row():
    exhibits = {row.exhibit for row in SCORECARD}
    assert exhibits == set(EXPERIMENTS) | set(ABLATIONS)
    assert len(SCORECARD) == len(set(map(row_id, SCORECARD)))


@pytest.mark.parametrize(
    "label, target, paper",
    [("DynDEUCE", "avg_dyndeuce_pct", 22.0),
     ("DEUCE+FNW", "avg_deuce_fnw_pct", 20.3)],
)
def test_dyndeuce_and_deuce_fnw_are_pinned(label, target, paper):
    """Both have a numeric Fig 10 row within the DEUCE headline's band."""
    assert PAPER_TARGETS[target] == paper
    (row,) = [
        row for row in SCORECARD
        if row.exhibit == "fig10" and row.quantity == f"avg {label}"
    ]
    assert (row.op, row.paper) == ("±", label)
    assert row.bound <= 2.5
