"""CSV export of experiment results and sampled run time-series.

Each :class:`~repro.sim.experiments.ExperimentResult` can be written as a
CSV for plotting in external tools; :func:`export_all` dumps the full
registry into a directory (one file per exhibit plus an index).
:func:`export_series_csv` writes the interval-sampled
:class:`~repro.obs.sampling.TimeSeries` a run attaches to
``RunResult.series`` — flip rates, pad-cache hit rates, mode deltas, and
wear percentiles over the course of a run — in the same flat-CSV style as
the figure exports.  :func:`summary_row` is the ledger-aware flat row for
single runs: the plain ``RunResult.summary_row`` plus ``run_id`` /
``wall_time_s`` / ``git_rev`` columns sourced from the run's manifest, so
exported rows join against ``.deuce-runs/index.jsonl``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.ledger import RunManifest
    from repro.obs.sampling import TimeSeries
    from repro.sim.experiments import ExperimentResult
    from repro.sim.results import RunResult


def summary_row(
    result: "RunResult", manifest: "RunManifest | None" = None
) -> dict[str, object]:
    """A run's flat summary row, joinable against the run ledger.

    Extends :meth:`~repro.sim.results.RunResult.summary_row` with the
    manifest's ``run_id``, ``wall_time_s``, and ``git_rev`` so CSVs built
    from these rows join against ``.deuce-runs/index.jsonl`` (and against
    each other across revisions).  Without a manifest the ledger columns are
    still present — empty id/rev, the result's own wall time — so exported
    headers are stable either way.
    """
    row = result.summary_row()
    row["run_id"] = manifest.run_id if manifest is not None else ""
    row["wall_time_s"] = round(
        manifest.wall_time_s if manifest is not None else result.wall_time_s, 4
    )
    row["git_rev"] = manifest.git_rev if manifest is not None else ""
    return row


def export_csv(result: "ExperimentResult", path: str | Path) -> Path:
    """Write one experiment's rows (plus the average row) as CSV."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=result.columns)
        writer.writeheader()
        for row in result.rows:
            writer.writerow({col: row.get(col, "") for col in result.columns})
        if result.averages:
            avg = {result.columns[0]: "AVG", **result.averages}
            writer.writerow({col: avg.get(col, "") for col in result.columns})
    return path


def export_series_csv(series: "TimeSeries", path: str | Path) -> Path:
    """Write a run's sampled time-series as CSV (one row per interval).

    Columns are the flattened :class:`~repro.obs.sampling.Sample` fields;
    ``mode_deltas`` is exploded into one ``mode_<name>`` column per mode
    observed anywhere in the series, so all rows share one header.
    """
    path = Path(path)
    rows = series.as_rows()
    fieldnames = list(rows[0]) if rows else ["write_index"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return path


def export_all(
    directory: str | Path,
    n_writes: int = 3_000,
    experiments: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[Path]:
    """Run experiments and export each to ``directory``; returns the paths."""
    from repro.sim.experiments import (  # lazy: avoids a cycle
        EXPERIMENTS,
        run_exhibits,
    )

    results = run_exhibits(experiments or list(EXPERIMENTS), n_writes)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    index_rows = []
    for name, result in results.items():
        if progress is not None:
            progress(f"exporting {name} ...")
        path = export_csv(result, directory / f"{name}.csv")
        written.append(path)
        index_rows.append(
            {"experiment": name, "title": result.title, "file": path.name}
        )
    index = directory / "index.csv"
    with open(index, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["experiment", "title", "file"])
        writer.writeheader()
        writer.writerows(index_rows)
    written.append(index)
    return written
