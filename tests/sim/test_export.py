"""CSV export tests."""

from __future__ import annotations

import csv

import pytest

from repro.analysis.export import export_all, export_csv
from repro.sim.experiments import EXPERIMENTS


class TestExportCsv:
    def test_rows_and_header(self, tmp_path):
        path = export_csv(EXPERIMENTS["table2"](), tmp_path / "t2.csv")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert rows[0]["workload"] == "libq"
        assert float(rows[0]["read_mpki"]) == 22.9

    def test_average_row_appended(self, tmp_path):
        result = EXPERIMENTS["fig12"](n_writes=600)
        result.averages = {"max_over_mean": 1.0}
        path = export_csv(result, tmp_path / "f12.csv")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["workload"] == "AVG"


class TestExportAll:
    def test_writes_files_and_index(self, tmp_path):
        paths = export_all(
            tmp_path / "csv", n_writes=300, experiments=["table2", "fig12"]
        )
        names = {p.name for p in paths}
        assert names == {"table2.csv", "fig12.csv", "index.csv"}
        with open(tmp_path / "csv" / "index.csv") as fh:
            index = list(csv.DictReader(fh))
        assert {r["experiment"] for r in index} == {"table2", "fig12"}

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ValueError):
            export_all(tmp_path, experiments=["nope"])
