"""Experiment-layer tests (small trace lengths; structure only).

The paper's numbers and shapes are checked once, at a fixed scale, by
``tests/integration/test_paper_scorecard.py``.
"""

from __future__ import annotations

import pytest

import repro.sim.runner
from repro.obs.progress import DONE, HEARTBEAT, START
from repro.sim.experiments import (
    EXPERIMENTS,
    bit_position_profile,
    run_exhibits,
)
from repro.sim.parallel import SweepCancelled

N = 600  # tiny: these tests check structure, not the paper's numbers


class TestStructure:
    def test_registry_covers_every_paper_exhibit(self):
        assert set(EXPERIMENTS) == {
            "fig5",
            "table2",
            "fig8",
            "fig9",
            "fig10",
            "table3",
            "fig12",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
        }

    def test_table2_lists_all_workloads(self):
        result = EXPERIMENTS["table2"]()
        assert len(result.rows) == 12
        assert result.rows[0]["workload"] == "libq"

    def test_render_includes_title_and_average(self):
        result = EXPERIMENTS["fig5"](n_writes=N)
        text = result.render()
        assert "Fig 5" in text
        assert "AVG" in text
        assert "Paper reports" in text


@pytest.fixture
def run_calls(monkeypatch):
    """The ``(config, trace given)`` of every ``runner.run`` call."""
    calls = []
    real = repro.sim.runner.run

    def counting(config=None, trace=None, instruments=None):
        calls.append((config, trace is not None))
        return real(config, trace=trace, instruments=instruments)

    monkeypatch.setattr(repro.sim.runner, "run", counting)
    monkeypatch.setattr("repro.sim.experiments.run", counting)
    return calls


def _table(result):
    return result.rows, result.averages, result.paper


class TestDriver:
    def test_each_distinct_cell_runs_once(self, run_calls):
        names = ["fig10", "fig18", "table3"]
        together = run_exhibits(names, n_writes=300)
        assert len(run_calls) == len(set(run_calls))
        # fig10's five columns and fig18's BLE pair; table3 adds none.
        assert len(run_calls) == 12 * 7
        for name in names:
            assert _table(together[name]) == _table(
                EXPERIMENTS[name](n_writes=300)
            )

    def test_should_stop_cancels_before_any_traced_cell(self, run_calls):
        events = []

        def stop():
            return sum(e.kind == DONE for e in events) >= 2

        with pytest.raises(SweepCancelled):
            run_exhibits(
                ["fig12", "fig14"], n_writes=300,
                progress=events.append, should_stop=stop,
            )
        # fig12's two cells ran; none of fig14's did.
        assert [traced for _, traced in run_calls] == [False, False]

    def test_fig14_emits_progress(self):
        events = []
        run_exhibits(["fig14"], n_writes=100, progress=events.append)
        # Its cells are sweep cells like any other, heartbeats included.
        assert HEARTBEAT in {e.kind for e in events}
        kinds = [e.kind for e in events if e.kind != HEARTBEAT]
        assert kinds == [START, DONE] * 48
        assert {e.n_cells for e in events} == {48}
        assert [e.cell for e in events if e.kind == DONE] == list(range(48))

    def test_fig14_runs_on_workers_and_records_its_cells(self, tmp_path):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(tmp_path / "runs")
        serial = run_exhibits(["fig14"], n_writes=100)
        pooled = run_exhibits(["fig14"], n_writes=100, workers=2,
                              ledger=ledger)
        assert _table(pooled["fig14"]) == _table(serial["fig14"])
        assert len(ledger.list(kind="sweep-cell", label="fig14")) == 48

    def test_shrunk_working_set_is_a_workload_param(self):
        """A fig14 cell's trace is its workload's profile with the working
        set replaced, generated as any other config's trace is."""
        from dataclasses import replace

        import numpy as np

        from repro.workloads.profiles import PROFILES
        from repro.workloads.trace import generate_trace

        by_param = generate_trace(
            "mcf", 300, params={"working_set_lines": 128}
        )
        by_profile = generate_trace(
            replace(PROFILES["mcf"], working_set_lines=128), 300
        )
        for a, b in zip(by_param.write_arrays(), by_profile.write_arrays()):
            assert np.array_equal(a, b)
        assert not np.array_equal(
            by_param.write_arrays()[0],
            generate_trace("mcf", 300).write_arrays()[0],
        )


class TestProfiles:
    def test_bit_position_profile_normalized(self):
        profile = bit_position_profile("mcf", n_writes=2 * N)
        assert profile.size == 512
        assert profile.mean() == pytest.approx(1.0, abs=0.01)


class TestRunnerSchemeRegistry:
    def test_invmm_runs_through_the_simulator(self):
        from repro.sim.config import SimConfig
        from repro.sim.runner import run

        result = run(SimConfig("mcf", "invmm", n_writes=2000))
        baseline = run(SimConfig("mcf", "encr-dcw", n_writes=2000))
        # Hot writebacks avoid the avalanche (initial decrypt-to-plaintext
        # transitions cost ~50% once per line; steady state is cheap).
        assert result.avg_flips_pct < 0.75 * baseline.avg_flips_pct
