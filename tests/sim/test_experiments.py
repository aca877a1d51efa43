"""Experiment-layer tests (small trace lengths; structure only).

The paper's numbers and shapes are checked once, at a fixed scale, by
``tests/integration/test_paper_scorecard.py``.
"""

from __future__ import annotations

import pytest

from repro.sim.experiments import (
    EXPERIMENTS,
    bit_position_profile,
    fig5_encryption_overhead,
    table2_workloads,
)

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
        result = table2_workloads()
        assert len(result.rows) == 12
        assert result.rows[0]["workload"] == "libq"

    def test_render_includes_title_and_average(self):
        result = fig5_encryption_overhead(n_writes=N)
        text = result.render()
        assert "Fig 5" in text
        assert "AVG" in text
        assert "Paper reports" in text


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
