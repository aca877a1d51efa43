"""The wear-leveling region a run uses, and the bad values run() rejects."""

from __future__ import annotations

import pytest

from repro.sim import runner
from repro.sim.config import SimConfig
from repro.sim.runner import hwl_region, run


def config(leveling: str, region: int | None) -> SimConfig:
    return SimConfig(
        "mcf", "deuce", n_writes=50, wear_leveling=leveling,
        hwl_region_lines=region,
    )


class TestDefault:
    @pytest.mark.parametrize("leveling", ["none", "hwl", "hwl-hashed"])
    def test_is_the_working_set(self, leveling):
        assert hwl_region(config(leveling, None), 12) == 12

    @pytest.mark.parametrize(
        "n_lines, region", [(0, 2), (1, 2), (2, 2), (12, 8), (16, 16), (17, 16)]
    )
    def test_rounds_down_to_a_power_of_two_under_sr_hwl(self, n_lines, region):
        assert hwl_region(config("sr-hwl", None), n_lines) == region


class TestExplicit:
    @pytest.mark.parametrize(
        "leveling, region", [("hwl", 12), ("hwl-hashed", 1), ("sr-hwl", 16)]
    )
    def test_is_used_as_given(self, leveling, region):
        assert hwl_region(config(leveling, region), 100) == region

    @pytest.mark.parametrize("leveling", ["none", "hwl", "sr-hwl"])
    @pytest.mark.parametrize("region", [0, -1, -8])
    def test_below_one_is_rejected(self, leveling, region):
        with pytest.raises(ValueError, match="hwl_region_lines must be >= 1"):
            hwl_region(config(leveling, region), 100)

    @pytest.mark.parametrize("region", [1, 3, 12])
    def test_sr_hwl_rejects_a_non_power_of_two(self, region):
        with pytest.raises(ValueError, match="hwl_region_lines .* sr-hwl"):
            hwl_region(config("sr-hwl", region), 100)


class TestRun:
    @pytest.mark.parametrize(
        "leveling, region", [("sr-hwl", -8), ("sr-hwl", 12), ("hwl", 0)]
    )
    def test_fails_fast_on_a_bad_region(self, leveling, region):
        with pytest.raises(ValueError, match="hwl_region_lines"):
            run(config(leveling, region))

    def test_rejects_before_generating_a_trace(self, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("trace generated before the region check")

        monkeypatch.setattr(runner, "cached_trace", no_trace)
        with pytest.raises(ValueError, match="hwl_region_lines"):
            run(config("sr-hwl", 12))
