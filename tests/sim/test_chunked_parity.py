"""Chunked write path == scalar reference, bit for bit.

Above ``chunk_size=1`` the write loop hands chunks to
``scheme.write_batch`` (vectorized for some schemes, a loop over
``write()`` for the rest) with precomputed pad streams and scatter-add
accumulation; ``chunk_size=1`` is the scalar reference, where every
scheme runs its own ``install()``/``write()``.  These tests pin the
documented equality contract for every registered scheme: every
aggregate, the sampled series, the wear profile, and checkpoint/resume
continuations are bit-identical at any chunk size.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import registry
from repro.obs.instruments import Instruments
from repro.sim.config import SimConfig
from repro.sim.runner import run

SCHEMES = registry.SCHEMES.names

BASE = dict(workload="mcf", n_writes=800, seed=0)


def comparable(result) -> dict:
    """``to_dict`` minus wall clock, ledger id, and the chunking knob.

    ``chunk_size`` is a performance knob, not a semantic one, so two runs
    differing only in it must agree on everything else.
    """
    d = result.to_dict()
    d.pop("wall_time_s")
    d.pop("run_id")
    cfg = d.get("config")
    if cfg:
        cfg.pop("chunk_size", None)
    return d


def run_pair(**overrides):
    serial = run(SimConfig(**BASE, **overrides, chunk_size=1))
    chunked = run(
        SimConfig(**BASE, **overrides, chunk_size=overrides.pop("_cs", 64))
    )
    return serial, chunked


class TestChunkedMatchesSerial:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_aggregates_identical(self, scheme):
        serial, chunked = run_pair(scheme=scheme)
        assert comparable(serial) == comparable(chunked)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_wear_profile_identical(self, scheme):
        serial, chunked = run_pair(scheme=scheme)
        assert np.array_equal(
            serial.wear.position_writes, chunked.wear.position_writes
        )
        assert serial.wear.max_line_bit_writes == chunked.wear.max_line_bit_writes

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rotated_per_line_wear_identical(self, scheme):
        # HWL rotations through the batched PCM apply, with the full
        # (line, bit) wear matrix kept.
        serial, chunked = run_pair(
            scheme=scheme,
            wear_leveling="hwl",
            gap_write_interval=37,
            track_per_line_wear=True,
        )
        assert comparable(serial) == comparable(chunked)
        assert np.array_equal(
            serial.wear.position_writes, chunked.wear.position_writes
        )
        assert serial.wear.max_line_bit_writes == chunked.wear.max_line_bit_writes

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_chunk_size_one_runs_only_scalar_code(self, scheme, monkeypatch):
        # The reference must not route through any batch kernel, or the
        # oracle would compare a kernel with itself.
        def boom(self, addresses, data):
            raise AssertionError("batch kernel called at chunk_size=1")

        for name in SCHEMES:
            cls = registry.SCHEMES.get(name).factory
            monkeypatch.setattr(cls, "write_batch", boom)
            monkeypatch.setattr(cls, "install_batch", boom)
        result = run(
            SimConfig("mcf", scheme, n_writes=200, seed=0, chunk_size=1)
        )
        assert result.n_writes == 200
        with pytest.raises(AssertionError, match="batch kernel"):
            run(SimConfig("mcf", scheme, n_writes=200, seed=0, chunk_size=2))

    def test_epoch_resets_inside_chunks(self):
        # A tiny epoch interval forces resets mid-chunk; the batch path
        # must segment its meta accumulation at each reset.
        serial, chunked = run_pair(scheme="deuce", epoch_interval=4)
        assert chunked.epoch_resets > 0
        assert comparable(serial) == comparable(chunked)

    def test_wear_leveling_cuts_chunks(self):
        # Start-Gap rotations are interval side effects: chunks must end
        # exactly at rotation boundaries to stay bit-identical.
        serial, chunked = run_pair(
            scheme="deuce", wear_leveling="hwl", gap_write_interval=37
        )
        assert comparable(serial) == comparable(chunked)

    def test_per_line_wear_tracking(self):
        serial, chunked = run_pair(
            scheme="deuce", track_per_line_wear=True
        )
        assert comparable(serial) == comparable(chunked)
        assert serial.wear.max_line_bit_writes == chunked.wear.max_line_bit_writes

    def test_sampled_series_identical(self):
        cfg = dict(BASE, scheme="deuce")
        serial = run(
            SimConfig(**cfg, chunk_size=1),
            instruments=Instruments(sample_interval=100),
        )
        chunked = run(
            SimConfig(**cfg, chunk_size=64),
            instruments=Instruments(sample_interval=100),
        )
        assert serial.series is not None and chunked.series is not None
        assert serial.series.as_rows() == chunked.series.as_rows()

    def test_pad_cache_stats_identical(self):
        # Hit/miss accounting must not change under batched pad fetches
        # (the LRU sees one wide request instead of many small ones).
        serial, chunked = run_pair(scheme="deuce", pad_cache_lines=64)
        assert serial.pad_hits == chunked.pad_hits
        assert serial.pad_misses == chunked.pad_misses


class TestChunkedProperties:
    @given(
        chunk_size=st.integers(min_value=2, max_value=257),
        n_writes=st.integers(min_value=40, max_value=300),
        seed=st.integers(min_value=0, max_value=7),
        epoch_interval=st.sampled_from([2, 4, 8, 16]),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_chunk_size_is_bit_identical(
        self, chunk_size, n_writes, seed, epoch_interval
    ):
        base = dict(
            workload="libq",
            scheme="deuce",
            n_writes=n_writes,
            seed=seed,
            epoch_interval=epoch_interval,
        )
        serial = run(SimConfig(**base, chunk_size=1))
        chunked = run(SimConfig(**base, chunk_size=chunk_size))
        assert comparable(serial) == comparable(chunked)


class TestChunkedCheckpointResume:
    def _straight(self, chunk_size: int):
        return run(
            SimConfig(
                "libq", "deuce", n_writes=600, seed=3, chunk_size=chunk_size
            )
        )

    @pytest.mark.parametrize("checkpoint_every", [77, 256])
    def test_resume_mid_chunk_is_bit_identical(
        self, tmp_path, checkpoint_every
    ):
        # Checkpoint boundaries cut chunks at arbitrary (non-multiple)
        # offsets; resuming from the last snapshot must reproduce the
        # uninterrupted run exactly, serial or chunked.
        cfg = SimConfig("libq", "deuce", n_writes=600, seed=3, chunk_size=50)
        ckpt_dir = tmp_path / f"ck{checkpoint_every}"
        full = run(
            cfg,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=checkpoint_every,
        )
        resumed = run(resume_from=str(ckpt_dir))
        assert comparable(full) == comparable(resumed)
        assert comparable(full) == comparable(self._straight(1))

    def test_dyndeuce_resume_mid_chunk_is_bit_identical(self, tmp_path):
        # DynDEUCE carries mode state (per-line DEUCE/FNW mode and switch
        # bookkeeping) across the checkpoint on top of DEUCE's.
        cfg = SimConfig(
            "Gems", "dyndeuce", n_writes=600, seed=3, chunk_size=50
        )
        ckpt_dir = tmp_path / "dyn"
        full = run(cfg, checkpoint_dir=ckpt_dir, checkpoint_every=77)
        resumed = run(resume_from=str(ckpt_dir))
        straight = run(cfg.with_(chunk_size=1))
        assert full.mode_switches > 0
        assert comparable(full) == comparable(resumed)
        assert comparable(full) == comparable(straight)

    @given(checkpoint_every=st.integers(min_value=13, max_value=590))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_random_resume_cut(self, tmp_path, checkpoint_every):
        cfg = SimConfig("libq", "deuce", n_writes=600, seed=3, chunk_size=64)
        ckpt_dir = tmp_path / f"rand{checkpoint_every}"
        full = run(
            cfg, checkpoint_dir=ckpt_dir, checkpoint_every=checkpoint_every
        )
        resumed = run(resume_from=str(ckpt_dir))
        assert comparable(full) == comparable(resumed)
