"""Chunked write path == scalar reference, bit for bit.

Above ``chunk_size=1`` the write loop hands chunks to every scheme's
vectorized ``write_batch`` with precomputed pad streams and scatter-add
accumulation; ``chunk_size=1`` is the scalar reference, where every
scheme runs its own ``install()``/``write()``.  These tests pin the
documented equality contract for every registered scheme: every
aggregate, the sampled series, the wear profile, and checkpoint/resume
continuations are bit-identical at any chunk size.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import registry
from repro.crypto.pads import Blake2PadSource, CachingPadSource
from repro.obs.instruments import Instruments
from repro.obs.metrics import MetricsRegistry
from repro.schemes.base import WriteScheme
from repro.schemes.invmm import INvmm
from repro.sim import runner as runner_module
from repro.sim.config import SimConfig
from repro.sim.runner import run

SCHEMES = registry.SCHEMES.names

#: The Flip-N-Write schemes, whose kernels share one batch FNW encoder.
FNW_FAMILY = ("noencr-fnw", "encr-fnw", "deuce+fnw", "dyndeuce")

#: The schemes whose kernels replay a pad-block stream (BLE, BLE+DEUCE)
#: or the incremental cold sweep (i-NVMM).
BLOCK_AND_SWEEP = ("ble", "ble+deuce", "invmm")

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
    config = {**BASE, **overrides}
    serial = run(SimConfig(**config, chunk_size=1))
    chunked = run(SimConfig(**config, chunk_size=64))
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

    def test_wear_events_inside_chunks(self):
        # Start-Gap moves land mid-chunk; each write still gets the
        # rotation of its own moment in the schedule.
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


#: Wear levelers whose rotation schedule the chunked path must follow
#: write for write.
LEVELERS = ("hwl", "hwl-hashed", "sr-hwl")

#: A 16-line region at a 7-write interval: a 512-write chunk spans 73 gap
#: moves and four ``Start`` wraps, or several Security Refresh rounds.
LEVELER_KNOBS = dict(hwl_region_lines=16, gap_write_interval=7)


def _capture_levelers(monkeypatch) -> list:
    """Record every leveler the runner builds, for state assertions."""
    built = []
    original = runner_module._build_leveler

    def build(*args):
        leveler = original(*args)
        built.append(leveler)
        return leveler

    monkeypatch.setattr(runner_module, "_build_leveler", build)
    return built


class TestLevelerSchedulesMatchSerial:
    @pytest.mark.parametrize("tracked", [False, True], ids=["agg", "per-line"])
    @pytest.mark.parametrize("leveling", LEVELERS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_chunk_sizes_agree(self, scheme, leveling, tracked):
        config = dict(
            BASE, scheme=scheme, wear_leveling=leveling,
            track_per_line_wear=tracked, **LEVELER_KNOBS,
        )
        serial = run(SimConfig(**config, chunk_size=1))
        for chunk_size in (64, 512):
            chunked = run(SimConfig(**config, chunk_size=chunk_size))
            assert comparable(serial) == comparable(chunked), chunk_size
            assert np.array_equal(
                serial.wear.position_writes, chunked.wear.position_writes
            )
            assert (
                serial.wear.max_line_bit_writes
                == chunked.wear.max_line_bit_writes
            )

    @pytest.mark.parametrize("leveling", LEVELERS)
    def test_one_chunk_spans_many_wear_events(self, leveling, monkeypatch):
        # The parity cases above only mean something if a chunk really
        # crosses gap moves, a Start wrap, or a completed refresh round.
        built = _capture_levelers(monkeypatch)
        config = SimConfig(
            **BASE, scheme="deuce", wear_leveling=leveling,
            chunk_size=512, **LEVELER_KNOBS,
        )
        run(config)
        (leveler,) = built
        n_chunks = -(-BASE["n_writes"] // 512)
        if leveling == "sr-hwl":
            assert leveler.refresh.round > n_chunks
        else:
            startgap = leveler.startgap
            assert startgap.move_writes > n_chunks
            assert startgap.start > n_chunks


def _scheme_cls(name: str):
    return registry.SCHEMES.get(name).factory


class TestKernelCoverage:
    def test_no_scheme_falls_back_to_the_base_loops(self):
        # A kernel that silently falls back to the base loop fails this.
        for method in ("write_batch", "install_batch"):
            base = getattr(WriteScheme, method)
            fallback = {
                name for name in SCHEMES
                if getattr(_scheme_cls(name), method) is base
            }
            assert fallback == set(), method


#: Configurations the FNW-family kernels must match the reference under:
#: epoch writes inside chunks, other FNW group widths (dyndeuce's group is
#: its tracking word, so ``word_bytes`` moves with ``fnw_group_bits``), and
#: a pad cache small enough to evict inside a chunk (so the request stream
#: shows in the hit/miss counts) or none at all.
FNW_CONFIGS = {
    "epoch4": dict(epoch_interval=4),
    "group8": dict(fnw_group_bits=8, word_bytes=1),
    "group32": dict(fnw_group_bits=32, word_bytes=4),
    "cache16": dict(pad_cache_lines=16),
    "cache0": dict(pad_cache_lines=0),
    "epoch4-cache16": dict(epoch_interval=4, pad_cache_lines=16),
}


class TestFnwFamilyMatchesSerial:
    @pytest.mark.parametrize("workload", ["Gems", "kv-udb"])
    @pytest.mark.parametrize("scheme", FNW_FAMILY)
    def test_dense_and_kv_workloads(self, scheme, workload):
        serial, chunked = run_pair(
            scheme=scheme, workload=workload, pad_cache_lines=16
        )
        assert comparable(serial) == comparable(chunked)
        if scheme == "dyndeuce":
            # The FNW half of the kernel must actually run.
            assert chunked.mode_switches > 0

    @pytest.mark.parametrize("config", sorted(FNW_CONFIGS))
    @pytest.mark.parametrize("scheme", FNW_FAMILY)
    def test_configs(self, scheme, config):
        serial, chunked = run_pair(
            scheme=scheme, workload="Gems", **FNW_CONFIGS[config]
        )
        assert comparable(serial) == comparable(chunked)
        if "cache16" in config and scheme in ("deuce+fnw", "dyndeuce"):
            # Their reads re-request pads, so the small cache both hits
            # and evicts.
            assert chunked.pad_hits > 0

    @pytest.mark.parametrize("scheme", FNW_FAMILY)
    def test_pad_fetch_metrics_identical(self, scheme):
        # Pads the kernels peek must not count as fetches.
        fetches = []
        for chunk_size in (1, 64):
            metrics = MetricsRegistry()
            run(
                SimConfig(
                    "Gems", scheme, n_writes=400, seed=0,
                    chunk_size=chunk_size, pad_cache_lines=16,
                ),
                instruments=Instruments(metrics=metrics),
            )
            fetches.append(metrics.counter("pad.fetches").value)
        assert fetches[0] == fetches[1]


#: Configurations the BLE, BLE+DEUCE and i-NVMM kernels must match the
#: reference under: block epochs inside chunks, every other tracking word
#: size, a pad cache small enough to evict inside a chunk or none at all,
#: and Start-Gap rotations with the per-line wear matrix.
BLE_CONFIGS = {
    "epoch4": dict(epoch_interval=4),
    "word1": dict(word_bytes=1),
    "word4": dict(word_bytes=4),
    "word8-epoch4": dict(word_bytes=8, epoch_interval=4),
    "cache16": dict(pad_cache_lines=16),
    "cache0": dict(pad_cache_lines=0),
    "hwl-wear": dict(
        wear_leveling="hwl", gap_write_interval=37, track_per_line_wear=True
    ),
}

#: Knobs only ``ble+deuce`` of the three reads; the others skip them.
_DEUCE_KNOBS = {"epoch_interval", "word_bytes"}

BLE_CASES = [
    (scheme, config)
    for scheme in BLOCK_AND_SWEEP
    for config in sorted(BLE_CONFIGS)
    if scheme == "ble+deuce" or not _DEUCE_KNOBS & BLE_CONFIGS[config].keys()
]


class TestBlockAndSweepMatchSerial:
    @pytest.mark.parametrize("workload", ["Gems", "kv-udb"])
    @pytest.mark.parametrize("scheme,config", BLE_CASES)
    def test_configs(self, scheme, config, workload):
        serial, chunked = run_pair(
            scheme=scheme, workload=workload, **BLE_CONFIGS[config]
        )
        assert comparable(serial) == comparable(chunked)
        if config == "cache16" and scheme == "ble+deuce":
            # A mid-epoch write re-requests the trailing pads its own read
            # fetched, so the small cache both hits and evicts.
            assert chunked.pad_hits > 0

    @pytest.mark.parametrize("scheme", BLOCK_AND_SWEEP)
    def test_aes_pads(self, scheme):
        serial, chunked = run_pair(
            scheme=scheme, workload="Gems", n_writes=150, pad_kind="aes",
            pad_cache_lines=16,
        )
        assert comparable(serial) == comparable(chunked)

    @pytest.mark.parametrize("scheme", BLOCK_AND_SWEEP)
    def test_pad_fetch_metrics_identical(self, scheme):
        # Peeked pads must not count as fetches; batched pad blocks count
        # one fetch each, as scalar ``pad_block`` calls do.
        fetches = []
        for chunk_size in (1, 64):
            metrics = MetricsRegistry()
            run(
                SimConfig(
                    "Gems", scheme, n_writes=400, seed=0,
                    chunk_size=chunk_size, pad_cache_lines=16,
                ),
                instruments=Instruments(metrics=metrics),
            )
            fetches.append(metrics.counter("pad.fetches").value)
        assert fetches[0] == fetches[1] > 0


def _drive_invmm(
    chunk_size: int,
    n_lines: int,
    sweep_lines_per_write: int,
    idle_threshold: int,
    n_writes: int = 600,
):
    """An i-NVMM run on a random trace, built directly (``SimConfig`` does
    not expose ``sweep_lines_per_write``).  Chunk size 1 runs the
    base-class loops over the scalar ``install()``/``write()``."""
    pads = CachingPadSource(Blake2PadSource(b"invmm-sweep-key!"), capacity=8)
    scheme = INvmm(
        pads,
        idle_threshold=idle_threshold,
        sweep_lines_per_write=sweep_lines_per_write,
    )
    rng = np.random.default_rng(n_lines)
    lines = rng.choice(1 << 20, n_lines, replace=False).astype(np.int64)
    images = rng.integers(0, 256, (n_lines, 64), dtype=np.uint8)
    targets = lines[rng.integers(0, n_lines, n_writes)]
    data = images[rng.integers(0, n_lines, n_writes)] ^ (
        rng.random((n_writes, 64)) < 0.05
    ).astype(np.uint8)
    if chunk_size == 1:
        install_batch = partial(WriteScheme.install_batch, scheme)
        write_batch = partial(WriteScheme.write_batch, scheme)
    else:
        install_batch, write_batch = scheme.install_batch, scheme.write_batch
    install_batch(lines, images)
    flips = full = 0
    for lo in range(0, n_writes, chunk_size):
        out = write_batch(
            targets[lo: lo + chunk_size], data[lo: lo + chunk_size]
        )
        flips += int(out.data_flips.sum() + out.meta_flips.sum())
        full += int(out.full_line_reencrypted.sum())
    return scheme, pads, flips, full


class TestInvmmSweepState:
    """``RunResult`` does not carry the sweep's state, so equal results
    alone do not show that the batched sweep matched the scalar one."""

    @pytest.mark.parametrize("sweep_lines_per_write", [0, 1, 2])
    @pytest.mark.parametrize("n_lines", [3, 40, 2000])
    def test_sweep_state_identical(self, n_lines, sweep_lines_per_write):
        # 3 and 40 lines are smaller than a chunk, so the sweep wraps
        # around inside one, several times over at 3.
        runs = [
            _drive_invmm(cs, n_lines, sweep_lines_per_write, idle_threshold=5)
            for cs in (1, 64)
        ]
        (ref, ref_pads, *ref_counts), (got, got_pads, *got_counts) = runs
        assert got.sweep_flips == ref.sweep_flips
        assert got.sweep_encryptions == ref.sweep_encryptions
        assert got.plaintext_lines() == ref.plaintext_lines()
        assert got.snapshot() == ref.snapshot()
        assert got_counts == ref_counts
        assert (got_pads.hits, got_pads.misses) == (
            ref_pads.hits, ref_pads.misses
        )
        if sweep_lines_per_write:
            assert ref.sweep_encryptions > 0


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

    def test_deuce_fnw_resume_mid_chunk_is_bit_identical(self, tmp_path):
        cfg = SimConfig(
            "Gems", "deuce+fnw", n_writes=600, seed=3, chunk_size=50,
            epoch_interval=8, pad_cache_lines=16,
        )
        ckpt_dir = tmp_path / "dfnw"
        full = run(cfg, checkpoint_dir=ckpt_dir, checkpoint_every=77)
        resumed = run(resume_from=str(ckpt_dir))
        straight = run(cfg.with_(chunk_size=1))
        assert comparable(full) == comparable(resumed)
        assert comparable(full) == comparable(straight)

    @pytest.mark.parametrize("scheme", ["ble+deuce", "invmm"])
    def test_block_and_sweep_resume_mid_chunk_is_bit_identical(
        self, tmp_path, scheme
    ):
        # BLE+DEUCE carries per-block counters, i-NVMM its tick, last
        # writes and sweep position across the checkpoint.
        cfg = SimConfig(
            "Gems", scheme, n_writes=600, seed=3, chunk_size=50,
            epoch_interval=8, pad_cache_lines=16,
        )
        ckpt_dir = tmp_path / scheme
        full = run(cfg, checkpoint_dir=ckpt_dir, checkpoint_every=77)
        resumed = run(resume_from=str(ckpt_dir))
        straight = run(cfg.with_(chunk_size=1))
        assert comparable(full) == comparable(resumed)
        assert comparable(full) == comparable(straight)

    @pytest.mark.parametrize("leveling", ["hwl", "sr-hwl"])
    def test_resume_across_wear_events_is_bit_identical(
        self, tmp_path, leveling
    ):
        # 93 is not a multiple of the 7-write interval, so every saved
        # chunk crosses gap moves (or refreshes) and the last snapshot
        # lands mid-interval.
        cfg = SimConfig(
            "mcf", "deuce", n_writes=800, seed=3, chunk_size=512,
            wear_leveling=leveling, track_per_line_wear=True,
            **LEVELER_KNOBS,
        )
        ckpt_dir = tmp_path / leveling
        full = run(cfg, checkpoint_dir=ckpt_dir, checkpoint_every=93)
        resumed = run(resume_from=str(ckpt_dir))
        straight = run(cfg.with_(chunk_size=1))
        assert comparable(full) == comparable(resumed)
        assert comparable(full) == comparable(straight)
        assert np.array_equal(
            resumed.wear.position_writes, straight.wear.position_writes
        )

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
