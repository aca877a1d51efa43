"""Trace-compiled write path: chunked ``run()`` vs the per-write baseline.

The write-path vectorization work (``bench_writepath.py``) sped up one
``Deuce.write`` call; this benchmark measures the next layer — the runner
consuming whole trace chunks through ``scheme.write_batch`` with batched
pad streams and scatter-add wear accumulation — against the scalar
reference (``chunk_size=1``), where every scheme runs its own
``install()``/``write()`` one write at a time.

The suite is the regression gate's pinned config (``baselines/``:
workload mcf, 2000 writes, seed 0) for every registered scheme, run
end-to-end through :func:`repro.sim.runner.run`.  Both sides are timed
best-of-N (simulation wall times on shared runners spread ~30%, so a
single rep of either side would make the ratio noise).  Before any ratio
is reported the chunked result is asserted **bit-identical** to the
serial one — speed that changes physics is a bug, not a win.

Results land in ``benchmarks/results/BENCH_tracepath.json`` via
:func:`common.record` for CI consumption.
"""

from __future__ import annotations

from repro import registry
from repro.sim.config import SimConfig
from repro.sim.runner import run

from .common import record

WORKLOAD = "mcf"
N_WRITES = 2_000
SEED = 0

#: Every registered scheme runs the chunked loop, so every one is checked
#: for bit-identity against the scalar reference.
SCHEMES = registry.SCHEMES.names

#: The default chunk size plus the whole pinned trace as one chunk.
CHUNK_SIZES = (SimConfig("mcf", "deuce").chunk_size, N_WRITES)

#: Best-of-N repeats per (scheme, chunk_size) side.
REPEATS = 5

#: ``deuce``'s whole-trace speedup over the scalar reference: the target
#: (recorded as ``meets_target``) and the asserted floor, which sits lower
#: so a loaded CI machine doesn't flake the suite.  Both are the batching
#: work's 10x target and 8x floor over a plain per-write loop, scaled by
#: 1.9x: the reference packs every write into a one-row ``BatchOutcome``
#: and runs that much slower than such a loop (median of 10 alternating
#: pairs, mcf 2,000 writes, best of 5, one core of a 2-vCPU container).
TARGET_SPEEDUP = 19.0
FLOOR_SPEEDUP = 15.0

#: Asserted whole-trace speedup floor of every scheme.  Apart from
#: ``deuce``'s, each sits near 0.6x the lowest of three bench runs (one
#: core of a 2-vCPU container), which measured noencr-dcw 30.2x,
#: noencr-fnw 28.7x, encr-dcw 12.0x, encr-fnw 21.9x, dyndeuce 10.5x and
#: deuce+fnw 12.1x, and in a later set of three ble 5.4x, ble+deuce 6.7x
#: and invmm 12.0x.
SPEEDUP_FLOORS = {
    "noencr-dcw": 18.0,
    "noencr-fnw": 17.0,
    "encr-dcw": 7.0,
    "encr-fnw": 13.0,
    "deuce": FLOOR_SPEEDUP,
    "dyndeuce": 6.0,
    "deuce+fnw": 7.0,
    "ble": 3.2,
    "ble+deuce": 4.0,
    "invmm": 7.0,
}


def _comparable(result) -> dict:
    """A result's full physics dict, minus timing and identity noise."""
    d = result.to_dict()
    d.pop("wall_time_s", None)
    d.pop("run_id", None)
    d.get("config", {}).pop("chunk_size", None)
    return d


def _best_of(config: SimConfig, repeats: int = REPEATS):
    """Fastest of ``repeats`` runs: ``(best wall seconds, a result)``."""
    best_s, best_r = None, None
    for _ in range(repeats):
        result = run(config)
        if best_s is None or result.wall_time_s < best_s:
            best_s, best_r = result.wall_time_s, result
    return best_s, best_r


def test_tracepath_throughput():
    per_scheme: dict[str, dict] = {}
    lines = []
    for scheme in SCHEMES:
        serial_cfg = SimConfig(
            WORKLOAD, scheme, n_writes=N_WRITES, seed=SEED, chunk_size=1
        )
        serial_s, serial_res = _best_of(serial_cfg)
        entry: dict = {
            "serial_s": round(serial_s, 6),
            "serial_writes_per_s": round(N_WRITES / serial_s),
            "chunked": {},
        }
        for chunk_size in CHUNK_SIZES:
            chunked_cfg = SimConfig(
                WORKLOAD,
                scheme,
                n_writes=N_WRITES,
                seed=SEED,
                chunk_size=chunk_size,
            )
            chunk_s, chunk_res = _best_of(chunked_cfg)
            # Parity oracle: every aggregate, histogram, and wear count
            # must match the scalar reference exactly.
            assert _comparable(chunk_res) == _comparable(serial_res), (
                f"{scheme} chunk_size={chunk_size} diverged from serial"
            )
            entry["chunked"][str(chunk_size)] = {
                "chunked_s": round(chunk_s, 6),
                "writes_per_s": round(N_WRITES / chunk_s),
                "speedup": round(serial_s / chunk_s, 2),
            }
        # Headline: the whole pinned trace as one chunk — the fully
        # trace-compiled path TARGET_SPEEDUP is set for.
        top = entry["chunked"][str(N_WRITES)]
        entry["writes_per_s"] = top["writes_per_s"]
        entry["speedup"] = top["speedup"]
        per_scheme[scheme] = entry
        chunk_cells = " | ".join(
            f"cs={cs} {entry['chunked'][str(cs)]['writes_per_s']:>7} w/s "
            f"({entry['chunked'][str(cs)]['speedup']:5.2f}x)"
            for cs in CHUNK_SIZES
        )
        lines.append(
            f"{scheme:>10}: serial {entry['serial_writes_per_s']:>6} w/s | "
            f"{chunk_cells}"
        )

    deuce = per_scheme["deuce"]
    data = {
        "bench": "tracepath",
        "workload": WORKLOAD,
        "n_writes": N_WRITES,
        "seed": SEED,
        "chunk_sizes": list(CHUNK_SIZES),
        "repeats": REPEATS,
        "schemes": per_scheme,
        "writes_per_s": deuce["writes_per_s"],
        "serial_writes_per_s": deuce["serial_writes_per_s"],
        "speedup": deuce["speedup"],
        "target_speedup": TARGET_SPEEDUP,
        "meets_target": deuce["speedup"] >= TARGET_SPEEDUP,
        "speedup_floors": SPEEDUP_FLOORS,
    }
    record("tracepath", "\n".join(lines), data=data)
    below = {
        scheme: per_scheme[scheme]["speedup"]
        for scheme, floor in SPEEDUP_FLOORS.items()
        if per_scheme[scheme]["speedup"] < floor
    }
    assert not below, f"whole-trace speedup below its floor: {below}"