"""The controller and ``run()`` share one physics path.

:class:`SecureMemoryController` writes through the runner's
``chunk_size=1`` step (scheme write, one-row batch, leveler rotations,
``apply_batch_diffs``).  Hypothesis drives random traces with sparse
addresses and a small gap interval through both: fed its initial lines in
sorted address order and then the writes, the controller must equal
``run()`` on the same trace in flips, slots and per-bit wear, for every
scheme and wear leveler.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.memory.controller import SecureMemoryController
from repro.schemes import SCHEME_NAMES
from repro.sim.config import SimConfig
from repro.sim.runner import run
from repro.workloads.generator import WriteRecord
from repro.workloads.trace import Trace

KEY = b"parity-test-key!"
LINE = 64
LEVELERS = ("none", "hwl", "hwl-hashed", "sr-hwl")


def random_trace(seed: int, n_lines: int, n_writes: int) -> Trace:
    """Lines at sparse addresses; each write changes a few bytes."""
    rng = np.random.default_rng(seed)
    addresses = (rng.choice(1 << 20, size=n_lines, replace=False) * LINE).tolist()
    lines = {a: rng.integers(0, 256, LINE, dtype=np.uint8) for a in addresses}
    initial = {a: line.tobytes() for a, line in lines.items()}
    records = []
    for _ in range(n_writes):
        address = addresses[int(rng.integers(n_lines))]
        line = lines[address]
        where = rng.integers(0, LINE, int(rng.integers(1, 5)))
        line[where] ^= rng.integers(1, 256, where.size, dtype=np.uint8)
        records.append(WriteRecord(address, line.tobytes()))
    return Trace("mcf", seed, LINE, initial, records)


@given(
    scheme=st.sampled_from(SCHEME_NAMES),
    leveling=st.sampled_from(LEVELERS),
    seed=st.integers(0, 2**32 - 1),
    n_lines=st.integers(1, 24),
    n_writes=st.integers(1, 120),
    region_log2=st.integers(1, 4),
    gap_write_interval=st.integers(1, 5),
)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_controller_matches_run(
    scheme, leveling, seed, n_lines, n_writes, region_log2,
    gap_write_interval,
):
    region = 1 << region_log2
    trace = random_trace(seed, n_lines, n_writes)
    result = run(
        SimConfig(
            "mcf", scheme, n_writes=n_writes, key=KEY, epoch_interval=4,
            wear_leveling=leveling, hwl_region_lines=region,
            gap_write_interval=gap_write_interval,
        ),
        trace=trace,
    )
    mc = SecureMemoryController(
        scheme=scheme, key=KEY, epoch_interval=4, wear_leveling=leveling,
        region_lines=region, gap_write_interval=gap_write_interval,
    )
    for address in sorted(trace.initial):
        mc.write(address, trace.initial[address])
    for record in trace.records:
        mc.write(record.address, record.data)

    wear = mc.wear_summary()
    assert mc.stats.writes == n_writes
    assert mc.stats.total_flips == result.total_flips
    assert mc.stats.total_slots == result.total_slots
    assert wear.total_writes == result.wear.total_writes
    assert np.array_equal(wear.position_writes, result.wear.position_writes)
