"""How fast the host runs right now, from a fixed reference kernel.

On a shared host the same op can take twice as long for minutes at a
time while a neighbour is busy, and CPU time grows with wall time, so no
estimator inside one run removes it.  A *slice* is a fixed amount of work
shaped like the simulator's inner loop: small numpy ops on 64-byte lines,
a keyed BLAKE2 pad, a dict update and Python integer arithmetic.  It uses
nothing from ``repro``, so a change to the simulator cannot move it.

An interval's *normalized* time keeps the seconds it spent waiting (on
disk, sleeps, the scheduler) and scales the CPU seconds it spent by
``REF_SLICE_S`` over the mean of a slice timed just before and one just
after it: the seconds the interval would have taken on the reference host
at its quiet speed.  Slowdowns that hit the work and its slices alike
cancel.  :func:`pin` keeps the benchmark's processes on one CPU, so that
the slices and the work they scale run on the same one.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np

#: Seconds one slice takes on the reference host (2-vCPU Xeon VM,
#: Python 3.11) when it is quiet: the scale of normalized times.  Busy
#: spells there read 4.5-9 ms.
REF_SLICE_S = 0.0037

#: Loop iterations in one slice.
SLICE_ITERS = 1000

_rng = np.random.default_rng(12345)
_LINES = _rng.integers(0, 256, size=(256, 64), dtype=np.uint8)
_WIDE = _rng.integers(0, 2**63, size=4096, dtype=np.uint64)
_KEY = bytes(range(32))


def _slice() -> int:
    table: dict[int, int] = {}
    acc = 0
    prev = _LINES[0]
    for i in range(SLICE_ITERS):
        cur = _LINES[(i * 7) & 255]
        acc += int(np.unpackbits(prev ^ cur).sum())
        pad = hashlib.blake2b(
            i.to_bytes(8, "little"), key=_KEY, digest_size=16
        ).digest()
        key = (acc ^ pad[0]) % 997
        table[key] = table.get(key, 0) + 1
        prev = cur
    wide = np.bitwise_xor(_WIDE, np.uint64(acc))
    return acc + len(table) + int(np.count_nonzero(wide & np.uint64(1)))


def slice_s() -> float:
    """Wall seconds of one reference slice."""
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


def normalize(wall: float, cpu: float, before: float, after: float) -> float:
    """``wall`` seconds, ``cpu`` of them on a CPU, at reference speed."""
    cpu = min(cpu, wall)
    return wall - cpu + cpu * 2.0 * REF_SLICE_S / (before + after)


def cpu_clock(pid: int) -> int:
    """The ``clock_gettime`` id of process ``pid``'s CPU time (Linux)."""
    return ((~pid) << 3) | 2


def pin() -> None:
    """Keep this process and the children it starts on one CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Bracket:
    """Reference slices around a sequence of ops, one thread's.

    Construct it just before the first op; call :meth:`normalize` right
    after each op.  ``slices`` keeps every slice time.
    """

    def __init__(self) -> None:
        self.slices = [slice_s()]

    def normalize(self, wall: float, cpu: float) -> float:
        """The op's normalized seconds; times the slice that follows it."""
        after = slice_s()
        before = self.slices[-1]
        self.slices.append(after)
        return normalize(wall, cpu, before, after)
