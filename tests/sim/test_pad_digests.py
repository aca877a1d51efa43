"""Each pad a chunk needs is made once, and only pads it encrypts with.

The batch kernels of ``ble``, ``ble+deuce``, ``dyndeuce`` and
``deuce+fnw`` count their scalar request stream through the pad cache and
peek only the pads they encrypt with, taking the pre-chunk plaintext from
the line table's memo; ``invmm`` takes its sweep's pads in one
``line_pads_batch``.  A lane is one 64-byte BLAKE2 digest, keyed by
(address, counter, lane).  Within one ``write_batch`` no key may reach
the pad source twice, and every key a chunk hashes must be under a
counter one of the chunk's writes advances to: no pad is made only to
decrypt pre-chunk state.  ``dyndeuce`` and ``deuce+fnw`` make each key
once in a whole run.  Counting and making apart must still leave the
cache's hits and misses as the scalar path does.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import registry
from repro.crypto.pads import PAD_BLOCK_BYTES, Blake2PadSource
from repro.sim import runner as runner_module
from repro.sim.config import SimConfig
from repro.sim.runner import run

SCHEMES = ("ble", "ble+deuce", "dyndeuce", "deuce+fnw", "invmm")

#: Schemes whose run makes every (address, counter, lane) key once.
ONCE_PER_RUN = ("dyndeuce", "deuce+fnw")

#: 16-byte pad blocks per 64-byte BLAKE2 digest.
_PER_LANE = 64 // PAD_BLOCK_BYTES


class LaneRecorder:
    """A :class:`Blake2PadSource` that records the lanes it hashes.

    ``calls`` holds one set of (address, counter, lane) keys per call;
    BLAKE2 hashes each distinct lane of a call once.  ``made`` counts
    every key's digests over the recorder's life.
    """

    def __init__(self, inner: Blake2PadSource) -> None:
        self._inner = inner
        self.calls: list[set[tuple[int, int, int]]] = []
        self.made: Counter = Counter()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _record_lines(self, addresses, counters, n_bytes: int) -> None:
        lanes = range(-(-n_bytes // 64))
        self._record({
            (a, c, lane)
            for a, c in zip(np.asarray(addresses).tolist(),
                            np.asarray(counters).tolist())
            for lane in lanes
        })

    def _record_blocks(self, addresses, counters, blocks) -> None:
        self._record(set(zip(
            np.asarray(addresses).tolist(),
            np.asarray(counters).tolist(),
            (np.asarray(blocks) // _PER_LANE).tolist(),
        )))

    def _record(self, keys: set[tuple[int, int, int]]) -> None:
        self.calls.append(keys)
        self.made.update(keys)

    def line_pad_array(self, address, counter, n_bytes):
        self._record_lines([address], [counter], n_bytes)
        return self._inner.line_pad_array(address, counter, n_bytes)

    def pad_block(self, address, counter, block_index):
        self._record_blocks([address], [counter], [block_index])
        return self._inner.pad_block(address, counter, block_index)

    def line_pads_batch(self, addresses, counters, n_bytes):
        self._record_lines(addresses, counters, n_bytes)
        return self._inner.line_pads_batch(addresses, counters, n_bytes)

    peek_line_pads_batch = line_pads_batch

    def pad_blocks_batch(self, addresses, counters, blocks):
        self._record_blocks(addresses, counters, blocks)
        return self._inner.pad_blocks_batch(addresses, counters, blocks)

    peek_pad_blocks_batch = pad_blocks_batch


def _counters(scheme) -> dict[int, np.ndarray]:
    """Each line's counters: its line counter, or its block counters."""
    state = scheme.state_dict()
    columns = state.get(
        "extra/block_counters", state["lines/counters"][:, None]
    )
    return dict(zip(state["lines/addresses"].tolist(), columns))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_lane_is_hashed_twice_in_a_chunk(scheme, monkeypatch):
    recorders: list[LaneRecorder] = []

    def make_pad_source(kind, key):
        recorders.append(LaneRecorder(Blake2PadSource(key)))
        return recorders[-1]

    monkeypatch.setattr(runner_module, "make_pad_source", make_pad_source)
    cls = registry.SCHEMES.get(scheme).factory
    write_batch = cls.write_batch
    repeats: list[int] = []
    decrypt_only: list[set] = []
    chunks = []

    def checked_write_batch(self, addresses, data):
        recorder = recorders[-1]
        recorder.calls.clear()
        before = _counters(self)
        out = write_batch(self, addresses, data)
        after = _counters(self)
        seen = Counter(key for call in recorder.calls for key in call)
        repeats.append(sum(n > 1 for n in seen.values()))
        # A made key must be under a counter the chunk advanced to.
        decrypt_only.append({
            (a, c) for a, c, _ in seen
            if not ((before[a] < c) & (c <= after[a])).any()
        })
        chunks.append(len(seen))
        return out

    monkeypatch.setattr(cls, "write_batch", checked_write_batch)
    config = dict(workload="Gems", scheme=scheme, n_writes=2000, seed=0)
    chunked = run(SimConfig(**config, chunk_size=512))
    assert len(chunks) == 4 and min(chunks) > 0
    assert repeats == [0] * len(chunks)
    assert decrypt_only == [set()] * len(chunks)
    if scheme in ONCE_PER_RUN:
        assert max(recorders[-1].made.values()) == 1

    monkeypatch.undo()
    serial = run(SimConfig(**config, chunk_size=1))
    assert (chunked.pad_hits, chunked.pad_misses) == (
        serial.pad_hits, serial.pad_misses
    )
    assert chunked.total_flips == serial.total_flips
