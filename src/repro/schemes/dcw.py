"""Data Comparison Write (DCW) on unencrypted memory.

DCW [Zhou et al., ISCA'09] is the paper's unencrypted baseline: the memory
reads the line before writing and only programs cells whose value changes.
In this codebase DCW is implicit in how :class:`~repro.schemes.base
.WriteScheme` counts flips (old vs new stored image), so the scheme itself is
the simplest possible one — store the plaintext as-is.
"""

from __future__ import annotations

import numpy as np

from repro.memory.line import StoredLine, make_meta
from repro.schemes.base import WriteOutcome, WriteScheme
from repro.schemes.batch import (
    BatchOutcome,
    diff_stored_rows,
    empty_batch,
    group_by_address,
    previous_rows,
)


class PlainDCW(WriteScheme):
    """Unencrypted memory with data-comparison writes (paper's "NoEncr DCW")."""

    name = "noencr-dcw"

    requires_pads = False

    @property
    def metadata_bits_per_line(self) -> int:
        return 0

    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        return StoredLine(plaintext, make_meta(0))

    def install_batch(self, addresses, data) -> None:
        """Bulk plaintext placement (no pads to fetch, just line images)."""
        addresses = np.asarray(addresses, dtype=np.int64)
        stored = np.array(data, dtype=np.uint8)
        if stored.ndim != 2 or stored.shape[1] != self.line_bytes:
            raise ValueError(
                f"lines must be (n, {self.line_bytes}), got {stored.shape}"
            )
        stored.setflags(write=False)
        metas = np.zeros((addresses.size, 0), dtype=np.uint8)
        metas.setflags(write=False)
        from_parts = StoredLine.from_parts
        lines = self._lines
        for addr, s_row, m_row in zip(addresses.tolist(), stored, metas):
            lines[addr] = from_parts(s_row, m_row, 0)

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._lines[address]
        new = StoredLine(plaintext, make_meta(0), old.counter + 1)
        self._lines[address] = new
        return self._outcome(address, old, new)

    def read(self, address: int) -> bytes:
        return self._lines[address].data

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized plaintext stores: the chunk diff IS the flip count."""
        m = len(addresses)
        if m == 0:
            return empty_batch()
        groups = group_by_address(addresses, data)
        starts = groups.starts
        lines_get = self._lines.get
        ctr_list: list[int] = []
        stored_rows: list[np.ndarray] = []
        for addr in groups.unique_addresses.tolist():
            line = lines_get(addr)
            if line is None:
                raise KeyError(
                    f"line {addr:#x} was never installed; call install() first"
                )
            ctr_list.append(line.counter)
            stored_rows.append(line.arr)
        base_counters = np.asarray(ctr_list, dtype=np.int64)
        old_stored = np.concatenate(stored_rows).reshape(
            starts.size, self.line_bytes
        )
        counters = base_counters[groups.group_id] + groups.rank + 1
        stored = groups.data
        prev_stored = previous_rows(stored, starts, old_stored)
        diffs = diff_stored_rows(prev_stored, stored, None, None)
        # Bulk commit: one fancy-index copies every final row; lines hold
        # views into the small per-group buffer, not the chunk arrays.
        last_rows = groups.last_rows
        final_stored = stored[last_rows]
        final_stored.setflags(write=False)
        final_counters = counters[last_rows].tolist()
        metas = np.zeros((last_rows.size, 0), dtype=np.uint8)
        metas.setflags(write=False)
        from_parts = StoredLine.from_parts
        lines = self._lines
        for addr, s_row, m_row, ctr in zip(
            groups.unique_addresses.tolist(), final_stored, metas, final_counters
        ):
            lines[addr] = from_parts(s_row, m_row, ctr)
        return BatchOutcome(
            addresses=groups.addresses,
            words_reencrypted=np.zeros(m, dtype=np.int64),
            full_line_reencrypted=np.zeros(m, dtype=bool),
            epoch_reset=np.zeros(m, dtype=bool),
            mode_switched=np.zeros(m, dtype=bool),
            **diffs,
        )
