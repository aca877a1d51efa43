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
    commit_lines,
    diff_stored_rows,
    empty_batch,
    gather_lines,
    group_by_address,
    install_lines,
    line_matrix,
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
        install_lines(
            self._lines, addresses, line_matrix(data, self.line_bytes).copy(), 0
        )

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
        base_counters, old_stored, _ = gather_lines(
            self._lines, groups.unique_addresses, self.line_bytes, 0
        )
        counters = base_counters[groups.group_id] + groups.rank + 1
        stored = groups.data
        prev_stored = previous_rows(stored, starts, old_stored)
        diffs = diff_stored_rows(prev_stored, stored, None, None)
        last_rows = groups.last_rows
        commit_lines(
            self._lines,
            groups.unique_addresses,
            stored[last_rows],
            np.zeros((last_rows.size, 0), dtype=np.uint8),
            counters[last_rows],
        )
        return BatchOutcome(
            addresses=groups.addresses,
            words_reencrypted=np.zeros(m, dtype=np.int64),
            full_line_reencrypted=np.zeros(m, dtype=bool),
            epoch_reset=np.zeros(m, dtype=bool),
            mode_switched=np.zeros(m, dtype=bool),
            **diffs,
        )
