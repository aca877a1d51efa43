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
        plain = line_matrix(data, self.line_bytes)
        self.table.install(addresses, plain, plain)

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._line(address)
        new = StoredLine(plaintext, make_meta(0), old.counter + 1)
        return self._commit(address, old, new)

    def read(self, address: int) -> bytes:
        return self._line(address).data

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized plaintext stores: the chunk diff IS the flip count."""
        m = len(addresses)
        if m == 0:
            return empty_batch()
        groups = group_by_address(addresses, data)
        starts = groups.starts
        table = self.table
        rows = table.rows(groups.unique_addresses)
        old_stored = table.stored[rows]
        counters = table.counters[rows][groups.group_id] + groups.rank + 1
        stored = groups.data
        prev_stored = previous_rows(stored, starts, old_stored)
        diffs = diff_stored_rows(prev_stored, stored, None, None)
        last_rows = groups.last_rows
        table.commit(rows, counters[last_rows], stored[last_rows], 0, None)
        return BatchOutcome(
            addresses=groups.addresses,
            words_reencrypted=np.zeros(m, dtype=np.int64),
            full_line_reencrypted=np.zeros(m, dtype=bool),
            epoch_reset=np.zeros(m, dtype=bool),
            mode_switched=np.zeros(m, dtype=bool),
            **diffs,
        )
