"""Full-line counter-mode encryption — the paper's "Encr" baseline.

Every writeback increments the per-line counter and re-encrypts the whole
line with the fresh pad (Figure 4).  The avalanche effect then makes ~50% of
the stored bits differ from the previous ciphertext regardless of how little
the plaintext changed — exactly the write overhead DEUCE attacks.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.pads import PadSource
from repro.memory import bitops
from repro.memory.line import StoredLine, make_meta
from repro.schemes.base import WriteOutcome, WriteScheme
from repro.schemes.batch import (
    BatchOutcome,
    diff_stored_rows,
    empty_batch,
    group_by_address,
    initial_ciphertext,
    line_matrix,
    previous_rows,
    to_trace_order,
)


class EncryptedDCW(WriteScheme):
    """Counter-mode encryption with data-comparison writes ("Encr DCW").

    DCW still applies at the cell level (unchanged ciphertext bits are not
    reprogrammed), but since a fresh pad randomizes the ciphertext, about
    half the bits flip on every write.
    """

    name = "encr-dcw"

    def __init__(self, pads: PadSource, line_bytes: int = 64) -> None:
        super().__init__(line_bytes)
        self.pads = pads

    @property
    def metadata_bits_per_line(self) -> int:
        return 0

    def _pad(self, address: int, counter: int) -> np.ndarray:
        return self.pads.line_pad_array(address, counter, self.line_bytes)

    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        stored = bitops.as_array(plaintext) ^ self._pad(address, 0)
        return StoredLine(stored, make_meta(0), 0)

    def install_batch(self, addresses, data) -> None:
        """Vectorized initial encryption: one pad batch for the working set."""
        self.table.install(
            addresses,
            line_matrix(data, self.line_bytes),
            initial_ciphertext(self.pads, addresses, data, self.line_bytes),
        )

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._line(address)
        counter = old.counter + 1
        new = StoredLine(
            bitops.as_array(plaintext) ^ self._pad(address, counter),
            make_meta(0),
            counter,
        )
        return self._commit(
            address, old, new, full_line_reencrypted=True
        )

    def read(self, address: int) -> bytes:
        line = self._line(address)
        return bitops.to_bytes(line.arr ^ self._pad(address, line.counter))

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized full-line re-encryption over a chunk.

        Every write takes a fresh counter, so the whole chunk's keystream
        is one wide pad call; stored images are a single XOR and flips a
        consecutive-row diff.  Bit-identical to sequential writes.
        """
        m = len(addresses)
        if m == 0:
            return empty_batch()
        groups = group_by_address(addresses, data)
        starts = groups.starts
        table = self.table
        rows = table.rows(groups.unique_addresses)
        old_stored = table.stored[rows]
        counters = table.counters[rows][groups.group_id] + groups.rank + 1
        pads = self.pads.line_pads_batch(
            np.asarray(addresses, dtype=np.int64),
            to_trace_order(groups, counters),
            self.line_bytes,
        )
        stored = groups.data ^ np.asarray(pads)[groups.order]
        prev_stored = previous_rows(stored, starts, old_stored)
        diffs = diff_stored_rows(prev_stored, stored, None, None)
        last_rows = groups.last_rows
        table.commit(rows, counters[last_rows], stored[last_rows], 0, None)
        return BatchOutcome(
            addresses=groups.addresses,
            words_reencrypted=np.zeros(m, dtype=np.int64),
            full_line_reencrypted=np.ones(m, dtype=bool),
            epoch_reset=np.zeros(m, dtype=bool),
            mode_switched=np.zeros(m, dtype=bool),
            **diffs,
        )
