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
    previous_rows,
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
        addresses = np.asarray(addresses, dtype=np.int64)
        plain = np.asarray(data, dtype=np.uint8)
        if plain.ndim != 2 or plain.shape[1] != self.line_bytes:
            raise ValueError(
                f"lines must be (n, {self.line_bytes}), got {plain.shape}"
            )
        n = addresses.size
        pads = np.asarray(
            self.pads.line_pads_batch(
                addresses, np.zeros(n, dtype=np.int64), self.line_bytes
            )
        )
        stored = plain ^ pads
        stored.setflags(write=False)
        metas = np.zeros((n, 0), dtype=np.uint8)
        metas.setflags(write=False)
        from_parts = StoredLine.from_parts
        lines = self._lines
        for addr, s_row, m_row in zip(addresses.tolist(), stored, metas):
            lines[addr] = from_parts(s_row, m_row, 0)

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._lines[address]
        counter = old.counter + 1
        new = StoredLine(
            bitops.as_array(plaintext) ^ self._pad(address, counter),
            make_meta(0),
            counter,
        )
        self._lines[address] = new
        return self._outcome(
            address, old, new, full_line_reencrypted=True
        )

    def read(self, address: int) -> bytes:
        line = self._lines[address]
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
        counters_orig = np.empty(m, dtype=np.int64)
        counters_orig[groups.order] = counters
        pads = self.pads.line_pads_batch(
            np.asarray(addresses, dtype=np.int64),
            counters_orig,
            self.line_bytes,
        )
        stored = groups.data ^ np.asarray(pads)[groups.order]
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
            full_line_reencrypted=np.ones(m, dtype=bool),
            epoch_reset=np.zeros(m, dtype=bool),
            mode_switched=np.zeros(m, dtype=bool),
            **diffs,
        )
