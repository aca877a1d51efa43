"""DEUCE — Dual Counter Encryption (paper section 4).

DEUCE keeps one physical per-line counter but derives two *virtual* counters
from it:

* **LCTR** (leading counter): the line counter itself, incremented on every
  write.
* **TCTR** (trailing counter): LCTR with the ``log2(epoch_interval)`` least
  significant bits masked off.  It therefore equals LCTR once every
  ``epoch_interval`` writes — the start of an *epoch* — and is frozen in
  between.

Each tracked word carries one *modified bit*.  At an epoch start the whole
line is re-encrypted with the fresh counter and all modified bits reset.  In
between, a write re-encrypts (with LCTR) exactly the words whose modified bit
is set — words written at least once this epoch — while untouched words keep
their TCTR-encrypted image in the cells, contributing zero flips.

Decryption (Figure 7) generates both pads and muxes per word on the modified
bit.  Security (section 4.3.5): a pad value is only ever XORed with data when
the counter is fresh, so no pad is reused with different data; the
pad-uniqueness auditor in :mod:`repro.security.invariants` checks this
mechanically.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.ctr import mix_pads_array
from repro.crypto.pads import PadSource
from repro.memory import bitops
from repro.memory.line import StoredLine
from repro.schemes.base import WriteOutcome, WriteScheme
from repro.schemes.batch import (
    BatchOutcome,
    changed_words,
    deuce_images,
    diff_stored_rows,
    empty_batch,
    group_by_address,
    initial_ciphertext,
    line_matrix,
    modified_bits,
    previous_rows,
    to_trace_order,
)


def _check_epoch_interval(epoch_interval: int) -> int:
    if epoch_interval < 2 or epoch_interval & (epoch_interval - 1):
        raise ValueError(
            "epoch_interval must be a power of two >= 2 (LSB masking), got "
            f"{epoch_interval}"
        )
    return epoch_interval


class Deuce(WriteScheme):
    """Dual Counter Encryption.

    Parameters
    ----------
    pads:
        Counter-mode pad source.
    line_bytes:
        Cache-line size (64).
    word_bytes:
        Tracking granularity; the paper's default is 2 bytes (32 modified
        bits per 64-byte line).  Section 4.4 sweeps 1/2/4/8.
    epoch_interval:
        Writes between full-line re-encryptions; power of two.  The paper's
        default is 32 (section 4.5 sweeps 8/16/32).
    """

    name = "deuce"

    keeps_plain = True

    config_fields = {
        "line_bytes": "line_bytes",
        "word_bytes": "word_bytes",
        "epoch_interval": "epoch_interval",
    }

    def __init__(
        self,
        pads: PadSource,
        line_bytes: int = 64,
        word_bytes: int = 2,
        epoch_interval: int = 32,
    ) -> None:
        super().__init__(line_bytes)
        if word_bytes <= 0 or line_bytes % word_bytes != 0:
            raise ValueError(
                f"word_bytes={word_bytes} must divide line_bytes={line_bytes}"
            )
        self.pads = pads
        self.word_bytes = word_bytes
        self.n_words = line_bytes // word_bytes
        self.epoch_interval = _check_epoch_interval(epoch_interval)
        self._epoch_mask = ~(epoch_interval - 1)

    # -- counters -----------------------------------------------------------

    def leading_counter(self, line: StoredLine) -> int:
        return line.counter

    def trailing_counter(self, line: StoredLine) -> int:
        return line.counter & self._epoch_mask

    @property
    def metadata_bits_per_line(self) -> int:
        return self.n_words

    # -- pads ----------------------------------------------------------------

    def _pad(self, address: int, counter: int) -> np.ndarray:
        """The full-line pad for (address, counter) as a uint8 array."""
        return self.pads.line_pad_array(address, counter, self.line_bytes)

    def _effective_pad(self, address: int, line: StoredLine) -> np.ndarray:
        """The per-word-muxed pad for the line's current state (Figure 7)."""
        lctr = self.leading_counter(line)
        tctr = self.trailing_counter(line)
        if lctr == tctr or not line.meta.any():
            return self._pad(address, lctr if lctr == tctr else tctr)
        return mix_pads_array(
            self._pad(address, lctr),
            self._pad(address, tctr),
            line.meta,
            self.word_bytes,
        )

    # -- checkpointing -------------------------------------------------------

    def _extra_state(self) -> dict[str, object]:
        # The plaintext memo, which spares the write path the
        # read-before-write (4.3.2), is part of DEUCE's checkpoint.
        table = self.table
        return {
            "plain_addresses": table.addresses[: table.n].copy(),
            "plain_data": table.plain[: table.n].copy(),
        }

    def _load_extra_state(self, extra: dict[str, object]) -> None:
        table = self.table
        rows = table.rows(np.asarray(extra["plain_addresses"], dtype=np.int64))
        table.plain[rows] = np.asarray(extra["plain_data"], dtype=np.uint8)

    def _load_plain(self) -> None:
        """Nothing to rebuild: the checkpoint holds the memo."""

    # -- lifecycle -----------------------------------------------------------

    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        stored = bitops.as_array(plaintext) ^ self._pad(address, 0)
        return StoredLine(stored, np.zeros(self.n_words, dtype=np.uint8), 0)

    def install_batch(self, addresses, data) -> None:
        """Vectorized initial encryption: one pad batch for the working set."""
        self.table.install(
            addresses,
            line_matrix(data, self.line_bytes),
            initial_ciphertext(self.pads, addresses, data, self.line_bytes),
        )

    def read(self, address: int) -> bytes:
        line = self._line(address)
        return bitops.to_bytes(line.arr ^ self._effective_pad(address, line))

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        table = self.table
        row = table.index[address]
        old = table.line(row)
        # The read-before-write of 4.3.2, from the plaintext memo.
        old_plain = table.plain[row]
        counter = old.counter + 1
        new_plain = bitops.as_array(plaintext)

        if counter % self.epoch_interval == 0:
            new = self._epoch_write(address, new_plain, counter)
            n_reenc, full = self.n_words, True
        else:
            new, n_reenc = self._partial_write(
                address, old, old_plain, new_plain, counter
            )
            full = False
        return self._commit(
            address,
            old,
            new,
            words_reencrypted=n_reenc,
            full_line_reencrypted=full,
            epoch_reset=full,
            mode="deuce",
        )

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized DEUCE over a whole trace chunk.

        The chunk is stable-sorted by address so each line's writes form
        one contiguous run with counters ``c0 + 1 .. c0 + k``.  Epoch
        writes (``counter % epoch_interval == 0``) reset the modified bits,
        so the per-word meta evolution is a *segmented* cumulative OR of
        the changed-word matrix — segments start at each run's first row
        and immediately after every epoch write, and the OR is computed for
        all words of all writes at once via a cumulative-sum difference.
        Stored images follow from the meta: a word's bytes come from the
        fresh LCTR re-encryption when its modified bit is set, otherwise
        from the segment's base image (the pre-chunk cells, or the last
        epoch write's full re-encryption).  Flips are then one wide XOR +
        popcount over consecutive stored images.  Bit-identical to ``m``
        sequential :meth:`write` calls, including pad-cache statistics
        (pads are requested in original trace order).
        """
        m = len(addresses)
        if m == 0:
            return empty_batch()
        groups = group_by_address(addresses, data)
        s_data = groups.data
        starts = groups.starts
        line_bytes, n_words, word_bytes = (
            self.line_bytes, self.n_words, self.word_bytes
        )

        # Pre-chunk state per line: fancy-index gathers from the table.
        table = self.table
        rows = table.rows(groups.unique_addresses)
        base_counters = table.counters[rows]
        old_stored = table.stored[rows]
        old_meta = table.meta[rows]
        old_plain = table.plain[rows]

        counters = base_counters[groups.group_id] + groups.rank + 1
        epoch = (counters & (self.epoch_interval - 1)) == 0

        # Pads are fetched in original trace order so the LRU cache sees the
        # identical request stream as the per-write path.
        pads = self.pads.line_pads_batch(
            np.asarray(addresses, dtype=np.int64),
            to_trace_order(groups, counters),
            line_bytes,
        )
        pads_sorted = np.ascontiguousarray(np.asarray(pads)[groups.order])

        # Changed words vs the previous plaintext in the run, folded into
        # the modified bits with a reset after every epoch write.
        prev_plain = previous_rows(s_data, starts, old_plain)
        meta = modified_bits(
            changed_words(prev_plain, s_data, word_bytes), starts, old_meta,
            epoch,
        )
        meta_u8 = meta.astype(np.uint8)
        words_reencrypted = np.where(
            epoch, n_words, meta.sum(axis=1, dtype=np.int64)
        )

        stored = deuce_images(
            groups, old_stored, s_data ^ pads_sorted, meta, epoch, word_bytes
        )
        prev_stored = previous_rows(stored, starts, old_stored)
        prev_meta = previous_rows(meta_u8, starts, old_meta)
        diffs = diff_stored_rows(prev_stored, stored, prev_meta, meta_u8)

        last_rows = groups.last_rows
        table.commit(
            rows,
            counters[last_rows],
            stored[last_rows],
            meta_u8[last_rows],
            s_data[last_rows],
        )

        return BatchOutcome(
            addresses=groups.addresses,
            words_reencrypted=words_reencrypted.astype(np.int64, copy=False),
            full_line_reencrypted=epoch,
            epoch_reset=epoch,
            mode_switched=np.zeros(m, dtype=bool),
            mode_counts={"deuce": m},
            **diffs,
        )

    def _epoch_write(
        self, address: int, new_plain: np.ndarray, counter: int
    ) -> StoredLine:
        """Epoch start: full re-encryption, modified bits reset."""
        stored = new_plain ^ self._pad(address, counter)
        return StoredLine(stored, np.zeros(self.n_words, dtype=np.uint8), counter)

    def _partial_write(
        self,
        address: int,
        old: StoredLine,
        old_plain: np.ndarray,
        new_plain: np.ndarray,
        counter: int,
    ) -> tuple[StoredLine, int]:
        """Mid-epoch write: re-encrypt the epoch's modified-word set.

        Words outside the modified set keep their TCTR-encrypted cell image
        byte-for-byte (mid-epoch, the trailing counter is unchanged and so
        is their data), so only the leading-counter pad is ever generated —
        the stored image is the old one with the modified words overwritten
        by ``plaintext ^ LCTR-pad``.
        """
        reenc = new_plain ^ self._pad(address, counter)
        dtype = bitops.WORD_DTYPES.get(self.word_bytes)
        if dtype is not None and old.arr.flags.c_contiguous:
            # Wide-dtype fast path: word compare, meta merge, and stored-word
            # selection each as one whole-word operation.
            changed = old_plain.view(dtype) != new_plain.view(dtype)
            meta = old.meta | changed
            stored = np.where(
                meta.view(np.bool_), reenc.view(dtype), old.arr.view(dtype)
            ).view(np.uint8)
        else:
            newly_modified = bitops.changed_words_array(
                old_plain, new_plain, self.word_bytes
            )
            meta = old.meta.copy()
            meta[newly_modified] = 1
            byte_mask = np.repeat(meta.view(np.bool_), self.word_bytes)
            stored = np.where(byte_mask, reenc, old.arr)
        return StoredLine(stored, meta, counter), int(np.count_nonzero(meta))
