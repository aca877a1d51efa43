"""DEUCE+FNW — dedicated storage for both techniques (section 4.7, Table 3).

The paper's upper-bound configuration: the line carries DEUCE's 32 modified
bits *and* FNW's 32 flip bits (64 bits total).  DEUCE decides which words get
re-encrypted; FNW then stores each re-encrypted group plain or inverted,
whichever is closer to the cells' current contents.  Words DEUCE leaves
untouched are never inverted (inverting them could only add flips), so they
contribute zero flips just as in plain DEUCE.
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
    count_pads,
    deuce_images,
    diff_stored_rows,
    empty_batch,
    expand_groups,
    fnw_encode_runs,
    group_by_address,
    initial_ciphertext,
    line_matrix,
    modified_bits,
    previous_rows,
)
from repro.schemes.deuce import _check_epoch_interval
from repro.schemes.fnw import FnwCodec


class DeuceFnw(WriteScheme):
    """DEUCE layered with Flip-N-Write, each with dedicated metadata.

    Metadata layout: ``meta[0:n_words]`` are DEUCE modified bits,
    ``meta[n_words:]`` are FNW flip bits (one per FNW group).
    """

    name = "deuce+fnw"

    keeps_plain = True

    config_fields = {
        "line_bytes": "line_bytes",
        "word_bytes": "word_bytes",
        "epoch_interval": "epoch_interval",
        "fnw_group_bits": "fnw_group_bits",
    }

    def __init__(
        self,
        pads: PadSource,
        line_bytes: int = 64,
        word_bytes: int = 2,
        epoch_interval: int = 32,
        fnw_group_bits: int = 16,
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
        self.codec = FnwCodec(line_bytes, fnw_group_bits)

    @property
    def metadata_bits_per_line(self) -> int:
        return self.n_words + self.codec.n_groups  # 64 for the defaults

    # -- metadata accessors ---------------------------------------------------

    def _modified(self, meta: np.ndarray) -> np.ndarray:
        return meta[: self.n_words]

    def _flip_bits(self, meta: np.ndarray) -> np.ndarray:
        return meta[self.n_words:]

    def _make_meta(
        self, modified: np.ndarray, flip_bits: np.ndarray
    ) -> np.ndarray:
        return np.concatenate([modified, flip_bits]).astype(np.uint8)

    # -- pads -------------------------------------------------------------------

    def _pad(self, address: int, counter: int) -> np.ndarray:
        return self.pads.line_pad_array(address, counter, self.line_bytes)

    def _mixed_pad(
        self, address: int, counter: int, modified: np.ndarray
    ) -> np.ndarray:
        tctr = counter & self._epoch_mask
        if counter == tctr or not modified.any():
            return self._pad(address, counter if counter == tctr else tctr)
        return mix_pads_array(
            self._pad(address, counter),
            self._pad(address, tctr),
            modified,
            self.word_bytes,
        )

    # -- lifecycle ----------------------------------------------------------------

    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        stored = bitops.as_array(plaintext) ^ self._pad(address, 0)
        meta = self._make_meta(
            np.zeros(self.n_words, dtype=np.uint8),
            self.codec.fresh_flip_bits(),
        )
        return StoredLine(stored, meta, 0)

    def install_batch(self, addresses, data) -> None:
        """Vectorized initial encryption: one pad batch for the working set."""
        self.table.install(
            addresses,
            line_matrix(data, self.line_bytes),
            initial_ciphertext(self.pads, addresses, data, self.line_bytes),
        )

    def _read_array(self, address: int) -> np.ndarray:
        line = self._line(address)
        ciphertext = self.codec.decode_array(
            line.arr, self._flip_bits(line.meta)
        )
        pad = self._mixed_pad(address, line.counter, self._modified(line.meta))
        return ciphertext ^ pad

    def read(self, address: int) -> bytes:
        return bitops.to_bytes(self._read_array(address))

    # -- write path ------------------------------------------------------------------

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._line(address)
        old_plain = self._read_array(address)
        new_plain = bitops.as_array(plaintext)
        counter = old.counter + 1

        if counter % self.epoch_interval == 0:
            modified = np.zeros(self.n_words, dtype=np.uint8)
            full = True
        else:
            newly = bitops.changed_words_array(
                old_plain, new_plain, self.word_bytes
            )
            modified = self._modified(old.meta).copy()
            modified[newly] = 1
            full = False

        ciphertext = new_plain ^ self._mixed_pad(address, counter, modified)
        stored, flip_bits = self.codec.encode_array(
            old.arr, self._flip_bits(old.meta), ciphertext
        )
        new = StoredLine(stored, self._make_meta(modified, flip_bits), counter)
        n_reenc = self.n_words if full else int(modified.sum())
        return self._commit(
            address,
            old,
            new,
            words_reencrypted=n_reenc,
            full_line_reencrypted=full,
            epoch_reset=full,
            mode="deuce+fnw",
        )

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized DEUCE+FNW over a chunk.

        The modified bits are DEUCE's segmented cumulative OR with epoch
        resets; the FNW flip bits run on across epochs, encoded for every
        line's run at once by :func:`fnw_encode_runs`.  Each write reads
        before it writes: its pad requests are the read's mixed pad for
        the old state, then the write's for the new one, counted through
        the pad source in trace order.  The pre-chunk plaintext comes from
        the table's memo and an unmodified word's ciphertext from the
        cells (:func:`deuce_images`), so the only pads made are each
        write's leading pad, peeked without cache bookkeeping.
        Bit-identical to sequential :meth:`write` calls, pad-cache
        statistics included.
        """
        m = len(addresses)
        if m == 0:
            return empty_batch()
        nw, wb, lb = self.n_words, self.word_bytes, self.line_bytes
        groups = group_by_address(addresses, data)
        starts, s_data = groups.starts, groups.data
        table = self.table
        rows = table.rows(groups.unique_addresses)
        old_stored, old_meta = table.stored[rows], table.meta[rows]
        old_mod, old_flips = old_meta[:, :nw], old_meta[:, nw:]
        counters = table.counters[rows][groups.group_id] + groups.rank + 1
        epoch = (counters & (self.epoch_interval - 1)) == 0

        prev_plain = previous_rows(s_data, starts, table.plain[rows])
        modified = modified_bits(
            changed_words(prev_plain, s_data, wb), starts, old_mod, epoch
        )
        mod_u8 = modified.view(np.uint8)
        prev_mod = previous_rows(mod_u8, starts, old_mod)

        # Per write: [LCTR?, TCTR] for the read, then for the write.  The
        # LCTR pad is requested only off an epoch boundary with some word
        # modified; at a boundary the TCTR pad is the LCTR pad.
        old_counters = counters - 1
        ctr_slots = np.stack(
            [
                old_counters,
                old_counters & self._epoch_mask,
                counters,
                counters & self._epoch_mask,
            ],
            axis=1,
        )
        used = np.ones((m, 4), dtype=bool)
        used[:, 0] = ((old_counters & (self.epoch_interval - 1)) != 0) & (
            prev_mod.any(axis=1)
        )
        used[:, 2] = ~epoch & modified.any(axis=1)
        count_pads(self.pads, groups, ctr_slots, used, lb)
        targets = deuce_images(
            groups,
            old_stored ^ expand_groups(old_flips, self.codec.group_bytes),
            s_data ^ self.pads.peek_line_pads_batch(
                groups.addresses, counters, lb
            ),
            modified,
            epoch,
            wb,
        )

        stored, flips = fnw_encode_runs(
            targets, starts, old_stored, old_flips, self.codec.group_bits
        )
        meta = np.concatenate([mod_u8, flips], axis=1)
        diffs = diff_stored_rows(
            previous_rows(stored, starts, old_stored),
            stored,
            previous_rows(meta, starts, old_meta),
            meta,
        )
        last_rows = groups.last_rows
        table.commit(
            rows,
            counters[last_rows],
            stored[last_rows],
            meta[last_rows],
            s_data[last_rows],
        )
        return BatchOutcome(
            addresses=groups.addresses,
            words_reencrypted=np.where(
                epoch, nw, modified.sum(axis=1, dtype=np.int64)
            ),
            full_line_reencrypted=epoch,
            epoch_reset=epoch,
            mode_switched=np.zeros(m, dtype=bool),
            mode_counts={"deuce+fnw": m},
            **diffs,
        )
