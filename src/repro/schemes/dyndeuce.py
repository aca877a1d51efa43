"""DynDEUCE — dynamically morphing between DEUCE and FNW (section 4.6).

Dense writers (the paper calls out Gems and soplex) modify most words of a
line on every write, making DEUCE re-encrypt everything — 50% flips — where
plain Flip-N-Write on the ciphertext would at least cap flips near 43%.
DynDEUCE gets the better of both with only **one extra mode bit per line**:
the 32 tracking bits are *modified bits* while the line operates as DEUCE and
are repurposed as FNW *flip bits* once the line morphs.

Rules (Figure 11):

* At every epoch start the mode returns to DEUCE (full re-encryption,
  tracking bits reset) — morphing FNW→DEUCE mid-epoch is impossible because
  the epoch's modified-word history is gone.
* On each mid-epoch write while in DEUCE mode, the controller computes the
  exact bit flips of both candidates — continue as DEUCE, or re-encrypt the
  whole line and FNW-encode it — and switches to FNW iff it is strictly
  cheaper (counting the mode-bit flip itself).
* Once in FNW mode, the line stays FNW until the next epoch.
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
    fnw_encode_runs,
    group_by_address,
    initial_ciphertext,
    line_matrix,
    modified_bits,
    previous_rows,
    row_popcounts,
    segment_begins,
)
from repro.schemes.deuce import _check_epoch_interval
from repro.schemes.fnw import FnwCodec

MODE_DEUCE = 0
MODE_FNW = 1


class DynDeuce(WriteScheme):
    """DEUCE that morphs to Flip-N-Write when FNW would flip fewer bits.

    Metadata layout: ``meta[0:n_words]`` are the tracking bits (modified
    bits in DEUCE mode, flip bits in FNW mode); ``meta[n_words]`` is the
    mode bit.
    """

    name = "dyndeuce"

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
        # FNW reuses the same granularity so the tracking bits map 1:1.
        self.codec = FnwCodec(line_bytes, word_bytes * 8)

    @property
    def metadata_bits_per_line(self) -> int:
        return self.n_words + 1  # tracking bits + ModeBit (Table 3: 33)

    # -- metadata accessors --------------------------------------------------

    @staticmethod
    def _tracking(meta: np.ndarray) -> np.ndarray:
        return meta[:-1]

    @staticmethod
    def _mode(meta: np.ndarray) -> int:
        return int(meta[-1])

    def _make_meta(self, tracking: np.ndarray, mode: int) -> np.ndarray:
        meta = np.empty(self.n_words + 1, dtype=np.uint8)
        meta[:-1] = tracking
        meta[-1] = mode
        return meta

    # -- pads ------------------------------------------------------------------

    def _pad(self, address: int, counter: int) -> np.ndarray:
        return self.pads.line_pad_array(address, counter, self.line_bytes)

    def _deuce_pad(
        self, address: int, counter: int, tracking: np.ndarray
    ) -> np.ndarray:
        tctr = counter & self._epoch_mask
        if counter == tctr or not tracking.any():
            return self._pad(address, counter if counter == tctr else tctr)
        return mix_pads_array(
            self._pad(address, counter),
            self._pad(address, tctr),
            tracking,
            self.word_bytes,
        )

    # -- lifecycle ---------------------------------------------------------------

    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        stored = bitops.as_array(plaintext) ^ self._pad(address, 0)
        meta = self._make_meta(
            np.zeros(self.n_words, dtype=np.uint8), MODE_DEUCE
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
        tracking = self._tracking(line.meta)
        if self._mode(line.meta) == MODE_FNW:
            ciphertext = self.codec.decode_array(line.arr, tracking)
            return ciphertext ^ self._pad(address, line.counter)
        return line.arr ^ self._deuce_pad(address, line.counter, tracking)

    def read(self, address: int) -> bytes:
        return bitops.to_bytes(self._read_array(address))

    # -- write path -----------------------------------------------------------------

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._line(address)
        old_plain = self._read_array(address)
        counter = old.counter + 1

        if counter % self.epoch_interval == 0:
            new = self._epoch_write(address, plaintext, counter)
            outcome = self._commit(
                address,
                old,
                new,
                words_reencrypted=self.n_words,
                full_line_reencrypted=True,
                epoch_reset=True,
                mode_switched=self._mode(old.meta) == MODE_FNW,
                mode="deuce",
            )
        elif self._mode(old.meta) == MODE_FNW:
            new = self._fnw_write(address, old, plaintext, counter)
            outcome = self._commit(
                address,
                old,
                new,
                words_reencrypted=self.n_words,
                full_line_reencrypted=True,
                mode="fnw",
            )
        else:
            new, label, n_reenc = self._choose_write(
                address, old, old_plain, plaintext, counter
            )
            outcome = self._commit(
                address,
                old,
                new,
                words_reencrypted=n_reenc,
                full_line_reencrypted=(label == "fnw"),
                mode_switched=(label == "fnw"),
                mode=label,
            )
        return outcome

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized DynDEUCE over a chunk.

        Every write is first evaluated as if its line had stayed in DEUCE
        mode since its epoch segment began (the segment rules of
        :func:`modified_bits`): the DEUCE image, and the FNW candidate
        encoded against the DEUCE cells and tracking bits.  Both are exact
        up to the segment's first write where the candidate is strictly
        cheaper; that write switches, and the rest of the segment up to
        its epoch write is FNW, encoded by :func:`fnw_encode_runs` from the
        switch onward.  A line already in FNW mode before the chunk stays
        FNW until its first epoch write.

        The pre-chunk plaintext comes from the table's memo, and a DEUCE
        image's unmodified words from the cells (:func:`deuce_images`),
        so the only pads made are each write's leading pad, peeked
        without cache bookkeeping.  The exact stream (read, DEUCE
        candidate, FNW candidate, per write) is then counted through the
        pad source once, in trace order, and makes no pads.  Bit-identical
        to sequential :meth:`write` calls, pad cache statistics included.
        """
        m = len(addresses)
        if m == 0:
            return empty_batch()
        nw, wb, lb = self.n_words, self.word_bytes, self.line_bytes
        group_bits = self.codec.group_bits
        groups = group_by_address(addresses, data)
        starts, s_data, gid = groups.starts, groups.data, groups.group_id
        table = self.table
        rows = table.rows(groups.unique_addresses)
        old_stored, old_meta = table.stored[rows], table.meta[rows]
        old_trk = old_meta[:, :nw]
        old_fnw = old_meta[:, nw] == MODE_FNW
        counters = table.counters[rows][gid] + groups.rank + 1
        epoch = (counters & (self.epoch_interval - 1)) == 0
        cipher = s_data ^ self.pads.peek_line_pads_batch(
            groups.addresses, counters, lb
        )

        # Every write as if its segment had stayed in DEUCE mode.  (In a
        # segment inherited in FNW mode these images are never used.)
        trk = modified_bits(
            changed_words(
                previous_rows(s_data, starts, table.plain[rows]), s_data, wb
            ),
            starts,
            old_trk,
            epoch,
        )
        deuce = deuce_images(groups, old_stored, cipher, trk, epoch, wb)
        prev_stored = previous_rows(deuce, starts, old_stored)
        prev_trk = previous_rows(trk.view(np.uint8), starts, old_trk)
        cand, cand_flips = fnw_encode_runs(
            cipher, np.arange(m), prev_stored, prev_trk, group_bits
        )
        cost_deuce = row_popcounts(prev_stored ^ deuce) + (
            prev_trk != trk
        ).sum(axis=1)
        cost_fnw = (
            row_popcounts(prev_stored ^ cand)
            + (prev_trk != cand_flips).sum(axis=1)
            + 1
        )

        # Modes: a segment switches to FNW at its first strictly cheaper
        # candidate; a line's first segment inherits its pre-chunk mode.
        seg_begin = segment_begins(starts, epoch)
        inherit = (seg_begin == starts[gid]) & old_fnw[gid]
        win = (cost_fnw < cost_deuce) & ~epoch & ~inherit
        row_idx = np.arange(m, dtype=np.int32)
        fnw = (
            np.maximum.accumulate(np.where(win, row_idx, np.int32(-1)))
            >= seg_begin
        ) | inherit
        fnw &= ~epoch
        prev_fnw = previous_rows(fnw, starts, old_fnw)
        run_head = np.zeros(m, dtype=bool)
        run_head[starts] = True

        stored = deuce
        meta = np.empty((m, nw + 1), dtype=np.uint8)
        meta[:, :nw] = trk
        meta[:, nw] = fnw
        fnw_rows = np.flatnonzero(fnw)
        if fnw_rows.size:
            heads = np.flatnonzero((run_head | ~prev_fnw)[fnw_rows])
            first = fnw_rows[heads]
            stored[fnw_rows], meta[fnw_rows, :nw] = fnw_encode_runs(
                cipher[fnw_rows], heads, prev_stored[first], prev_trk[first],
                group_bits,
            )
        prev_meta = previous_rows(meta, starts, old_meta)

        # The scalar stream per write: the read [LCTR?, TCTR] (FNW mode:
        # [LCTR]), then [LCTR?, TCTR] for the DEUCE candidate or the epoch
        # write, then [LCTR] for the FNW candidate or the FNW-mode write.
        old_counters = counters - 1
        choose = ~prev_fnw & ~epoch
        ctr_slots = np.stack(
            [
                old_counters,
                np.where(
                    prev_fnw, old_counters, old_counters & self._epoch_mask
                ),
                counters,
                counters & self._epoch_mask,
                counters,
            ],
            axis=1,
        )
        used = np.stack(
            [
                ~prev_fnw
                & ((old_counters & (self.epoch_interval - 1)) != 0)
                & prev_meta[:, :nw].any(axis=1),
                np.ones(m, dtype=bool),
                choose & trk.any(axis=1),
                choose | epoch,
                ~epoch,
            ],
            axis=1,
        )
        count_pads(self.pads, groups, ctr_slots, used, lb)

        diffs = diff_stored_rows(
            previous_rows(stored, starts, old_stored), stored, prev_meta, meta
        )
        last_rows = groups.last_rows
        table.commit(
            rows,
            counters[last_rows],
            stored[last_rows],
            meta[last_rows],
            s_data[last_rows],
        )
        full = epoch | fnw
        n_fnw = int(fnw_rows.size)
        modes = {"deuce": m - n_fnw, "fnw": n_fnw}
        return BatchOutcome(
            addresses=groups.addresses,
            words_reencrypted=np.where(
                full, nw, trk.sum(axis=1, dtype=np.int64)
            ),
            full_line_reencrypted=full,
            epoch_reset=epoch,
            mode_switched=(fnw & ~prev_fnw) | (epoch & prev_fnw),
            mode_counts={k: v for k, v in modes.items() if v},
            **diffs,
        )

    def _epoch_write(
        self, address: int, plaintext: bytes, counter: int
    ) -> StoredLine:
        stored = bitops.as_array(plaintext) ^ self._pad(address, counter)
        meta = self._make_meta(
            np.zeros(self.n_words, dtype=np.uint8), MODE_DEUCE
        )
        return StoredLine(stored, meta, counter)

    def _fnw_write(
        self, address: int, old: StoredLine, plaintext: bytes, counter: int
    ) -> StoredLine:
        ciphertext = bitops.as_array(plaintext) ^ self._pad(address, counter)
        stored, flip_bits = self.codec.encode_array(
            old.arr, self._tracking(old.meta), ciphertext
        )
        return StoredLine(stored, self._make_meta(flip_bits, MODE_FNW), counter)

    def _deuce_candidate(
        self,
        address: int,
        old: StoredLine,
        old_plain: np.ndarray,
        plaintext: bytes,
        counter: int,
    ) -> StoredLine:
        newly = bitops.changed_words_array(
            old_plain, bitops.as_array(plaintext), self.word_bytes
        )
        tracking = self._tracking(old.meta).copy()
        tracking[newly] = 1
        pad = self._deuce_pad(address, counter, tracking)
        stored = bitops.as_array(plaintext) ^ pad
        return StoredLine(stored, self._make_meta(tracking, MODE_DEUCE), counter)

    def _choose_write(
        self,
        address: int,
        old: StoredLine,
        old_plain: np.ndarray,
        plaintext: bytes,
        counter: int,
    ) -> tuple[StoredLine, str, int]:
        """Figure 11: evaluate both modes, pick the cheaper (ties: DEUCE)."""
        deuce_line = self._deuce_candidate(
            address, old, old_plain, plaintext, counter
        )
        fnw_line = self._fnw_write(address, old, plaintext, counter)
        cost_deuce = self._cost(old, deuce_line)
        cost_fnw = self._cost(old, fnw_line)
        if cost_fnw < cost_deuce:
            return fnw_line, "fnw", self.n_words
        n_reenc = int(self._tracking(deuce_line.meta).sum())
        return deuce_line, "deuce", n_reenc

    @staticmethod
    def _cost(old: StoredLine, new: StoredLine) -> int:
        return bitops.bit_flips_array(old.arr, new.arr) + int(
            np.count_nonzero(old.meta != new.meta)
        )
