"""BLE+DEUCE — dual-counter encryption inside each AES block (Figure 18).

The paper notes DEUCE is orthogonal to Block-Level Encryption and the two
combine for greater benefit (33% and 24% standalone, 19.9% together).  Here
each 16-byte block keeps its own counter (BLE) *and* its own DEUCE epoch:
when a block's content changes, its counter increments; at block-epoch starts
the whole block is re-encrypted and its modified bits reset, and in between
only the words of the block modified this epoch are re-encrypted with the
block's leading counter.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.pads import PAD_BLOCK_BYTES, PadSource
from repro.memory import bitops
from repro.memory.line import StoredLine
from repro.schemes.base import WriteOutcome
from repro.schemes.batch import (
    BatchOutcome,
    carry_blocks,
    changed_words,
    count_blocks,
    diff_stored_rows,
    empty_batch,
    group_by_address,
    modified_bits,
    previous_rows,
    run_counts,
)
from repro.schemes.ble import BlockCounterScheme
from repro.schemes.deuce import _check_epoch_interval


class BleDeuce(BlockCounterScheme):
    """Per-block counters + per-word dual-counter re-encryption.

    Metadata layout: one modified bit per word across the whole line,
    grouped block-major (words of block 0 first).  With the 2-byte default
    this is the same 32 bits/line as plain DEUCE.
    """

    name = "ble+deuce"

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
        super().__init__(pads, line_bytes)
        if word_bytes <= 0 or PAD_BLOCK_BYTES % word_bytes != 0:
            raise ValueError(
                f"word_bytes={word_bytes} must divide the "
                f"{PAD_BLOCK_BYTES}-byte AES block"
            )
        self.word_bytes = word_bytes
        self.words_per_block = self.block_bytes // word_bytes
        self.n_words = line_bytes // word_bytes
        self.epoch_interval = _check_epoch_interval(epoch_interval)
        self._epoch_mask = ~(epoch_interval - 1)

    @property
    def metadata_bits_per_line(self) -> int:
        return self.n_words

    # -- per-block helpers ----------------------------------------------------

    def _block_slice(self, arr: np.ndarray, block: int) -> np.ndarray:
        lo = block * self.block_bytes
        return arr[lo: lo + self.block_bytes]

    def _block_meta(self, meta: np.ndarray, block: int) -> np.ndarray:
        lo = block * self.words_per_block
        return meta[lo: lo + self.words_per_block]

    def _mixed_block_pad(
        self, address: int, block: int, counter: int, modified: np.ndarray
    ) -> np.ndarray:
        """DEUCE's per-word pad mux, scoped to one AES block."""
        tctr = counter & self._epoch_mask
        if counter == tctr or not modified.any():
            return self._block_pad(
                address, counter if counter == tctr else tctr, block
            )
        lead = self._block_pad(address, counter, block)
        trail = self._block_pad(address, tctr, block)
        byte_mask = np.repeat(modified.astype(bool), self.word_bytes)
        return np.where(byte_mask, lead, trail)

    # -- lifecycle ---------------------------------------------------------------

    def _read_array(self, address: int) -> np.ndarray:
        line = self._line(address)
        counters = self.block_counters(address)
        plain = np.empty(self.line_bytes, dtype=np.uint8)
        for b in range(self.n_blocks):
            pad = self._mixed_block_pad(
                address, b, counters[b], self._block_meta(line.meta, b)
            )
            self._block_slice(plain, b)[:] = self._block_slice(line.arr, b) ^ pad
        return plain

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._line(address)
        old_plain = self._read_array(address)
        new_plain = bitops.as_array(plaintext)
        counters = self.block_counters(address)

        changed_blocks = np.nonzero(
            (old_plain != new_plain)
            .reshape(self.n_blocks, self.block_bytes)
            .any(axis=1)
        )[0]
        stored = old.arr.copy()
        meta = old.meta.copy()
        words_reenc = 0
        blocks_full = 0
        for b in changed_blocks:
            new_block = self._block_slice(new_plain, b)
            counters[b] += 1
            counter = counters[b]
            block_meta = self._block_meta(meta, b)
            if counter % self.epoch_interval == 0:
                block_meta[:] = 0
                pad = self._block_pad(address, counter, b)
                blocks_full += 1
                words_reenc += self.words_per_block
            else:
                newly = bitops.changed_words_array(
                    self._block_slice(old_plain, b), new_block, self.word_bytes
                )
                block_meta[newly] = 1
                pad = self._mixed_block_pad(address, b, counter, block_meta)
                words_reenc += int(block_meta.sum())
            self._block_slice(stored, b)[:] = new_block ^ pad

        new = StoredLine(stored, meta, old.counter + 1)
        self.table.columns["blocks"][self.table.index[address]] = counters
        # A line-wide epoch reset only happens when every block crossed its
        # epoch boundary on this same write.
        return self._commit(
            address,
            old,
            new,
            words_reencrypted=words_reenc,
            full_line_reencrypted=(blocks_full == self.n_blocks),
            epoch_reset=(blocks_full == self.n_blocks),
            mode="ble+deuce",
        )

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized BLE+DEUCE over a chunk.

        Each (line, block) pair is its own DEUCE stream: the writes that
        change the block are its events, its counter is their running
        count, and its modified bits are DEUCE's segmented cumulative OR
        over those events, reset at the block's own epoch writes.  Laying
        the blocks out one after another (block-major) turns every pair
        into an address-run-like segment of one :func:`modified_bits` call.
        Each write requests, per block, the read's pad (one request, or
        lead then trail), then per changed block the write's pad (the
        epoch pad, or the mixed pad's requests); that stream is counted
        through the pad source once, in trace order.  A changed block
        rewrites its modified words (all of them at its epoch) under its
        leading pad, and every other word keeps its cells, so with the
        pre-chunk plaintext from the table's memo the only pads made are
        the changed blocks' leading ones, peeked without cache
        bookkeeping.  Bit-identical to sequential :meth:`write` calls,
        pad-cache statistics included.
        """
        m = len(addresses)
        if m == 0:
            return empty_batch()
        nb, nw = self.n_blocks, self.n_words
        wb, wpb = self.word_bytes, self.words_per_block
        low, mask = self.epoch_interval - 1, self._epoch_mask
        groups = group_by_address(addresses, data)
        starts, s_data = groups.starts, groups.data
        table = self.table
        rows = table.rows(groups.unique_addresses)
        old_stored, old_meta = table.stored[rows], table.meta[rows]
        prev_plain = previous_rows(s_data, starts, table.plain[rows])
        changed_w = changed_words(prev_plain, s_data, wb)
        changed = changed_w.reshape(m, nb, wpb).any(axis=2)
        after = table.columns["blocks"][rows][groups.group_id] + run_counts(
            groups, changed
        )
        before = after - changed
        epoch = changed & ((after & low) == 0)

        def block_major(x: np.ndarray) -> np.ndarray:
            rows = x.shape[0]
            return x.reshape(rows, nb, wpb).transpose(1, 0, 2).reshape(
                nb * rows, wpb
            )

        modified = (
            modified_bits(
                block_major(changed_w),
                (starts + m * np.arange(nb)[:, None]).ravel(),
                block_major(old_meta),
                epoch.T.ravel(),
            )
            .reshape(nb, m, wpb)
            .transpose(1, 0, 2)
        )
        meta = np.ascontiguousarray(modified).reshape(m, nw).view(np.uint8)
        prev_meta = previous_rows(meta, starts, old_meta)

        # Slots (phase, block, lead/trail): the read under each block's
        # counter, then the write under the incremented one.  A mixed pad
        # requests its lead only off an epoch with some word modified.
        ctr = np.empty((m, 2, nb, 2), dtype=np.int64)
        ctr[:, 0, :, 0] = before
        ctr[:, 0, :, 1] = before & mask
        ctr[:, 1, :, 0] = after
        ctr[:, 1, :, 1] = after & mask
        used = np.empty((m, 2, nb, 2), dtype=bool)
        used[:, 0, :, 0] = ((before & low) != 0) & prev_meta.reshape(
            m, nb, wpb
        ).any(axis=2)
        used[:, 0, :, 1] = True
        used[:, 1, :, 0] = changed & ~epoch & modified.any(axis=2)
        used[:, 1, :, 1] = changed
        blocks = np.broadcast_to(
            np.arange(nb, dtype=np.int64)[:, None], (2, nb, 2)
        ).reshape(-1)
        count_blocks(
            self.pads, groups, ctr.reshape(m, -1), blocks, used.reshape(m, -1)
        )
        rewrite = np.repeat(changed, wpb, axis=1) & (
            modified.reshape(m, nw) | np.repeat(epoch, wpb, axis=1)
        )
        fresh = s_data ^ self._peek_blocks(groups, after, changed)
        stored = carry_blocks(groups, fresh, rewrite, old_stored)
        diffs = diff_stored_rows(
            previous_rows(stored, starts, old_stored), stored, prev_meta, meta
        )

        last_rows = groups.last_rows
        counters = table.counters[rows][groups.group_id] + groups.rank + 1
        table.commit(
            rows,
            counters[last_rows],
            stored[last_rows],
            meta[last_rows],
            s_data[last_rows],
        )
        table.columns["blocks"][rows] = after[last_rows]
        block_words = np.where(
            epoch, wpb, modified.sum(axis=2, dtype=np.int64)
        )
        blocks_full = epoch.sum(axis=1)
        # A line-wide epoch reset: every block crossed its boundary at once.
        return BatchOutcome(
            addresses=groups.addresses,
            words_reencrypted=(block_words * changed).sum(axis=1),
            full_line_reencrypted=blocks_full == nb,
            epoch_reset=blocks_full == nb,
            mode_switched=np.zeros(m, dtype=bool),
            mode_counts={"ble+deuce": m},
            **diffs,
        )
