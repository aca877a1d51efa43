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
    diff_stored_rows,
    empty_batch,
    group_by_address,
    previous_rows,
)


def _check_epoch_interval(epoch_interval: int) -> int:
    if epoch_interval < 2 or epoch_interval & (epoch_interval - 1):
        raise ValueError(
            "epoch_interval must be a power of two >= 2 (LSB masking), got "
            f"{epoch_interval}"
        )
    return epoch_interval


class _DenseLines:
    """Structure-of-arrays line state for the batched write path.

    The chunked loop reads and commits whole address groups per chunk;
    keeping counters, stored images, metadata, and the plaintext memo as
    parallel arrays turns both into a handful of fancy-index gathers and
    scatters instead of thousands of per-line ``StoredLine`` constructions.
    ``index`` maps a line address to its row.  The dict-of-``StoredLine``
    view every serial accessor expects is materialized lazily by
    ``Deuce._flush_dense`` — results are bit-identical either way.
    """

    __slots__ = ("index", "counters", "stored", "meta", "plain")

    def __init__(
        self,
        index: dict[int, int],
        counters: np.ndarray,
        stored: np.ndarray,
        meta: np.ndarray,
        plain: np.ndarray,
    ) -> None:
        self.index = index
        self.counters = counters
        self.stored = stored
        self.meta = meta
        self.plain = plain


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
        # Plaintext memo: the simulator's stand-in for the controller's
        # read-before-write (4.3.2).  Decryption through read() stays fully
        # functional; the memo only spares the write path re-deriving a
        # plaintext it wrote itself.
        self._plain: dict[int, np.ndarray] = {}
        # Dense batch state (see _DenseLines); None until a batch call
        # needs it.  ``_dense_dirty`` marks commits not yet reflected in
        # the ``_lines``/``_plain`` dicts.
        self._dense: _DenseLines | None = None
        self._dense_dirty = False

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

    # -- dense batch state ---------------------------------------------------

    def _ensure_dense(self) -> _DenseLines:
        """The SoA view of the line state, built from the dicts on demand."""
        dense = self._dense
        if dense is None:
            n = len(self._lines)
            index: dict[int, int] = {}
            counters = np.empty(n, dtype=np.int64)
            stored = np.empty((n, self.line_bytes), dtype=np.uint8)
            meta = np.empty((n, self.n_words), dtype=np.uint8)
            plain = np.empty((n, self.line_bytes), dtype=np.uint8)
            plain_get = self._plain.get
            for i, (addr, line) in enumerate(self._lines.items()):
                index[addr] = i
                counters[i] = line.counter
                stored[i] = line.arr
                meta[i] = line.meta
                p = plain_get(addr)
                if p is None:
                    p = line.arr ^ self._effective_pad(addr, line)
                plain[i] = p
            dense = self._dense = _DenseLines(
                index, counters, stored, meta, plain
            )
        return dense

    def _flush_dense(self) -> None:
        """Materialize pending dense commits back into the line dicts.

        Called by every serial accessor, so the dict view is always current
        when something outside the batch path looks at it.  Snapshot copies
        are taken so later batch commits can keep mutating the dense arrays
        without aliasing the handed-out ``StoredLine`` images.
        """
        dense = self._dense
        if dense is None or not self._dense_dirty:
            return
        stored = dense.stored.copy()
        meta = dense.meta.copy()
        plain = dense.plain.copy()
        stored.setflags(write=False)
        meta.setflags(write=False)
        plain.setflags(write=False)
        counters = dense.counters.tolist()
        from_parts = StoredLine.from_parts
        lines: dict[int, StoredLine] = {}
        memo: dict[int, np.ndarray] = {}
        for addr, i in dense.index.items():
            lines[addr] = from_parts(stored[i], meta[i], counters[i])
            memo[addr] = plain[i]
        self._lines = lines
        self._plain = memo
        self._dense_dirty = False

    def _drop_dense(self) -> None:
        """Flush and discard the dense view (before serial-path mutation)."""
        self._flush_dense()
        self._dense = None

    def install(self, address: int, plaintext: bytes) -> StoredLine:
        self._drop_dense()
        return super().install(address, plaintext)

    def write(self, address: int, plaintext: bytes) -> WriteOutcome:
        self._drop_dense()
        return super().write(address, plaintext)

    def stored(self, address: int) -> StoredLine:
        self._flush_dense()
        return super().stored(address)

    def addresses(self) -> list[int]:
        self._flush_dense()
        return super().addresses()

    def state_dict(self) -> dict[str, object]:
        self._flush_dense()
        return super().state_dict()

    def load_state_dict(self, state: dict[str, object]) -> None:
        self._dense = None
        self._dense_dirty = False
        super().load_state_dict(state)

    # -- checkpointing -------------------------------------------------------

    def _extra_state(self) -> dict[str, object]:
        n = len(self._plain)
        addresses = np.empty(n, dtype=np.int64)
        plain = np.empty((n, self.line_bytes), dtype=np.uint8)
        for i, (addr, arr) in enumerate(self._plain.items()):
            addresses[i] = addr
            plain[i] = arr
        return {"plain_addresses": addresses, "plain_data": plain}

    def _load_extra_state(self, extra: dict[str, object]) -> None:
        addresses = np.asarray(extra["plain_addresses"], dtype=np.int64)
        plain = np.asarray(extra["plain_data"], dtype=np.uint8)
        self._plain = {
            int(addresses[i]): plain[i].copy()
            for i in range(addresses.size)
        }

    # -- lifecycle -----------------------------------------------------------

    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        plain = bitops.as_array(plaintext)
        self._plain[address] = plain
        stored = plain ^ self._pad(address, 0)
        return StoredLine(stored, np.zeros(self.n_words, dtype=np.uint8), 0)

    def install_batch(self, addresses, data) -> None:
        """Vectorized initial encryption: one pad batch for the working set.

        On a virgin scheme the computed arrays directly become the dense
        batch state; installing over existing lines falls back to the dict
        commit so re-installs keep their serial semantics.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        plain = np.array(data, dtype=np.uint8)
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
        addr_list = addresses.tolist()
        if self._dense is None and not self._lines:
            # Duplicate addresses resolve last-wins through the index while
            # preserving first-occurrence flush order, same as dict stores.
            index = {addr: i for i, addr in enumerate(addr_list)}
            self._dense = _DenseLines(
                index,
                np.zeros(n, dtype=np.int64),
                stored,
                np.zeros((n, self.n_words), dtype=np.uint8),
                plain,
            )
            self._dense_dirty = True
            return
        self._drop_dense()
        plain.setflags(write=False)
        stored.setflags(write=False)
        metas = np.zeros((n, self.n_words), dtype=np.uint8)
        metas.setflags(write=False)
        from_parts = StoredLine.from_parts
        lines, memo = self._lines, self._plain
        for addr, p_row, s_row, m_row in zip(addr_list, plain, stored, metas):
            memo[addr] = p_row
            lines[addr] = from_parts(s_row, m_row, 0)

    def read(self, address: int) -> bytes:
        self._flush_dense()
        line = self._lines[address]
        return bitops.to_bytes(line.arr ^ self._effective_pad(address, line))

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._lines[address]
        # The read-before-write of 4.3.2: decrypt unless memoized.
        old_plain = self._plain.get(address)
        if old_plain is None:
            old_plain = old.arr ^ self._effective_pad(address, old)
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
        self._lines[address] = new
        self._plain[address] = new_plain
        return self._outcome(
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
        n_groups = starts.size
        line_bytes, n_words, word_bytes = (
            self.line_bytes, self.n_words, self.word_bytes
        )

        # Pre-chunk state per line: one row-index lookup per unique address,
        # then pure fancy-index gathers from the dense SoA state.
        dense = self._ensure_dense()
        index = dense.index
        uniq_list = groups.unique_addresses.tolist()
        try:
            rows_idx = np.fromiter(
                (index[a] for a in uniq_list), dtype=np.int64, count=n_groups
            )
        except KeyError:
            missing = next(a for a in uniq_list if a not in index)
            raise KeyError(
                f"line {missing:#x} was never installed; call install() first"
            ) from None
        base_counters = dense.counters[rows_idx]
        old_stored = dense.stored[rows_idx]
        old_meta = dense.meta[rows_idx]
        old_plain = dense.plain[rows_idx]

        counters = base_counters[groups.group_id] + groups.rank + 1
        epoch = (counters & (self.epoch_interval - 1)) == 0
        epoch_rows = np.flatnonzero(epoch)

        # Pads are fetched in original trace order so the LRU cache sees the
        # identical request stream as the per-write path.
        counters_orig = np.empty(m, dtype=np.int64)
        counters_orig[groups.order] = counters
        pads = self.pads.line_pads_batch(
            np.asarray(addresses, dtype=np.int64), counters_orig, line_bytes
        )
        pads_sorted = np.ascontiguousarray(np.asarray(pads)[groups.order])

        # Changed words vs the previous plaintext in the run.
        prev_plain = previous_rows(s_data, starts, old_plain)
        dtype = bitops.WORD_DTYPES.get(word_bytes)
        if dtype is not None:
            changed = prev_plain.view(dtype) != s_data.view(dtype)
        else:
            changed = (
                prev_plain.reshape(m, n_words, word_bytes)
                != s_data.reshape(m, n_words, word_bytes)
            ).any(axis=2)

        # Segmented cumulative OR: fold each run's pre-chunk meta into its
        # first row, then a word is modified iff its latest contribution row
        # (a running maximum) falls inside the current segment.  Segment
        # boundaries are run starts and the row after every epoch write (the
        # reset); an epoch row's own meta is forced to zero.
        contrib = changed  # fresh comparison result; safe to mutate in place
        contrib[starts] |= old_meta != 0
        row_idx = np.arange(m, dtype=np.int32)
        seg_mark = np.zeros(m, dtype=bool)
        seg_mark[starts] = True
        after_epoch = epoch_rows + 1
        seg_mark[after_epoch[after_epoch < m]] = True
        seg_begin = np.maximum.accumulate(
            np.where(seg_mark, row_idx, np.int32(0))
        )
        last_set = np.maximum.accumulate(
            np.where(contrib, row_idx[:, None], np.int32(-1)), axis=0
        )
        meta = last_set >= seg_begin[:, None]
        meta[epoch_rows] = False
        meta_u8 = meta.astype(np.uint8)
        words_reencrypted = np.where(
            epoch, n_words, meta.sum(axis=1, dtype=np.int64)
        )

        # Stored images.  Mid-epoch, unmodified words keep the segment's
        # base image: the last epoch write's full re-encryption, or the
        # pre-chunk cells when the run hasn't hit an epoch yet.  The base
        # is assembled in place: start from the pre-chunk cells, overwrite
        # the rows following an in-chunk epoch, then overlay the modified
        # words' fresh re-encryptions through the byte mask.
        reenc = s_data ^ pads_sorted
        stored = old_stored[groups.group_id]
        last_epoch = np.maximum.accumulate(np.where(epoch, row_idx, np.int32(-1)))
        in_run = np.flatnonzero(last_epoch >= starts[groups.group_id])
        if in_run.size:
            stored[in_run] = reenc[last_epoch[in_run]]
        byte_mask = (
            meta if word_bytes == 1 else np.repeat(meta, word_bytes, axis=1)
        )
        np.copyto(stored, reenc, where=byte_mask)
        stored[epoch_rows] = reenc[epoch_rows]

        prev_stored = previous_rows(stored, starts, old_stored)
        prev_meta = previous_rows(meta_u8, starts, old_meta)
        diffs = diff_stored_rows(prev_stored, stored, prev_meta, meta_u8)

        # Commit each line's final state: one fancy-index scatter per dense
        # array.  The dict view is refreshed lazily by _flush_dense when a
        # serial accessor next needs it.
        last_rows = groups.last_rows
        dense.counters[rows_idx] = counters[last_rows]
        dense.stored[rows_idx] = stored[last_rows]
        dense.meta[rows_idx] = meta_u8[last_rows]
        dense.plain[rows_idx] = s_data[last_rows]
        self._dense_dirty = True

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
