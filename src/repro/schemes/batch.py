"""Batched write outcomes and the shared chunk vectorization machinery.

The chunked write path hands a scheme a whole slice of the trace at once —
``(addresses, data)`` arrays covering up to ``chunk_size`` consecutive
writebacks — and gets back one :class:`BatchOutcome` describing every write's
cell-level effect.  The contract mirrors :class:`~repro.schemes.base
.WriteOutcome` exactly, just in structure-of-arrays form, so the runner can
fold a chunk into the aggregates with scatter-adds instead of per-write
Python.

The helpers here implement the address-group plumbing every batchable scheme
shares: stable-sort the chunk by address so each line's writes become one
contiguous run, carry the per-line stored image through the run with
shift-by-one previous-row gathers, and diff consecutive stored images into
flip counts and packed diff matrices in one wide pass.  Rows of a
:class:`BatchOutcome` are in the scheme's internal (sorted) order — every
consumer aggregates over the chunk, so row order never affects results.

On top of that sit the pieces the kernels share: counting a scalar
line-pad or pad-block request stream through the pad source in trace
order (the kernels make only the pads they encrypt with), running event
counts and carries of the latest rewrite for the per-block-counter
schemes, DEUCE's modified bits as a segmented cumulative OR, and the
Flip-N-Write encoder :func:`fnw_encode_runs`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.memory import bitops

if TYPE_CHECKING:
    from repro.schemes.base import WriteOutcome

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_BOOL = np.zeros(0, dtype=bool)


@dataclass(slots=True)
class BatchOutcome:
    """Structure-of-arrays form of ``m`` consecutive write outcomes.

    Attributes
    ----------
    addresses:
        ``(m,)`` line address per row.  Row-order contract: a kernel may
        reorder rows across addresses (most return them stable-sorted by
        :func:`group_by_address`), but one address's rows stay in write
        order, so the ``j``-th row of an address is its ``j``-th write in
        the chunk.  The runner relies on this to line per-write wear
        rotations up with the rows.
    data_flips / meta_flips / set_flips / reset_flips / words_reencrypted:
        ``(m,)`` per-write counts, exactly the scalar outcome fields.
    full_line_reencrypted / epoch_reset / mode_switched:
        ``(m,)`` boolean flags per write.
    data_diff / meta_diff:
        The packed per-write diffs: ``data_diff`` is the ``(m, line_bytes)``
        XOR of consecutive stored images, ``meta_diff`` the ``(m, n_words)``
        boolean metadata diff (or ``None`` for schemes without metadata).
        The wear and slot accumulators consume these directly.  Only
        :func:`empty_batch` leaves ``data_diff`` unset.
    mode_counts:
        Contribution to ``RunResult.mode_histogram`` (empty-mode writes
        excluded).
    """

    addresses: np.ndarray
    data_flips: np.ndarray
    meta_flips: np.ndarray
    set_flips: np.ndarray
    reset_flips: np.ndarray
    words_reencrypted: np.ndarray
    full_line_reencrypted: np.ndarray
    epoch_reset: np.ndarray
    mode_switched: np.ndarray
    data_diff: np.ndarray | None = None
    meta_diff: np.ndarray | None = None
    mode_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Iterable[WriteOutcome],
        m: int,
        line_bytes: int,
        meta_bits: int,
    ) -> "BatchOutcome":
        """Pack ``m`` scalar :class:`WriteOutcome` objects into one batch.

        ``outcomes`` is consumed one at a time: each write's flipped bits
        are set in the diff matrices as it arrives, so no outcome outlives
        its row and a chunk needs ``m * (8 * line_bytes + meta_bits)``
        bytes of scratch however many bits flip.  The generic
        ``write_batch`` fallback uses this; the vectorized schemes build
        their batches directly.
        """
        data_bits = np.zeros((m, 8 * line_bytes), dtype=bool)
        meta_diff = np.zeros((m, meta_bits), dtype=bool)
        rows = []
        modes: Counter = Counter()
        for i, o in enumerate(outcomes):
            data_bits[i, o.flipped_data_positions] = True
            if o.flipped_meta_positions.size:
                meta_diff[i, o.flipped_meta_positions] = True
            rows.append((
                o.address, o.data_flips, o.metadata_flips, o.set_flips,
                o.reset_flips, o.words_reencrypted, o.full_line_reencrypted,
                o.epoch_reset, o.mode_switched,
            ))
            if o.mode:
                modes[o.mode] += 1
        cols = np.array(rows, dtype=np.int64).reshape(m, 9).T
        return cls(
            addresses=cols[0],
            data_flips=cols[1],
            meta_flips=cols[2],
            set_flips=cols[3],
            reset_flips=cols[4],
            words_reencrypted=cols[5],
            full_line_reencrypted=cols[6].astype(bool),
            epoch_reset=cols[7].astype(bool),
            mode_switched=cols[8].astype(bool),
            data_diff=np.packbits(data_bits, axis=1),
            meta_diff=meta_diff if meta_bits else None,
            mode_counts=dict(modes),
        )


def empty_batch() -> BatchOutcome:
    """A zero-write batch (chunked loop edge cases)."""
    return BatchOutcome(
        addresses=_EMPTY_I64,
        data_flips=_EMPTY_I64,
        meta_flips=_EMPTY_I64,
        set_flips=_EMPTY_I64,
        reset_flips=_EMPTY_I64,
        words_reencrypted=_EMPTY_I64,
        full_line_reencrypted=_EMPTY_BOOL,
        epoch_reset=_EMPTY_BOOL,
        mode_switched=_EMPTY_BOOL,
    )


@dataclass(slots=True)
class AddressGroups:
    """A chunk stable-sorted by address, with per-line run bookkeeping.

    Attributes
    ----------
    order:
        Permutation that sorts the chunk by address (stable, so each line's
        writes keep their trace order inside the run).
    addresses / data:
        The sorted ``(m,)`` addresses and ``(m, line_bytes)`` payloads.
    starts:
        Row index where each address run begins.
    group_id:
        ``(m,)`` run index per row.
    rank:
        ``(m,)`` position of the row inside its run (0-based).
    unique_addresses:
        One address per run, in sorted order.
    """

    order: np.ndarray
    addresses: np.ndarray
    data: np.ndarray
    starts: np.ndarray
    group_id: np.ndarray
    rank: np.ndarray
    unique_addresses: np.ndarray

    @property
    def last_rows(self) -> np.ndarray:
        """Row index of each run's final write (the state to commit)."""
        m = self.addresses.shape[0]
        return np.concatenate([self.starts[1:] - 1, [m - 1]])


def group_by_address(addresses: np.ndarray, data: np.ndarray) -> AddressGroups:
    """Stable-sort a chunk by address into contiguous per-line runs."""
    addresses = np.asarray(addresses, dtype=np.int64)
    data = np.ascontiguousarray(data, dtype=np.uint8)
    m = addresses.shape[0]
    order = np.argsort(addresses, kind="stable")
    s_addr = addresses[order]
    starts_mask = np.empty(m, dtype=bool)
    starts_mask[0] = True
    np.not_equal(s_addr[1:], s_addr[:-1], out=starts_mask[1:])
    starts = np.flatnonzero(starts_mask)
    group_id = np.cumsum(starts_mask) - 1
    rank = np.arange(m, dtype=np.int64) - starts[group_id]
    return AddressGroups(
        order=order,
        addresses=s_addr,
        data=np.ascontiguousarray(data[order]),
        starts=starts,
        group_id=group_id,
        rank=rank,
        unique_addresses=s_addr[starts],
    )


def previous_rows(
    current: np.ndarray, starts: np.ndarray, firsts: np.ndarray
) -> np.ndarray:
    """Shift rows down by one within each address run.

    Row ``j`` receives row ``j - 1`` of ``current``; the first row of each
    run receives the corresponding row of ``firsts`` (the pre-chunk state).
    This is how the chunk carries "previous stored image" / "previous
    plaintext" without a Python loop.
    """
    prev = np.empty_like(current)
    prev[1:] = current[:-1]
    prev[starts] = firsts
    return prev


def diff_stored_rows(
    prev_stored: np.ndarray,
    stored: np.ndarray,
    prev_meta: np.ndarray | None,
    meta: np.ndarray | None,
) -> dict[str, np.ndarray]:
    """Diff consecutive stored images into per-write flips and diffs.

    The batched form of ``WriteScheme._outcome``: XOR the whole chunk at
    once and popcount per row.  The packed diff matrices ride along in the
    :class:`BatchOutcome` for the wear/slot accumulators; flat bit positions
    are only expanded if something asks for them.
    """
    diff = prev_stored ^ stored
    data_flips = row_popcounts(diff)
    set_flips = row_popcounts(diff & stored)
    if meta is None or meta.size == 0:
        m = stored.shape[0]
        meta_flips = np.zeros(m, dtype=np.int64)
        mdiff = None
    else:
        mdiff = prev_meta != meta
        meta_flips = mdiff.sum(axis=1, dtype=np.int64)
    return {
        "data_flips": data_flips,
        "set_flips": set_flips,
        "reset_flips": data_flips - set_flips,
        "meta_flips": meta_flips,
        "data_diff": diff,
        "meta_diff": mdiff,
    }


def row_popcounts(rows: np.ndarray) -> np.ndarray:
    """Set bits per row of an ``(m, n)`` uint8 matrix, as int64."""
    if rows.shape[1] % 8 == 0:
        # Popcount eight bytes at a time through a uint64 view.
        return np.bitwise_count(
            np.ascontiguousarray(rows).view(np.uint64)
        ).sum(axis=1, dtype=np.int64)
    return bitops.byte_popcounts(rows).sum(axis=1, dtype=np.int64)


# -- install -----------------------------------------------------------------


def line_matrix(data, line_bytes: int) -> np.ndarray:
    """``data`` as an ``(n, line_bytes)`` uint8 matrix (an install batch)."""
    rows = np.asarray(data, dtype=np.uint8)
    if rows.ndim != 2 or rows.shape[1] != line_bytes:
        raise ValueError(f"lines must be (n, {line_bytes}), got {rows.shape}")
    return rows


def initial_ciphertext(pads, addresses, data, line_bytes: int) -> np.ndarray:
    """Install images under counter 0: one pad batch for the working set."""
    plain = line_matrix(data, line_bytes)
    addresses = np.asarray(addresses, dtype=np.int64)
    zeros = np.zeros(addresses.size, dtype=np.int64)
    return plain ^ np.asarray(pads.line_pads_batch(addresses, zeros, line_bytes))


# -- pad streams -------------------------------------------------------------


def to_trace_order(groups: AddressGroups, rows: np.ndarray) -> np.ndarray:
    """Undo the address sort: row ``i`` of the result is trace write ``i``."""
    out = np.empty_like(rows)
    out[groups.order] = rows
    return out


def _trace_columns(
    groups: AddressGroups, used: np.ndarray, *columns: np.ndarray
) -> list[np.ndarray]:
    """The used slots of ``(m, k)`` sorted-order columns, in trace order.

    Column ``s`` of row ``j`` is the ``s``-th request of that row's write,
    if ``used``; the requests come out write by write, as the scalar path
    sends them.
    """
    used_t = to_trace_order(groups, used)
    return [
        to_trace_order(groups, np.broadcast_to(col, used.shape))[used_t]
        for col in columns
    ]


def count_pads(
    pads,
    groups: AddressGroups,
    counters: np.ndarray,
    used: np.ndarray,
    n_bytes: int,
) -> None:
    """Count a chunk's line-pad requests through ``pads`` in scalar order.

    ``counters`` and ``used`` are ``(m, k)`` in the chunk's sorted row
    order: column ``s`` of row ``j`` is the ``s``-th line pad the scalar
    write of that row requests, if ``used``.  They go out as one
    ``count_line_pads`` call in trace order, so a caching source sees
    the stream of ``m`` scalar writes: the same hits, misses and
    evictions.  No pad is made.
    """
    pads.count_line_pads(
        *_trace_columns(groups, used, groups.addresses[:, None], counters),
        n_bytes,
    )


def count_blocks(
    pads,
    groups: AddressGroups,
    counters: np.ndarray,
    blocks: np.ndarray,
    used: np.ndarray,
) -> None:
    """:func:`count_pads` for single pad blocks (``count_pad_blocks``).

    Slot ``s`` of row ``j`` requests block ``blocks[j, s]`` of the row's
    line under ``counters[j, s]``.
    """
    pads.count_pad_blocks(
        *_trace_columns(
            groups, used, groups.addresses[:, None], counters, blocks
        )
    )


def run_counts(groups: AddressGroups, events: np.ndarray) -> np.ndarray:
    """Running count of ``events`` (rows up to and including each row)
    within each address run, column by column."""
    total = np.cumsum(events, axis=0, dtype=np.int64)
    before = np.zeros_like(total, shape=(groups.starts.size, *total.shape[1:]))
    before[1:] = total[groups.starts[1:] - 1]
    return total - before[groups.group_id]


def carry_blocks(
    groups: AddressGroups,
    fresh: np.ndarray,
    events: np.ndarray,
    firsts: np.ndarray,
) -> np.ndarray:
    """Stored images of a chunk whose writes rewrite only some blocks.

    ``events`` is ``(m, n_blocks)``: the blocks each row rewrites, with
    the bytes in that row of ``fresh`` (``(m, line_bytes)``).  A block
    keeps its bytes from the latest row in its run that rewrote it, or
    from the run's pre-chunk image in ``firsts`` when none did.  A
    "block" is any equal split of the line: BLE+DEUCE carries words.
    """
    m, n_blocks = events.shape
    row_idx = np.arange(m, dtype=np.int64)
    latest = np.maximum.accumulate(
        np.where(events, row_idx[:, None], -1), axis=0
    )
    rewritten = latest >= groups.starts[groups.group_id][:, None]
    stored = firsts[groups.group_id].reshape(m, n_blocks, -1)
    rows, blocks = np.nonzero(rewritten)
    stored[rows, blocks] = fresh.reshape(m, n_blocks, -1)[
        latest[rows, blocks], blocks
    ]
    return stored.reshape(m, -1)


# -- DEUCE modified bits -----------------------------------------------------


def changed_words(
    prev: np.ndarray, cur: np.ndarray, word_bytes: int
) -> np.ndarray:
    """``(m, n_words)`` bool: the words that differ between paired rows."""
    dtype = bitops.WORD_DTYPES.get(word_bytes)
    if dtype is not None:
        return prev.view(dtype) != cur.view(dtype)
    m = cur.shape[0]
    return (
        prev.reshape(m, -1, word_bytes) != cur.reshape(m, -1, word_bytes)
    ).any(axis=2)


def segment_begins(starts: np.ndarray, epoch: np.ndarray) -> np.ndarray:
    """Row where each row's epoch segment begins.

    Segments start at each address run's first row and right after every
    epoch write (the reset); an epoch row closes its segment.
    """
    m = epoch.shape[0]
    row_idx = np.arange(m, dtype=np.int32)
    seg_mark = np.zeros(m, dtype=bool)
    seg_mark[starts] = True
    seg_mark[1:] |= epoch[:-1]
    return np.maximum.accumulate(np.where(seg_mark, row_idx, np.int32(0)))


def modified_bits(
    changed: np.ndarray,
    starts: np.ndarray,
    first_modified: np.ndarray,
    epoch: np.ndarray,
) -> np.ndarray:
    """DEUCE's modified bits after every write of a chunk, ``(m, n_words)``.

    A segmented cumulative OR of the changed-word matrix: each run's
    pre-chunk bits fold into its first row, then a word is modified iff
    its latest contribution row (a running maximum) falls inside the
    current segment (see :func:`segment_begins`).  Epoch rows are all
    zero.  ``changed`` is consumed.
    """
    contrib = changed
    contrib[starts] |= first_modified != 0
    row_idx = np.arange(changed.shape[0], dtype=np.int32)
    last_set = np.maximum.accumulate(
        np.where(contrib, row_idx[:, None], np.int32(-1)), axis=0
    )
    meta = last_set >= segment_begins(starts, epoch)[:, None]
    meta[epoch] = False
    return meta


def deuce_images(
    groups: AddressGroups,
    firsts: np.ndarray,
    fresh: np.ndarray,
    modified: np.ndarray,
    epoch: np.ndarray,
    word_bytes: int,
) -> np.ndarray:
    """DEUCE's image of every write of a chunk, ``(m, line_bytes)``.

    ``fresh`` is each write's line under its leading counter.  An epoch
    write is all ``fresh``; otherwise a modified word is ``fresh`` and an
    unmodified one keeps its trailing-counter image, which has not
    changed since its segment began: the latest epoch write's ``fresh``
    in the run, or else the run's pre-chunk image in ``firsts``.  So no
    trailing pad is ever needed.
    """
    images = firsts[groups.group_id]
    row_idx = np.arange(epoch.shape[0], dtype=np.int32)
    last_epoch = np.maximum.accumulate(np.where(epoch, row_idx, np.int32(-1)))
    rows = np.flatnonzero(last_epoch >= groups.starts[groups.group_id])
    if rows.size:
        images[rows] = fresh[last_epoch[rows]]
    mask = modified.astype(bool, copy=False)
    if word_bytes > 1:
        mask = np.repeat(mask, word_bytes, axis=1)
    np.copyto(images, fresh, where=mask)
    return images


# -- Flip-N-Write ------------------------------------------------------------


def group_popcounts(rows: np.ndarray, group_bytes: int) -> np.ndarray:
    """Set bits per ``group_bytes``-byte group of each row, ``(m, n_groups)``."""
    rows = np.ascontiguousarray(rows)
    dtype = bitops.WORD_DTYPES.get(group_bytes)
    if dtype is not None:
        return np.bitwise_count(rows.view(dtype))
    m = rows.shape[0]
    return bitops.byte_popcounts(rows).reshape(m, -1, group_bytes).sum(axis=2)


def expand_groups(bits: np.ndarray, group_bytes: int) -> np.ndarray:
    """Per-group flags as a byte mask: 0xFF over every flagged group."""
    return np.repeat(bits.astype(np.uint8) * np.uint8(0xFF), group_bytes, axis=1)


def fnw_encode_runs(
    targets: np.ndarray,
    starts: np.ndarray,
    first_stored: np.ndarray,
    first_flips: np.ndarray,
    group_bits: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Flip-N-Write encode runs of successive writes in one pass.

    Rows ``starts[i]`` up to the next start are successive logical images
    written to one line, whose cells held ``first_stored[i]`` with flip
    bits ``first_flips[i]`` before the run.  Returns the stored images and
    ``uint8`` flip bits, equal to calling ``FnwCodec.encode_array`` row by
    row with each result carried into the next.

    Under ``encode_array``'s strict less-than tie rule, a group's flip bit
    toggles exactly when the popcount of (previous logical group XOR new
    target) exceeds ``group_bits / 2``, whatever the old flip bit.  The
    previous logical image is the previous row's target (for a run's first
    row, the cells XOR their flip mask), so the toggles of every row are
    one wide popcount, and a run's flip bits are its pre-run bits XOR a
    running parity of its toggles.
    """
    group_bytes = group_bits // 8
    prev_logical = previous_rows(
        targets, starts, first_stored ^ expand_groups(first_flips, group_bytes)
    )
    toggles = (
        group_popcounts(prev_logical ^ targets, group_bytes) > group_bits // 2
    ).view(np.uint8)
    toggles[starts] ^= first_flips
    parity = np.bitwise_xor.accumulate(toggles, axis=0)
    # XOR out each run's predecessors: the parity as of the row before it.
    carry = np.zeros_like(parity, shape=first_flips.shape)
    carry[1:] = parity[starts[1:] - 1]
    run_of = np.repeat(
        np.arange(starts.size), np.diff(starts, append=targets.shape[0])
    )
    flips = parity ^ carry[run_of]
    return targets ^ expand_groups(flips, group_bytes), flips
