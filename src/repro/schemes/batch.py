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
        ``(m,)`` line address per row (rows may be address-sorted).
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
    if diff.shape[1] % 8 == 0 and diff.flags.c_contiguous:
        # Popcount eight bytes at a time through a uint64 view.
        data_flips = np.bitwise_count(diff.view(np.uint64)).sum(
            axis=1, dtype=np.int64
        )
        set_flips = np.bitwise_count(
            np.ascontiguousarray(diff & stored).view(np.uint64)
        ).sum(axis=1, dtype=np.int64)
    else:
        data_flips = bitops.byte_popcounts(diff).sum(axis=1, dtype=np.int64)
        set_flips = bitops.byte_popcounts(diff & stored).sum(
            axis=1, dtype=np.int64
        )
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
