"""Flip-N-Write (FNW) [Cho & Lee, MICRO'09].

FNW partitions the line into small groups (two bytes in the paper's default,
one flip bit per 16 data bits) and stores each group either as-is or
bit-inverted, choosing whichever representation is closer to what the cells
already hold.  This bounds the flips per group to half the group size plus
the flip bit.

The group encode/decode logic lives in :class:`FnwCodec` so that the
encrypted variant, DynDEUCE's FNW mode, and DEUCE+FNW can all reuse it.
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
    fnw_encode_runs,
    group_by_address,
    initial_ciphertext,
    line_matrix,
    previous_rows,
    to_trace_order,
)


class FnwCodec:
    """Encode/decode lines under Flip-N-Write at a fixed group size.

    Parameters
    ----------
    line_bytes:
        Line size in bytes.
    group_bits:
        Data bits covered by one flip bit (16 in the paper: "FNW at a
        granularity of two bytes, where 1 flip bit is provisioned per 16
        bits").  Must be a multiple of 8 here; sub-byte groups would not
        change any conclusion and complicate the byte-level model.
    """

    def __init__(self, line_bytes: int = 64, group_bits: int = 16) -> None:
        if group_bits <= 0 or group_bits % 8 != 0:
            raise ValueError("group_bits must be a positive multiple of 8")
        if (line_bytes * 8) % group_bits != 0:
            raise ValueError(
                f"{line_bytes * 8} data bits is not a whole number of "
                f"{group_bits}-bit groups"
            )
        self.line_bytes = line_bytes
        self.group_bits = group_bits
        self.group_bytes = group_bits // 8
        self.n_groups = (line_bytes * 8) // group_bits

    def encode_array(
        self,
        old_arr: np.ndarray,
        old_flip_bits: np.ndarray,
        tgt_arr: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array-native :meth:`encode` over uint8 line images.

        For every group, compares the cost (data flips + flip-bit flip) of
        storing the group plain versus inverted, relative to what the cells
        currently hold.  Ties keep the current flip bit so metadata does not
        churn needlessly.

        Returns the new stored array and the new flip-bit vector.
        """
        inv_arr = ~tgt_arr

        per_byte = bitops.byte_popcounts(old_arr ^ tgt_arr)
        dist_plain = per_byte.reshape(self.n_groups, -1).sum(axis=1)
        # Inverting a group complements its per-byte distances, so the
        # inverted distance is group_bits minus the plain distance.
        dist_inv = self.group_bits - dist_plain

        cost_plain = dist_plain + (old_flip_bits == 1)
        cost_inv = dist_inv + (old_flip_bits == 0)
        use_inverted = cost_inv < cost_plain

        new_flip_bits = use_inverted.astype(np.uint8)
        group_mask = np.repeat(use_inverted, self.group_bytes)
        new_stored = np.where(group_mask, inv_arr, tgt_arr)
        return new_stored, new_flip_bits

    def encode(
        self,
        old_stored: bytes,
        old_flip_bits: np.ndarray,
        target: bytes,
    ) -> tuple[bytes, np.ndarray]:
        """Choose the cheapest stored representation of ``target``.

        Byte-string front end over :meth:`encode_array`; returns the new
        stored bytes and the new flip-bit vector.
        """
        self._check(old_stored, old_flip_bits, target)
        stored, flip_bits = self.encode_array(
            np.frombuffer(old_stored, dtype=np.uint8),
            old_flip_bits,
            np.frombuffer(target, dtype=np.uint8),
        )
        return bitops.to_bytes(stored), flip_bits

    def decode_array(
        self, arr: np.ndarray, flip_bits: np.ndarray
    ) -> np.ndarray:
        """Array-native :meth:`decode`."""
        group_mask = np.repeat(flip_bits.astype(bool), self.group_bytes)
        return np.where(group_mask, ~arr, arr)

    def decode(self, stored: bytes, flip_bits: np.ndarray) -> bytes:
        """Recover the logical line from its stored representation."""
        self._check(stored, flip_bits, stored)
        return bitops.to_bytes(
            self.decode_array(np.frombuffer(stored, dtype=np.uint8), flip_bits)
        )

    def fresh_flip_bits(self) -> np.ndarray:
        return make_meta(self.n_groups)

    def _check(self, stored: bytes, flip_bits: np.ndarray, target: bytes) -> None:
        if len(stored) != self.line_bytes or len(target) != self.line_bytes:
            raise ValueError(
                f"line must be {self.line_bytes} bytes, got "
                f"{len(stored)}/{len(target)}"
            )
        if flip_bits.size != self.n_groups:
            raise ValueError(
                f"expected {self.n_groups} flip bits, got {flip_bits.size}"
            )


def _fnw_write_batch(scheme, addresses, data, pads) -> BatchOutcome:
    """The FNW schemes' chunk kernel; ``pads`` is None for plain memory.

    Each write's target is its plaintext, or the plaintext XOR the pad of
    the line's next counter (one request per write, in trace order, as the
    scalar path makes them).  :func:`fnw_encode_runs` then encodes every
    line's run of targets at once.
    """
    m = len(addresses)
    if m == 0:
        return empty_batch()
    codec = scheme.codec
    groups = group_by_address(addresses, data)
    starts = groups.starts
    table = scheme.table
    rows = table.rows(groups.unique_addresses)
    old_stored, old_flips = table.stored[rows], table.meta[rows]
    counters = table.counters[rows][groups.group_id] + groups.rank + 1
    targets = groups.data
    if pads is not None:
        stream = pads.line_pads_batch(
            np.asarray(addresses, dtype=np.int64),
            to_trace_order(groups, counters),
            scheme.line_bytes,
        )
        targets = targets ^ np.asarray(stream)[groups.order]
    stored, flips = fnw_encode_runs(
        targets, starts, old_stored, old_flips, codec.group_bits
    )
    diffs = diff_stored_rows(
        previous_rows(stored, starts, old_stored),
        stored,
        previous_rows(flips, starts, old_flips),
        flips,
    )
    last_rows = groups.last_rows
    table.commit(
        rows, counters[last_rows], stored[last_rows], flips[last_rows], None
    )
    encrypted = pads is not None
    return BatchOutcome(
        addresses=groups.addresses,
        words_reencrypted=np.zeros(m, dtype=np.int64),
        full_line_reencrypted=np.full(m, encrypted),
        epoch_reset=np.zeros(m, dtype=bool),
        mode_switched=np.zeros(m, dtype=bool),
        mode_counts={"fnw": m} if encrypted else {},
        **diffs,
    )


class PlainFNW(WriteScheme):
    """Unencrypted memory with Flip-N-Write (paper's "NoEncr FNW")."""

    name = "noencr-fnw"

    config_fields = {
        "line_bytes": "line_bytes",
        "fnw_group_bits": "group_bits",
    }
    requires_pads = False

    def __init__(self, line_bytes: int = 64, group_bits: int = 16) -> None:
        super().__init__(line_bytes)
        self.codec = FnwCodec(line_bytes, group_bits)

    @property
    def metadata_bits_per_line(self) -> int:
        return self.codec.n_groups

    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        return StoredLine(plaintext, self.codec.fresh_flip_bits())

    def install_batch(self, addresses, data) -> None:
        """Bulk plaintext placement with fresh flip bits."""
        plain = line_matrix(data, self.line_bytes)
        self.table.install(addresses, plain, plain)

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._line(address)
        stored, flip_bits = self.codec.encode_array(
            old.arr, old.meta, bitops.as_array(plaintext)
        )
        new = StoredLine(stored, flip_bits, old.counter + 1)
        return self._commit(address, old, new)

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized FNW over a chunk; bit-identical to sequential writes."""
        return _fnw_write_batch(self, addresses, data, None)

    def read(self, address: int) -> bytes:
        line = self._line(address)
        return bitops.to_bytes(self.codec.decode_array(line.arr, line.meta))


class EncryptedFNW(WriteScheme):
    """Counter-mode encrypted memory with FNW on the ciphertext.

    The paper's "Encr FNW" configuration: every write re-encrypts the whole
    line with a fresh counter (avalanche makes the new ciphertext ~50%
    different), then FNW picks plain/inverted per group.  Expected flips per
    16-bit group against a random target: ``E[min(d, 16-d)] + E[flip-bit
    flip]`` which lands near the paper's 43%.
    """

    name = "encr-fnw"

    config_fields = {
        "line_bytes": "line_bytes",
        "fnw_group_bits": "group_bits",
    }

    def __init__(
        self,
        pads: PadSource,
        line_bytes: int = 64,
        group_bits: int = 16,
    ) -> None:
        super().__init__(line_bytes)
        self.pads = pads
        self.codec = FnwCodec(line_bytes, group_bits)

    @property
    def metadata_bits_per_line(self) -> int:
        return self.codec.n_groups

    def _pad(self, address: int, counter: int) -> np.ndarray:
        return self.pads.line_pad_array(address, counter, self.line_bytes)

    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        ciphertext = bitops.as_array(plaintext) ^ self._pad(address, 0)
        return StoredLine(ciphertext, self.codec.fresh_flip_bits(), 0)

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
        ciphertext = bitops.as_array(plaintext) ^ self._pad(address, counter)
        stored, flip_bits = self.codec.encode_array(
            old.arr, old.meta, ciphertext
        )
        new = StoredLine(stored, flip_bits, counter)
        return self._commit(
            address, old, new, full_line_reencrypted=True, mode="fnw"
        )

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized re-encryption and FNW over a chunk; bit-identical to
        sequential writes, pad-cache statistics included."""
        return _fnw_write_batch(self, addresses, data, self.pads)

    def read(self, address: int) -> bytes:
        line = self._line(address)
        ciphertext = self.codec.decode_array(line.arr, line.meta)
        return bitops.to_bytes(ciphertext ^ self._pad(address, line.counter))
