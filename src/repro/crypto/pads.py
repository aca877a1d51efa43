"""One-time pad (OTP) sources for counter-mode memory encryption.

Counter-mode encryption (paper section 2.3-2.4) never feeds data through the
block cipher.  Instead the cipher turns ``(secret key, line address, line
counter)`` into a pseudorandom *pad*; the pad is XORed with the line for both
encryption and decryption.  Security rests on each (address, counter) pair
producing a pad exactly once.

This module defines the :class:`PadSource` interface and two implementations:

* :class:`AesPadSource` — the real thing: AES (from :mod:`repro.crypto.aes`)
  in counter mode, one 16-byte block per pad block, exactly as a hardware AES
  engine would generate it.
* :class:`Blake2PadSource` — a fast surrogate backed by ``hashlib.blake2b``
  (C implementation in the standard library).  It is a keyed PRF with the
  same avalanche property (each distinct input yields a pad that differs in
  ~50% of bits), which is the only statistical property the paper's write
  analysis depends on.  Sweeps over millions of writebacks use this source;
  functional tests use AES.

Both sources are deterministic for a given key, so traces are reproducible.

Besides the byte-string ``pad_block``/``line_pad`` interface, every source
offers :meth:`PadSource.line_pad_array`, which produces the whole line's pad
as one read-only ``np.uint8`` array — a single BLAKE2 call for 64-byte lines,
or all N AES blocks materialized in one pass — so the vectorized scheme write
paths never round-trip pads through ``bytes``.

A batch of requests has two halves that the batch kernels call apart.  The
``count_`` calls walk a stream of scalar requests through the pad cache's
bookkeeping and make no pads; a bare source keeps no bookkeeping, so for it
they do nothing.  The ``peek_`` calls make the pads of a batch and touch no
bookkeeping.  :meth:`PadSource.line_pads_batch` and
:meth:`PadSource.pad_blocks_batch` are the two halves together.  A kernel
that needs pad values before it knows its request stream peeks them, then
counts the stream, and so makes each pad once.

:class:`CachingPadSource` counts with :class:`_LruCounter`, whose LRU keys
are one Python ``int`` packed from (address, counter, block or width) when
the three fit 31, 24 and 8 bits, and a tuple otherwise.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from functools import lru_cache
from typing import Protocol

import numpy as np

from repro.crypto.aes import AES, BLOCK_SIZE

#: Pad block width.  AES fixes this at 16 bytes; the BLAKE2 surrogate honours
#: the same framing so the two sources are interchangeable.
PAD_BLOCK_BYTES = BLOCK_SIZE


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark a pad array read-only (pads are shared and must never mutate)."""
    arr.setflags(write=False)
    return arr


def row_ids(*columns: np.ndarray) -> np.ndarray:
    """One int64 per row of the int64 ``columns``, equal iff the rows are.

    Non-negative columns whose widths sum to at most 63 bits are packed
    into one int64, each column in its own bits; anything else is ranked
    with one ``np.lexsort``.
    """
    m = columns[0].shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    widths = [int(col.max()).bit_length() for col in columns]
    if sum(widths) <= 63 and min(int(col.min()) for col in columns) >= 0:
        ids = np.array(columns[0], dtype=np.int64)
        for col, width in zip(columns[1:], widths[1:]):
            ids <<= width
            ids |= col
        return ids
    order = np.lexsort(columns[::-1])
    new = np.zeros(m, dtype=bool)
    new[0] = True
    for col in columns:
        ordered = col[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    ids = np.empty(m, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids


def unique_rows(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of the int64 ``columns``.

    Returns one row of each distinct key and, per row, the index of its
    key among them.
    """
    ids = row_ids(*columns)
    order = np.argsort(ids)
    ordered = ids[order]
    new = np.empty(ids.shape[0], dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


#: Pre-compiled (address, counter, lane) tweak packer for the Blake2 path.
_pack_qqb = struct.Struct("<QQB").pack

#: Requests per slice of a block-pad batch.  A block stream runs to
#: thousands of requests (a working set's install, a BLE+DEUCE chunk);
#: walked and generated whole, its keys as Python objects and its pads'
#: intermediates raised the peak RSS of a ten-scheme, 5k-write Gems round
#: by about 0.4 MB.
_BLOCK_SLICE = 1024

#: An LRU counter's key log is compacted once it holds this many times
#: the cache's capacity in rows.
_LOG_SLACK = 4

#: Widths of an LRU key packed into one int: address, counter, and block
#: index or width, most significant first.  ``functools.lru_cache`` takes
#: an exact ``int`` argument as the key itself, where a tuple argument
#: costs a tuple hash per lookup.
_ADDR_BITS, _CTR_BITS, _INDEX_BITS = 31, 24, 8
_CTR_SHIFT = _INDEX_BITS
_ADDR_SHIFT = _CTR_BITS + _INDEX_BITS


class PadSource(Protocol):
    """Anything that can produce counter-mode pads.

    Implementations must be pure functions of ``(key, address, counter,
    block_index)`` — calling :meth:`pad_block` twice with the same arguments
    must return the same bytes, and any change to an argument should change
    roughly half the output bits (avalanche).
    """

    def pad_block(self, address: int, counter: int, block_index: int) -> bytes:
        """Return the 16-byte pad block for one AES block of a line."""
        ...

    def line_pad(self, address: int, counter: int, n_bytes: int) -> bytes:
        """Return a pad covering ``n_bytes`` (concatenated pad blocks)."""
        ...

    def line_pad_array(
        self, address: int, counter: int, n_bytes: int
    ) -> np.ndarray:
        """Return the ``n_bytes`` line pad as a read-only uint8 array."""
        ...

    def line_pads_batch(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> np.ndarray:
        """Return ``(len(addresses), n_bytes)`` pads for a whole write batch."""
        ...

    def peek_line_pads_batch(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> np.ndarray:
        """:meth:`line_pads_batch` with no side effects on caches or stats."""
        ...

    def count_line_pads(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> None:
        """Count ``len(addresses)`` :meth:`line_pad_array` requests, in
        order, in the caches and stats, without making their pads."""
        ...

    def pad_blocks_batch(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """Return ``(len(addresses), 16)`` pad blocks, one per request."""
        ...

    def peek_pad_blocks_batch(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """:meth:`pad_blocks_batch` with no side effects on caches or stats."""
        ...

    def count_pad_blocks(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> None:
        """:meth:`count_line_pads` for :meth:`pad_block` requests."""
        ...


def _pack_tweak(address: int, counter: int, block_index: int) -> bytes:
    """Serialize the pad inputs into the cipher's 16-byte input block.

    Layout: 6-byte line address, 7-byte counter, 1-byte block index, 2 bytes
    of zero padding.  28-bit line counters (the paper's provisioning) fit with
    room to spare; we allow up to 56 bits so lifetime studies never wrap.
    """
    if address < 0 or address >= 1 << 48:
        raise ValueError(f"line address out of range: {address}")
    if counter < 0 or counter >= 1 << 56:
        raise ValueError(f"counter out of range: {counter}")
    if block_index < 0 or block_index >= 256:
        raise ValueError(f"block index out of range: {block_index}")
    return (
        address.to_bytes(6, "little")
        + counter.to_bytes(7, "little")
        + bytes([block_index])
        + b"\x00\x00"
    )


class _PadSourceBase:
    """Shared ``line_pad`` plumbing for concrete pad sources."""

    def pad_block(self, address: int, counter: int, block_index: int) -> bytes:
        raise NotImplementedError

    def line_pad(self, address: int, counter: int, n_bytes: int) -> bytes:
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        n_blocks = -(-n_bytes // PAD_BLOCK_BYTES)
        pad = b"".join(
            self.pad_block(address, counter, i) for i in range(n_blocks)
        )
        return pad[:n_bytes]

    def line_pad_array(
        self, address: int, counter: int, n_bytes: int
    ) -> np.ndarray:
        """Default array framing: one buffer view over the line pad bytes."""
        return _freeze(
            np.frombuffer(self.line_pad(address, counter, n_bytes), np.uint8)
        )

    def line_pads_batch(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> np.ndarray:
        """Whole-batch pad stream: one ``(m, n_bytes)`` array per chunk.

        Default implementation loops :meth:`line_pad_array`; the concrete
        sources override this with genuinely wide keystream generation.
        Row ``i`` equals ``line_pad_array(addresses[i], counters[i],
        n_bytes)`` exactly, so batched and per-write encryption agree
        bit-for-bit.
        """
        m = len(addresses)
        out = np.empty((m, n_bytes), dtype=np.uint8)
        for i in range(m):
            out[i] = self.line_pad_array(
                int(addresses[i]), int(counters[i]), n_bytes
            )
        return _freeze(out)

    def peek_line_pads_batch(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> np.ndarray:
        """Same pads as :meth:`line_pads_batch`; a bare source keeps no
        bookkeeping, so the two are one call."""
        return self.line_pads_batch(addresses, counters, n_bytes)

    def count_line_pads(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> None:
        """Nothing to count: a bare source keeps no bookkeeping."""

    def pad_blocks_batch(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """A stream of single pad blocks: one ``(m, 16)`` array per chunk.

        Row ``i`` equals ``pad_block(addresses[i], counters[i], blocks[i])``.
        Default implementation loops :meth:`pad_block`; the concrete sources
        override it with one wide keystream call.
        """
        m = len(addresses)
        out = np.empty((m, PAD_BLOCK_BYTES), dtype=np.uint8)
        for i, (a, c, b) in enumerate(
            zip(
                np.asarray(addresses, dtype=np.int64).tolist(),
                np.asarray(counters, dtype=np.int64).tolist(),
                np.asarray(blocks, dtype=np.int64).tolist(),
            )
        ):
            out[i] = np.frombuffer(self.pad_block(a, c, b), dtype=np.uint8)
        return _freeze(out)

    def peek_pad_blocks_batch(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """Same pads as :meth:`pad_blocks_batch` (no bookkeeping to skip)."""
        return self.pad_blocks_batch(addresses, counters, blocks)

    def count_pad_blocks(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> None:
        """Nothing to count, as :meth:`count_line_pads`."""


class AesPadSource(_PadSourceBase):
    """Counter-mode pads from a real AES engine.

    Parameters
    ----------
    key:
        AES key (16/24/32 bytes).  In hardware this is the processor-held
        secret; the memory side never sees it.
    """

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        self.key = bytes(key)

    def pad_block(self, address: int, counter: int, block_index: int) -> bytes:
        tweak = _pack_tweak(address, counter, block_index)
        return self._aes.encrypt_block(tweak)

    def line_pads_batch(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> np.ndarray:
        """One wide AES-CTR keystream call covering the whole batch.

        Builds every (address, counter, block) tweak as one ``(m * blocks,
        16)`` array and runs the vectorized cipher over all of them at once.
        """
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        addresses = np.asarray(addresses, dtype=np.int64)
        m = addresses.shape[0]
        n_blocks = -(-n_bytes // PAD_BLOCK_BYTES)
        if m == 0 or n_blocks == 0:
            return _freeze(np.zeros((m, n_bytes), dtype=np.uint8))
        stream = self._keystream(
            np.repeat(addresses, n_blocks),
            np.repeat(np.asarray(counters, dtype=np.int64), n_blocks),
            np.tile(np.arange(n_blocks, dtype=np.int64), m),
        )
        pads = stream.reshape(m, n_blocks * PAD_BLOCK_BYTES)[:, :n_bytes]
        return _freeze(np.ascontiguousarray(pads))

    def pad_blocks_batch(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """Every requested block's tweak through one wide AES call."""
        return _freeze(self._keystream(
            np.asarray(addresses, dtype=np.int64),
            np.asarray(counters, dtype=np.int64),
            np.asarray(blocks, dtype=np.int64),
        ))

    def _keystream(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """``(n, 16)`` AES outputs for ``n`` (address, counter, block) tweaks.

        The tweaks are laid out as :func:`_pack_tweak` does, as one
        ``(n, 16)`` array, and run through the vectorized cipher at once.
        """
        n = addresses.shape[0]
        if n == 0:
            return np.zeros((0, PAD_BLOCK_BYTES), dtype=np.uint8)
        if addresses.min() < 0 or addresses.max() >= 1 << 48:
            raise ValueError("line address out of range")
        if counters.min() < 0 or counters.max() >= 1 << 56:
            raise ValueError("counter out of range")
        if blocks.min() < 0 or blocks.max() >= 256:
            raise ValueError("block index out of range")
        tweaks = np.zeros((n, PAD_BLOCK_BYTES), dtype=np.uint8)
        for byte in range(6):
            tweaks[:, byte] = (addresses >> (8 * byte)) & 0xFF
        for byte in range(7):
            tweaks[:, 6 + byte] = (counters >> (8 * byte)) & 0xFF
        tweaks[:, 13] = blocks
        return self._aes.encrypt_blocks_array(tweaks)


class Blake2PadSource(_PadSourceBase):
    """Fast keyed-PRF pads for large simulation sweeps.

    Uses ``blake2b`` in keyed mode.  One hash call yields up to 64 bytes, so
    a whole 64-byte line pad costs a single C-speed call; ``pad_block``
    slices the per-counter digest to preserve AES's 16-byte block framing.
    """

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self.key = bytes(key)
        self._key64 = hashlib.blake2b(self.key, digest_size=64).digest()
        # Keyed-constructor setup (key padding + one compression) dominates
        # short-message hashing; pre-absorbing the key once and cloning the
        # hasher per call makes each pad ~2.5x cheaper than a fresh keyed
        # constructor while producing the identical digest.
        self._h0 = hashlib.blake2b(key=self._key64, digest_size=64)
        # The write path's innermost per-pad operation: bind every global
        # (the pre-keyed hasher's copy, struct pack, frombuffer, dtype) into
        # a closure so each call is pure C work plus one LOAD_FAST each.
        # Shadowing the method with an instance attribute keeps the class
        # API unchanged; hashers are unpicklable so nothing serialized this
        # object before either.
        copy = self._h0.copy
        pack = _pack_qqb
        frombuffer = np.frombuffer
        uint8 = np.uint8
        fallback = self.line_pad

        def line_pad_array(
            address: int, counter: int, n_bytes: int
        ) -> np.ndarray:
            if 0 <= n_bytes <= 64:
                h = copy()
                h.update(pack(address, counter, 0))
                arr = frombuffer(h.digest(), uint8)
                return arr if n_bytes == 64 else arr[:n_bytes]
            return frombuffer(fallback(address, counter, n_bytes), uint8)

        self.line_pad_array = line_pad_array

    def _digest(self, address: int, counter: int, lane: int) -> bytes:
        h = self._h0.copy()
        h.update(_pack_qqb(address, counter, lane))
        return h.digest()

    def pad_block(self, address: int, counter: int, block_index: int) -> bytes:
        if block_index < 0:
            raise ValueError(f"block index out of range: {block_index}")
        lane, offset = divmod(block_index * PAD_BLOCK_BYTES, 64)
        return self._digest(address, counter, lane)[offset: offset + PAD_BLOCK_BYTES]

    def line_pad(self, address: int, counter: int, n_bytes: int) -> bytes:
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_bytes <= 64:
            # The common case (64-byte lines): exactly one C-speed call.
            return self._digest(address, counter, 0)[:n_bytes]
        chunks = []
        produced = 0
        lane = 0
        while produced < n_bytes:
            digest = self._digest(address, counter, lane)
            chunks.append(digest)
            produced += len(digest)
            lane += 1
        return b"".join(chunks)[:n_bytes]

    def line_pads_batch(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> np.ndarray:
        """Batch keystream: one cloned-hasher digest per row, one big join.

        The per-row work is three C calls (copy/update/digest) on the
        pre-keyed hasher; the digests are joined into a single buffer so the
        result is one contiguous ``(m, n_bytes)`` view with no per-row numpy
        allocation.
        """
        m = len(addresses)
        if m == 0:
            return _freeze(np.zeros((0, n_bytes), dtype=np.uint8))
        if not 0 <= n_bytes <= 64:
            return super().line_pads_batch(addresses, counters, n_bytes)
        pack = _pack_qqb
        copy = self._h0.copy
        addr_list = np.asarray(addresses, dtype=np.int64).tolist()
        ctr_list = np.asarray(counters, dtype=np.int64).tolist()
        out = []
        append = out.append
        for a, c in zip(addr_list, ctr_list):
            h = copy()
            h.update(pack(a, c, 0))
            append(h.digest())
        arr = np.frombuffer(b"".join(out), np.uint8).reshape(m, 64)
        return arr if n_bytes == 64 else arr[:, :n_bytes]

    def pad_blocks_batch(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """Block stream with one digest per unique (address, counter, lane).

        A 64-byte digest holds four pad blocks, so every block of a 64-byte
        line's pad is a slice of its lane-0 digest: requests that differ
        only in the block index share one hash.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        m = blocks.shape[0]
        if m == 0:
            return _freeze(np.zeros((0, PAD_BLOCK_BYTES), dtype=np.uint8))
        if blocks.min() < 0:
            raise ValueError("block index out of range")
        per_lane = 64 // PAD_BLOCK_BYTES
        addresses = np.asarray(addresses, dtype=np.int64)
        counters = np.asarray(counters, dtype=np.int64)
        lanes = blocks // per_lane
        rows, digest_of = unique_rows(addresses, counters, lanes)
        pack = _pack_qqb
        copy = self._h0.copy
        out = []
        append = out.append
        keys = (addresses[rows], counters[rows], lanes[rows])
        for key in zip(*(col.tolist() for col in keys)):
            h = copy()
            h.update(pack(*key))
            append(h.digest())
        table = np.frombuffer(b"".join(out), np.uint8).reshape(
            -1, per_lane, PAD_BLOCK_BYTES
        )
        return _freeze(table[digest_of, blocks % per_lane])


def _lru_key(address: int, counter: int, index: int):
    """The LRU key of one request: a packed int, or a tuple if wider."""
    if address >> _ADDR_BITS or counter >> _CTR_BITS or index >> _INDEX_BITS:
        return (address, counter, index)
    return address << _ADDR_SHIFT | counter << _CTR_SHIFT | index


def _lru_keys(keys: np.ndarray) -> list:
    """:func:`_lru_key` of every column of ``(3, n)`` int64 ``keys``."""
    address, counter, index = keys
    out = (address << _ADDR_SHIFT | counter << _CTR_SHIFT | index).tolist()
    wide = (
        address >> _ADDR_BITS | counter >> _CTR_BITS | index >> _INDEX_BITS
    ) != 0
    if wide.any():
        for row in np.flatnonzero(wide).tolist():
            out[row] = tuple(keys[:, row].tolist())
    return out


def _key_columns(keys: list) -> np.ndarray:
    """The ``(3, n)`` int64 columns of a list of :func:`_lru_key` keys."""
    packed = np.array(
        [key if key.__class__ is int else -1 for key in keys], dtype=np.int64
    )
    columns = np.stack([
        packed >> _ADDR_SHIFT,
        (packed >> _CTR_SHIFT) & ((1 << _CTR_BITS) - 1),
        packed & ((1 << _INDEX_BITS) - 1),
    ])
    for row in np.flatnonzero(packed < 0).tolist():
        columns[:, row] = keys[row]
    return columns


class _LruCounter:
    """Hit and miss counts of an LRU cache of ``capacity`` keys.

    Pads are pure functions of their key, so the cache of a simulation
    needs no values to count: ``functools.lru_cache`` keeps the recency
    list in C, a batch of keys is walked by mapping them through it, and
    ``cache_info()`` holds the counts.  A key is one ``int`` packed from
    (address, counter, index) when they fit, a tuple otherwise (an int
    never equals a tuple, so the two kinds never collide).

    The cached function is ``dict.get`` on ``_pending``, which a walk
    leaves empty: a walk's miss caches ``None`` and allocates nothing.  A
    scalar :meth:`fetch` puts a fresh list under its key first, so its
    miss caches that list, and the key's pad goes into it: a repeated
    scalar hit returns the same object, and the pad leaves memory with
    its key.

    ``lru_cache`` does not expose its order.  An LRU cache always holds
    the last ``capacity`` distinct keys by last use, though, so a log of
    the requested keys rebuilds it; the log is compacted to those keys
    whenever it grows past ``_LOG_SLACK * capacity`` rows.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._bound = _LOG_SLACK * capacity
        self._pending: dict = {}
        self._lookup = lru_cache(maxsize=capacity)(self._pending.get)
        #: ``(3, n)`` int64 key columns, oldest request first.
        self._log = [np.empty((3, 0), dtype=np.int64)]
        self._rows = 0
        #: Scalar requests' LRU keys not yet moved into ``_log``.
        self._tail: list = []

    @property
    def hits(self) -> int:
        return self._lookup.cache_info().hits

    @property
    def misses(self) -> int:
        return self._lookup.cache_info().misses

    def fetch(self, address: int, counter: int, index: int, make):
        """One lookup; the key's pad, ``make(address, counter, index)``
        unless held.  Numpy scalars are taken as Python ints."""
        address, counter, index = int(address), int(counter), int(index)
        key = _lru_key(address, counter, index)
        tail = self._tail
        tail.append(key)
        if len(tail) > self._bound:
            self._compact()
        pending = self._pending
        pending[key] = []
        slot = self._lookup(key)
        del pending[key]
        if slot is None:
            # First requested by a walk, which keeps no pad.
            return make(address, counter, index)
        if not slot:
            slot.append(make(address, counter, index))
        return slot[0]

    def walk(self, *columns: np.ndarray) -> None:
        """One lookup per row of the int64 key ``columns``, in order."""
        self._flush()
        keys = np.stack(columns)
        self._log.append(keys)
        self._rows += keys.shape[1]
        if self._rows > self._bound:
            self._compact()
        deque(map(self._lookup, _lru_keys(keys)), 0)

    def keys(self) -> np.ndarray:
        """The cached keys, least recently used first, as ``(n, 3)`` int64."""
        self._compact()
        return np.ascontiguousarray(self._log[0].T)

    def _flush(self) -> None:
        if self._tail:
            self._log.append(_key_columns(self._tail))
            self._rows += len(self._tail)
            self._tail = []

    def _compact(self) -> None:
        """Cut the log to each cached key's last request, oldest first."""
        self._flush()
        log = np.concatenate(self._log, axis=1)
        # A stable sort groups equal keys with their requests oldest
        # first, so each group's last request is the key's last use.
        order = np.argsort(row_ids(*log), kind="stable")
        ordered = np.take(log, order, axis=1)
        last = np.ones(log.shape[1], dtype=bool)
        last[:-1] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        keep = np.sort(order[last])[-self._capacity:]
        self._log = [np.take(log, keep, axis=1)]
        self._rows = len(keep)


class CachingPadSource(_PadSourceBase):
    """LRU pad cache in front of another :class:`PadSource`.

    DEUCE reads regenerate both the LCTR and TCTR pads on every access; a
    small cache mirrors the hardware's ability to hold recent pads.  A pad
    is a pure function of its key, so here the cache only yields
    statistics: ``hits``, ``misses`` and :meth:`state_dict`.  Whole line
    pads and individual pad blocks are counted by two true LRU caches of
    ``capacity`` keys each (a hit moves the key to the back of the
    eviction order).

    The ``count_`` calls walk a request stream through an LRU and make no
    pads; the ``peek_`` calls take pads from the inner source and leave
    the LRUs alone.  A batch fetch is one of each, so the batch kernels,
    which peek what they need and count the scalar stream, make each pad
    once.  The scalar ``pad_block`` and ``line_pad_array`` are one LRU
    step each, and keep their pad with its key.
    """

    def __init__(self, inner: PadSource, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._inner = inner
        self._capacity = capacity
        self._reset(_LruCounter(capacity), _LruCounter(capacity), 0, 0)

    def _reset(self, blocks, lines, hits: int, misses: int) -> None:
        self._blocks = blocks
        self._lines = lines
        #: Counts restored from a checkpoint that the counters do not hold.
        self._hits0 = hits - blocks.hits - lines.hits
        self._misses0 = misses - blocks.misses - lines.misses

    @property
    def inner(self) -> PadSource:
        """The wrapped pad source (e.g. for isinstance checks)."""
        return self._inner

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def hits(self) -> int:
        return self._blocks.hits + self._lines.hits + self._hits0

    @property
    def misses(self) -> int:
        return self._blocks.misses + self._lines.misses + self._misses0

    def pad_block(self, address: int, counter: int, block_index: int) -> bytes:
        return self._blocks.fetch(
            address, counter, block_index, self._inner.pad_block
        )

    def line_pad_array(
        self, address: int, counter: int, n_bytes: int
    ) -> np.ndarray:
        return self._lines.fetch(
            address, counter, n_bytes, self._inner.line_pad_array
        )

    def line_pad(self, address: int, counter: int, n_bytes: int) -> bytes:
        return self.line_pad_array(address, counter, n_bytes).tobytes()

    def count_line_pads(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> None:
        """Walk ``m`` :meth:`line_pad_array` requests through the line LRU,
        in order: the hit/miss counts and the cached keys end up as
        sequential calls leave them."""
        addresses = np.asarray(addresses, dtype=np.int64)
        self._lines.walk(
            addresses,
            np.asarray(counters, dtype=np.int64),
            np.full(addresses.shape[0], n_bytes, dtype=np.int64),
        )

    def count_pad_blocks(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> None:
        """Walk ``m`` :meth:`pad_block` requests through the block LRU, in
        order, in slices of ``_BLOCK_SLICE``."""
        columns = [
            np.asarray(col, dtype=np.int64)
            for col in (addresses, counters, blocks)
        ]
        for lo in range(0, columns[0].shape[0], _BLOCK_SLICE):
            self._blocks.walk(*(col[lo: lo + _BLOCK_SLICE] for col in columns))

    def line_pads_batch(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> np.ndarray:
        """Batched line pads, counted as ``m`` :meth:`line_pad_array` calls:
        :meth:`count_line_pads`, then one :meth:`peek_line_pads_batch`."""
        self.count_line_pads(addresses, counters, n_bytes)
        return _freeze(self.peek_line_pads_batch(addresses, counters, n_bytes))

    def pad_blocks_batch(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """Batched pad blocks, counted as ``m`` :meth:`pad_block` calls:
        :meth:`count_pad_blocks` and :meth:`peek_pad_blocks_batch`, slice
        by slice."""
        columns = [
            np.asarray(col, dtype=np.int64)
            for col in (addresses, counters, blocks)
        ]
        m = columns[0].shape[0]
        out = np.empty((m, PAD_BLOCK_BYTES), dtype=np.uint8)
        for lo in range(0, m, _BLOCK_SLICE):
            part = [col[lo: lo + _BLOCK_SLICE] for col in columns]
            self._blocks.walk(*part)
            out[lo: lo + _BLOCK_SLICE] = self.peek_pad_blocks_batch(*part)
        return _freeze(out)

    def peek_line_pads_batch(
        self, addresses: np.ndarray, counters: np.ndarray, n_bytes: int
    ) -> np.ndarray:
        """Pads for a batch, leaving the LRU order and hit/miss counts alone."""
        return self._inner.peek_line_pads_batch(addresses, counters, n_bytes)

    def peek_pad_blocks_batch(
        self, addresses: np.ndarray, counters: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """Pad blocks for a batch, leaving the block cache and counts alone."""
        return self._inner.peek_pad_blocks_batch(addresses, counters, blocks)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        """Cached keys in LRU order and the hit counters.

        Restoring this makes a resumed run's ``pad_hits``/``pad_misses``
        match the uninterrupted run exactly.  Pads are pure functions of
        (key, address, counter), so correctness never depends on it, and
        no pad is stored: the keys alone rebuild the cache.
        """
        return {
            "block_keys": self._blocks.keys(),
            "line_keys": self._lines.keys(),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Replay the saved keys, oldest first, into fresh caches.

        Any other entry is ignored: older checkpoints also stored the
        cached pads as ``block_pads``/``line_pads``.
        """
        counters = []
        for name in ("block_keys", "line_keys"):
            lru = _LruCounter(self._capacity)
            keys = np.asarray(state[name], dtype=np.int64).reshape(-1, 3)
            lru.walk(*keys.T)
            counters.append(lru)
        self._reset(*counters, int(state["hits"]), int(state["misses"]))


def make_pad_source(kind: str, key: bytes) -> PadSource:
    """Factory used by simulation configs.

    Parameters
    ----------
    kind:
        ``"aes"`` for the real cipher or ``"blake2"`` for the fast surrogate.
    key:
        Secret key bytes.
    """
    from repro.registry import PAD_SOURCES

    return PAD_SOURCES.create(kind, key)
