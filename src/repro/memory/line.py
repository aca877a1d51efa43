"""Physical line images stored in the PCM array.

A *stored line* is what actually sits in the PCM cells: the (possibly
encrypted, possibly bit-flipped) data bytes plus the scheme's per-line
metadata bits (FNW flip bits, DEUCE modified bits, DynDEUCE mode bit).  The
per-line write counter is kept alongside; following the paper we do not count
counter increments in the modified-bits figure of merit because every
encrypted configuration pays for them identically (section 3.3 counts "the
Flip bit in FNW"-style metadata).
"""

from __future__ import annotations

import numpy as np


def make_meta(n_bits: int) -> np.ndarray:
    """A zeroed metadata bit vector."""
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    return np.zeros(n_bits, dtype=np.uint8)


def meta_flips(old: np.ndarray, new: np.ndarray) -> int:
    """Number of metadata bits that differ."""
    if old.shape != new.shape:
        raise ValueError(f"metadata shape mismatch: {old.shape} vs {new.shape}")
    return int(np.count_nonzero(old != new))


class StoredLine:
    """One cache line's physical state in PCM.

    Attributes
    ----------
    data:
        The stored data bytes (64 for the paper's configuration).  May be
        constructed from either ``bytes`` or a uint8 array.  When built from
        an array, the bytes are materialized lazily on first access — the
        hot write paths are array-native and never pay the copy.
    arr:
        Read-only ``np.uint8`` view of the stored image — what the
        vectorized scheme write paths operate on.
    meta:
        Scheme metadata bits (uint8 0/1 vector); contents are scheme-defined.
    counter:
        The per-line write counter of counter-mode encryption.  Stored in
        plaintext per section 2.4.
    """

    __slots__ = ("_data", "arr", "meta", "counter")

    def __init__(
        self,
        data: bytes | np.ndarray,
        meta: np.ndarray | None = None,
        counter: int = 0,
    ) -> None:
        if isinstance(data, np.ndarray):
            arr = data.astype(np.uint8, copy=False)
            arr.setflags(write=False)
            self._data: bytes | None = None
            self.arr = arr
        else:
            self._data = bytes(data)
            # bytes own an immutable buffer: this view is free and read-only.
            self.arr = np.frombuffer(self._data, np.uint8)
        self.meta = (
            np.asarray(meta, dtype=np.uint8) if meta is not None else make_meta(0)
        )
        self.counter = counter

    @property
    def data(self) -> bytes:
        if self._data is None:
            self._data = self.arr.tobytes()
        return self._data

    @property
    def n_data_bits(self) -> int:
        return 8 * int(self.arr.size)

    @property
    def n_meta_bits(self) -> int:
        return int(self.meta.size)

    def __repr__(self) -> str:
        return (
            f"StoredLine(data={self.data!r}, meta={self.meta!r}, "
            f"counter={self.counter})"
        )

    def copy(self) -> "StoredLine":
        return StoredLine(self.arr, self.meta.copy(), self.counter)
