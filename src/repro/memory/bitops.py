"""Bit-level helpers shared by the PCM model and the write schemes.

The paper's figure of merit (section 3.3) is the number of *modified bits* per
writeback, so almost everything in this repo eventually reduces to "XOR two
byte strings and count ones".  These helpers keep that fast and put the other
recurring bit manipulations — word diffs, per-bit expansion, line rotation for
horizontal wear leveling — in one place.

Two API layers coexist:

* The original **bytes API** (``popcount``, ``xor``, ``changed_words``, ...)
  keeps every public signature stable for tests and external callers.
* An **array API** (``*_array`` variants) operates directly on ``np.uint8``
  arrays so the scheme write paths can stream a whole writeback through
  numpy without ``bytes <-> ndarray`` round-trips on every kernel call.

Per-byte popcounts use ``np.bitwise_count`` when the installed numpy provides
it (>= 2.0) and fall back to a 256-entry look-up table otherwise.
"""

from __future__ import annotations

import numpy as np

#: popcount of every byte value — the LUT fallback for bit-flip counting.
POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint32)

#: Whether the fast hardware-popcount ufunc is available (numpy >= 2.0).
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


if HAS_BITWISE_COUNT:

    def byte_popcounts(arr: np.ndarray) -> np.ndarray:
        """Per-byte popcount of a uint8 array (``np.bitwise_count`` path)."""
        return np.bitwise_count(arr)

else:  # pragma: no cover - exercised only on numpy < 2.0

    def byte_popcounts(arr: np.ndarray) -> np.ndarray:
        """Per-byte popcount of a uint8 array (LUT fallback)."""
        return POPCOUNT8[arr]


# -- bytes <-> array plumbing -------------------------------------------------


def as_array(data: bytes) -> np.ndarray:
    """View a byte string as a read-only ``np.uint8`` array (zero-copy)."""
    # Positional dtype: numpy parses it faster than the keyword.
    return np.frombuffer(data, np.uint8)


def to_bytes(arr: np.ndarray) -> bytes:
    """Materialize a uint8 array back into ``bytes``."""
    return arr.astype(np.uint8, copy=False).tobytes()


# -- array API ----------------------------------------------------------------


def popcount_array(arr: np.ndarray) -> int:
    """Number of set bits in a uint8 array."""
    if arr.size == 0:
        return 0
    return int(byte_popcounts(arr).sum())


def bit_flips_array(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing bit positions between two uint8 arrays."""
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        return 0
    return int(byte_popcounts(a ^ b).sum())


def directional_flips_array(a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """(SET, RESET) program counts between two stored uint8 images."""
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        return 0, 0
    sets = int(byte_popcounts(~a & b).sum())
    resets = int(byte_popcounts(a & ~b).sum())
    return sets, resets


#: Machine dtypes for reinterpreting a uint8 line as whole tracking words,
#: so word comparison is a single vectorized != instead of a reduction.
WORD_DTYPES: dict[int, type] = {
    1: np.uint8,
    2: np.uint16,
    4: np.uint32,
    8: np.uint64,
}


def changed_words_array(
    a: np.ndarray, b: np.ndarray, word_bytes: int
) -> np.ndarray:
    """Indices of differing ``word_bytes``-sized words, as an int array.

    This is the comparison the DEUCE write path performs after its
    read-before-write (section 4.3.2).  Machine word sizes (1/2/4/8) compare
    as single wide integers; other sizes fall back to reshape +
    ``any(axis=1)``.
    """
    _check_word_args(a.size, b.size, word_bytes)
    if a.size == 0:
        return np.zeros(0, dtype=np.intp)
    dtype = WORD_DTYPES.get(word_bytes)
    if dtype is not None and a.flags.c_contiguous and b.flags.c_contiguous:
        return (a.view(dtype) != b.view(dtype)).nonzero()[0]
    diff = (a != b).reshape(-1, word_bytes)
    return diff.any(axis=1).nonzero()[0]


def word_flip_counts_array(
    a: np.ndarray, b: np.ndarray, word_bytes: int
) -> np.ndarray:
    """Bit flips per word between two uint8 lines."""
    _check_word_args(a.size, b.size, word_bytes)
    if a.size == 0:
        return np.zeros(0, dtype=np.int64)
    per_byte = byte_popcounts(a ^ b).astype(np.int64, copy=False)
    return per_byte.reshape(-1, word_bytes).sum(axis=1)


def flipped_positions_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit positions (0 = MSB of byte 0) that differ between two lines.

    Unpacks only the *differing* bytes rather than the whole line: typical
    DEUCE writes touch a handful of words, so expanding all 64 bytes to 512
    bits per write wastes most of the work.
    """
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        return np.zeros(0, dtype=np.int64)
    diff = a ^ b
    nz = np.nonzero(diff)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(diff[nz]).reshape(-1, 8)
    rows, cols = np.nonzero(bits)
    return (nz[rows] * 8 + cols).astype(np.int64)


# -- bytes API (stable public surface) ---------------------------------------


def popcount(data: bytes) -> int:
    """Number of set bits in a byte string."""
    if not data:
        return 0
    return popcount_array(as_array(data))


def bit_flips(old: bytes, new: bytes) -> int:
    """Number of bit positions that differ between two equal-length strings."""
    if len(old) != len(new):
        raise ValueError(f"length mismatch: {len(old)} vs {len(new)}")
    if not old:
        return 0
    return bit_flips_array(as_array(old), as_array(new))


def xor(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (numpy-backed)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        return b""
    return (as_array(a) ^ as_array(b)).tobytes()


def directional_flips(old: bytes, new: bytes) -> tuple[int, int]:
    """(SET, RESET) cell-program counts between two stored images.

    PCM programs are asymmetric [2]: SET (0 -> 1, crystallize) is slow and
    RESET (1 -> 0, melt-quench) is fast but power-hungry, so schemes and
    energy models sometimes need the two directions separately.  Returns
    ``(zeros_to_ones, ones_to_zeros)``; their sum equals
    :func:`bit_flips`.
    """
    if len(old) != len(new):
        raise ValueError(f"length mismatch: {len(old)} vs {len(new)}")
    if not old:
        return 0, 0
    return directional_flips_array(as_array(old), as_array(new))


def changed_words(old: bytes, new: bytes, word_bytes: int) -> list[int]:
    """Indices of the ``word_bytes``-sized words that differ."""
    _check_word_args(len(old), len(new), word_bytes)
    return changed_words_array(as_array(old), as_array(new), word_bytes).tolist()


def changed_words_reference(old: bytes, new: bytes, word_bytes: int) -> list[int]:
    """Pure-Python slice-loop implementation of :func:`changed_words`.

    Kept as the parity oracle for the vectorized kernel (property tests
    compare the two over random lines); not used on the hot path.
    """
    _check_word_args(len(old), len(new), word_bytes)
    return [
        w
        for w in range(len(old) // word_bytes)
        if old[w * word_bytes: (w + 1) * word_bytes]
        != new[w * word_bytes: (w + 1) * word_bytes]
    ]


def word_flip_counts(old: bytes, new: bytes, word_bytes: int) -> list[int]:
    """Bit flips per word between two lines (used by DynDEUCE's estimator)."""
    _check_word_args(len(old), len(new), word_bytes)
    return word_flip_counts_array(
        as_array(old), as_array(new), word_bytes
    ).tolist()


def to_bit_array(data: bytes) -> np.ndarray:
    """Expand bytes into a uint8 array of individual bits (MSB first)."""
    if not data:
        return np.zeros(0, dtype=np.uint8)
    return np.unpackbits(as_array(data))


def from_bit_array(bits: np.ndarray) -> bytes:
    """Inverse of :func:`to_bit_array`."""
    if bits.size % 8 != 0:
        raise ValueError("bit array length must be a multiple of 8")
    return np.packbits(bits.astype(np.uint8)).tobytes()


def flipped_positions(old: bytes, new: bytes) -> np.ndarray:
    """Bit positions (0 = MSB of byte 0) that differ between two lines.

    The per-bit wear model (Figure 12 / section 5) accumulates these.
    """
    if len(old) != len(new):
        raise ValueError(f"length mismatch: {len(old)} vs {len(new)}")
    return flipped_positions_array(as_array(old), as_array(new))


def rotate_bits(data: bytes, amount: int) -> bytes:
    """Rotate a line left by ``amount`` bit positions (HWL, section 5.3).

    A positive amount moves every bit toward lower positions, wrapping
    around, i.e. bit ``i`` of the input lands at ``(i - amount) mod n``.
    """
    bits = to_bit_array(data)
    n = bits.size
    if n == 0:
        return b""
    return from_bit_array(np.roll(bits, -(amount % n)))


def unrotate_bits(data: bytes, amount: int) -> bytes:
    """Undo :func:`rotate_bits` with the same amount."""
    return rotate_bits(data, -amount)


def invert(data: bytes) -> bytes:
    """Bitwise complement (Flip-N-Write's inversion)."""
    if not data:
        return b""
    return (~as_array(data)).astype(np.uint8).tobytes()


def hamming_weight_fraction(data: bytes) -> float:
    """Fraction of set bits — handy sanity metric for pad avalanche tests."""
    if not data:
        return 0.0
    return popcount(data) / (8 * len(data))


def _check_word_args(len_old: int, len_new: int, word_bytes: int) -> None:
    if len_old != len_new:
        raise ValueError(f"length mismatch: {len_old} vs {len_new}")
    if word_bytes <= 0:
        raise ValueError("word_bytes must be positive")
    if len_old % word_bytes != 0:
        raise ValueError(
            f"line of {len_old} bytes is not a whole number of "
            f"{word_bytes}-byte words"
        )
