"""PCM array model: per-bit wear tracking and write-slot accounting.

Two PCM realities drive the paper's evaluation:

* **Endurance** — every cell tolerates a bounded number of programs, so the
  per-bit write distribution (not just the average) determines lifetime
  (section 5).  :class:`PcmArray` accumulates exactly which bit positions of
  which lines were programmed, optionally after the horizontal-wear-leveling
  rotation.
* **Write power** — the write circuitry can program 128 bits per *slot*
  (150 ns each), provisioned for at most 64 flips via internal Flip-N-Write
  (section 6.1, [19, 22]).  A 64-byte line spans four slots; a slot is
  consumed only when its 128-bit region contains at least one flipped bit,
  which is why bit-flip reduction shortens writes only when the surviving
  flips also *cluster* (the fragmentation effect of Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.schemes.base import WriteOutcome

#: Write-region width from the 8Gb PCM prototype the paper cites [19].
SLOT_BITS = 128
#: Max flips one slot's current budget can program (internal FNW provisioned).
SLOT_FLIP_BUDGET = 64
#: Program latency of one slot.
SLOT_LATENCY_NS = 150.0
#: Read latency of the array (Table 1).
READ_LATENCY_NS = 75.0


def slots_for_positions(
    flipped_positions: np.ndarray,
    line_bits: int,
    slot_bits: int = SLOT_BITS,
) -> int:
    """Write slots consumed by a write that flips the given bit positions.

    Each ``slot_bits``-wide region of the line needs one slot iff any of its
    bits flip.  Metadata bits (positions >= ``line_bits``) ride along with
    the last region, matching hardware where the 32 tracking bits live in
    the same row as the data.
    """
    if flipped_positions.size == 0:
        return 0
    n_regions = -(-line_bits // slot_bits)
    regions = np.minimum(flipped_positions // slot_bits, n_regions - 1)
    return int(np.unique(regions).size)


def slots_for_write(
    outcome: WriteOutcome, line_bits: int, slot_bits: int = SLOT_BITS
) -> int:
    """Slots consumed by a :class:`WriteOutcome` (data + metadata flips)."""
    positions = outcome.flipped_data_positions
    if outcome.flipped_meta_positions.size:
        meta = outcome.flipped_meta_positions + line_bits
        positions = np.concatenate([positions, meta])
    return slots_for_positions(positions, line_bits, slot_bits)


def slots_for_batch_diffs(
    data_diff: np.ndarray,
    meta_diff: np.ndarray | None,
    line_bits: int,
    slot_bits: int = SLOT_BITS,
) -> np.ndarray:
    """Per-write slot counts straight from a chunk's packed diff matrices.

    The batched form of :func:`slots_for_write`, working on the
    ``(m, line_bytes)`` byte diff: a region is occupied iff any of its
    bytes differ, one ``reduceat`` per chunk.  Requires
    byte-aligned regions (``slot_bits % 8 == 0``, true for the hardware's
    128-bit slots).
    """
    if slot_bits % 8:
        raise ValueError("slot_bits must be a multiple of 8")
    m, n_bytes = data_diff.shape
    n_regions = -(-line_bits // slot_bits)
    slot_bytes = slot_bits // 8
    # Region boundaries in byte space; bytes past (n_regions-1)*slot_bytes
    # collapse into the last region exactly like the position clamp.
    starts = np.arange(0, min(n_regions * slot_bytes, n_bytes), slot_bytes)
    presence = np.bitwise_or.reduceat(data_diff, starts, axis=1) != 0
    if meta_diff is not None and meta_diff.size:
        # Metadata bits ride along with the last region.
        presence[:, -1] |= meta_diff.any(axis=1)
    return presence.sum(axis=1, dtype=np.int64)


@dataclass
class WearSummary:
    """Aggregate wear statistics over the tracked array region.

    Attributes
    ----------
    total_writes:
        Number of line writebacks applied.
    total_flips:
        Total cell programs.
    position_writes:
        Programs per *bit position* summed over all lines — the profile of
        Figure 12 and the input to the lifetime model.
    max_line_bit_writes:
        The single most-worn cell's program count.
    """

    total_writes: int
    total_flips: int
    position_writes: np.ndarray
    max_line_bit_writes: int

    @property
    def mean_position_writes(self) -> float:
        return float(self.position_writes.mean()) if self.position_writes.size else 0.0

    @property
    def max_over_mean(self) -> float:
        """Figure 12's metric: hottest bit position over the average."""
        mean = self.mean_position_writes
        return float(self.position_writes.max()) / mean if mean > 0 else 0.0


class PcmArray:
    """Per-bit wear accounting for a set of lines.

    Parameters
    ----------
    line_bytes:
        Data bytes per line.
    meta_bits:
        Scheme metadata bits per line; they occupy cells too and are rotated
        together with the data under HWL ("including any metadata bits
        associated with the line", section 5.3).
    track_per_line:
        When True, keeps a full (line, bit) wear matrix so the most-worn
        *cell* is known exactly; when False only the per-position aggregate
        is kept (cheaper, sufficient for HWL-on studies).
    """

    def __init__(
        self,
        line_bytes: int = 64,
        meta_bits: int = 0,
        track_per_line: bool = True,
    ) -> None:
        if line_bytes <= 0 or meta_bits < 0:
            raise ValueError("invalid geometry")
        self.line_bytes = line_bytes
        self.meta_bits = meta_bits
        self.bits_per_line = 8 * line_bytes + meta_bits
        self.track_per_line = track_per_line
        self.position_writes = np.zeros(self.bits_per_line, dtype=np.int64)
        self._line_wear: dict[int, np.ndarray] = {}
        self.total_writes = 0
        self.total_flips = 0

    def apply_write(self, outcome: WriteOutcome, rotation: int = 0) -> int:
        """Record one write's cell programs; returns the flip count.

        Parameters
        ----------
        outcome:
            The scheme's write outcome (logical flip positions).
        rotation:
            HWL rotation amount for this line at this moment: logical bit
            ``i`` resides in physical cell ``(i + rotation) % bits_per_line``.
        """
        positions = outcome.flipped_data_positions
        if outcome.flipped_meta_positions.size:
            meta = outcome.flipped_meta_positions + 8 * self.line_bytes
            positions = np.concatenate([positions, meta])
        if rotation:
            positions = (positions + rotation) % self.bits_per_line
        np.add.at(self.position_writes, positions, 1)
        if self.track_per_line:
            wear = self._line_wear.get(outcome.address)
            if wear is None:
                wear = np.zeros(self.bits_per_line, dtype=np.int64)
                self._line_wear[outcome.address] = wear
            np.add.at(wear, positions, 1)
        self.total_writes += 1
        self.total_flips += int(positions.size)
        return int(positions.size)

    def apply_batch(
        self,
        addresses: np.ndarray,
        data_positions: np.ndarray,
        data_rows: np.ndarray,
        meta_positions: np.ndarray,
        meta_rows: np.ndarray,
        rotations: np.ndarray | None = None,
    ) -> int:
        """Record a whole chunk's cell programs with scatter-adds.

        Parameters mirror the flat position arrays of a
        :class:`~repro.schemes.batch.BatchOutcome`: ``addresses`` is the
        per-row line address, ``*_positions`` the flipped bit indices and
        ``*_rows`` the row each belongs to.  ``rotations``, when given, is
        the per-row HWL rotation (static within a chunk — the runner cuts
        chunks at rotation changes).  Equivalent to ``m`` sequential
        :meth:`apply_write` calls; returns the total flip count.  The
        runner applies chunks through :meth:`apply_batch_diffs` instead;
        this form has no caller in ``repro`` but is still wrapped by name
        in ``benchmarks/layers/spans.py``.
        """
        m = int(addresses.shape[0])
        if meta_positions.size:
            positions = np.concatenate(
                [data_positions, meta_positions + 8 * self.line_bytes]
            )
            rows = np.concatenate([data_rows, meta_rows])
        else:
            positions = data_positions
            rows = data_rows
        if rotations is not None and positions.size:
            positions = (positions + rotations[rows]) % self.bits_per_line
        if positions.size:
            np.add.at(self.position_writes, positions, 1)
        if self.track_per_line and positions.size:
            # One bincount per touched line: flatten (line, position) into a
            # single index space so the whole chunk is one scatter.
            line_ids = addresses[rows]
            uniq, inv = np.unique(line_ids, return_inverse=True)
            flat = np.bincount(
                inv * self.bits_per_line + positions,
                minlength=uniq.size * self.bits_per_line,
            ).reshape(uniq.size, self.bits_per_line)
            for k, addr in enumerate(uniq.tolist()):
                wear = self._line_wear.get(addr)
                if wear is None:
                    wear = np.zeros(self.bits_per_line, dtype=np.int64)
                    self._line_wear[addr] = wear
                wear += flat[k]
        self.total_writes += m
        self.total_flips += int(positions.size)
        return int(positions.size)

    def apply_batch_diffs(
        self,
        addresses: np.ndarray,
        data_diff: np.ndarray,
        meta_diff: np.ndarray | None = None,
        rotations: np.ndarray | None = None,
    ) -> int:
        """Record a chunk's cell programs from its packed diff matrices.

        The histogram contribution of a chunk is a column-wise bit count of
        the unpacked diff — no flat position arrays.  ``rotations`` (per
        row) must be constant within each line's rows, which the runner
        guarantees by cutting chunks at wear-leveler events; a line's
        rotated histogram is then just ``np.roll`` of its unrotated one.
        Bit-identical to :meth:`apply_batch` over the expanded positions.
        """
        m, n_bytes = data_diff.shape
        if n_bytes != self.line_bytes:
            raise ValueError("diff width does not match line_bytes")
        data_bits = 8 * n_bytes
        bits = np.unpackbits(data_diff, axis=1)
        meta_w = (
            meta_diff.shape[1]
            if meta_diff is not None and meta_diff.size
            else 0
        )
        rotated = rotations is not None and bool(np.any(rotations))
        if not (self.track_per_line or rotated):
            colsum = bits.sum(axis=0, dtype=np.int64)
            self.position_writes[:data_bits] += colsum
            flips = int(colsum.sum())
            if meta_w:
                meta_colsum = meta_diff.sum(axis=0, dtype=np.int64)
                self.position_writes[data_bits : data_bits + meta_w] += (
                    meta_colsum
                )
                flips += int(meta_colsum.sum())
        else:
            flips = 0
            uniq, inv = np.unique(addresses, return_inverse=True)
            for k, addr in enumerate(uniq.tolist()):
                rows = inv == k
                h = np.zeros(self.bits_per_line, dtype=np.int64)
                h[:data_bits] = bits[rows].sum(axis=0, dtype=np.int64)
                if meta_w:
                    h[data_bits : data_bits + meta_w] = meta_diff[rows].sum(
                        axis=0, dtype=np.int64
                    )
                flips += int(h.sum())
                if rotations is not None:
                    rot = int(rotations[int(np.argmax(rows))])
                    if rot:
                        h = np.roll(h, rot % self.bits_per_line)
                self.position_writes += h
                if self.track_per_line:
                    wear = self._line_wear.get(addr)
                    if wear is None:
                        wear = np.zeros(self.bits_per_line, dtype=np.int64)
                        self._line_wear[addr] = wear
                    wear += h
        self.total_writes += m
        self.total_flips += flips
        return flips

    def state_dict(self) -> dict[str, object]:
        """All mutable wear state (for run checkpoints)."""
        state: dict[str, object] = {
            "position_writes": self.position_writes.copy(),
            "total_writes": self.total_writes,
            "total_flips": self.total_flips,
        }
        if self.track_per_line:
            n = len(self._line_wear)
            addresses = np.empty(n, dtype=np.int64)
            wear = np.empty((n, self.bits_per_line), dtype=np.int64)
            for i, (addr, w) in enumerate(self._line_wear.items()):
                addresses[i] = addr
                wear[i] = w
            state["wear_addresses"] = addresses
            state["wear_matrix"] = wear
        return state

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot bit-identically."""
        self.position_writes = np.asarray(
            state["position_writes"], dtype=np.int64
        ).copy()
        self.total_writes = int(state["total_writes"])
        self.total_flips = int(state["total_flips"])
        self._line_wear = {}
        if self.track_per_line:
            addresses = np.asarray(state["wear_addresses"], dtype=np.int64)
            wear = np.asarray(state["wear_matrix"], dtype=np.int64)
            for i in range(addresses.size):
                self._line_wear[int(addresses[i])] = wear[i].copy()

    def line_wear(self, address: int) -> np.ndarray:
        """Per-bit program counts for one line (zeros if never written)."""
        if not self.track_per_line:
            raise RuntimeError("per-line tracking disabled for this array")
        wear = self._line_wear.get(address)
        if wear is None:
            return np.zeros(self.bits_per_line, dtype=np.int64)
        return wear.copy()

    def summary(self) -> WearSummary:
        if self.track_per_line and self._line_wear:
            max_cell = max(int(w.max()) for w in self._line_wear.values())
        else:
            max_cell = int(self.position_writes.max()) if self.total_writes else 0
        return WearSummary(
            total_writes=self.total_writes,
            total_flips=self.total_flips,
            position_writes=self.position_writes.copy(),
            max_line_bit_writes=max_cell,
        )
