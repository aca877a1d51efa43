"""Horizontal Wear Leveling (HWL) — section 5.3.

HWL makes bit writes *within* a line uniform without any per-line storage:
the intra-line rotation amount is an algebraic function of the global
Start-Gap registers,

    rotation = Start' % bits_in_line,

where ``Start'`` is ``Start + 1`` once the gap has already crossed the line
in the current rotation (so that all lines land on the new rotation amount
at the same moment the Start register increments).  Because the rotation
only changes when the gap moves *through* the line — a moment when the line
is being copied anyway — re-rotating costs no extra writes.

Footnote 2's hardened variant makes the rotation a keyed hash of
``(Start', line address)`` so an adversary cannot phase-lock a write pattern
to the rotation schedule.

Because the rotation is a pure function of the registers, the rotation of
every write in a batch follows from the registers at its start: each
leveler's :meth:`rotations` walks the batch's wear events segment by
segment, one numpy expression per segment, instead of asking line by line.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.wear.startgap import StartGap


def rotation_schedule(
    vwl, lines: np.ndarray, rotations_now: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Rotations of the next ``len(lines)`` writes; counts them on ``vwl``.

    ``vwl`` is the vertical leveler (Start-Gap or Security Refresh) whose
    registers drive the rotation.  The writes are cut into segments that
    end on the write triggering the next wear event, so the registers are
    constant within a segment (the triggering write still sees the old
    rotation); ``rotations_now`` rotates one segment's lines under the
    current registers, then ``vwl.advance`` counts the segment.
    Equivalent to ``rotation(line); on_write()`` per write.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    out = np.empty(n, dtype=np.int64)
    lo = 0
    while lo < n:
        hi = min(n, lo + vwl.writes_until_event)
        out[lo:hi] = rotations_now(lines[lo:hi])
        vwl.advance(hi - lo)
        lo = hi
    return out


def keyed_rotation(key: bytes, epoch: int, line: int, bits: int) -> int:
    """Footnote 2's ``Hash(epoch, line) % bits`` (keyed BLAKE2b)."""
    digest = hashlib.blake2b(
        epoch.to_bytes(8, "little") + line.to_bytes(8, "little"),
        key=key,
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little") % bits


def keyed_rotations(
    key: bytes, epochs: np.ndarray, lines: np.ndarray, bits: int
) -> np.ndarray:
    """:func:`keyed_rotation` per write, one hash per distinct pair."""
    if lines.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    low = epochs.min()
    pairs = (epochs - low) * (int(lines.max()) + 1) + lines
    _, first, inverse = np.unique(
        pairs, return_index=True, return_inverse=True
    )
    values = np.fromiter(
        (
            keyed_rotation(key, e, line, bits)
            for e, line in zip(
                epochs[first].tolist(), lines[first].tolist()
            )
        ),
        dtype=np.int64,
        count=first.shape[0],
    )
    return values[inverse]


class HorizontalWearLeveler:
    """Derives per-line bit-rotation amounts from a Start-Gap instance.

    Parameters
    ----------
    startgap:
        The vertical wear leveler whose registers drive the rotation.
    bits_per_line:
        Total rotated width — data bits plus any per-line metadata bits
        ("including any metadata bits associated with the line").
    hashed:
        Enable the footnote-2 hardening: rotation =
        ``Hash(Start', line) % bits_per_line`` instead of ``Start' %
        bits_per_line``.
    key:
        Key for the hashed variant (must be secret for the hardening to
        mean anything; any bytes work for simulation).
    """

    def __init__(
        self,
        startgap: StartGap,
        bits_per_line: int,
        hashed: bool = False,
        key: bytes = b"hwl-key",
    ) -> None:
        if bits_per_line <= 0:
            raise ValueError("bits_per_line must be positive")
        self.startgap = startgap
        self.bits_per_line = bits_per_line
        self.hashed = hashed
        self.key = bytes(key)

    def state_dict(self) -> dict[str, object]:
        """The leveler itself is stateless; delegate to Start-Gap."""
        return self.startgap.state_dict()

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.startgap.load_state_dict(state)

    def rotation(self, logical_line: int) -> int:
        """Current rotation amount for a line, in bit positions."""
        start_prime = self.startgap.effective_start(logical_line)
        if not self.hashed:
            return start_prime % self.bits_per_line
        return keyed_rotation(
            self.key, start_prime, logical_line, self.bits_per_line
        )

    def on_write(self) -> bool:
        """Count one demand write on Start-Gap (True on a gap move)."""
        return self.startgap.on_write()

    def rotations(self, lines: np.ndarray) -> np.ndarray:
        """Rotation of each of the next ``len(lines)`` writes, counted.

        Per segment between gap moves, ``Start'`` is one expression over
        the segment's lines; the hashed variant hashes each distinct
        ``(Start', line)`` once.  Equivalent to :meth:`rotation` then
        :meth:`on_write` per write.
        """
        return rotation_schedule(self.startgap, lines, self._rotations_now)

    def _rotations_now(self, lines: np.ndarray) -> np.ndarray:
        start_prime = self.startgap.effective_starts(lines)
        if not self.hashed:
            return start_prime % self.bits_per_line
        return keyed_rotations(
            self.key, start_prime, lines, self.bits_per_line
        )


class NoWearLeveler:
    """Null object: no rotation (the DEUCE-without-HWL configurations)."""

    def rotation(self, logical_line: int) -> int:
        return 0

    def rotations(self, lines: np.ndarray) -> np.ndarray:
        return np.zeros(len(lines), dtype=np.int64)

    def state_dict(self) -> dict[str, object]:
        return {}

    def load_state_dict(self, state: dict[str, object]) -> None:
        if state:
            raise ValueError("NoWearLeveler carries no state")
