"""Start-Gap vertical wear leveling [Qureshi et al., MICRO-42 2009].

Start-Gap levels wear *across* lines with two global registers and one spare
line: every ``gap_write_interval`` writes the gap line moves by one (copying
its neighbour's content), and once the gap has traversed the whole region the
``Start`` register increments — the entire region has rotated by one line.
The logical-to-physical mapping is an O(1) algebraic function of (Start,
Gap), which is exactly the property section 5.3 exploits to derive a free
intra-line rotation amount for Horizontal Wear Leveling.

This implementation keeps the algebraic mapping and (for tests) can be
cross-checked against an explicit permutation simulation.
"""

from __future__ import annotations

import numpy as np


class StartGap:
    """Start-Gap remapping over ``n_lines`` logical lines (+1 gap line).

    Parameters
    ----------
    n_lines:
        Number of logical lines in the leveled region.
    gap_write_interval:
        Writes between gap movements (the paper suggests ~100; smaller
        values level faster at higher write overhead).
    """

    def __init__(self, n_lines: int, gap_write_interval: int = 100) -> None:
        if n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        if gap_write_interval < 1:
            raise ValueError("gap_write_interval must be >= 1")
        self.n_lines = n_lines
        self.gap_write_interval = gap_write_interval
        self.start = 0
        #: gap position in physical space, N down to 0, then wraps to N.
        self.gap = n_lines
        self._writes_since_move = 0
        #: extra line writes caused by gap movement (each move copies a line)
        self.move_writes = 0

    # -- write notification ---------------------------------------------------

    def on_write(self) -> bool:
        """Count one demand write; move the gap when the interval elapses.

        Returns True when a gap movement happened on this write.
        """
        self._writes_since_move += 1
        if self._writes_since_move < self.gap_write_interval:
            return False
        self._writes_since_move = 0
        self._move_gap()
        return True

    @property
    def writes_until_event(self) -> int:
        """Demand writes remaining until the next gap movement (>= 1).

        The rotation schedule (:meth:`HorizontalWearLeveler.rotations
        <repro.wear.hwl.HorizontalWearLeveler.rotations>`) splits a batch
        of writes into segments here, so the registers are constant within
        each segment.
        """
        return self.gap_write_interval - self._writes_since_move

    def advance(self, k: int) -> int:
        """Count ``k`` demand writes at once; equivalent to ``k`` on_write().

        ``k`` may cross any number of gap movements; the registers jump to
        where the ``k``-th write leaves them (the gap walks ``N`` down to
        ``0`` and wraps to ``N``, bumping ``Start``, every ``N + 1``
        moves).  Returns the number of gap movements.
        """
        if k < 0:
            raise ValueError(f"advance({k}): k must be >= 0")
        moves, self._writes_since_move = divmod(
            self._writes_since_move + k, self.gap_write_interval
        )
        if moves:
            self.move_writes += moves
            wraps, done = divmod(
                self.n_lines - self.gap + moves, self.n_lines + 1
            )
            self.start += wraps
            self.gap = self.n_lines - done
        return moves

    def _move_gap(self) -> None:
        self.move_writes += 1
        if self.gap == 0:
            # Wrap: the spare slot returns to the top; one full rotation done.
            self.gap = self.n_lines
            self.start += 1
        else:
            self.gap -= 1

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        return {
            "start": self.start,
            "gap": self.gap,
            "writes_since_move": self._writes_since_move,
            "move_writes": self.move_writes,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.start = int(state["start"])
        self.gap = int(state["gap"])
        self._writes_since_move = int(state["writes_since_move"])
        self.move_writes = int(state["move_writes"])

    # -- mapping ---------------------------------------------------------------

    def gap_crossed(self, logical: int) -> bool:
        """Has the gap already passed this line in the current rotation?

        Equivalently: has the line already been shifted by the current
        rotation, so its effective start is ``start + 1``.

        At the start of every rotation the line sits at slot
        ``(logical + start) % n_lines`` — modulo the *line* count, because
        the gap always restarts its sweep from the spare slot — and the
        downward-moving gap has crossed it once the gap position is at or
        below that slot.
        """
        self._check(logical)
        base = (logical + self.start) % self.n_lines
        return base >= self.gap

    def physical_index(self, logical: int) -> int:
        """O(1) logical-to-physical mapping from (Start, Gap)."""
        self._check(logical)
        base = (logical + self.start) % self.n_lines
        if base >= self.gap:
            return base + 1
        return base

    def effective_start(self, logical: int) -> int:
        """The Start' of section 5.3: Start+1 once the gap crossed the line."""
        return self.start + 1 if self.gap_crossed(logical) else self.start

    def effective_starts(self, logical: np.ndarray) -> np.ndarray:
        """:meth:`effective_start` of every line in an int64 array."""
        start = self.start
        return start + ((logical + start) % self.n_lines >= self.gap)

    def _check(self, logical: int) -> None:
        if not 0 <= logical < self.n_lines:
            raise ValueError(
                f"logical index {logical} out of range [0, {self.n_lines})"
            )


class StartGapReference:
    """Explicit-permutation Start-Gap used to validate the algebraic mapping.

    Maintains the physical array as a list of logical ids (``None`` for the
    gap) and performs the copy-to-gap movement literally.  Slow, obviously
    correct, test-only.
    """

    def __init__(self, n_lines: int, gap_write_interval: int = 100) -> None:
        self.n_lines = n_lines
        self.gap_write_interval = gap_write_interval
        self._slots: list[int | None] = list(range(n_lines)) + [None]
        self._writes_since_move = 0

    def on_write(self) -> bool:
        self._writes_since_move += 1
        if self._writes_since_move < self.gap_write_interval:
            return False
        self._writes_since_move = 0
        gap = self._slots.index(None)
        prev = (gap - 1) % (self.n_lines + 1)
        self._slots[gap] = self._slots[prev]
        self._slots[prev] = None
        return True

    def physical_index(self, logical: int) -> int:
        return self._slots.index(logical)
