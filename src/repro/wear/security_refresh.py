"""Security Refresh vertical wear leveling [Seong et al., ISCA 2010].

The second VWL algorithm the paper cites (section 5.2).  Security Refresh
remaps lines inside a region by XORing the logical address with a random
key; every ``refresh_interval`` writes, one line is *refreshed* — swapped
toward its position under the next key — and once a full round completes
the region has migrated from the old key to the new one.  Because the key
is random, an adversary cannot target a physical line.

This implementation follows the single-level scheme: a region of
``n_lines`` (power of two), a current and next remap key, and a refresh
pointer that sweeps the region.  Migration is pairwise, as in the original
design: refreshing logical line ``l`` also migrates its partner
``l ^ current_key ^ next_key`` (their physical locations swap), which is
what keeps the mid-round mapping a permutation.

Horizontal Wear Leveling composes with it the same way as with Start-Gap
(section 5.3's insight is "make the rotation an algebraic function of the
global structures"): here the natural choice is the hashed variant keyed by
the completed-round count, exposed via :meth:`rotation_round` (and its
array form :meth:`rotation_rounds`, which the batched rotation schedule
evaluates once per segment between refreshes).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.wear.hwl import keyed_rotation, keyed_rotations, rotation_schedule


class SecurityRefresh:
    """Single-level Security Refresh over a power-of-two region.

    Parameters
    ----------
    n_lines:
        Region size; must be a power of two (XOR remapping).
    refresh_interval:
        Demand writes between refresh operations.
    seed:
        Deterministic source for the remap keys (a real controller uses a
        hardware RNG).
    """

    def __init__(
        self, n_lines: int, refresh_interval: int = 100, seed: int = 0
    ) -> None:
        if n_lines < 2 or n_lines & (n_lines - 1):
            raise ValueError("n_lines must be a power of two >= 2")
        if refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1")
        self.n_lines = n_lines
        self.refresh_interval = refresh_interval
        self._seed = seed
        self.round = 0
        self.current_key = self._key_for_round(0)
        self.next_key = self._key_for_round(1)
        #: Sweep pointer over logical ids for the current round.
        self.refresh_ptr = 0
        self._migrated = np.zeros(n_lines, dtype=bool)
        self._writes_since_refresh = 0
        #: Extra line writes caused by refresh swaps.
        self.refresh_writes = 0

    def _key_for_round(self, round_index: int) -> int:
        digest = hashlib.blake2b(
            round_index.to_bytes(8, "little") + self._seed.to_bytes(8, "little"),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "little") % self.n_lines

    # -- write notification -----------------------------------------------------

    def on_write(self) -> bool:
        """Count a demand write; perform a refresh when the interval elapses.

        Returns True when a refresh (line migration) happened.
        """
        self._writes_since_refresh += 1
        if self._writes_since_refresh < self.refresh_interval:
            return False
        self._writes_since_refresh = 0
        self._refresh_one()
        return True

    @property
    def writes_until_event(self) -> int:
        """Demand writes remaining until the next refresh (>= 1).

        Segment boundary of the batched rotation schedule, mirroring
        :attr:`StartGap.writes_until_event`.
        """
        return self.refresh_interval - self._writes_since_refresh

    def advance(self, k: int) -> int:
        """Count ``k`` demand writes at once; equivalent to ``k`` on_write().

        ``k`` may cross any number of refreshes, which run in order.
        Returns the number of refreshes.
        """
        if k < 0:
            raise ValueError(f"advance({k}): k must be >= 0")
        refreshes, self._writes_since_refresh = divmod(
            self._writes_since_refresh + k, self.refresh_interval
        )
        for _ in range(refreshes):
            self._refresh_one()
        return refreshes

    def _refresh_one(self) -> None:
        # Skip lines already migrated as a partner of an earlier refresh.
        while (
            self.refresh_ptr < self.n_lines
            and self._migrated[self.refresh_ptr]
        ):
            self.refresh_ptr += 1
        if self.refresh_ptr < self.n_lines:
            line = self.refresh_ptr
            partner = line ^ self.current_key ^ self.next_key
            # The swap writes both lines (unless the keys coincide and the
            # migration is a no-op move).
            self.refresh_writes += 1 if partner == line else 2
            self._migrated[line] = True
            self._migrated[partner] = True
            self.refresh_ptr += 1
        while (
            self.refresh_ptr < self.n_lines
            and self._migrated[self.refresh_ptr]
        ):
            self.refresh_ptr += 1
        if self.refresh_ptr >= self.n_lines:
            # Round complete: next key becomes current, draw a fresh one.
            self.round += 1
            self.current_key = self.next_key
            self.next_key = self._key_for_round(self.round + 1)
            self.refresh_ptr = 0
            self._migrated = np.zeros(self.n_lines, dtype=bool)

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        return {
            "round": self.round,
            "current_key": self.current_key,
            "next_key": self.next_key,
            "refresh_ptr": self.refresh_ptr,
            "writes_since_refresh": self._writes_since_refresh,
            "refresh_writes": self.refresh_writes,
            "migrated": np.asarray(self._migrated, dtype=np.uint8),
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.round = int(state["round"])
        self.current_key = int(state["current_key"])
        self.next_key = int(state["next_key"])
        self.refresh_ptr = int(state["refresh_ptr"])
        self._writes_since_refresh = int(state["writes_since_refresh"])
        self.refresh_writes = int(state["refresh_writes"])
        self._migrated = np.asarray(state["migrated"], dtype=np.uint8) != 0

    # -- mapping --------------------------------------------------------------------

    def physical_index(self, logical: int) -> int:
        """Current logical-to-physical mapping."""
        if not 0 <= logical < self.n_lines:
            raise ValueError(f"logical index {logical} out of range")
        key = self.next_key if self._migrated[logical] else self.current_key
        return logical ^ key

    def remapped_by_sweep(self, logical: int) -> bool:
        """Has the current round's sweep already migrated this line?"""
        return bool(self._migrated[logical])

    # -- HWL hook ---------------------------------------------------------------------

    def rotation_round(self, logical: int) -> int:
        """Monotone per-line epoch counter for hashed HWL rotation.

        Advances by one every completed remap round (plus one early for
        lines the sweep already migrated), mirroring Start-Gap's
        ``effective_start``.
        """
        return self.round + (1 if self.remapped_by_sweep(logical) else 0)

    def rotation_rounds(self, logical: np.ndarray) -> np.ndarray:
        """:meth:`rotation_round` of every line in an int64 array."""
        return self.round + self._migrated[logical]


class SecurityRefreshHWL:
    """Hashed Horizontal Wear Leveling driven by Security Refresh rounds.

    rotation = Hash(round', line) % bits_per_line — the footnote-2 form,
    which is also the natural fit here since Security Refresh has no
    monotone Start register to use algebraically.
    """

    def __init__(
        self,
        refresh: SecurityRefresh,
        bits_per_line: int,
        key: bytes = b"sr-hwl-key",
    ) -> None:
        if bits_per_line <= 0:
            raise ValueError("bits_per_line must be positive")
        self.refresh = refresh
        self.bits_per_line = bits_per_line
        self.key = bytes(key)

    def state_dict(self) -> dict[str, object]:
        """The HWL layer is stateless; delegate to Security Refresh."""
        return self.refresh.state_dict()

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.refresh.load_state_dict(state)

    def rotation(self, logical_line: int) -> int:
        round_prime = self.refresh.rotation_round(logical_line)
        return keyed_rotation(
            self.key, round_prime, logical_line, self.bits_per_line
        )

    def on_write(self) -> bool:
        """Count one demand write on Security Refresh (True on a refresh)."""
        return self.refresh.on_write()

    def rotations(self, lines: np.ndarray) -> np.ndarray:
        """Rotation of each of the next ``len(lines)`` writes, counted.

        Per segment between refreshes, ``round'`` is one lookup into the
        migrated-line mask and each distinct ``(round', line)`` is hashed
        once.  Equivalent to :meth:`rotation` then :meth:`on_write` per
        write.
        """
        return rotation_schedule(self.refresh, lines, self._rotations_now)

    def _rotations_now(self, lines: np.ndarray) -> np.ndarray:
        return keyed_rotations(
            self.key,
            self.refresh.rotation_rounds(lines),
            lines,
            self.bits_per_line,
        )
