"""Secure PCM memory controller — the library's high-level facade.

Combines a write scheme, the PCM wear model, and (optionally) a horizontal
wear leveler behind the interface a memory controller presents:
``read(address)`` and ``write(address, data)``.  Lines are installed
(initially encrypted) transparently on first touch, matching section 3.1's
assumption that pages are encrypted as they are placed into memory.

A writeback takes the runner's ``chunk_size=1`` write step, with scheme and
leveler built from :mod:`repro.registry`, so a controller fed a trace
matches :func:`repro.sim.runner.run` in flips, slots and per-bit wear.
Integrity, re-keying and the endurance guard are layers on top.

This is what the examples and downstream users drive; the lower-level
pieces stay importable for research use.

Example
-------
>>> from repro.memory.controller import SecureMemoryController
>>> mc = SecureMemoryController(scheme="deuce", key=b"0123456789abcdef")
>>> mc.write(0x1000, bytes(64))
>>> mc.read(0x1000) == bytes(64)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro import registry
from repro.crypto.pads import make_pad_source
from repro.crypto.rekey import VersionedPadSource
from repro.memory import bitops
from repro.memory.line import meta_flips
from repro.memory.pcm import PcmArray, WearSummary, slots_for_batch_diffs
from repro.schemes import make_scheme
from repro.schemes.base import WriteOutcome
from repro.schemes.batch import BatchOutcome
from repro.security.endurance import ThrottlingGuard, WriteStreamDetector
from repro.security.merkle import IntegrityError, MerkleTree
from repro.wear.lifetime import LifetimeReport, lifetime_report


@dataclass
class ControllerStats:
    """Running counters maintained by the controller."""

    writes: int = 0
    reads: int = 0
    installs: int = 0
    total_flips: int = 0
    total_slots: int = 0
    throttle_slots: int = 0
    integrity_checks: int = 0
    rekeys: int = 0
    rekey_flips: int = 0

    @property
    def avg_flips_per_write(self) -> float:
        return self.total_flips / self.writes if self.writes else 0.0

    @property
    def avg_slots_per_write(self) -> float:
        return self.total_slots / self.writes if self.writes else 0.0


class SecureMemoryController:
    """Encrypted, wear-leveled PCM main memory.

    Parameters
    ----------
    scheme:
        Write-scheme name (default ``"deuce"``); see
        :data:`repro.schemes.SCHEME_NAMES`.
    key:
        Secret key for the pad source (required for encrypted schemes).
    pad_kind:
        ``"blake2"`` (fast) or ``"aes"`` (real cipher).
    line_bytes / word_bytes / epoch_interval / fnw_group_bits:
        Scheme geometry (paper defaults).
    wear_leveling:
        Any :data:`repro.registry.WEAR_LEVELERS` name: ``"none"``,
        ``"hwl"``, ``"hwl-hashed"``, ``"sr-hwl"`` or a plugin's.
    region_lines:
        Lines covered by one leveling region (sets HWL's rotation cadence
        together with ``gap_write_interval``; a power of two for
        ``"sr-hwl"``) and the integrity tree's capacity.  A line's logical
        line is its first-touch (install) order modulo ``region_lines``.
    gap_write_interval:
        Demand writes per Start-Gap movement (per refresh for ``sr-hwl``).
    integrity:
        Protect per-line counters with a Merkle tree (footnote 1's defence
        against bus-tampering / counter-reset attacks).  Reads verify the
        stored counter against the trusted root and raise
        :class:`~repro.security.merkle.IntegrityError` on mismatch.
    attack_detection:
        Run the endurance-attack detector (section 7.3) over the write
        stream and throttle flagged lines; throttle cost accumulates in
        ``stats.throttle_slots``.
    counter_bits:
        Per-line counter width (the paper provisions 28 bits) of an
        encrypting scheme.  When set,
        a line whose counter saturates is *re-keyed*: re-encrypted under a
        fresh key version with its counter reset, preserving the
        no-pad-reuse invariant.  Maintenance cost accumulates in
        ``stats.rekeys`` / ``stats.rekey_flips``.
    """

    def __init__(
        self,
        scheme: str = "deuce",
        key: bytes = b"",
        pad_kind: str = "blake2",
        line_bytes: int = 64,
        word_bytes: int = 2,
        epoch_interval: int = 32,
        fnw_group_bits: int = 16,
        wear_leveling: str = "hwl",
        region_lines: int = 4096,
        gap_write_interval: int = 100,
        integrity: bool = False,
        attack_detection: bool = False,
        counter_bits: int | None = None,
    ) -> None:
        if region_lines < 1:
            raise ValueError(f"region_lines must be >= 1, got {region_lines}")
        encrypts = registry.SCHEMES.get(scheme).factory.requires_pads
        if counter_bits is not None and not encrypts:
            raise ValueError(
                f"counter_bits: scheme {scheme!r} does not encrypt, so it "
                "has no counters to re-key"
            )
        if counter_bits is not None and counter_bits < 2:
            raise ValueError("counter_bits must be >= 2")
        pads = None
        if encrypts:
            if not key:
                raise ValueError(
                    f"scheme {scheme!r} encrypts and needs a non-empty key"
                )
            if counter_bits is not None:
                pads = VersionedPadSource(key, pad_kind)
            else:
                pads = make_pad_source(pad_kind, key)
        self._pads = pads
        self._counter_limit = (
            (1 << counter_bits) - 1 if counter_bits is not None else None
        )
        self.scheme = make_scheme(
            scheme,
            pads,
            line_bytes=line_bytes,
            word_bytes=word_bytes,
            epoch_interval=epoch_interval,
            fnw_group_bits=fnw_group_bits,
        )
        self.line_bytes = line_bytes
        self.pcm = PcmArray(
            line_bytes=line_bytes,
            meta_bits=self.scheme.metadata_bits_per_line,
            track_per_line=False,
        )
        leveler = registry.WEAR_LEVELERS.get(wear_leveling).factory
        params = SimpleNamespace(gap_write_interval=gap_write_interval)
        try:
            self._leveler = leveler(params, region_lines, self.pcm.bits_per_line)
        except ValueError as exc:
            raise ValueError(
                f"wear_leveling {wear_leveling!r}, region_lines={region_lines}"
                f", gap_write_interval={gap_write_interval}: {exc}"
            ) from exc
        self._region_lines = region_lines
        self._merkle = (
            MerkleTree(region_lines, key=key or b"merkle") if integrity else None
        )
        #: Address -> slot, in install order: the Merkle leaf, and modulo
        #: ``region_lines`` the leveler's logical line.
        self._slots: dict[int, int] = {}
        self._guard = (
            ThrottlingGuard(WriteStreamDetector()) if attack_detection else None
        )
        self.stats = ControllerStats()

    def _leaf_for(self, address: int) -> int:
        """Slot of an installed line (its Merkle leaf)."""
        slot = self._slots.get(address)
        if slot is None:
            raise KeyError(f"line {address:#x} was never written")
        return slot

    # -- data path ----------------------------------------------------------

    def write(self, address: int, data: bytes) -> WriteOutcome | None:
        """Write a full line; installs it on first touch.

        Returns the :class:`WriteOutcome` for a writeback, or ``None`` for
        an install (initial encryption is not a writeback, section 3.1).
        """
        slot = self._slots.get(address)
        if slot is None:
            slot = len(self._slots)
            if self._merkle is not None and slot >= self._region_lines:
                raise ValueError(
                    "integrity tree is full: raise region_lines above the "
                    f"number of distinct lines ({self._region_lines})"
                )
            self.scheme.install(address, data)
            self._slots[address] = slot
            if self._merkle is not None:
                self._merkle.update(slot, self.scheme.stored(address).counter)
            self.stats.installs += 1
            return None
        outcome = self.scheme.write(address, data)
        if (
            self._counter_limit is not None
            and self.scheme.stored(address).counter >= self._counter_limit
        ):
            self._rekey_line(address)
        if self._merkle is not None:
            self._merkle.update(slot, self.scheme.stored(address).counter)
        if self._guard is not None:
            self.stats.throttle_slots += self._guard.on_write(address)
        batch = BatchOutcome.from_outcomes(
            (outcome,), 1, self.line_bytes, self.pcm.meta_bits
        )
        rotations = self._leveler.rotations(np.array([slot % self._region_lines]))
        diffs = (batch.data_diff, batch.meta_diff)
        self.pcm.apply_batch_diffs(batch.addresses, *diffs, rotations)
        self.stats.writes += 1
        self.stats.total_flips += outcome.total_flips
        self.stats.total_slots += int(
            slots_for_batch_diffs(*diffs, 8 * self.line_bytes)[0]
        )
        return outcome

    def _rekey_line(self, address: int) -> None:
        """Re-encrypt a counter-saturated line under a fresh key version."""
        plaintext = self.scheme.read(address)
        old = self.scheme.stored(address)
        assert isinstance(self._pads, VersionedPadSource)
        self._pads.bump_version(address)
        new = self.scheme.install(address, plaintext)  # counter resets to 0
        self.stats.rekeys += 1
        self.stats.rekey_flips += bitops.bit_flips(old.data, new.data) + (
            meta_flips(old.meta, new.meta) if old.meta.size == new.meta.size else 0
        )

    def read(self, address: int) -> bytes:
        """Read (and decrypt) a line.

        With integrity enabled, the line's counter — which lives in
        untrusted memory — is verified against the on-chip Merkle root
        before the pad is regenerated; a mismatch (counter-reset attack)
        raises :class:`~repro.security.merkle.IntegrityError`.
        """
        slot = self._leaf_for(address)
        if self._merkle is not None:
            expected = self._merkle.read_or_raise(slot)
            actual = self.scheme.stored(address).counter
            self.stats.integrity_checks += 1
            if expected != actual:
                raise IntegrityError(
                    f"line {address:#x}: counter {actual} does not match "
                    f"the Merkle-verified value {expected} (tampering?)"
                )
        self.stats.reads += 1
        return self.scheme.read(address)

    @property
    def under_attack(self) -> bool:
        """Endurance-attack detector verdict for the last window."""
        return (
            self._guard is not None
            and self._guard.detector.under_attack
        )

    def contains(self, address: int) -> bool:
        return address in self._slots

    # -- reporting ----------------------------------------------------------

    def wear_summary(self) -> WearSummary:
        return self.pcm.summary()

    def lifetime(self) -> LifetimeReport:
        """Lifetime normalized to the encrypted-memory baseline."""
        summary = self.pcm.summary()
        return lifetime_report(summary.position_writes, summary.total_writes)
