"""Write-scheme interface.

Every technique the paper evaluates — DCW, FNW, full-line counter-mode
encryption, DEUCE, DynDEUCE, DEUCE+FNW, BLE, BLE+DEUCE — is a *write scheme*:
a policy that, given the plaintext a core writes back, decides what bit
pattern lands in the PCM cells and how per-line metadata changes.  All of
them implement :class:`WriteScheme`, which makes the simulator, the wear
model, and the benchmarks scheme-agnostic.

Schemes are *functional*, not just counting models: ``read`` must return the
exact plaintext most recently written, with decryption actually performed via
the pad source.  Tests rely on this to prove, e.g., that DEUCE's dual-counter
decode (paper Figure 7) reconstructs the line correctly in every epoch state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.memory import bitops
from repro.memory.line import StoredLine


@dataclass(slots=True)
class WriteOutcome:
    """Everything observable about one writeback's effect on the PCM cells.

    Attributes
    ----------
    address:
        Line address written.
    data_flips:
        Bits that changed among the stored data bits (after DCW — unchanged
        cells are not rewritten).
    metadata_flips:
        Bits that changed among the scheme metadata (FNW flip bits, DEUCE
        modified bits, mode bits).  Counted in the paper's figure of merit.
    flipped_data_positions:
        Bit indices (0..511) of the data bits that changed; feeds per-bit
        wear tracking (Figure 12, lifetime model).
    flipped_meta_positions:
        Metadata bit indices that changed, offset into the metadata region.
    set_flips / reset_flips:
        The data flips split by program direction (0->1 SETs vs 1->0
        RESETs); PCM programs are asymmetric in latency and power [2].
    words_reencrypted:
        For word-tracking schemes, how many words were re-encrypted on this
        write (diagnostic; 0 for schemes without word tracking).
    full_line_reencrypted:
        True when the scheme rewrote the entire line (e.g. DEUCE epoch
        start).
    epoch_reset:
        True when this write was an epoch-boundary re-encryption (tracking
        bits reset, whole line re-keyed).  Distinct from
        ``full_line_reencrypted``: DynDEUCE's FNW-mode writes re-encrypt
        the full line every write without resetting an epoch.
    mode_switched:
        True when the scheme changed operating mode on this write
        (DynDEUCE morphing DEUCE->FNW, or snapping back at an epoch start).
    mode:
        Free-form scheme mode label for diagnostics (DynDEUCE reports
        ``"deuce"`` or ``"fnw"``).
    """

    address: int
    data_flips: int
    metadata_flips: int = 0
    set_flips: int = 0
    reset_flips: int = 0
    flipped_data_positions: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    flipped_meta_positions: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    words_reencrypted: int = 0
    full_line_reencrypted: bool = False
    epoch_reset: bool = False
    mode_switched: bool = False
    mode: str = ""

    @property
    def total_flips(self) -> int:
        """Data + metadata flips — the paper's figure of merit per write."""
        return self.data_flips + self.metadata_flips


class WriteScheme(ABC):
    """A memory write policy (encryption and/or flip reduction).

    Concrete schemes own a per-address :class:`StoredLine` map.  The write
    path is split so subclasses only implement the interesting part:

    * :meth:`install` places a line for the first time (initial encryption
      when pages are brought into memory, per section 3.1).
    * :meth:`write` handles a writeback and returns a :class:`WriteOutcome`.
    * :meth:`read` returns the current plaintext.

    Attributes
    ----------
    name:
        Short identifier used in results tables.
    line_bytes:
        Cache-line size (64 in the paper).
    """

    name: str = "abstract"

    #: ``SimConfig`` field -> constructor keyword map read by
    #: :meth:`from_config`.  Subclasses extend this with the geometry knobs
    #: they consume (word size, epoch interval, FNW group width, ...).
    config_fields: ClassVar[dict[str, str]] = {"line_bytes": "line_bytes"}

    #: Whether the scheme encrypts and therefore needs a pad source as the
    #: first constructor argument.
    requires_pads: ClassVar[bool] = True

    def __init__(self, line_bytes: int = 64) -> None:
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        self.line_bytes = line_bytes
        self._lines: dict[int, StoredLine] = {}

    # -- storage accounting ------------------------------------------------

    @property
    @abstractmethod
    def metadata_bits_per_line(self) -> int:
        """Per-line storage overhead in bits, excluding the line counter.

        This is the column reported in the paper's Table 3.
        """

    @property
    def n_data_bits(self) -> int:
        return 8 * self.line_bytes

    # -- line lifecycle ----------------------------------------------------

    def install(self, address: int, plaintext: bytes) -> StoredLine:
        """Place a line into memory for the first time (initial encryption).

        Returns the stored image.  Installation is not counted as a
        writeback in the statistics, mirroring section 3.1 ("relevant pages
        have already been brought into memory and been initially
        encrypted").
        """
        self._check_line(plaintext)
        stored = self._install(address, plaintext)
        self._lines[address] = stored
        return stored

    @abstractmethod
    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        """Scheme-specific initial placement."""

    def install_batch(self, addresses, data) -> None:
        """Install ``n`` lines at once (a working set's initial encryption).

        Parameters are ``(n,)`` int64 addresses and ``(n, line_bytes)``
        uint8 images.  The default implementation loops :meth:`install`;
        pad-based batch schemes override it to fetch the whole initial
        keystream in one wide pad call.  Either way the resulting scheme
        state — and the pad cache's LRU order and hit/miss statistics —
        is bit-identical to ``n`` sequential installs.
        """
        for i in range(len(addresses)):
            self.install(int(addresses[i]), bytes(data[i]))

    def write(self, address: int, plaintext: bytes) -> WriteOutcome:
        """Apply a writeback and report its cell-level effect."""
        self._check_line(plaintext)
        if address not in self._lines:
            raise KeyError(
                f"line {address:#x} was never installed; call install() first"
            )
        return self._write(address, plaintext)

    @abstractmethod
    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        """Scheme-specific write path."""

    def write_batch(self, addresses, data) -> "BatchOutcome":
        """Apply ``m`` consecutive writebacks and report their effects.

        Parameters are ``(m,)`` int64 addresses and ``(m, line_bytes)``
        uint8 payloads, in trace order.  The default implementation loops
        :meth:`write` and packs the outcomes; a scheme gets a fast path by
        overriding this method alone, processing the whole chunk as one
        array program.  Either way the result is bit-identical to ``m``
        sequential :meth:`write` calls.  The runner's ``chunk_size=1``
        reference calls this default directly, past any override, so an
        override is always checked against :meth:`write`.
        """
        from repro.schemes.batch import BatchOutcome

        return BatchOutcome.from_outcomes(
            (
                self.write(int(addresses[i]), data[i].tobytes())
                for i in range(len(addresses))
            ),
            len(addresses),
            self.line_bytes,
            self.metadata_bits_per_line,
        )

    @abstractmethod
    def read(self, address: int) -> bytes:
        """Return the plaintext currently stored at ``address``."""

    # -- construction ------------------------------------------------------

    @classmethod
    def from_config(cls, config, pads=None) -> "WriteScheme":
        """Instantiate from a config object (``SimConfig`` or duck-typed).

        Reads exactly the fields named in :attr:`config_fields`; schemes
        with :attr:`requires_pads` additionally receive the pad source as
        their first argument.  This is the single construction path behind
        both ``build_scheme(config)`` and ``make_scheme(name, ...)``.
        """
        if cls.requires_pads and pads is None:
            raise ValueError(f"scheme {cls.name!r} requires a pad source")
        kwargs = {
            kw: getattr(config, fieldname)
            for fieldname, kw in cls.config_fields.items()
        }
        if cls.requires_pads:
            return cls(pads, **kwargs)
        return cls(**kwargs)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        """All mutable scheme state as arrays and JSON-safe scalars.

        The line map is packed into four parallel arrays in dict order
        (which :meth:`load_state_dict` preserves, so iteration order — and
        therefore every downstream decision that depends on it — survives a
        round trip).  Subclasses contribute additional state through
        :meth:`_extra_state`; its keys are namespaced under ``extra/`` so
        the two regions can never collide.
        """
        n = len(self._lines)
        addresses = np.empty(n, dtype=np.int64)
        counters = np.empty(n, dtype=np.int64)
        data = np.empty((n, self.line_bytes), dtype=np.uint8)
        meta_width = (
            next(iter(self._lines.values())).meta.size if n else 0
        )
        meta = np.empty((n, meta_width), dtype=np.uint8)
        for i, (addr, line) in enumerate(self._lines.items()):
            addresses[i] = addr
            counters[i] = line.counter
            data[i] = line.arr
            meta[i] = line.meta
        state: dict[str, object] = {
            "lines/addresses": addresses,
            "lines/counters": counters,
            "lines/data": data,
            "lines/meta": meta,
        }
        for key, value in self._extra_state().items():
            state[f"extra/{key}"] = value
        return state

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot bit-identically."""
        addresses = np.asarray(state["lines/addresses"], dtype=np.int64)
        counters = np.asarray(state["lines/counters"], dtype=np.int64)
        data = np.asarray(state["lines/data"], dtype=np.uint8)
        meta = np.asarray(state["lines/meta"], dtype=np.uint8)
        self._lines = {
            int(addresses[i]): StoredLine(
                data[i].copy(), meta[i].copy(), int(counters[i])
            )
            for i in range(addresses.size)
        }
        self._load_extra_state(
            {
                key[len("extra/"):]: value
                for key, value in state.items()
                if key.startswith("extra/")
            }
        )

    def _extra_state(self) -> dict[str, object]:
        """Scheme-specific mutable state beyond the line map."""
        return {}

    def _load_extra_state(self, extra: dict[str, object]) -> None:
        if extra:
            raise ValueError(
                f"scheme {self.name!r} has no extra state, got {sorted(extra)}"
            )

    # -- shared helpers ----------------------------------------------------

    def stored(self, address: int) -> StoredLine:
        """The physical image of a line (for wear tracking and tests)."""
        return self._lines[address]

    def addresses(self) -> list[int]:
        return list(self._lines)

    def _check_line(self, data: bytes) -> None:
        if len(data) != self.line_bytes:
            raise ValueError(
                f"line must be {self.line_bytes} bytes, got {len(data)}"
            )

    def _outcome(
        self,
        address: int,
        old: StoredLine,
        new: StoredLine,
        **extra: object,
    ) -> WriteOutcome:
        """Diff two stored images into a :class:`WriteOutcome`.

        Data Comparison Write is implicit here: only differing cells count
        as flips, because PCM never rewrites a cell that already holds the
        target value (section 1, [7]).
        """
        # Dense diff: at 64 bytes, one unpackbits beats the sparse kernel's
        # extra numpy dispatches, and the xor is reused for the SET count
        # ((a ^ b) & b selects exactly the 0->1 transitions).
        diff = old.arr ^ new.arr
        data_positions = np.unpackbits(diff).nonzero()[0]
        n_data = int(data_positions.size)
        sets = int(bitops.byte_popcounts(diff & new.arr).sum()) if n_data else 0
        meta_positions = (old.meta != new.meta).nonzero()[0]
        return WriteOutcome(
            address=address,
            data_flips=n_data,
            metadata_flips=int(meta_positions.size),
            set_flips=sets,
            reset_flips=n_data - sets,
            flipped_data_positions=data_positions,
            flipped_meta_positions=meta_positions,
            **extra,  # type: ignore[arg-type]
        )
