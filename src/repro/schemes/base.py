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
from functools import cached_property
from typing import ClassVar

import numpy as np

from repro.crypto.pads import PAD_BLOCK_BYTES
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


#: Flipped-bit positions of a scheme without metadata.
_NO_BITS = np.zeros(0, dtype=np.int64)


class LineTable:
    """Every installed line's state: one row per line, in install order.

    The columns are parallel arrays: ``addresses``, ``counters`` (the
    line counter), ``stored`` (the cells), ``meta`` (the scheme's metadata
    bits), ``plain`` (the plaintext last installed or written, or None
    for a scheme that does not keep it), and the integer ``columns`` a
    scheme declares, such as BLE's per-block counters.  ``plain`` is a
    memo for the batch kernels, the stand-in for the controller's
    read-before-write; :meth:`WriteScheme.read` always decrypts.
    ``index`` maps an address to its row.  Rows are only ever
    appended, so row order is install order, the order of
    :meth:`state_dict`; reinstalling a line keeps its row and takes the
    new values.  The arrays keep spare rows past :attr:`n` so serial
    installs append in amortized constant time; only the first ``n`` rows
    are lines.
    """

    def __init__(
        self,
        line_bytes: int,
        meta_bits: int,
        columns: dict[str, int],
        plain: bool,
    ) -> None:
        self.index: dict[int, int] = {}
        self.n = 0
        self._row_shapes = {
            "addresses": ((), np.int64),
            "counters": ((), np.int64),
            "stored": ((line_bytes,), np.uint8),
            "meta": ((meta_bits,), np.uint8),
        }
        self.plain: np.ndarray | None = None
        if plain:
            self._row_shapes["plain"] = ((line_bytes,), np.uint8)
        self._widths = columns
        self._allocate(0)

    def _allocate(self, capacity: int) -> None:
        """Give every column ``capacity`` rows, keeping the first :attr:`n`."""
        n = self.n
        for name, (shape, dtype) in self._row_shapes.items():
            arr = np.zeros((capacity, *shape), dtype=dtype)
            if n:
                arr[:n] = getattr(self, name)[:n]
            setattr(self, name, arr)
        columns = {}
        for name, width in self._widths.items():
            columns[name] = np.zeros((capacity, width), dtype=np.int64)
            if n:
                columns[name][:n] = self.columns[name][:n]
        self.columns = columns
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def _reserve(self, n: int) -> None:
        capacity = self.addresses.shape[0]
        if n > capacity:
            self._allocate(max(n, 2 * capacity, 16))

    # -- rows ----------------------------------------------------------------

    def row(self, address: int) -> int:
        """The row of an installed line."""
        try:
            return self.index[address]
        except KeyError:
            raise _never_installed(address) from None

    def rows(self, addresses: np.ndarray) -> np.ndarray:
        """The row of each installed line in ``addresses``, vectorized."""
        if self._sorted is None:
            order = np.argsort(self.addresses[: self.n], kind="stable")
            self._sorted = (self.addresses[order], order)
        keys, order = self._sorted
        if not keys.size:
            if addresses.size:
                raise _never_installed(int(addresses[0]))
            return order
        pos = np.minimum(np.searchsorted(keys, addresses), keys.size - 1)
        found = keys[pos] == addresses
        if not found.all():
            raise _never_installed(int(addresses[np.argmin(found)]))
        return order[pos]

    def add_row(self, address: int) -> int:
        """The row of ``address``, appended if the line is new."""
        row = self.index.setdefault(address, self.n)
        if row == self.n:
            self._reserve(row + 1)
            self.addresses[row] = address
            self.n += 1
            self._sorted = None
        return row

    def add(self, addresses: np.ndarray) -> np.ndarray:
        """:meth:`add_row` for each of ``addresses``, in order."""
        index = self.index
        rows = [index.setdefault(a, len(index)) for a in addresses.tolist()]
        n = len(index)
        if n > self.n:
            self._reserve(n)
            self.addresses[rows] = addresses
            self.n = n
            self._sorted = None
        return np.asarray(rows, dtype=np.int64)

    def install(
        self, addresses, plain: np.ndarray, stored: np.ndarray, meta=0
    ) -> None:
        """Commit freshly installed lines: counter 0, ``meta`` (zeroed by
        default), zeroed declared columns.  A repeated address keeps its
        first row and takes its last values, as sequential installs do."""
        rows = self.add(np.asarray(addresses, dtype=np.int64))
        self.commit(rows, 0, stored, meta, plain)
        for column in self.columns.values():
            column[rows] = 0

    # -- values --------------------------------------------------------------

    def line(self, row: int) -> StoredLine:
        """Row ``row`` as a :class:`StoredLine` of views into the table,
        valid until the row is next written."""
        return StoredLine(
            self.stored[row], self.meta[row], int(self.counters[row])
        )

    def put(self, row: int, line: StoredLine) -> None:
        """Make ``line`` the cells, metadata and counter of ``row``."""
        self.stored[row] = line.arr
        if line.meta.size:
            self.meta[row] = line.meta
        self.counters[row] = line.counter

    def commit(
        self,
        rows: np.ndarray,
        counters: np.ndarray,
        stored: np.ndarray,
        meta: np.ndarray,
        plain: np.ndarray | None,
    ) -> None:
        """Scatter a batch's final line states into ``rows`` (``plain``
        only if the table keeps it)."""
        self.counters[rows] = counters
        self.stored[rows] = stored
        self.meta[rows] = meta
        if self.plain is not None:
            self.plain[rows] = plain

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """The lines as four arrays in row order (copies)."""
        n = self.n
        return {
            "lines/addresses": self.addresses[:n].copy(),
            "lines/counters": self.counters[:n].copy(),
            "lines/data": self.stored[:n].copy(),
            "lines/meta": self.meta[:n].copy(),
        }

    def load(
        self,
        addresses: np.ndarray,
        counters: np.ndarray,
        data: np.ndarray,
        meta: np.ndarray,
    ) -> None:
        """Replace every row with a :meth:`state_dict` snapshot's lines.

        ``plain`` and the declared columns come back zeroed; the scheme
        restores them.
        """
        self.index = {a: i for i, a in enumerate(addresses.tolist())}
        self.n = 0
        self._allocate(len(self.index))
        self.n = len(self.index)
        self.addresses[:] = addresses
        self.counters[:] = counters
        self.stored[:] = data
        if meta.size:
            self.meta[:] = meta


def _never_installed(address: int) -> KeyError:
    return KeyError(
        f"line {address:#x} was never installed; call install() first"
    )


class _PeekedPads:
    """A pad source's scalar calls, answered from one batched peek.

    :meth:`WriteScheme._load_plain` decrypts every line twice through
    this.  The first pass records the (address, counter) keys the reads
    ask for and answers with zeros (which keys a read asks for depends
    on the line's counters and metadata, never on pad values); :meth:`fill`
    then makes their line pads in one side-effect-free peek, and the
    second pass is answered from those.  A pad block is a slice of its
    line pad.  The pad cache keeps the order and counts it was restored
    with.
    """

    def __init__(self, pads) -> None:
        self._pads = pads
        self._rows: dict[tuple[int, int], int] = {}
        self._width = 0
        self._table: np.ndarray | None = None

    def line_pad_array(
        self, address: int, counter: int, n_bytes: int
    ) -> np.ndarray:
        row = self._rows.setdefault((address, counter), len(self._rows))
        if self._table is None:
            self._width = max(self._width, n_bytes)
            return np.zeros(n_bytes, dtype=np.uint8)
        return self._table[row, :n_bytes]

    def line_pad(self, address: int, counter: int, n_bytes: int) -> bytes:
        return self.line_pad_array(address, counter, n_bytes).tobytes()

    def pad_block(self, address: int, counter: int, block_index: int) -> bytes:
        lo = PAD_BLOCK_BYTES * block_index
        pad = self.line_pad_array(address, counter, lo + PAD_BLOCK_BYTES)
        return pad[lo:].tobytes()

    def fill(self) -> None:
        """Make every recorded key's pad in one peek."""
        keys = np.array(list(self._rows), dtype=np.int64).reshape(-1, 2)
        self._table = np.asarray(
            self._pads.peek_line_pads_batch(keys[:, 0], keys[:, 1], self._width)
        )


class WriteScheme(ABC):
    """A memory write policy (encryption and/or flip reduction).

    Concrete schemes keep every line's state in one :class:`LineTable`,
    :attr:`table`.  The write path is split so subclasses only implement
    the interesting part:

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

    #: Whether the table keeps each line's ``plain`` memo, for a batch
    #: kernel that compares a chunk's writes with the pre-chunk plaintext.
    keeps_plain: ClassVar[bool] = False

    def __init__(self, line_bytes: int = 64) -> None:
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        self.line_bytes = line_bytes

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

    # -- line table --------------------------------------------------------

    @cached_property
    def table(self) -> LineTable:
        """Every line's state (built on first use, once the subclass has
        set the geometry :attr:`metadata_bits_per_line` reads)."""
        return LineTable(
            self.line_bytes,
            self.metadata_bits_per_line,
            self._line_columns(),
            self.keeps_plain,
        )

    def _line_columns(self) -> dict[str, int]:
        """Integer line columns beyond the counter: name -> width."""
        return {}

    def _line(self, address: int) -> StoredLine:
        """An installed line as views into its row, for the write path.

        Valid until the row is next written: a ``_write`` reads the old
        line through it and hands it to :meth:`_commit`, which diffs
        before it stores.  :meth:`stored` is the copy for everyone else.
        """
        return self.table.line(self.table.index[address])

    def _store(self, address: int, line: StoredLine) -> None:
        """Make ``line`` the state of an installed line."""
        self.table.put(self.table.index[address], line)

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
        table = self.table
        row = table.add_row(address)
        for column in table.columns.values():
            column[row] = 0
        table.put(row, stored)
        if self.keeps_plain:
            table.plain[row] = bitops.as_array(plaintext)
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
        row = self.table.row(address)
        outcome = self._write(address, plaintext)
        if self.keeps_plain:
            self.table.plain[row] = bitops.as_array(plaintext)
        return outcome

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

        The line table is packed into four parallel arrays in row order
        (which :meth:`load_state_dict` preserves, so iteration order — and
        therefore every downstream decision that depends on it — survives a
        round trip).  Subclasses contribute additional state through
        :meth:`_extra_state`; its keys are namespaced under ``extra/`` so
        the two regions can never collide.
        """
        state: dict[str, object] = dict(self.table.state_dict())
        for key, value in self._extra_state().items():
            state[f"extra/{key}"] = value
        return state

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot bit-identically."""
        self.table.load(
            np.asarray(state["lines/addresses"], dtype=np.int64),
            np.asarray(state["lines/counters"], dtype=np.int64),
            np.asarray(state["lines/data"], dtype=np.uint8),
            np.asarray(state["lines/meta"], dtype=np.uint8),
        )
        self._load_extra_state(
            {
                key[len("extra/"):]: value
                for key, value in state.items()
                if key.startswith("extra/")
            }
        )
        self._load_plain()

    def _load_plain(self) -> None:
        """Rebuild the plaintext memo after :meth:`load_state_dict`.

        Each line is decrypted by :meth:`read` under pads peeked from the
        source in one batch (:class:`_PeekedPads`), so the pad cache keeps
        the order and counts it was restored with.
        """
        table = self.table
        if not (self.keeps_plain and table.n):
            return
        addresses = table.addresses[: table.n].tolist()
        pads = self.pads
        self.pads = peeked = _PeekedPads(pads)
        try:
            for address in addresses:
                self.read(address)
            peeked.fill()
            for row, address in enumerate(addresses):
                table.plain[row] = bitops.as_array(self.read(address))
        finally:
            self.pads = pads

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
        """A copy of a line's physical image (for wear tracking and tests)."""
        table = self.table
        row = table.row(address)
        return StoredLine(
            table.stored[row].copy(),
            table.meta[row].copy(),
            int(table.counters[row]),
        )

    def addresses(self) -> list[int]:
        """Installed line addresses, in install order."""
        return self.table.addresses[: self.table.n].tolist()

    def _check_line(self, data: bytes) -> None:
        if len(data) != self.line_bytes:
            raise ValueError(
                f"line must be {self.line_bytes} bytes, got {len(data)}"
            )

    def _commit(
        self,
        address: int,
        old: StoredLine,
        new: StoredLine,
        **extra: object,
    ) -> WriteOutcome:
        """Store ``new`` over ``old`` and diff the two into a
        :class:`WriteOutcome`.

        Data Comparison Write is implicit here: only differing cells count
        as flips, because PCM never rewrites a cell that already holds the
        target value (section 1, [7]).
        """
        # Dense diff: at 64 bytes, one unpackbits beats the sparse kernel's
        # extra numpy dispatches, and the xor is reused for the SET count
        # ((a ^ b) & b selects exactly the 0->1 transitions), which one
        # Python int popcount takes faster than a numpy reduction.
        diff = old.arr ^ new.arr
        data_positions = np.unpackbits(diff).nonzero()[0]
        n_data = int(data_positions.size)
        sets = int.from_bytes((diff & new.arr).tobytes(), "little").bit_count()
        meta_positions = (
            (old.meta != new.meta).nonzero()[0] if new.meta.size else _NO_BITS
        )
        self._store(address, new)
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
