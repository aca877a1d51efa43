"""i-NVMM: incremental partial-memory encryption [Chhabra & Solihin, ISCA'11].

The related-work comparison of section 7.2.  i-NVMM keeps the *hot* working
set in plaintext and encrypts pages incrementally as they go cold, plus a
bulk encryption pass on power-down.  Writes to hot lines therefore cost only
their true bit flips (no avalanche) — but the scheme trades security for it:

* a writeback of a hot line crosses the memory bus in plaintext, so it does
  **not** protect against bus snooping (the paper's key criticism);
* a stolen DIMM yanked while powered exposes the hot working set.

Both weaknesses are observable through this implementation's
:meth:`INvmm.snapshot` / outcome plaintext accounting, which the security
tests and attack demos exercise.

Cold-line encryption uses ordinary counter-mode with the per-line counter,
advanced incrementally by a background sweep emulated at write granularity.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.pads import PadSource
from repro.memory import bitops
from repro.memory.line import StoredLine, make_meta
from repro.schemes.base import WriteOutcome, WriteScheme
from repro.schemes.batch import (
    BatchOutcome,
    diff_stored_rows,
    empty_batch,
    group_by_address,
    initial_ciphertext,
    line_matrix,
    previous_rows,
    row_popcounts,
    run_counts,
)

#: meta[0] == 1 when the stored image is encrypted.
_ENCRYPTED_BIT = 0


class INvmm(WriteScheme):
    """Partial working-set encryption with incremental cold sweeps.

    Parameters
    ----------
    pads:
        Counter-mode pad source (used for cold lines and power-down).
    idle_threshold:
        Writebacks (to anything) after which an untouched line is deemed
        cold and becomes eligible for the encryption sweep.
    sweep_lines_per_write:
        Background encryption bandwidth: cold lines encrypted per
        writeback.
    """

    name = "invmm"

    def __init__(
        self,
        pads: PadSource,
        line_bytes: int = 64,
        idle_threshold: int = 256,
        sweep_lines_per_write: int = 1,
    ) -> None:
        super().__init__(line_bytes)
        if idle_threshold < 1:
            raise ValueError("idle_threshold must be >= 1")
        if sweep_lines_per_write < 0:
            raise ValueError("sweep_lines_per_write must be >= 0")
        self.pads = pads
        self.idle_threshold = idle_threshold
        self.sweep_lines_per_write = sweep_lines_per_write
        self._tick = 0
        self._last_write: dict[int, int] = {}
        self._sweep_order: list[int] = []
        self._sweep_pos = 0
        #: Flips spent by background encryption sweeps (reported separately;
        #: they are memory-internal writes, not writebacks).
        self.sweep_flips = 0
        self.sweep_encryptions = 0

    @property
    def metadata_bits_per_line(self) -> int:
        return 1  # the encrypted flag

    # -- helpers ------------------------------------------------------------

    def _pad(self, address: int, counter: int) -> bytes:
        return self.pads.line_pad(address, counter, self.line_bytes)

    def is_encrypted(self, address: int) -> bool:
        table = self.table
        return bool(table.meta[table.row(address), _ENCRYPTED_BIT])

    def _encrypt_line(self, address: int) -> int:
        """Encrypt a plaintext-resident line in place; returns flips."""
        line = self._line(address)
        counter = line.counter + 1
        stored = bitops.xor(line.data, self._pad(address, counter))
        meta = make_meta(1)
        meta[_ENCRYPTED_BIT] = 1
        new = StoredLine(stored, meta, counter)
        flips = bitops.bit_flips(line.data, stored) + 1  # + the flag bit
        self._store(address, new)
        return flips

    def _sweep(self) -> None:
        """Advance the background sweep, encrypting cold plaintext lines."""
        if not self._sweep_order:
            self._sweep_order = sorted(self.addresses())
        for _ in range(min(self.sweep_lines_per_write, len(self._sweep_order))):
            address = self._sweep_order[self._sweep_pos % len(self._sweep_order)]
            self._sweep_pos += 1
            if self.is_encrypted(address):
                continue
            idle = self._tick - self._last_write.get(address, 0)
            if idle >= self.idle_threshold:
                self.sweep_flips += self._encrypt_line(address)
                self.sweep_encryptions += 1

    # -- checkpointing -------------------------------------------------------

    def _extra_state(self) -> dict[str, object]:
        last = self._last_write
        return {
            "tick": self._tick,
            "sweep_pos": self._sweep_pos,
            "sweep_flips": self.sweep_flips,
            "sweep_encryptions": self.sweep_encryptions,
            "last_write_addresses": np.fromiter(
                last.keys(), dtype=np.int64, count=len(last)
            ),
            "last_write_ticks": np.fromiter(
                last.values(), dtype=np.int64, count=len(last)
            ),
            "sweep_order": np.asarray(self._sweep_order, dtype=np.int64),
        }

    def _load_extra_state(self, extra: dict[str, object]) -> None:
        self._tick = int(extra["tick"])
        self._sweep_pos = int(extra["sweep_pos"])
        self.sweep_flips = int(extra["sweep_flips"])
        self.sweep_encryptions = int(extra["sweep_encryptions"])
        addresses = np.asarray(extra["last_write_addresses"], dtype=np.int64)
        ticks = np.asarray(extra["last_write_ticks"], dtype=np.int64)
        self._last_write = {
            int(a): int(t) for a, t in zip(addresses, ticks)
        }
        self._sweep_order = [
            int(a) for a in np.asarray(extra["sweep_order"], dtype=np.int64)
        ]

    # -- lifecycle -------------------------------------------------------------

    def _install(self, address: int, plaintext: bytes) -> StoredLine:
        # Pages arrive encrypted (they were cold on disk / first placement).
        meta = make_meta(1)
        meta[_ENCRYPTED_BIT] = 1
        self._last_write[address] = self._tick
        self._sweep_order = []
        return StoredLine(bitops.xor(plaintext, self._pad(address, 0)), meta, 0)

    def install_batch(self, addresses, data) -> None:
        """Vectorized initial encryption: one pad batch for the working set."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if not addresses.size:
            return
        self.table.install(
            addresses,
            line_matrix(data, self.line_bytes),
            initial_ciphertext(self.pads, addresses, data, self.line_bytes),
            meta=1,
        )
        self._last_write.update(dict.fromkeys(addresses.tolist(), self._tick))
        self._sweep_order = []

    def read(self, address: int) -> bytes:
        line = self._line(address)
        if line.meta[_ENCRYPTED_BIT]:
            return bitops.xor(line.data, self._pad(address, line.counter))
        return line.data

    def _write(self, address: int, plaintext: bytes) -> WriteOutcome:
        old = self._line(address)
        self._tick += 1
        self._last_write[address] = self._tick
        # A written line is hot: it lives (and travels) in plaintext.
        new = StoredLine(plaintext, make_meta(1), old.counter)
        outcome = self._commit(
            address,
            old,
            new,
            full_line_reencrypted=bool(old.meta[_ENCRYPTED_BIT]),
            mode="plaintext",
        )
        self._sweep()
        return outcome

    def write_batch(self, addresses, data) -> BatchOutcome:
        """Vectorized i-NVMM over a chunk: plaintext writes plus the sweep.

        The sweep order is fixed once the lines are installed, so write
        ``i`` of the chunk visits the next ``sweep_lines_per_write``
        positions after write ``i - 1``'s.  A visit encrypts its line iff
        the line is plaintext and idle for ``idle_threshold`` ticks.  Both
        follow from the chunk's writes and from earlier visits to the same
        line, so the visits are decided in windows of at most one full
        sweep, in which no line is visited twice.  The writes and the
        encryptions then form one event stream per line: an encryption
        turns the line's latest plaintext into ciphertext under the next
        counter, and each write diffs against the image left by the events
        before it.  Encryption pads come from one ``line_pads_batch`` call,
        in the order the scalar sweep requests them; no key repeats.
        Bit-identical to sequential :meth:`write` calls, sweep statistics
        and pad-cache statistics included.
        """
        m = len(addresses)
        if m == 0:
            return empty_batch()
        addresses = np.asarray(addresses, dtype=np.int64)
        lb = self.line_bytes
        if not self._sweep_order:
            self._sweep_order = sorted(self.addresses())
        per_write = min(self.sweep_lines_per_write, len(self._sweep_order))
        tick0 = self._tick
        enc_visits, enc_addresses = self._sweep_visits(
            addresses, per_write, tick0
        )

        # Events in time order: write i, then write i's visits.
        n_enc = enc_visits.size
        times = np.concatenate([
            np.arange(m, dtype=np.int64) * (per_write + 1),
            enc_visits + enc_visits // max(per_write, 1) + 1,
        ])
        by_time = np.argsort(times, kind="stable")
        event_data = np.zeros((m + n_enc, lb), dtype=np.uint8)
        event_data[:m] = data
        is_enc = np.zeros(m + n_enc, dtype=bool)
        is_enc[m:] = True
        groups = group_by_address(
            np.concatenate([addresses, enc_addresses])[by_time],
            event_data[by_time],
        )
        starts = groups.starts
        is_enc = is_enc[by_time][groups.order]
        table = self.table
        rows = table.rows(groups.unique_addresses)
        old_stored, old_meta = table.stored[rows], table.meta[rows]
        counters = table.counters[rows][groups.group_id] + run_counts(
            groups, is_enc
        )
        images = groups.data
        if n_enc:
            # A line is only encrypted while plaintext: its previous event
            # is a write, or there is none and the cells hold plaintext.
            enc_rows = np.flatnonzero(is_enc)
            enc_rows = enc_rows[np.argsort(groups.order[enc_rows])]
            plain = previous_rows(images, starts, old_stored)[enc_rows]
            images[enc_rows] = plain ^ self.pads.line_pads_batch(
                groups.addresses[enc_rows], counters[enc_rows], lb
            )
            self.sweep_flips += int(
                row_popcounts(plain ^ images[enc_rows]).sum()
            ) + n_enc
            self.sweep_encryptions += n_enc
        meta = is_enc.view(np.uint8)[:, None]
        prev_meta = previous_rows(meta, starts, old_meta)
        writes = np.flatnonzero(~is_enc)
        diffs = diff_stored_rows(
            previous_rows(images, starts, old_stored)[writes],
            images[writes],
            prev_meta[writes],
            meta[writes],
        )
        last_rows = groups.last_rows
        table.commit(
            rows, counters[last_rows], images[last_rows], meta[last_rows], None
        )
        self._last_write.update(
            zip(addresses.tolist(), range(tick0 + 1, tick0 + m + 1))
        )
        self._tick = tick0 + m
        self._sweep_pos += m * per_write
        return BatchOutcome(
            addresses=groups.addresses[writes],
            words_reencrypted=np.zeros(m, dtype=np.int64),
            full_line_reencrypted=prev_meta[writes, 0] == 1,
            epoch_reset=np.zeros(m, dtype=bool),
            mode_switched=np.zeros(m, dtype=bool),
            mode_counts={"plaintext": m},
            **diffs,
        )

    def _sweep_visits(
        self, addresses: np.ndarray, per_write: int, tick0: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The sweep visits of a chunk's writes that encrypt a line.

        Returns the visits' indices (visit ``v`` belongs to write
        ``v // per_write``) and their lines' addresses.  Visits are decided
        window by window: a window covers at most one full sweep, so each
        of its visits sees the chunk's writes and only earlier windows'
        encryptions of its line.
        """
        m = addresses.size
        n_visits = m * per_write
        if not n_visits:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        order = self._sweep_order
        n_lines = len(order)
        window = min(n_visits, n_lines)
        first = self._sweep_pos % n_lines
        visited = order[first: first + window] + order[
            : max(0, first + window - n_lines)
        ]
        visited_arr = np.asarray(visited, dtype=np.int64)
        table = self.table
        pre_plain = table.meta[table.rows(visited_arr), _ENCRYPTED_BIT] == 0
        last_of = self._last_write.get
        pre_last = np.fromiter(
            (last_of(a, 0) for a in visited), dtype=np.int64, count=window
        )

        # Latest write (trace index) to each visit's line up to and
        # including the visit's own write, or -1.
        visit = np.arange(n_visits, dtype=np.int64)
        write_of = visit // per_write
        slot = visit % window
        groups = group_by_address(addresses, np.zeros((m, 0), np.uint8))
        run = np.searchsorted(groups.unique_addresses, visited_arr)
        run = np.minimum(run, groups.starts.size - 1)
        written = groups.unique_addresses[run] == visited_arr
        keys = groups.group_id * m + groups.order
        row = np.searchsorted(keys, run[slot] * m + write_of, side="right") - 1
        has_write = (
            written[slot]
            & (row >= 0)
            & (groups.group_id[np.maximum(row, 0)] == run[slot])
        )
        last_write = np.where(has_write, groups.order[row], -1)
        idle = np.where(
            has_write,
            write_of - last_write,
            tick0 + 1 + write_of - pre_last[slot],
        )
        cold = idle >= self.idle_threshold

        encrypt = np.zeros(n_visits, dtype=bool)
        last_enc = np.full(window, -1, dtype=np.int64)
        for lo in range(0, n_visits, window):
            hi = min(lo + window, n_visits)
            enc_before = last_enc[: hi - lo]
            # Plaintext iff written since the line's last encryption, or
            # neither happened in the chunk and it was plaintext before.
            plain = (last_write[lo:hi] > enc_before) | (
                (enc_before < 0) & pre_plain[: hi - lo]
            )
            hit = plain & cold[lo:hi]
            encrypt[lo:hi] = hit
            enc_before[hit] = write_of[lo:hi][hit]
        enc_visits = np.flatnonzero(encrypt)
        return enc_visits, visited_arr[enc_visits % window]

    # -- security surface ----------------------------------------------------------

    def snapshot(self) -> dict[int, bytes]:
        """What a stolen DIMM exposes: every line's stored image."""
        table = self.table
        return {a: table.stored[i].tobytes() for a, i in table.index.items()}

    def plaintext_lines(self) -> list[int]:
        """Addresses currently resident in plaintext (the hot set)."""
        table = self.table
        plain = table.meta[: table.n, _ENCRYPTED_BIT] == 0
        return table.addresses[: table.n][plain].tolist()

    def power_down(self) -> int:
        """Encrypt the entire hot set (graceful shutdown); returns flips."""
        flips = 0
        for address in self.plaintext_lines():
            flips += self._encrypt_line(address)
        return flips
