"""Synthetic writeback-trace generator.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into a
deterministic stream of (line address, new line contents) writeback records
with the statistical structure the paper's analysis rests on:

* line-level locality — a Zipf-popular working set of lines;
* a persistent per-line *word footprint* — writes to a line keep touching
  the same small set of 2-byte word positions, with slow drift and
  occasional bursts;
* cross-line alignment of hot words — footprints are drawn from one global
  word-popularity ranking, so the same positions are hot in every line
  (what makes Figure 12's per-bit-position skew visible after aggregating
  over lines);
* within-word value behaviour — bit flips decay geometrically from LSB to
  MSB, mimicking counters and small-delta updates.

The generator is also the keeper of ground truth: it holds every line's
current plaintext, so schemes under test can be checked byte-for-byte.

Draws come from :class:`StreamRandom`, which replays exactly the stream a
``random.Random`` seeded the same way would produce, but reads it from a
numpy buffer of Mersenne Twister words.  The write loop walks that buffer
with a local cursor and reads each word mutation off a precomputed table,
so the traces are the ones a per-draw ``random.Random`` loop would emit.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class WriteRecord:
    """One writeback: the full new contents of one line."""

    address: int
    data: bytes


def _zipf_cumulative(n: int, alpha: float) -> list[float]:
    """Cumulative Zipf weights for ranks 1..n (unnormalized prefix sums)."""
    total = 0.0
    cum = []
    for rank in range(1, n + 1):
        total += rank ** -alpha
        cum.append(total)
    return cum


def _bit_probabilities(mean_bits: float, decay: float, width: int) -> list[float]:
    """Per-bit flip probabilities p_j = c * decay^j with sum ~= mean_bits.

    Probabilities are capped at 0.99; the scale ``c`` is found by bisection
    so the capped sum hits the requested mean (or the cap's maximum).
    """
    if not 0 < decay <= 1:
        raise ValueError("decay must be in (0, 1]")
    if mean_bits <= 0:
        raise ValueError("mean_bits must be positive")
    cap = 0.99
    mean_bits = min(mean_bits, cap * width)

    def capped_sum(c: float) -> float:
        return sum(min(cap, c * decay**j) for j in range(width))

    lo, hi = 0.0, 1.0
    while capped_sum(hi) < mean_bits and hi < 1e9:
        hi *= 2
    for _ in range(60):
        mid = (lo + hi) / 2
        if capped_sum(mid) < mean_bits:
            lo = mid
        else:
            hi = mid
    return [min(cap, hi * decay**j) for j in range(width)]


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (fine for the small means used here).

    The reference definition of the per-write word count;
    :meth:`TraceGenerator._emit` runs the same loop inline over its
    buffered draws.
    """
    if lam <= 0:
        return 0
    limit = pow(2.718281828459045, -lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


#: Mersenne Twister words pulled from the bit generator per buffer refill.
_REFILL_WORDS = 1 << 16
#: ``memoryview.cast`` formats for the supported word sizes.
_WORD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _flip_table(
    doubles: np.ndarray, probs: list[float], word_bytes: int
) -> np.ndarray:
    """One mutation round's delta for every start word of the buffer.

    A round draws ``len(probs)`` doubles and sets bit ``j`` when draw ``j``
    falls below ``probs[j]``.  Double ``doubles[p]`` is built from words
    ``p`` and ``p + 1``, so a round starting at word ``p`` yields
    ``table[p] = sum_j (doubles[p + 2j] < probs[j]) << j``.  One
    word-wide accumulator collects the bits, top bit first, doubling
    before each (``x + x`` is numpy's faster ``x << 1``).  Each entry's
    bytes in memory are the little-endian delta, the value a native word
    view of a line XORs in: a big-endian host byteswaps the table.
    """
    n = max(0, len(doubles) - 2 * (len(probs) - 1))
    table = np.zeros(n, dtype=f"u{word_bytes}")
    below = np.empty(n, dtype=bool)
    for j in reversed(range(len(probs))):
        np.add(table, table, out=table)
        np.less(doubles[2 * j: 2 * j + n], probs[j], out=below)
        np.bitwise_or(table, below, out=table)
    if sys.byteorder == "big":
        table.byteswap(inplace=True)
    return table


class StreamRandom(random.Random):
    """``random.Random`` replayed from a buffer of Mersenne Twister words.

    Seeding runs the stdlib's own ``seed``; the resulting MT19937 state is
    then loaded into :class:`numpy.random.MT19937`, which continues the
    very same word stream, ``_REFILL_WORDS`` words per refill.
    :meth:`random` (two words per double) and :meth:`getrandbits` (one
    word per 32 bits) repeat CPython's conversions, so the inherited
    ``shuffle``, ``gauss`` and ``randrange`` return exactly what a plain
    ``random.Random`` with the same seed returns.  The state lives in the
    buffer, so :meth:`getstate` and :meth:`setstate` are not supported.

    Each refill also converts the buffer to every double
    (``doubles[p]`` is the double drawn at word ``p``) and to one
    mutation-round table per :meth:`set_flip_tables` profile, for callers
    that walk the stream with their own cursor: :meth:`view` hands out
    ``(pos, limit, doubles, tables)`` as memoryviews.  At least ``margin``
    words remain past any ``pos <= limit``.
    """

    _flip_probs: tuple = ()
    _flip_word_bytes = 8
    margin = 64

    def seed(self, a=None, version=2) -> None:
        super().seed(a, version)
        internal = super().getstate()[1]
        self._bitgen = np.random.MT19937()
        self._bitgen.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.array(internal[:-1], dtype=np.uint32),
                "pos": internal[-1],
            },
        }
        self._load(np.empty(0, dtype=np.uint64))

    def getstate(self):
        raise TypeError("StreamRandom keeps its state in a word buffer")

    def setstate(self, state) -> None:
        raise TypeError("StreamRandom keeps its state in a word buffer")

    def set_flip_tables(self, profiles, word_bytes: int) -> None:
        """Build a mutation-round table per bit-probability profile."""
        self._flip_probs = tuple(profiles)
        self._flip_word_bytes = word_bytes
        self.margin = 2 + 16 * max(len(p) for p in self._flip_probs) + 8
        self._load(self._raw[self.pos:])

    def _load(self, raw: np.ndarray) -> None:
        self._raw = raw
        self._words = memoryview(raw)
        # CPython's ``random()``: (a * 2**26 + b) / 2**53 from the top 27
        # bits of one word and the top 26 of the next, exact below 2**53.
        k = raw[:-1] >> 5
        k <<= 26
        k |= raw[1:] >> 6
        doubles = k * (1.0 / 9007199254740992.0)
        self.doubles = memoryview(doubles)
        self.tables = [
            memoryview(_flip_table(doubles, probs, self._flip_word_bytes))
            for probs in self._flip_probs
        ]
        self.pos = 0
        self.limit = len(raw) - self.margin

    def view(self, pos: int | None = None):
        """Move the cursor to ``pos``; ``(pos, limit, doubles, tables)``.

        Refills first when the cursor is past ``limit``.
        """
        if pos is not None:
            self.pos = pos
        if self.pos > self.limit:
            self._load(
                np.concatenate(
                    (self._raw[self.pos:], self._bitgen.random_raw(_REFILL_WORDS))
                )
            )
        return self.pos, self.limit, self.doubles, self.tables

    def random(self) -> float:
        pos = self.pos
        if pos > self.limit:
            pos = self.view()[0]
        self.pos = pos + 2
        return self.doubles[pos]

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        value = shift = 0
        while k > 0:
            pos = self.pos
            if pos > self.limit:
                pos = self.view()[0]
            self.pos = pos + 1
            word = self._words[pos]
            if k < 32:
                word >>= 32 - k
            value |= word << shift
            shift += 32
            k -= 32
        return value

    def uniform_bytes(self, n: int) -> np.ndarray:
        """``n`` draws of ``randrange(256)`` as a uint8 array.

        ``randrange(256)`` redraws ``getrandbits(9)`` while it is >= 256:
        one word per try, accepted when its top bit is clear, as
        ``word >> 23``.  Words come from the bit generator in blocks of
        ``_REFILL_WORDS``; the unused rest of the last block is buffered.
        """
        out = np.empty(n, dtype=np.uint8)
        raw = self._raw[self.pos:]
        filled = take = 0
        while filled < n:
            accepted = np.flatnonzero(raw < 0x80000000)
            take = min(len(accepted), n - filled)
            out[filled: filled + take] = raw[accepted[:take]] >> 23
            filled += take
            if filled < n:
                raw = self._bitgen.random_raw(_REFILL_WORDS)
        self._load(raw[accepted[take - 1] + 1:] if take else raw)
        return out


class TraceGenerator:
    """Deterministic writeback stream for one workload profile.

    Parameters
    ----------
    profile:
        The workload model.
    seed:
        RNG seed; identical (profile, seed) pairs produce identical traces.
    line_bytes / word_bytes:
        Geometry; the paper's 64-byte lines and 2-byte words.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        line_bytes: int = 64,
        word_bytes: int = 2,
    ) -> None:
        if word_bytes not in _WORD_FORMATS:
            raise ValueError(
                f"word_bytes must be one of {sorted(_WORD_FORMATS)}"
            )
        self.profile = profile
        self.seed = seed
        self.line_bytes = line_bytes
        self.word_bytes = word_bytes
        self.n_words = line_bytes // word_bytes
        # str seeding is deterministic across interpreter runs (unlike
        # tuple/str __hash__, which PYTHONHASHSEED randomizes).
        rng = self._rng = StreamRandom(f"{profile.name}:{seed}")

        # Line popularity: shuffled identity so hot lines are scattered in
        # the address space, Zipf-weighted by rank.
        self._line_order = list(range(profile.working_set_lines))
        rng.shuffle(self._line_order)
        self._line_cum = _zipf_cumulative(
            profile.working_set_lines, profile.zipf_alpha
        )

        # Global word-position popularity (footprints sample from this).
        self._word_order = list(range(self.n_words))
        rng.shuffle(self._word_order)
        self._word_cum = _zipf_cumulative(self.n_words, profile.word_skew)
        self._word_rank = {w: r for r, w in enumerate(self._word_order)}

        # Per-bit flip probabilities inside a modified word: a full-word
        # profile, plus a low-byte-only profile for small-delta updates
        # (counters, flags) that leave the word's upper byte(s) untouched.
        self._bit_probs = _bit_probabilities(
            profile.bits_per_word_mean, profile.bit_decay, 8 * word_bytes
        )
        self._low_byte_probs = _bit_probabilities(
            min(profile.bits_per_word_mean, 4.0), profile.bit_decay, 8
        )
        #: The delta a word gets when eight mutation rounds all draw zero.
        self._fallback_delta = int(
            np.frombuffer(
                (1).to_bytes(word_bytes, "little"), dtype=f"u{word_bytes}"
            )[0]
        )

        # 16-byte AES-block geometry for block-affinity footprint sampling.
        self._words_per_block = max(1, 16 // word_bytes)
        self._n_blocks = max(1, self.n_words // self._words_per_block)
        self._home_blocks: dict[int, set[int]] = {}

        # Ground truth: pristine line contents, and the current contents as
        # one buffer viewed as native words (line ``a`` is words
        # ``a * n_words`` onwards).
        initial = rng.uniform_bytes(profile.working_set_lines * line_bytes)
        self._initial = initial.reshape(profile.working_set_lines, line_bytes)
        self._lines = bytearray(initial)
        self._words = memoryview(self._lines).cast(_WORD_FORMATS[word_bytes])
        self._footprints: dict[int, list[int]] = {}
        rng.set_flip_tables((self._bit_probs, self._low_byte_probs), word_bytes)
        self.writes_generated = 0

    # -- public API -----------------------------------------------------------

    def initial_lines(self) -> dict[int, bytes]:
        """Pristine contents of every working-set line (for install)."""
        blob = self._initial.tobytes()
        lb = self.line_bytes
        return {
            addr: blob[addr * lb: (addr + 1) * lb]
            for addr in range(self.profile.working_set_lines)
        }

    def initial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``initial_lines`` as ``(addresses, data)`` arrays in address order."""
        n = self.profile.working_set_lines
        return np.arange(n, dtype=np.int64), self._initial

    def current_line(self, address: int) -> bytes:
        """Ground-truth plaintext of a line right now."""
        if not 0 <= address < self.profile.working_set_lines:
            raise KeyError(address)
        lb = self.line_bytes
        return bytes(self._lines[address * lb: (address + 1) * lb])

    def next_write(self) -> WriteRecord:
        """Generate the next writeback record."""
        address, data = self.generate(1)
        return WriteRecord(int(address[0]), data.tobytes())

    def writes(self, n: int):
        """Yield ``n`` writeback records."""
        for _ in range(n):
            yield self.next_write()

    def generate(
        self, n: int, abort=None, abort_every: int = 1024
    ) -> tuple[np.ndarray, np.ndarray]:
        """The next ``n`` writebacks as ``(addresses, data)`` arrays.

        ``addresses`` is ``(n,)`` int64 and ``data`` ``(n, line_bytes)``
        uint8.  ``abort`` is polled before every ``abort_every``-th write;
        when it returns True, :class:`~repro.obs.instruments.RunAborted` is
        raised naming the write index.
        """
        addresses = np.empty(n, dtype=np.int64)
        data = np.empty((n, self.line_bytes), dtype=np.uint8)
        if n:
            self._emit(addresses, data, abort, abort_every)
        return addresses, data

    # -- the write loop -----------------------------------------------------

    def _emit(self, addresses, data, abort, abort_every) -> None:
        """Write the next ``len(addresses)`` records into the arrays.

        Draw for draw this is the per-write sequence: line pick, dense
        check, footprint (created on first touch), churn, Poisson word
        count, front-biased footprint picks, burst, then one mutation per
        chosen word — a low-byte/full-word choice and rounds of ``width``
        bit draws until one flips something (eight at most, then the LSB).
        The common draws read the engine's buffers through the local
        cursor ``c``; footprint creation, churn and bursts go through the
        methods below, with the cursor handed over and taken back.
        """
        profile = self.profile
        rng = self._rng
        n = len(addresses)
        lb = self.line_bytes
        n_words = self.n_words
        lines = self._lines
        words_view = self._words
        out = memoryview(data).cast("B")
        line_cum = self._line_cum
        line_total = line_cum[-1]
        line_order = self._line_order
        last_line = len(line_order) - 1
        footprints = self._footprints
        dense = profile.dense_write_prob
        churn = profile.footprint_churn
        burst = profile.burst_prob
        burst_words = profile.burst_words
        lam = profile.words_per_write_mean - 1
        poisson_limit = pow(2.718281828459045, -lam) if lam > 0 else 0.0
        single_byte = profile.single_byte_prob
        step_full = 2 * len(self._bit_probs)
        step_low = 2 * len(self._low_byte_probs)
        fallback = self._fallback_delta
        all_words = range(n_words)

        c, lim, D, (TF, TL) = rng.view()
        for i in range(n):
            if abort is not None and i % abort_every == 0 and abort():
                from repro.obs.instruments import RunAborted

                rng.pos = c
                raise RunAborted(f"trace generation aborted at write {i}/{n}")
            if c > lim:
                c, lim, D, (TF, TL) = rng.view(c)
            rank = bisect_right(line_cum, D[c] * line_total)
            address = line_order[rank if rank < last_line else last_line]
            if D[c + 2] < dense:
                c += 4
                words = all_words
            else:
                c += 4
                fp = footprints.get(address)
                if fp is None:
                    rng.pos = c
                    fp = self._footprint(address)
                    c, lim, D, (TF, TL) = rng.view()
                if churn:
                    r = D[c]
                    c += 2
                    if r < churn:
                        rng.pos = c
                        self._churn_footprint(address, fp)
                        c, lim, D, (TF, TL) = rng.view()
                size = len(fp)
                k = 1
                if lam > 0:
                    p = 1.0
                    while True:
                        if c > lim:
                            c, lim, D, (TF, TL) = rng.view(c)
                        p *= D[c]
                        c += 2
                        if p <= poisson_limit:
                            break
                        k += 1
                if k > size:
                    k = size
                # Front-biased picks: hot footprint entries get modified most.
                # ``d < 1`` in binary64, so ``d * d < 1`` and the rounded
                # ``size * (d * d)`` stays below ``size``: ``idx`` is in range.
                words = set()
                add = words.add
                while len(words) < k:
                    if c > lim:
                        c, lim, D, (TF, TL) = rng.view(c)
                    d = D[c]
                    c += 2
                    add(fp[int(size * (d * d))])
                if burst:
                    if c > lim:
                        c, lim, D, (TF, TL) = rng.view(c)
                    r = D[c]
                    c += 2
                    if r < burst:
                        rng.pos = c
                        for _ in range(burst_words):
                            words.add(rng.randrange(n_words))
                        c, lim, D, (TF, TL) = rng.view()

            base = address * n_words
            for w in words:
                if c > lim:
                    c, lim, D, (TF, TL) = rng.view(c)
                if D[c] < single_byte:
                    table, step = TL, step_low
                else:
                    table, step = TF, step_full
                delta = table[c + 2]
                c += 2 + step
                if not delta:
                    for _ in range(7):
                        delta = table[c]
                        c += step
                        if delta:
                            break
                    else:
                        delta = fallback
                words_view[base + w] ^= delta
            addresses[i] = address
            off = address * lb
            out[i * lb: (i + 1) * lb] = lines[off: off + lb]
        rng.pos = c
        self.writes_generated += n

    # -- rare paths ----------------------------------------------------------

    def _draw_words(
        self,
        address: int,
        chosen: set[int],
        want: int,
        tries: int = -1,
        home: bool = False,
    ) -> int:
        """Add footprint candidates for ``address`` to ``chosen``.

        Draws until ``chosen`` holds ``want`` entries or ``tries`` candidates
        are spent (negative: no limit) and returns the last candidate.  A
        candidate is a global word draw, ``D[c] * total`` looked up in the
        word-popularity prefix sums.  Under block affinity a second draw
        decides whether it must lie in one of the line's home blocks; then up
        to 16 redraws look for one that does.  The home blocks are created
        on the first such candidate.  ``home=True`` draws the home blocks
        themselves: plain global words, added as their block index.

        Draws read the engine's buffer through the local cursor ``c``, which
        is checked against the refill limit before every draw.
        """
        rng = self._rng
        order = self._word_order
        cum = self._word_cum
        total = cum[-1]
        last = self.n_words - 1
        per_block = self._words_per_block
        affinity = 0.0 if home else self.profile.block_affinity
        line_home = self._home_blocks.get(address)
        word = -1
        c, lim, D, _ = rng.view()
        while len(chosen) < want and tries:
            tries -= 1
            if c > lim:
                c, lim, D, _ = rng.view(c)
            rank = bisect_right(cum, D[c] * total)
            word = order[rank if rank < last else last]
            c += 2
            if affinity > 0.0:
                if c > lim:
                    c, lim, D, _ = rng.view(c)
                r = D[c]
                c += 2
                if r < affinity:
                    if line_home is None:
                        rng.pos = c
                        line_home = self._line_home_blocks(address)
                        c, lim, D, _ = rng.view()
                    for _ in range(16):
                        if word // per_block in line_home:
                            break
                        if c > lim:
                            c, lim, D, _ = rng.view(c)
                        rank = bisect_right(cum, D[c] * total)
                        word = order[rank if rank < last else last]
                        c += 2
            chosen.add(word // per_block if home else word)
        rng.pos = c
        return word

    def _line_home_blocks(self, address: int) -> set[int]:
        """The line's preferred AES blocks (chosen by global popularity)."""
        home = self._home_blocks.get(address)
        if home is None:
            home = self._home_blocks[address] = set()
            want = min(self.profile.home_blocks, self._n_blocks)
            self._draw_words(address, home, want, home=True)
        return home

    def _footprint(self, address: int) -> list[int]:
        """Create the line's footprint: a Gaussian size, then candidates."""
        mean = self.profile.footprint_mean
        # ``gauss`` caches its second normal in ``gauss_next``, so the size
        # comes from the engine's own method.
        size = max(
            1, min(self.n_words, round(self._rng.gauss(mean, mean / 4)))
        )
        chosen: set[int] = set()
        self._draw_words(address, chosen, size)
        fp = sorted(chosen, key=self._footprint_sort_key(address))
        self._footprints[address] = fp
        return fp

    def _footprint_sort_key(self, address: int):
        """Footprint ordering: hottest-first, home-block words ahead.

        The front of the footprint is what front-biased per-write picks
        favour, so putting home-block words first keeps individual writes
        clustered within few AES blocks even when a large footprint
        overflows its home blocks.
        """
        if self.profile.block_affinity <= 0.0:
            return self._word_rank.__getitem__
        home = self._line_home_blocks(address)
        return lambda w: (
            w // self._words_per_block not in home,
            self._word_rank[w],
        )

    def _churn_footprint(self, address: int, fp: list[int]) -> None:
        """Drift: replace one footprint word with a fresh draw.

        Up to eight candidates; the first one not yet in ``fp`` replaces a
        uniformly chosen entry.
        """
        chosen = set(fp)
        word = self._draw_words(address, chosen, len(fp) + 1, tries=8)
        if len(chosen) > len(fp):
            fp[self._rng.randrange(len(fp))] = word
            fp.sort(key=self._footprint_sort_key(address))
