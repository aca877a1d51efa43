"""KV-service request workloads driving organic PCM traffic.

DEUCE's evaluation stops at Table 2's twelve SPEC-like writeback streams.
Real NVM main memory sits behind a *service*: millions of users issuing
put/get/delete requests against a key-value store whose working set lives
in persistent memory.  This module models that traffic shape end to end:

* :class:`KvProfile` — a named request mix (key count, value-size
  distribution, Zipfian key popularity, put/get/delete weights) with an
  explicit populate -> steady-state phase structure, in the style of the
  kv-emulator workload profiles (ETC/UDB/ZippyDB traces from production
  Meta/RocksDB deployments).
* :func:`request_stream` — the *workload* half of the Workload /
  ReqGenEngine split: a pure, seeded generator of :class:`KvRequest`
  objects, independent of any memory system.
* :class:`KvEngine` — the *engine* half: applies requests to a keyspace
  layout over the write-back :class:`~repro.memory.cache.MemoryHierarchy`,
  so PCM line writes arise organically from cache writebacks (dirty
  evictions of slot lines) rather than synthesized footprint statistics.
* :func:`generate_kv_trace` / :func:`drive_requests` — materialize a
  :class:`~repro.workloads.trace.Trace` (with phase boundaries) that every
  existing scheme, sweep, gate, and dashboard consumes unchanged.

Determinism: a profile + seed fully determines the request stream, and a
request stream fully determines the engine's stores (value contents are
keyed hashes of ``(profile, seed, key, op sequence number)``), so the
same requests replayed through a fresh engine produce a bit-identical
writeback trace — the property the on-disk suite in
:mod:`repro.workloads.suite` records and verifies.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from repro.memory.cache import MemoryHierarchy
from repro.fieldspec import FieldSpec
from repro.workloads.generator import WriteRecord
from repro.workloads.trace import Trace

__all__ = [
    "KV_PROFILES",
    "KV_PARAM_SPECS",
    "KvEngine",
    "KvProfile",
    "KvRequest",
    "KeyspaceLayout",
    "drive_requests",
    "generate_kv_trace",
    "request_stream",
]

#: Request operations, in on-disk op-code order (suite format).
KV_OPS = ("put", "get", "delete")

#: Fixed per-slot record header: 8-byte op sequence number, 4-byte value
#: length, 4-byte key id.  Every put/delete rewrites it — the small-field
#: update pattern DEUCE exploits.
HEADER_BYTES = 16

#: Default scaled-down hierarchy between the "CPU" and PCM (same 8-way
#: shape as Table 1, sizes shrunk so short request streams exercise
#: capacity evictions); the last level's size comes from the profile.
KV_LEVEL_SHAPE = ((4 * 1024, 8), (16 * 1024, 8))


@dataclass(frozen=True)
class KvRequest:
    """One KV operation.

    ``value_size`` is sampled at request-generation time and recorded, so
    a stored request stream replays without consulting any RNG.
    """

    op: str
    key: int
    value_size: int = 0


@dataclass(frozen=True)
class KvProfile:
    """A named KV traffic shape (sizes in bytes, weights relative).

    Attributes
    ----------
    name:
        Registry name (``kv-etc``, ``kv-udb``, ...).
    n_keys:
        Keyspace size.  The populate phase puts every key once; the slot
        region (``n_keys * slot_bytes``) should exceed the last cache
        level so steady-state evictions keep flowing.
    value_bytes:
        Median value size.
    value_sigma:
        Log-normal spread of value sizes (0 = every value exactly
        ``value_bytes``).
    zipf_alpha:
        Steady-state key-popularity skew (0 = uniform; production KV
        traces run ~0.9-1.2).
    get_weight / put_weight / delete_weight:
        Relative operation mix weights in the steady phase.
    cache_kb:
        Last-level cache capacity in KiB (the level whose dirty evictions
        are the PCM write stream).
    """

    name: str
    n_keys: int = 4096
    value_bytes: int = 128
    value_sigma: float = 0.3
    zipf_alpha: float = 0.9
    get_weight: float = 70.0
    put_weight: float = 30.0
    delete_weight: float = 0.0
    cache_kb: int = 64

    def summary(self) -> str:
        return (
            f"{self.n_keys} keys, ~{self.value_bytes}B values, "
            f"get/put/del {self.get_weight:g}/{self.put_weight:g}"
            f"/{self.delete_weight:g}, zipf {self.zipf_alpha:g}"
        )

    def generate_trace(
        self,
        n_writes: int,
        seed: int = 0,
        line_bytes: int = 64,
        abort: Callable[[], bool] | None = None,
        abort_every: int = 1024,
    ) -> Trace:
        """Profile-polymorphic hook used by
        :func:`repro.workloads.trace.generate_trace`."""
        return generate_kv_trace(
            self,
            n_writes,
            seed=seed,
            line_bytes=line_bytes,
            abort=abort,
            abort_every=abort_every,
        )


#: Parameter schema shared by every KV profile registration: the keys a
#: config's ``workload_params`` may override, with types/ranges enforced
#: by ``Registry.validate`` on every decode surface.
KV_PARAM_SPECS: tuple[FieldSpec, ...] = (
    FieldSpec(
        "n_keys", "int", default=4096, minimum=16, maximum=1 << 20,
        doc="keyspace size (populate phase puts each key once)",
    ),
    FieldSpec(
        "value_bytes", "int", default=128, minimum=1, maximum=4096,
        doc="median value size in bytes",
    ),
    FieldSpec(
        "value_sigma", "float", default=0.3, minimum=0.0, maximum=4.0,
        doc="log-normal value-size spread (0 = fixed size)",
    ),
    FieldSpec(
        "zipf_alpha", "float", default=0.9, minimum=0.0, maximum=4.0,
        doc="key-popularity skew (0 = uniform)",
    ),
    FieldSpec(
        "get_weight", "float", default=70.0, minimum=0.0, maximum=1000.0,
        doc="relative GET weight in the steady phase",
    ),
    FieldSpec(
        "put_weight", "float", default=30.0, minimum=0.0, maximum=1000.0,
        doc="relative PUT weight in the steady phase",
    ),
    FieldSpec(
        "delete_weight", "float", default=0.0, minimum=0.0, maximum=1000.0,
        doc="relative DELETE weight in the steady phase",
    ),
    FieldSpec(
        "cache_kb", "int", default=64, minimum=8, maximum=4096,
        doc="last-level cache capacity in KiB",
    ),
)

#: Canned profiles, value sizes and mixes in the style of the published
#: Meta/RocksDB workload characterizations the kv-emulator ships (ETC:
#: large values, read-dominated; UDB: MySQL-backed object store; ZippyDB:
#: small values with deletes; cache: skewed look-aside cache traffic).
KV_PROFILES: dict[str, KvProfile] = {
    profile.name: profile
    for profile in (
        KvProfile(
            "kv-etc",
            n_keys=512,
            value_bytes=358,
            value_sigma=0.5,
            zipf_alpha=1.1,
            get_weight=30.0,
            put_weight=1.0,
        ),
        KvProfile(
            "kv-udb",
            n_keys=1024,
            value_bytes=127,
            value_sigma=0.3,
            zipf_alpha=0.9,
            get_weight=69.0,
            put_weight=31.0,
        ),
        KvProfile(
            "kv-zippydb",
            n_keys=2048,
            value_bytes=43,
            value_sigma=0.2,
            zipf_alpha=0.8,
            get_weight=78.0,
            put_weight=13.0,
            delete_weight=9.0,
        ),
        KvProfile(
            "kv-cache",
            n_keys=768,
            value_bytes=188,
            value_sigma=0.6,
            zipf_alpha=1.2,
            get_weight=67.0,
            put_weight=33.0,
        ),
    )
}


def _align8(n: int) -> int:
    return (n + 7) & ~7


class KeyspaceLayout:
    """Key index -> byte-address mapping over a flat slot region.

    Every key owns a fixed slot of ``HEADER_BYTES + value capacity``
    (rounded to 8 bytes); slots are assigned in a seeded shuffle so
    adjacent key ids do not sit on adjacent lines — neighbouring-line
    traffic comes from the request mix, not from id locality.
    """

    def __init__(self, profile: KvProfile, seed: int) -> None:
        self.value_capacity = max(profile.value_bytes * 2, 8)
        self.slot_bytes = _align8(HEADER_BYTES + self.value_capacity)
        rng = random.Random(f"kv-layout:{profile.name}:{seed}")
        slots = list(range(profile.n_keys))
        rng.shuffle(slots)
        self._slot_of = slots

    def slot_address(self, key: int) -> int:
        """Byte address of the key's slot header."""
        return self._slot_of[key] * self.slot_bytes


def _zipf_cdf(n_keys: int, alpha: float) -> list[float]:
    """Cumulative rank weights for Zipf(alpha) over ``n_keys`` ranks."""
    total = 0.0
    cdf = []
    for rank in range(1, n_keys + 1):
        total += rank ** -alpha
        cdf.append(total)
    return cdf


def request_stream(
    profile: KvProfile, seed: int = 0
) -> Iterator[KvRequest]:
    """The seeded request generator (the pure *workload* half).

    Phase 1 (populate): every key is PUT once, in a shuffled order.
    Phase 2 (steady state, endless): operations drawn from the profile's
    mix weights, keys drawn Zipf(``zipf_alpha``) through a seeded
    rank -> key permutation.
    """
    rng = random.Random(f"kv:{profile.name}:{seed}")
    capacity = max(profile.value_bytes * 2, 8)

    def value_size() -> int:
        if profile.value_sigma <= 0:
            return min(profile.value_bytes, capacity)
        sampled = int(
            round(
                rng.lognormvariate(
                    math.log(profile.value_bytes), profile.value_sigma
                )
            )
        )
        return max(1, min(sampled, capacity))

    keys = list(range(profile.n_keys))
    rng.shuffle(keys)
    for key in keys:
        yield KvRequest("put", key, value_size())

    rank_to_key = list(range(profile.n_keys))
    rng.shuffle(rank_to_key)
    cdf = _zipf_cdf(profile.n_keys, profile.zipf_alpha)
    total = cdf[-1]
    weights = (
        profile.get_weight,
        profile.put_weight,
        profile.delete_weight,
    )
    if sum(weights) <= 0:
        raise ValueError(
            f"KV profile {profile.name!r} has no positive mix weight"
        )
    while True:
        op = rng.choices(("get", "put", "delete"), weights=weights)[0]
        key = rank_to_key[bisect_left(cdf, rng.random() * total)]
        if op == "put":
            yield KvRequest("put", key, value_size())
        elif op == "get":
            yield KvRequest("get", key)
        else:
            yield KvRequest("delete", key)


class KvEngine:
    """The request-application half (the *engine* of the split).

    Maps each request onto loads/stores against the keyspace layout,
    pushes them through a write-back :class:`MemoryHierarchy`, and
    collects the last level's dirty evictions — the organic PCM write
    stream.  All store contents are deterministic functions of
    ``(profile, seed, key, op sequence)``, so identical request sequences
    produce identical writebacks.
    """

    def __init__(
        self,
        profile: KvProfile,
        seed: int = 0,
        line_bytes: int = 64,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.line_bytes = line_bytes
        self.layout = KeyspaceLayout(profile, seed)
        self.records: list[WriteRecord] = []
        self.backing: dict[int, bytes] = {}
        levels = list(KV_LEVEL_SHAPE) + [(profile.cache_kb * 1024, 8)]
        self.hierarchy = MemoryHierarchy(
            levels,
            self.backing,
            writeback_sink=lambda addr, data: self.records.append(
                WriteRecord(addr, data)
            ),
            line_bytes=line_bytes,
        )
        self._value_seed = f"kv-value:{profile.name}:{seed}".encode()
        self._live: dict[int, int] = {}  # key -> stored value size
        self._op_seq = 0

    # -- deterministic store contents ---------------------------------------

    def _value_bytes(self, key: int, seq: int, size: int) -> bytes:
        """``size`` pseudo-random bytes determined by (profile, seed, key, seq)."""
        out = bytearray()
        counter = 0
        while len(out) < size:
            out += hashlib.blake2b(
                b"%d:%d:%d" % (key, seq, counter),
                key=self._value_seed[:64],
                digest_size=64,
            ).digest()
            counter += 1
        return bytes(out[:size])

    def _store_span(self, address: int, data: bytes) -> None:
        """Store ``data`` at byte ``address``, split at line boundaries."""
        offset = 0
        while offset < len(data):
            line_offset = (address + offset) % self.line_bytes
            take = min(self.line_bytes - line_offset, len(data) - offset)
            self.hierarchy.store(address + offset, data[offset:offset + take])
            offset += take

    def _load_span(self, address: int, length: int) -> None:
        """Touch every line covering ``[address, address + length)``."""
        first = address // self.line_bytes
        last = (address + max(length, 1) - 1) // self.line_bytes
        for line in range(first, last + 1):
            self.hierarchy.load(line * self.line_bytes)

    # -- request application -------------------------------------------------

    def apply(self, request: KvRequest) -> None:
        """Apply one request (put/get/delete) to the hierarchy."""
        seq = self._op_seq
        self._op_seq += 1
        base = self.layout.slot_address(request.key)
        if request.op == "put":
            size = min(request.value_size, self.layout.value_capacity)
            header = (
                seq.to_bytes(8, "little")
                + size.to_bytes(4, "little")
                + (request.key & 0xFFFFFFFF).to_bytes(4, "little")
            )
            self._store_span(base, header)
            self._store_span(
                base + HEADER_BYTES,
                self._value_bytes(request.key, seq, size),
            )
            self._live[request.key] = size
        elif request.op == "get":
            size = self._live.get(request.key, 0)
            self._load_span(base, HEADER_BYTES + size)
        elif request.op == "delete":
            tombstone = (
                seq.to_bytes(8, "little")
                + (0).to_bytes(4, "little")
                + (request.key & 0xFFFFFFFF).to_bytes(4, "little")
            )
            self._store_span(base, tombstone)
            self._live.pop(request.key, None)
        else:
            raise ValueError(f"unknown KV op {request.op!r}")

    def flush(self) -> int:
        """Flush every cache level outward (the power-down drain)."""
        return self.hierarchy.flush_all()

    def cache_stats(self):
        """Per-level :class:`~repro.memory.cache.CacheStats`, first level first."""
        return [level.stats for level in self.hierarchy.levels]


def drive_requests(
    profile: KvProfile,
    seed: int,
    line_bytes: int,
    requests: Iterable[KvRequest],
    n_writes: int,
    *,
    abort: Callable[[], bool] | None = None,
    abort_every: int = 1024,
    collect: list[KvRequest] | None = None,
) -> tuple[Trace, KvEngine]:
    """Apply requests through a fresh engine until ``n_writes`` writebacks.

    The shared core of live generation and suite replay: both paths apply
    the same request sequence to an identically-seeded engine, so both
    produce the same trace.  If the request iterator is exhausted before
    enough writebacks accumulated, the hierarchy is flushed (deterministic
    drain of the dirty lines); if the trace is *still* short the profile
    cannot sustain the requested length and a :class:`ValueError` explains
    which knob to turn.  ``collect`` receives every applied request (the
    suite recorder); ``abort`` is polled every ``abort_every`` requests.
    """
    engine = KvEngine(profile, seed, line_bytes)
    records = engine.records
    populate_end: int | None = None
    applied = 0
    for request in requests:
        if (
            abort is not None
            and applied % abort_every == 0
            and abort()
        ):
            from repro.obs.instruments import RunAborted

            raise RunAborted(
                f"KV trace generation aborted after {applied} requests "
                f"({len(records)}/{n_writes} writebacks)"
            )
        engine.apply(request)
        if collect is not None:
            collect.append(request)
        applied += 1
        if populate_end is None and applied == profile.n_keys:
            populate_end = min(len(records), n_writes)
        if len(records) >= n_writes:
            break
    else:
        engine.flush()
    if populate_end is None:
        populate_end = min(len(records), n_writes)
    if len(records) < n_writes:
        raise ValueError(
            f"KV profile {profile.name!r} produced only {len(records)} "
            f"writebacks for n_writes={n_writes}; raise n_keys/put_weight "
            "or lower cache_kb so more dirty lines evict"
        )
    del records[n_writes:]
    touched = set(engine.backing) | {r.address for r in records}
    zeros = bytes(line_bytes)
    trace = Trace(
        profile_name=profile.name,
        seed=seed,
        line_bytes=line_bytes,
        initial={addr: zeros for addr in sorted(touched)},
        records=records,
        phases=(("populate", 0), ("steady", populate_end)),
    )
    return trace, engine


def generate_kv_trace(
    profile: KvProfile,
    n_writes: int,
    seed: int = 0,
    line_bytes: int = 64,
    abort: Callable[[], bool] | None = None,
    abort_every: int = 1024,
    collect: list[KvRequest] | None = None,
) -> Trace:
    """Materialize ``n_writes`` organic writebacks for a KV profile.

    Generates the seeded request stream and drives it through the cache
    hierarchy.  The request budget is bounded (populate plus a generous
    steady-state allowance) so a pathological mix fails fast instead of
    spinning forever.
    """
    max_requests = profile.n_keys + 64 * n_writes + 1000
    stream = islice(request_stream(profile, seed), max_requests)
    trace, _engine = drive_requests(
        profile,
        seed,
        line_bytes,
        stream,
        n_writes,
        abort=abort,
        abort_every=abort_every,
        collect=collect,
    )
    return trace
