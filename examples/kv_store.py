#!/usr/bin/env python3
"""A key-value store backed by secure PCM — downstream-usage example.

Shows how an application layer sits on top of :class:`SecureMemoryController`:
a toy persistent KV store serializes fixed-size records into 64-byte lines,
every ``put`` becomes a line writeback through DEUCE, and the store's access
pattern (update a value field, bump a version counter) is exactly the
sparse-write behaviour DEUCE thrives on.

Also demonstrates the production-hardening knobs: Merkle integrity (a
tampered counter is caught on read) and the endurance-attack detector (a
hot-key hammering loop gets flagged).

Run:  python examples/kv_store.py
"""

from __future__ import annotations

import random
import struct

from repro import SecureMemoryController
from repro.security.merkle import IntegrityError

LINE = 64
KEY_BYTES = 16
VALUE_BYTES = 36
RECORD = struct.Struct(f"<{KEY_BYTES}s{VALUE_BYTES}sIQ")  # key, value, version, pad
assert RECORD.size <= LINE


class SecureKVStore:
    """Fixed-slot KV store over an encrypted PCM controller.

    Keys hash to line slots (open addressing, linear probing); each record
    carries a version counter so updates modify only the value field and
    the version — a classic sparse-writeback pattern.
    """

    def __init__(self, capacity: int = 256, **controller_kwargs) -> None:
        self.capacity = capacity
        self.memory = SecureMemoryController(**controller_kwargs)
        self._keys: dict[bytes, int] = {}  # key -> slot (the "index")

    def _slot_address(self, slot: int) -> int:
        return slot * LINE

    def _encode(self, key: bytes, value: bytes, version: int) -> bytes:
        record = RECORD.pack(
            key.ljust(KEY_BYTES, b"\0"), value.ljust(VALUE_BYTES, b"\0"),
            version, 0,
        )
        return record.ljust(LINE, b"\0")

    def put(self, key: bytes, value: bytes) -> None:
        if len(key) > KEY_BYTES or len(value) > VALUE_BYTES:
            raise ValueError("key/value too large for the record format")
        slot = self._keys.get(key)
        if slot is None:
            if len(self._keys) >= self.capacity:
                raise RuntimeError("store full")
            slot = len(self._keys)
            self._keys[key] = slot
            version = 0
        else:
            _, _, version = self.get_with_version(key)
            version += 1
        self.memory.write(
            self._slot_address(slot), self._encode(key, value, version)
        )

    def get_with_version(self, key: bytes) -> tuple[bytes, bytes, int]:
        slot = self._keys[key]
        line = self.memory.read(self._slot_address(slot))
        raw_key, raw_value, version, _ = RECORD.unpack(line[: RECORD.size])
        return raw_key.rstrip(b"\0"), raw_value.rstrip(b"\0"), version

    def get(self, key: bytes) -> bytes:
        return self.get_with_version(key)[1]


def main() -> None:
    print("== Secure KV store on DEUCE-encrypted PCM ==\n")
    store = SecureKVStore(
        capacity=256,
        scheme="deuce",
        key=b"kv-store-secret-key-not-for-prod",
        wear_leveling="hwl",
        integrity=True,
        attack_detection=True,
        region_lines=512,
    )

    # Normal operation: a working set of users whose balances churn.
    rng = random.Random(7)
    users = [f"user:{i:04d}".encode() for i in range(100)]
    for user in users:
        store.put(user, b"balance=0")
    for _ in range(3000):
        user = rng.choice(users)
        store.put(user, f"balance={rng.randrange(10_000)}".encode())

    sample = users[3]
    value, version = store.get(sample), store.get_with_version(sample)[2]
    print(f"{sample.decode()}: {value.decode()} (version {version})")
    stats = store.memory.stats
    flips_pct = 100 * stats.avg_flips_per_write / (8 * LINE)
    print(
        f"{stats.writes} writebacks, {flips_pct:.1f}% of line bits flipped "
        "per write (counter-mode alone would flip 50%)"
    )

    # Integrity: a repairman resets a counter in the stolen DIMM.
    addr = store._slot_address(store._keys[sample])
    table = store.memory.scheme.table
    table.counters[table.row(addr)] = 0
    try:
        store.get(sample)
    except IntegrityError as exc:
        print(f"\ntamper attempt caught by the Merkle tree:\n  {exc}")
    # Repair the demo state (put() reads before writing).
    table.counters[table.row(addr)] = (
        store.memory._merkle.read_or_raise(store.memory._leaf_for(addr))
    )

    # Endurance attack: a hostile client hammers one key.
    for _ in range(5000):
        store.put(b"user:0000", b"balance=9999")
    print(
        f"\nhot-key hammering flagged: under_attack={store.memory.under_attack}, "
        f"{store.memory.stats.throttle_slots} throttle slots imposed"
    )


if __name__ == "__main__":
    main()
