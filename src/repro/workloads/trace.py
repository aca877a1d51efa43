"""Trace containers and file I/O.

A :class:`Trace` is a materialized writeback stream: the initial contents of
every working-set line plus an ordered list of :class:`WriteRecord`.  Traces
can be saved to a compact binary format so expensive sweeps reuse identical
inputs across schemes and runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.workloads.generator import TraceGenerator, WriteRecord
from repro.workloads.profiles import WorkloadProfile, get_profile


class _LazyRecords(Sequence):
    """Record list backed by (addresses, data) arrays, built on demand.

    Generated and shared-memory traces hold their writes as arrays;
    materializing ``n_writes`` :class:`WriteRecord` objects up front would
    copy everything the arrays exist to avoid.  Indexing one record builds
    just that record.  Iterating or slicing builds the whole list once and
    keeps it, so a trace replayed by many per-write runs pays for it once;
    the chunked loop reads the arrays directly and never touches it.
    Compares equal to a record list holding the same records.
    """

    def __init__(self, addresses: np.ndarray, data: np.ndarray) -> None:
        self._addresses = addresses
        self._data = data
        self._list: list[WriteRecord] | None = None

    def _records(self) -> list[WriteRecord]:
        if self._list is None:
            blob = self._data.tobytes()
            lb = self._data.shape[1]
            self._list = [
                WriteRecord(address, blob[i * lb: (i + 1) * lb])
                for i, address in enumerate(self._addresses.tolist())
            ]
        return self._list

    def __len__(self) -> int:
        return int(self._addresses.shape[0])

    def __getitem__(self, index):
        if self._list is not None or isinstance(index, slice):
            return self._records()[index]
        return WriteRecord(
            int(self._addresses[index]), self._data[index].tobytes()
        )

    def __iter__(self):
        return iter(self._records())

    def __eq__(self, other) -> bool:
        if isinstance(other, _LazyRecords):
            return np.array_equal(
                self._addresses, other._addresses
            ) and np.array_equal(self._data, other._data)
        if isinstance(other, list):
            return self._records() == other
        return NotImplemented


_MAGIC = b"DEUCETRC"
_VERSION = 1
#: Records per ``tobytes`` block when saving, bounding the staging copy.
_SAVE_BLOCK = 1 << 16


def _record_dtype(line_bytes: int) -> np.dtype:
    """One on-disk record: 8-byte little-endian address, then the line."""
    return np.dtype([("address", "<u8"), ("data", np.uint8, (line_bytes,))])


def _pack(addresses: np.ndarray, data: np.ndarray, line_bytes: int) -> bytes:
    block = np.empty(len(addresses), dtype=_record_dtype(line_bytes))
    block["address"] = addresses
    block["data"] = data
    return block.tobytes()


def _rows(blob: bytes, n: int, line_bytes: int) -> np.ndarray:
    """``n`` concatenated lines as a read-only ``(n, line_bytes)`` array."""
    if not n:
        return np.empty((0, line_bytes), dtype=np.uint8)
    return np.frombuffer(blob, dtype=np.uint8).reshape(n, line_bytes)


@dataclass
class Trace:
    """A reproducible writeback trace for one workload.

    Attributes
    ----------
    profile_name:
        Workload the trace was generated from.
    seed:
        Generator seed.
    line_bytes:
        Line size of every record.
    initial:
        address -> pristine line contents, used to install lines.
    records:
        Ordered writebacks.
    phases:
        ``(name, first write index)`` pairs in stream order, for traces
        with phase structure (KV populate -> steady state).  Empty for
        the statistical Table 2 traces; each phase runs until the next
        phase's start (the last until ``n_writes``).
    """

    profile_name: str
    seed: int
    line_bytes: int
    initial: dict[int, bytes]
    records: list[WriteRecord] | _LazyRecords = field(default_factory=list)
    phases: tuple[tuple[str, int], ...] = ()
    _arrays: tuple | None = field(
        default=None, repr=False, compare=False
    )
    _init_arrays: tuple | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_writes(self) -> int:
        return len(self.records)

    def addresses(self) -> list[int]:
        return sorted(self.initial)

    # -- array form ----------------------------------------------------------

    def write_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The writeback stream as ``(addresses, data)`` arrays, cached.

        ``addresses`` is ``(n,)`` int64 and ``data`` ``(n, line_bytes)``
        uint8, in trace order — the chunked write path slices these instead
        of iterating :class:`WriteRecord` objects.
        """
        if self._arrays is None:
            records = self.records
            n = len(records)
            addresses = np.fromiter(
                (rec.address for rec in records), dtype=np.int64, count=n
            )
            data = _rows(
                b"".join(rec.data for rec in records), n, self.line_bytes
            )
            self._arrays = (addresses, data)
        return self._arrays

    def initial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``initial`` as ``(addresses, data)`` arrays in address order.

        Cached; feeds the batched install path (one wide pad call for the
        whole working set) and the shared-memory trace publisher.
        """
        if self._init_arrays is None:
            addrs = sorted(self.initial)
            init_addresses = np.asarray(addrs, dtype=np.int64)
            init_data = _rows(
                b"".join(self.initial[a] for a in addrs),
                len(addrs),
                self.line_bytes,
            )
            self._init_arrays = (init_addresses, init_data)
        return self._init_arrays

    @classmethod
    def from_arrays(
        cls,
        profile_name: str,
        seed: int,
        line_bytes: int,
        init_addresses: np.ndarray,
        init_data: np.ndarray,
        addresses: np.ndarray,
        data: np.ndarray,
        phases: tuple[tuple[str, int], ...] = (),
    ) -> "Trace":
        """Build a trace view over preexisting arrays without copying.

        Used by the generator, trace files and the shared-memory sweep
        path: the arrays may live in a ``multiprocessing.shared_memory``
        buffer owned by another process.  ``records`` stays lazy, so
        nothing is materialized unless the serial loop iterates it.
        """
        blob = init_data.tobytes()
        initial = {
            address: blob[i * line_bytes: (i + 1) * line_bytes]
            for i, address in enumerate(init_addresses.tolist())
        }
        return cls(
            profile_name=profile_name,
            seed=seed,
            line_bytes=line_bytes,
            initial=initial,
            records=_LazyRecords(addresses, data),
            phases=tuple((str(n), int(s)) for n, s in phases),
            _arrays=(addresses, data),
            _init_arrays=(init_addresses, init_data),
        )

    # -- serialization -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace to a binary file.

        Format version 1: magic, a 4-byte header length, the JSON header,
        then one (8-byte little-endian address, line) record per initial
        line in address order, then one per writeback in trace order.
        """
        init_addresses, init_data = self.initial_arrays()
        addresses, data = self.write_arrays()
        meta: dict[str, object] = {
            "version": _VERSION,
            "profile": self.profile_name,
            "seed": self.seed,
            "line_bytes": self.line_bytes,
            "n_initial": len(init_addresses),
            "n_records": len(addresses),
        }
        if self.phases:
            # Optional key: files without it load with phases=() and old
            # readers ignore it, so the format version stays 1.
            meta["phases"] = [list(p) for p in self.phases]
        header = json.dumps(meta).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            fh.write(_pack(init_addresses, init_data, self.line_bytes))
            for start in range(0, len(addresses), _SAVE_BLOCK):
                end = start + _SAVE_BLOCK
                fh.write(
                    _pack(addresses[start:end], data[start:end], self.line_bytes)
                )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:8] != _MAGIC:
            raise ValueError(f"{path}: not a DEUCE trace file")
        header_len = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12: 12 + header_len])
        if header["version"] != _VERSION:
            raise ValueError(f"unsupported trace version {header['version']}")
        line_bytes = header["line_bytes"]
        dtype = _record_dtype(line_bytes)
        offset = 12 + header_len
        blocks = []
        for key in ("n_initial", "n_records"):
            count = header[key]
            if offset + count * dtype.itemsize > len(blob):
                raise ValueError(f"{path}: truncated trace file")
            block = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            offset += block.nbytes
            blocks.append(
                (
                    block["address"].astype(np.int64),
                    np.ascontiguousarray(block["data"]),
                )
            )
        (init_addresses, init_data), (addresses, data) = blocks
        return cls.from_arrays(
            header["profile"],
            header["seed"],
            line_bytes,
            init_addresses,
            init_data,
            addresses,
            data,
            phases=tuple(header.get("phases", ())),
        )


def generate_trace(
    profile: WorkloadProfile | str,
    n_writes: int,
    seed: int = 0,
    line_bytes: int = 64,
    abort=None,
    abort_every: int = 1024,
    params: dict | None = None,
) -> Trace:
    """Materialize a trace of ``n_writes`` writebacks for a workload.

    ``abort`` is an optional zero-argument callable polled every
    ``abort_every`` generated writes; when it returns True, generation
    stops and :class:`~repro.obs.instruments.RunAborted` is raised.  Large
    traces take long enough to synthesize that a job deadline or cancel
    must be able to interrupt this phase too, not just the write loop.

    ``params`` are workload parameters forwarded to the registry factory
    when ``profile`` is a name (a config's ``workload_params``).  Profiles
    that synthesize their own stream (KV request engines) are dispatched
    through their ``generate_trace`` method; everything else runs the
    statistical :class:`TraceGenerator`, whose arrays back the trace
    directly.
    """
    if isinstance(profile, str):
        profile = get_profile(profile, params)
    build = getattr(profile, "generate_trace", None)
    if build is not None:
        return build(
            n_writes,
            seed=seed,
            line_bytes=line_bytes,
            abort=abort,
            abort_every=abort_every,
        )
    gen = TraceGenerator(profile, seed=seed, line_bytes=line_bytes)
    addresses, data = gen.generate(
        n_writes, abort=abort, abort_every=abort_every
    )
    return Trace.from_arrays(
        profile.name,
        seed,
        line_bytes,
        *gen.initial_arrays(),
        addresses,
        data,
    )
