"""Key versioning: what happens when a line counter overflows.

The paper provisions 28-bit per-line counters (section 3.1).  A counter
must never wrap — counter mode's security is exactly the no-pad-reuse
invariant — so a real controller re-keys a line whose counter approaches
saturation: re-encrypt under a fresh key version and reset the counter.

:class:`VersionedPadSource` provides the mechanism: each line has a key
*version*; the effective key is derived from the master key and the
version, so bumping a line's version moves it into a fresh pad space where
old (address, counter) pairs are safe to use again.
:class:`SecureMemoryController` uses it when ``counter_bits`` is set.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.crypto.pads import PadSource, _PadSourceBase, make_pad_source


class VersionedPadSource(_PadSourceBase):
    """Pad source with a per-line key version.

    Parameters
    ----------
    master_key:
        The on-chip secret all versioned keys derive from.
    kind:
        Underlying pad source kind (``"blake2"`` or ``"aes"``).

    Derived keys are ``BLAKE2(version, key=master_key)``; version 0 is the
    initial state for every line.  The batch, peek and count calls are the
    base class's loops over :meth:`line_pad_array` and :meth:`pad_block`,
    so every row is made under its own line's key version.
    """

    def __init__(self, master_key: bytes, kind: str = "blake2") -> None:
        if not master_key:
            raise ValueError("master_key must be non-empty")
        self.master_key = bytes(master_key)
        self.kind = kind
        self._versions: dict[int, int] = {}
        self._sources: dict[int, PadSource] = {}

    def _source_for_version(self, version: int) -> PadSource:
        source = self._sources.get(version)
        if source is None:
            derived = hashlib.blake2b(
                version.to_bytes(8, "little"),
                key=self.master_key,
                digest_size=16,
            ).digest()
            source = make_pad_source(self.kind, derived)
            self._sources[version] = source
        return source

    def version_of(self, address: int) -> int:
        return self._versions.get(address, 0)

    def bump_version(self, address: int) -> int:
        """Move a line to the next key version; returns the new version.

        The caller must re-encrypt the line's current contents under the
        new version (and may then reset its counter to zero).
        """
        version = self.version_of(address) + 1
        self._versions[address] = version
        return version

    # -- PadSource interface ----------------------------------------------------

    def pad_block(self, address: int, counter: int, block_index: int) -> bytes:
        return self._source_for_version(self.version_of(address)).pad_block(
            address, counter, block_index
        )

    def line_pad(self, address: int, counter: int, n_bytes: int) -> bytes:
        return self._source_for_version(self.version_of(address)).line_pad(
            address, counter, n_bytes
        )

    def line_pad_array(
        self, address: int, counter: int, n_bytes: int
    ) -> np.ndarray:
        return self._source_for_version(
            self.version_of(address)
        ).line_pad_array(address, counter, n_bytes)
