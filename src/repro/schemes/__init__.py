"""Write schemes: baselines, DEUCE, and its combinations.

Every class here implements :class:`repro.schemes.base.WriteScheme`;
:data:`SCHEME_REGISTRY` seeds :data:`repro.registry.SCHEMES`, which resolves
every name, and every instantiation — ``build_scheme(config)``,
:func:`make_scheme`, service payloads — funnels through ``from_config``.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.crypto.pads import PadSource
from repro.schemes.base import WriteOutcome, WriteScheme
from repro.schemes.ble import BlockLevelEncryption
from repro.schemes.ble_deuce import BleDeuce
from repro.schemes.counter_mode import EncryptedDCW
from repro.schemes.dcw import PlainDCW
from repro.schemes.deuce import Deuce
from repro.schemes.deuce_fnw import DeuceFnw
from repro.schemes.dyndeuce import DynDeuce
from repro.schemes.fnw import EncryptedFNW, FnwCodec, PlainFNW
from repro.schemes.invmm import INvmm

#: Name -> class table of the built-in schemes, in presentation order;
#: :data:`repro.registry.SCHEMES` registers each of them.
SCHEME_REGISTRY: dict[str, type[WriteScheme]] = {
    cls.name: cls
    for cls in (
        PlainDCW,
        PlainFNW,
        EncryptedDCW,
        EncryptedFNW,
        Deuce,
        DynDeuce,
        DeuceFnw,
        BlockLevelEncryption,
        BleDeuce,
        INvmm,
    )
}

#: Scheme names accepted by :func:`make_scheme`, in presentation order.
SCHEME_NAMES = tuple(SCHEME_REGISTRY)

def make_scheme(
    name: str,
    pads: PadSource | None = None,
    line_bytes: int = 64,
    word_bytes: int = 2,
    epoch_interval: int = 32,
    fnw_group_bits: int = 16,
) -> WriteScheme:
    """Instantiate a write scheme by its table name.

    Parameters mirror the paper's defaults: 64-byte lines, 2-byte DEUCE
    words, epoch interval 32, 16-bit FNW groups.  Thin front end over
    :data:`repro.registry.SCHEMES` (plugins resolve; typos get a
    did-you-mean): the keywords are packed into an ad-hoc config and
    handed to the class's ``from_config``, so name-based and
    config-driven construction share one code path.
    """
    # The registry imports this package to populate itself.
    from repro import registry

    cls = registry.SCHEMES.get(name).factory
    params = SimpleNamespace(
        line_bytes=line_bytes,
        word_bytes=word_bytes,
        epoch_interval=epoch_interval,
        fnw_group_bits=fnw_group_bits,
    )
    return cls.from_config(params, pads=pads)


__all__ = [
    "SCHEME_NAMES",
    "SCHEME_REGISTRY",
    "BleDeuce",
    "BlockLevelEncryption",
    "Deuce",
    "DeuceFnw",
    "DynDeuce",
    "EncryptedDCW",
    "EncryptedFNW",
    "FnwCodec",
    "INvmm",
    "PlainDCW",
    "PlainFNW",
    "WriteOutcome",
    "WriteScheme",
    "make_scheme",
]
