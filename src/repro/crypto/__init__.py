"""Cryptographic substrate: AES, counter-mode pads, line encryption."""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "AES",
    "BLOCK_SIZE",
    "AesPadSource",
    "Blake2PadSource",
    "CachingPadSource",
    "CounterModeEngine",
    "PadSource",
    "VersionedPadSource",
    "make_pad_source",
    "mix_pads",
    "xor_bytes",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.crypto.aes": ("AES", "BLOCK_SIZE"),
        "repro.crypto.ctr": ("CounterModeEngine", "mix_pads", "xor_bytes"),
        "repro.crypto.pads": (
            "AesPadSource",
            "Blake2PadSource",
            "CachingPadSource",
            "PadSource",
            "make_pad_source",
        ),
        "repro.crypto.rekey": ("VersionedPadSource",),
    },
)
