"""Memory substrate: bit utilities, line images, the PCM array model."""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "READ_LATENCY_NS",
    "SLOT_BITS",
    "SLOT_FLIP_BUDGET",
    "SLOT_LATENCY_NS",
    "PcmArray",
    "StoredLine",
    "WearSummary",
    "make_meta",
    "meta_flips",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.memory.line": ("StoredLine", "make_meta", "meta_flips"),
        "repro.memory.pcm": (
            "READ_LATENCY_NS",
            "SLOT_BITS",
            "SLOT_FLIP_BUDGET",
            "SLOT_LATENCY_NS",
            "PcmArray",
            "WearSummary",
        ),
    },
)
