"""Wear leveling and endurance: Start-Gap (VWL), HWL, lifetime model."""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "DEFAULT_CELL_ENDURANCE",
    "ENCRYPTED_FLIP_PROB",
    "HorizontalWearLeveler",
    "LifetimeReport",
    "NoWearLeveler",
    "SecurityRefresh",
    "SecurityRefreshHWL",
    "StartGap",
    "StartGapReference",
    "absolute_lifetime_years",
    "lifetime_report",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.wear.hwl": ("HorizontalWearLeveler", "NoWearLeveler"),
        "repro.wear.lifetime": (
            "DEFAULT_CELL_ENDURANCE",
            "ENCRYPTED_FLIP_PROB",
            "LifetimeReport",
            "absolute_lifetime_years",
            "lifetime_report",
        ),
        "repro.wear.security_refresh": (
            "SecurityRefresh",
            "SecurityRefreshHWL",
        ),
        "repro.wear.startgap": ("StartGap", "StartGapReference"),
    },
)
