"""Simulation layer: configs, the runner, result containers, experiments."""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "DEFAULT_KEY",
    "DEFAULT_N_WRITES",
    "RunResult",
    "SimConfig",
    "build_scheme",
    "cached_trace",
    "run",
    "run_suite",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.sim.config": ("DEFAULT_KEY", "DEFAULT_N_WRITES", "SimConfig"),
        "repro.sim.results": ("RunResult",),
        "repro.sim.runner": (
            "build_scheme",
            "cached_trace",
            "run",
            "run_suite",
        ),
    },
)
