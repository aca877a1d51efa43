"""Performance substrate: bank timing, system model, energy model."""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "BankModel",
    "BankStats",
    "CoreConfig",
    "EnergyConfig",
    "EnergyReport",
    "ExecutionResult",
    "MemorySystem",
    "MemorySystemStats",
    "QueueingEstimate",
    "analytic_read_latency",
    "energy_report",
    "per_bank_rates",
    "simulate_execution",
    "write_service_moments",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.perf.energy": ("EnergyConfig", "EnergyReport", "energy_report"),
        "repro.perf.queueing": (
            "QueueingEstimate",
            "analytic_read_latency",
            "per_bank_rates",
            "write_service_moments",
        ),
        "repro.perf.system": (
            "CoreConfig",
            "ExecutionResult",
            "simulate_execution",
        ),
        "repro.perf.timing": (
            "BankModel",
            "BankStats",
            "MemorySystem",
            "MemorySystemStats",
        ),
    },
)
