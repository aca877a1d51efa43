"""``repro.service`` — the async simulation job service behind ``deuce-sim serve``.

A zero-dependency HTTP JSON API (:mod:`repro.service.server`) over a
bounded job queue with a worker pool (:mod:`repro.service.jobs`); every
job executes through the shared :class:`repro.api.Session`, so results
and ledger manifests are bit-identical to direct library/CLI use.
:mod:`repro.service.telemetry` instruments both layers (scraped at
``GET /v1/metrics``) and :mod:`repro.service.loadtest` soaks the whole
stack with concurrent clients (``deuce-sim loadtest``).
"""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_KINDS",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "Job",
    "JobError",
    "JobManager",
    "JobSpec",
    "QueueFullError",
    "ServiceDraining",
    "UnknownJobError",
    "SimulationServer",
    "serve",
    "ServiceTelemetry",
    "DEFAULT_MIX",
    "LoadTestOptions",
    "parse_mix",
    "run_loadtest",
    "spawned_service",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.service.jobs": (
            "CANCELLED",
            "DONE",
            "FAILED",
            "JOB_KINDS",
            "QUEUED",
            "RUNNING",
            "TERMINAL_STATES",
            "Job",
            "JobError",
            "JobManager",
            "JobSpec",
            "QueueFullError",
            "ServiceDraining",
            "UnknownJobError",
        ),
        "repro.service.loadtest": (
            "DEFAULT_MIX",
            "LoadTestOptions",
            "parse_mix",
            "run_loadtest",
            "spawned_service",
        ),
        "repro.service.server": ("SimulationServer", "serve"),
        "repro.service.telemetry": ("ServiceTelemetry",),
    },
)
