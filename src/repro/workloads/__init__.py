"""Workload models: SPEC-like profiles, trace generation, trace I/O."""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "CANNED_SUITES",
    "KV_PROFILES",
    "KvEngine",
    "KvProfile",
    "KvRequest",
    "PAPER_TARGETS",
    "PROFILES",
    "RequestSuite",
    "Trace",
    "TraceGenerator",
    "TraceStats",
    "WORKLOAD_NAMES",
    "WorkloadProfile",
    "WriteRecord",
    "analyze_trace",
    "build_canned_suite",
    "generate_kv_trace",
    "generate_trace",
    "get_profile",
    "load_suite",
    "record_suite",
    "recommend_scheme",
    "replay_suite",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.workloads.generator": ("TraceGenerator", "WriteRecord"),
        "repro.workloads.kv": (
            "KV_PROFILES",
            "KvEngine",
            "KvProfile",
            "KvRequest",
            "generate_kv_trace",
            "request_stream",
        ),
        "repro.workloads.profiles": (
            "PAPER_TARGETS",
            "PROFILES",
            "WORKLOAD_NAMES",
            "WorkloadProfile",
            "get_profile",
        ),
        "repro.workloads.stats": (
            "TraceStats",
            "analyze_trace",
            "recommend_scheme",
        ),
        "repro.workloads.suite": (
            "CANNED_SUITES",
            "RequestSuite",
            "build_canned_suite",
            "load_suite",
            "record_suite",
            "replay_suite",
        ),
        "repro.workloads.trace": ("Trace", "generate_trace"),
    },
)
