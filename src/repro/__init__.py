"""DEUCE: Write-Efficient Encryption for Non-Volatile Memories.

A full reproduction of Young, Nair & Qureshi (ASPLOS 2015): dual-counter
encryption (DEUCE) and every substrate the paper's evaluation relies on — a
from-scratch AES, counter-mode one-time pads, DCW/FNW/BLE baselines,
DynDEUCE and the combined schemes, a per-bit PCM wear model, Start-Gap and
Horizontal Wear Leveling, SPEC-like workload models, and bank-level
performance/energy models.

Quick start:

>>> from repro import SecureMemoryController
>>> mc = SecureMemoryController(scheme="deuce", key=b"0123456789abcdef")
>>> mc.write(0x40, b"hello world".ljust(64, b"\\0"))
>>> mc.read(0x40).startswith(b"hello world")
True

Paper figures::

    from repro.sim.experiments import EXPERIMENTS
    print(EXPERIMENTS["fig10"]().render())

Sessions (ledger-recording runs/sweeps/experiments; the stable facade
behind the CLI and the ``deuce-sim serve`` job service)::

    from repro import Session, SimConfig
    result = Session().run(SimConfig("mcf", "deuce", n_writes=10_000))
"""

from repro._lazy import lazy_exports as _lazy_exports

__version__ = "1.0.0"

__all__ = [
    "PROFILES",
    "SCHEME_NAMES",
    "WORKLOAD_NAMES",
    "ControllerStats",
    "RunResult",
    "SecureMemoryController",
    "Session",
    "SimConfig",
    "WriteOutcome",
    "WriteScheme",
    "__version__",
    "generate_trace",
    "make_scheme",
    "run",
]

# Names resolve on first use, so ``import repro`` (and every
# ``import repro.<module>``) loads no submodule it does not name.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.api": ("Session",),
        "repro.memory.controller": (
            "ControllerStats",
            "SecureMemoryController",
        ),
        "repro.schemes": (
            "SCHEME_NAMES",
            "WriteOutcome",
            "WriteScheme",
            "make_scheme",
        ),
        "repro.sim.config": ("SimConfig",),
        "repro.sim.results": ("RunResult",),
        "repro.sim.runner": ("run",),
        "repro.workloads.profiles": ("PROFILES", "WORKLOAD_NAMES"),
        "repro.workloads.trace": ("generate_trace",),
    },
)
