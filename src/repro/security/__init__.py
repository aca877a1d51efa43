"""Attack models, integrity protection, and security auditing."""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "AddressTweakedMemory",
    "AttackReport",
    "BusSnooper",
    "CounterModeMemory",
    "CounterResetMemory",
    "GlobalKeyMemory",
    "IntegrityError",
    "MerkleTree",
    "PadReuse",
    "PadUsageAuditor",
    "StolenDimmView",
    "TamperedCounterStore",
    "ThrottlingGuard",
    "VerifiedRead",
    "WriteStreamDetector",
    "audit_deuce_write_path",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.security.attacks": (
            "AddressTweakedMemory",
            "BusSnooper",
            "CounterModeMemory",
            "CounterResetMemory",
            "GlobalKeyMemory",
            "StolenDimmView",
        ),
        "repro.security.endurance": (
            "AttackReport",
            "ThrottlingGuard",
            "WriteStreamDetector",
        ),
        "repro.security.invariants": (
            "PadReuse",
            "PadUsageAuditor",
            "audit_deuce_write_path",
        ),
        "repro.security.merkle": (
            "IntegrityError",
            "MerkleTree",
            "TamperedCounterStore",
            "VerifiedRead",
        ),
    },
)
