"""The run's one clock per phase.

:func:`repro.sim.runner.run` builds one :class:`PhaseProfile` per run
whenever metrics are live, and every phase is stamped into it exactly
once: ``trace.gen``, ``install`` (or ``resume.load``), the write loop's
``scheme.write`` / ``wear.rotation`` / ``pcm.apply`` / ``accumulate`` /
``checkpoint``, and the pad wrapper's ``pad.fetch``.  Everything else
reads those stamps: the metrics timers, ``RunResult.profile`` (the
ledger's ``profile.json``), the manifest's ``phases`` and, with a trace
file, the spans.  The write loop reuses the ``perf_counter`` reads that
bound each kernel, so attribution costs a few dict operations per chunk
and never touches simulation state.

Some phases run inside another one (:data:`NESTED_PHASES`); their seconds
are already part of the parent's, so :attr:`PhaseProfile.total_s` and the
shares leave them out.
"""

from __future__ import annotations

from typing import Any, Iterable

#: Phases timed inside another phase: child -> parent.  Pad fetches happen
#: inside the scheme's kernels (``scheme.write``; at install, ``install``).
NESTED_PHASES = {"pad.fetch": "scheme.write"}


class PhaseProfile:
    """Accumulates ``(seconds, count)`` per named phase."""

    __slots__ = ("phases",)

    def __init__(self) -> None:
        # name -> [total_seconds, count]
        self.phases: dict[str, list[float]] = {}

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        slot = self.phases.get(name)
        if slot is None:
            self.phases[name] = [seconds, float(count)]
        else:
            slot[0] += seconds
            slot[1] += count

    @property
    def total_s(self) -> float:
        """Seconds attributed to top-level phases (nested ones excluded)."""
        return sum(
            slot[0]
            for name, slot in self.phases.items()
            if name not in NESTED_PHASES
        )

    def items(self) -> Iterable[tuple[str, float, int]]:
        for name, (secs, count) in sorted(
            self.phases.items(), key=lambda kv: -kv[1][0]
        ):
            yield name, secs, int(count)

    def to_dict(self) -> dict[str, Any]:
        """Stable, JSON-friendly summary: name -> {seconds, count, share}.

        ``share`` is the fraction of :attr:`total_s`, so the top-level
        shares sum to 1; a nested phase also names its parent
        (``"within": "scheme.write"``).
        """
        total = self.total_s
        out: dict[str, Any] = {}
        for name, secs, count in self.items():
            out[name] = {
                "seconds": round(secs, 6),
                "count": count,
                "share": round(secs / total, 4) if total > 0 else 0.0,
            }
            if name in NESTED_PHASES:
                out[name]["within"] = NESTED_PHASES[name]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{n}={s:.3f}s/{c}" for n, s, c in self.items())
        return f"PhaseProfile({parts})"
