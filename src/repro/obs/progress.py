"""Live progress for parallel sweeps: events, state, and a line renderer.

``run_suite_parallel`` workers stream :class:`ProgressEvent` records over a
``multiprocessing`` queue — one ``start`` and one ``done`` per cell, plus
periodic ``heartbeat`` events carrying the cell's write count — and the main
process forwards them to any callable.  :class:`ProgressRenderer` is the CLI
consumer: it keeps a tally and redraws a single status line::

    [fig10  7/30 done, 4 in-flight, 41% | ETA 12s]

Events are plain frozen dataclasses so they pickle across process
boundaries; the renderer timestamps arrival with its own clock, so events
need no wall time of their own.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from dataclasses import dataclass, field

#: Event kinds, in lifecycle order.
START = "start"
HEARTBEAT = "heartbeat"
DONE = "done"


@dataclass(frozen=True)
class ProgressEvent:
    """One worker-side observation about one sweep cell.

    Attributes
    ----------
    kind:
        ``"start"`` | ``"heartbeat"`` | ``"done"``.
    cell:
        Cell index within the sweep (submission order).
    n_cells:
        Total cells in the sweep (constant across the sweep's events).
    writes_done / n_writes:
        The cell's progress through its trace; heartbeats update
        ``writes_done``, ``done`` events carry ``writes_done == n_writes``.
    workload / scheme:
        The cell's identity, for labelling.
    """

    kind: str
    cell: int
    n_cells: int
    writes_done: int = 0
    n_writes: int = 0
    workload: str = ""
    scheme: str = ""

    @classmethod
    def for_cell(
        cls,
        kind: str,
        config,
        cell: int = 0,
        n_cells: int = 1,
        writes_done: int = 0,
    ) -> "ProgressEvent":
        """The event for cell ``cell`` running ``config`` (a ``SimConfig``).

        A ``done`` event always carries ``writes_done == n_writes``.
        """
        return ProgressEvent(
            kind=kind,
            cell=cell,
            n_cells=n_cells,
            writes_done=config.n_writes if kind == DONE else writes_done,
            n_writes=config.n_writes,
            workload=config.workload,
            scheme=config.scheme,
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-safe form (the service streams these as JSONL)."""
        return dataclasses.asdict(self)


@dataclass
class ProgressState:
    """Tally of a sweep in flight, updated by :meth:`apply`."""

    n_cells: int = 0
    done: int = 0
    in_flight: dict[int, tuple[int, int]] = field(default_factory=dict)

    def apply(self, event: ProgressEvent) -> None:
        if event.n_cells:
            self.n_cells = event.n_cells
        if event.kind == START:
            self.in_flight[event.cell] = (0, event.n_writes)
        elif event.kind == HEARTBEAT:
            self.in_flight[event.cell] = (event.writes_done, event.n_writes)
        elif event.kind == DONE:
            self.in_flight.pop(event.cell, None)
            self.done += 1

    @property
    def completed_cells(self) -> float:
        """Done cells plus fractional credit for cells mid-trace."""
        partial = sum(
            done / total for done, total in self.in_flight.values() if total
        )
        return self.done + partial

    def eta_seconds(self, elapsed: float) -> float | None:
        """Projected seconds remaining, or ``None`` before any signal."""
        completed = self.completed_cells
        if completed <= 0 or not self.n_cells:
            return None
        remaining = self.n_cells - completed
        return max(0.0, elapsed * remaining / completed)


#: ETAs beyond this are projection noise, not information (99 hours).
MAX_ETA_S = 99 * 3600.0

#: What an unknown/absurd ETA renders as (never crashes, never garbage).
UNKNOWN_ETA = "ETA --:--"


def format_eta(seconds: float | None) -> str:
    """Human ETA; ``--:--`` when unknown, non-finite, or beyond 99 hours.

    Early in a sweep the linear projection can be ``None`` (no signal yet)
    or wildly large (one heartbeat from one slow cell); both degrade to the
    same placeholder instead of printing multi-day ETAs or raising on
    ``inf``/``nan``.
    """
    if seconds is None or not math.isfinite(seconds):
        return UNKNOWN_ETA
    if seconds < 0 or seconds > MAX_ETA_S:
        return UNKNOWN_ETA
    if seconds >= 5400:
        return f"ETA {seconds / 3600.0:.1f}h"
    if seconds >= 90:
        return f"ETA {seconds / 60.0:.1f}m"
    return f"ETA {int(round(seconds))}s"


def format_progress(
    state: ProgressState, elapsed: float, label: str = ""
) -> str:
    """Render one status line from a tally (pure; unit-testable)."""
    pct = (
        100.0 * state.completed_cells / state.n_cells if state.n_cells else 0.0
    )
    prefix = f"{label}  " if label else ""
    return (
        f"[{prefix}{state.done}/{state.n_cells} done, "
        f"{len(state.in_flight)} in-flight, {pct:.0f}% | "
        f"{format_eta(state.eta_seconds(elapsed))}]"
    )


#: Heartbeat redraw floor when the stream is not a terminal (seconds).
#: Line-per-event output in CI logs should tick, not scroll.
NON_TTY_MIN_REDRAW_S = 1.0


class ProgressRenderer:
    """Callable progress consumer that redraws one status line in place.

    Pass an instance as ``progress=`` to
    :func:`repro.sim.parallel.run_suite_parallel` (or to an experiment
    function, which forwards it).  Call :meth:`close` when the sweep ends to
    terminate the line.

    When the stream is **not a terminal** (CI logs, redirected stderr), the
    renderer degrades to line-per-event output: every drawn update is its
    own newline-terminated line, carriage returns are never emitted, and
    heartbeat redraws are floored at :data:`NON_TTY_MIN_REDRAW_S` so logs
    tick instead of scroll.

    Parameters
    ----------
    label:
        Optional sweep name shown in the line (e.g. the experiment id).
    stream:
        Output stream; defaults to ``sys.stderr`` so progress never
        corrupts piped stdout results.
    clock:
        Monotonic time source (injectable for tests).
    min_redraw_s:
        Floor between redraws; heartbeats arriving faster are tallied but
        not drawn.
    interactive:
        Force in-place (``True``) or line-per-event (``False``) rendering;
        ``None`` auto-detects via ``stream.isatty()``.
    """

    def __init__(
        self,
        label: str = "",
        stream=None,
        clock=time.monotonic,
        min_redraw_s: float = 0.1,
        interactive: bool | None = None,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        if interactive is None:
            isatty = getattr(self.stream, "isatty", None)
            try:
                interactive = bool(isatty()) if callable(isatty) else False
            except (OSError, ValueError):
                interactive = False
        self.interactive = interactive
        if not interactive:
            min_redraw_s = max(min_redraw_s, NON_TTY_MIN_REDRAW_S)
        self.min_redraw_s = min_redraw_s
        self.state = ProgressState()
        self._t0: float | None = None
        self._last_draw = -1.0
        self._drew = False

    def __call__(self, event: ProgressEvent) -> None:
        if self._t0 is None:
            self._t0 = self.clock()
        self.state.apply(event)
        now = self.clock()
        # Always draw terminal transitions; throttle heartbeats.
        if event.kind == HEARTBEAT and (
            now - self._last_draw < self.min_redraw_s
        ):
            return
        self._last_draw = now
        line = format_progress(self.state, now - self._t0, self.label)
        if self.interactive:
            self.stream.write("\r" + line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self._drew = True

    def close(self) -> None:
        """End the in-place line (newline) if anything was drawn.

        Line-per-event output is already newline-terminated, so closing a
        non-interactive renderer writes nothing.
        """
        if self._drew and self.interactive:
            self.stream.write("\n")
            self.stream.flush()
        self._drew = False
