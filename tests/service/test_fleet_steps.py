"""The fleet scheduler one :meth:`FleetRun.tick` at a time.

:class:`FakeWorker` clients answer from memory, their jobs running until
a test finishes them, and a fake clock stands in for
``time.monotonic``, so each test states exactly what happened by which
tick: no threads, no sockets, no sleeps.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.obs.progress import DONE
from repro.service.coordinator import EVENTS, FleetExecutor, FleetRun
from repro.sim.config import SimConfig
from repro.sim.parallel import (
    RetryBudget,
    SweepCancelled,
    SweepCellFailed,
    SweepRun,
)
from tests.service.conftest import FakeWorker

CONFIG = SimConfig("mcf", "deuce", n_writes=50, seed=0)


@pytest.fixture(scope="module")
def payload() -> dict:
    return {"results": [Session(ledger=False).run(CONFIG).to_dict()]}


class Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _fleet(payload, n_cells, *, retries=3, n_workers=2, **options):
    """A :class:`FleetRun` over fake workers ``a`` (and ``b``); the
    workers, the run and its clock."""
    workers = {
        url: FakeWorker(url, payload, delay_polls=None)
        for url in ("http://a", "http://b")[:n_workers]
    }
    options = {"window": 1, "probe_interval_s": 1.0, **options}
    executor = FleetExecutor(
        list(workers), client_factory=workers.__getitem__, **options
    )
    configs = [CONFIG] * n_cells
    results = [None] * n_cells
    sweep = SweepRun(
        configs=configs, results=results, todo=list(range(n_cells)),
        budget=RetryBudget(configs, results, retries, 0.0),
    )
    clock = Clock()
    done: list[int] = []

    def progress(event) -> None:
        if event.kind == DONE:
            done.append(event.cell)

    run = FleetRun(executor, sweep, progress, clock=clock)
    run.done_events = done
    return list(workers.values()), run, clock


def _in_flight(worker_state) -> list[int]:
    return sorted(d.index for d in worker_state.in_flight.values())


class TestTicks:
    def test_a_dead_workers_cells_requeue_onto_the_survivor(self, payload):
        (a, b), run, clock = _fleet(payload, 2)
        wa, wb = run.workers
        run.tick()
        assert (_in_flight(wa), _in_flight(wb)) == ([0], [1])

        a.down = True
        run.tick()  # first failed poll: one strike
        assert wa.healthy and wa.errors == 1
        run.tick()  # second strike: dead, cell 0 charged for a retry
        assert not wa.healthy and wa.in_flight == {}
        assert run.executor.requeues == 1
        assert run.sweep.budget.attempts == {0: 1}

        b.finish(1)
        run.tick()  # cell 1 completes, the requeued cell 0 waits for b
        assert run.remaining == {0}
        run.tick()
        assert _in_flight(wb) == [0]
        b.finish(0)
        run.tick()
        assert run.remaining == set()
        assert run.sweep.results[0] is not None
        assert sorted(run.done_events) == [0, 1]
        stats = {s["url"]: s for s in run.executor.fleet_stats()}
        assert stats["http://a"]["healthy"] is False
        assert stats["http://a"]["requeued"] == 1
        assert stats["http://b"]["completed"] == 2
        assert stats["http://b"]["dispatched"] == 2

    def test_a_404_after_a_restart_fails_only_that_dispatch(self, payload):
        (a,), run, clock = _fleet(payload, 2, n_workers=1, window=2)
        (wa,) = run.workers
        run.tick()
        assert _in_flight(wa) == [0, 1]

        forgotten = a.job_of(0)
        del a.jobs[forgotten]  # the restarted worker lost only this job
        run.tick()
        assert wa.healthy and wa.errors == 0
        assert _in_flight(wa) == [1]
        assert wa.counts["failed"] == 1
        assert run.sweep.budget.attempts == {0: 1}
        assert run.executor.requeues == 0

        run.tick()  # the charged cell goes back to the same worker
        assert _in_flight(wa) == [0, 1]
        a.finish(0)
        a.finish(1)
        run.tick()
        assert run.remaining == set()
        assert wa.counts["completed"] == 2

    def test_a_steal_race_loser_is_cancelled_and_one_duplicate(
        self, payload
    ):
        (a, b), run, clock = _fleet(
            payload, 2, window=2, straggler_min_s=10.0,
            straggler_factor=100.0,
        )
        wa, wb = run.workers
        run.tick()
        assert (_in_flight(wa), _in_flight(wb)) == ([0, 1], [])
        assert run.executor.steals == 0  # nothing is old enough yet

        clock.now += 11.0
        run.tick()  # b is idle and cell 0 is the oldest straggler
        assert run.executor.steals == 1
        assert wa.counts["stolen"] == 1
        assert _in_flight(wb) == [0]

        clock.now += 1.0
        b.finish(0)
        run.tick()  # b wins the race and cancels a's copy
        assert a.cancelled == [a.job_of(0)]
        assert run.remaining == {1}
        assert run.executor.duplicates == 0

        a.finish(0)  # the cancel was ignored: a's copy completes anyway
        run.tick()
        assert run.executor.duplicates == 1
        assert wa.counts["duplicates"] == 1
        assert _in_flight(wa) == [1]

        a.finish(1)
        run.tick()
        assert run.remaining == set()
        assert run.executor.duplicates == 1
        assert sorted(run.done_events) == [0, 1]
        assert run.executor.fleet_stats()[0]["completed"] == 1
        # /v1/metrics reads the very counts fleet_stats() reports.
        counters = {
            (m["name"], m["labels"]["worker"]): m["value"]
            for m in run.executor.telemetry.registry.snapshot()
            if m["type"] == "counter"
        }
        for stats in run.executor.fleet_stats():
            for event, name in EVENTS.items():
                assert counters.get((name, stats["name"]), 0) == stats[event]

    def test_fleet_down_timeout_raises_with_the_partial_results(
        self, payload
    ):
        (a, b), run, clock = _fleet(
            payload, 3, fleet_down_timeout_s=30.0, retries=5
        )
        run.tick()
        a.finish(0)
        run.tick()
        assert run.sweep.results[0] is not None
        assert run.remaining == {1, 2}

        a.down = b.down = True
        for _ in range(3):
            clock.now += 1.0
            run.tick()
        assert not any(w.healthy for w in run.workers)
        first_all_dead = run.all_dead_since
        assert first_all_dead is not None

        clock.now = first_all_dead + 30.0
        run.tick()  # exactly the timeout: still waiting
        clock.now += 1.0
        with pytest.raises(SweepCellFailed) as info:
            run.tick()
        assert "every fleet worker is unreachable" in str(info.value)
        assert info.value.results[0] is not None
        assert info.value.results[1:] == [None, None]
        assert info.value.index == 1

    def test_a_stop_during_an_outage_cancels_at_once(self, payload):
        (a,), run, clock = _fleet(
            payload, 2, n_workers=1, fleet_down_timeout_s=60.0
        )
        stop = []
        run.should_stop = lambda: bool(stop)
        run.tick()
        a.down = True
        for _ in range(2):  # two failed polls: the only worker is dead
            clock.now += 1.0
            run.tick()
        assert not run.workers[0].healthy
        assert run.all_dead_since is not None

        stop.append(True)
        clock.now += 1.0  # far inside fleet_down_timeout_s
        with pytest.raises(SweepCancelled) as info:
            run.tick()
        assert info.value.results == [None, None]
