"""Shared helpers for the benchmark suite.

Every ``bench_*`` file reproduces one paper exhibit: it runs the experiment
function from :mod:`repro.sim.experiments`, prints the same rows the paper
reports (visible with ``pytest -s`` or in ``benchmarks/results/``), and
registers the wall time with pytest-benchmark.

Experiments are executed once per session (``pedantic`` with one round) —
these are deterministic simulations, not microbenchmarks, so re-running them
for statistics would only waste time.  Microbenchmarks of the hot kernels
live in ``bench_microbench.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Writebacks per (workload, scheme) cell in the figure benchmarks.  Large
#: enough for sub-percentage-point convergence of flip averages.
BENCH_WRITES = 3_000

RESULTS_DIR = Path(__file__).parent / "results"


def record(exp_id: str, rendered: str, data: dict | None = None) -> None:
    """Print a rendering and persist it under benchmarks/results/.

    When ``data`` is given it is additionally written as machine-readable
    JSON to ``benchmarks/results/BENCH_{exp_id}.json`` (for CI trend checks
    and speedup gates).  The committed perf history is
    ``benchmarks/layers/results/<rev>.json``, not these files.
    """
    print()
    print(rendered)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(rendered + "\n")
    if data is not None:
        blob = json.dumps(data, indent=2, sort_keys=True) + "\n"
        (RESULTS_DIR / f"BENCH_{exp_id}.json").write_text(blob)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
