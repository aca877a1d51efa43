"""``record``: print a bench's rendering and persist it for CI.

``bench_writepath.py`` and ``bench_tracepath.py`` write their tables and
JSON through it.  The paper's figures and tables are not benchmarks: their
targets are checked by ``tests/integration/test_paper_scorecard.py``, and
``deuce-sim experiment <id>`` renders them.
"""

from __future__ import annotations

import json
from pathlib import Path

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

