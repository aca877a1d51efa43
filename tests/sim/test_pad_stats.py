"""``RunResult.pad_hits`` and ``pad_misses`` pinned for every scheme.

The pad cache only produces statistics, so its hit and miss counts are the
whole of its observable behaviour in a run.  These values were taken from
the ``OrderedDict`` cache that the counting LRU replaced; a change to the
cache, to a scheme's pad-request stream or to the write loop's chunking
that moves them shows here.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.sim.config import SimConfig
from repro.sim.runner import run

#: (workload, pad_cache_lines) -> scheme -> (pad_hits, pad_misses), at
#: 2,000 writes, seed 0.
PINNED = {
    ("Gems", 1024): {
        "noencr-dcw": (0, 0),
        "noencr-fnw": (0, 0),
        "encr-dcw": (0, 4048),
        "encr-fnw": (0, 4048),
        "deuce": (0, 4048),
        "dyndeuce": (2966, 5230),
        "deuce+fnw": (3413, 5559),
        "ble": (1212, 22980),
        "ble+deuce": (10032, 25856),
        "invmm": (0, 2459),
    },
    ("Gems", 16): {
        "noencr-dcw": (0, 0),
        "noencr-fnw": (0, 0),
        "encr-dcw": (0, 4048),
        "encr-fnw": (0, 4048),
        "deuce": (0, 4048),
        "dyndeuce": (2173, 6023),
        "deuce+fnw": (2042, 6930),
        "ble": (28, 24164),
        "ble+deuce": (8040, 27848),
        "invmm": (0, 2459),
    },
    ("kv-udb", 1024): {
        "noencr-dcw": (0, 0),
        "noencr-fnw": (0, 0),
        "encr-dcw": (0, 5014),
        "encr-fnw": (0, 5014),
        "deuce": (0, 5014),
        "dyndeuce": (4104, 6911),
        "deuce+fnw": (2104, 6911),
        "ble": (16, 26160),
        "ble+deuce": (6136, 26161),
        "invmm": (0, 3525),
    },
    ("kv-udb", 16): {
        "noencr-dcw": (0, 0),
        "noencr-fnw": (0, 0),
        "encr-dcw": (0, 5014),
        "encr-fnw": (0, 5014),
        "deuce": (0, 5014),
        "dyndeuce": (4000, 7015),
        "deuce+fnw": (2000, 7015),
        "ble": (0, 26176),
        "ble+deuce": (6120, 26177),
        "invmm": (0, 3525),
    },
}


@pytest.mark.parametrize("workload, capacity", sorted(PINNED))
def test_pad_stats_pinned(workload, capacity):
    want = PINNED[(workload, capacity)]
    assert sorted(want) == sorted(registry.SCHEMES.names)
    got = {}
    for scheme in want:
        result = run(
            SimConfig(
                workload, scheme, n_writes=2_000, seed=0,
                pad_cache_lines=capacity,
            )
        )
        got[scheme] = (result.pad_hits, result.pad_misses)
    assert got == want
