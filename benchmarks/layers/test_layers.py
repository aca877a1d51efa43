"""Self-test of the layer benchmark at smoke scale.

Run from the repository root: ``python -m pytest benchmarks/layers -q``.
Every workload runs once untraced and once traced through the real
command line, so the output contract, the span dump and the oracle are
all checked on real runs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.layers import compare, harness, hostspeed
from benchmarks.layers.workloads import ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.layers", "run", "--scale", "smoke",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("layers") / "results.json"
    results = {}
    for trace, seconds in (("0", "1"), ("1", "2")):
        code, lines = _run(
            "--seconds", seconds, "--trace", trace, "--out", str(out)
        )
        results[trace] = (code, json.loads(lines[-1]))
    records = json.loads(out.read_text())["runs"]
    return results, records


def test_runs_pass_the_oracle(runs):
    results, records = runs
    for code, line in results.values():
        assert code == 0
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
    assert [r["workload"] for r in records] == list(WORKLOADS) * 2


def test_every_benchmark_metric_is_emitted_with_its_unit(runs):
    results, records = runs
    for record in records:
        kind = "per_layer" if record["trace"] else "end_to_end"
        for metric in SPEC[kind]:
            emitted = record["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], metric["name"]
            assert isinstance(emitted["value"], float)
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        names = {
            f"{w}/{m['name']}" for w in WORKLOADS for m in SPEC[kind]
        }
        assert set(results[trace][1]["metrics"]) == names
    single = harness.summary_line(records[:1])
    assert set(single["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_end_to_end_metrics_are_never_zero(runs):
    _, records = runs
    for record in records:
        if not record["trace"]:
            for metric in SPEC["end_to_end"]:
                assert record["metrics"][metric["name"]]["value"] > 0


def test_names_are_well_formed(runs):
    _, records = runs
    for record in records:
        for name in record["metrics"]:
            assert NAME.fullmatch(name), name
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
    for workload in SPEC["workloads"]:
        assert NAME.fullmatch(workload["name"])


def test_spans_nest(runs):
    _, records = runs
    for record in records:
        if not record["trace"]:
            continue
        events = json.loads((ROOT / record["spans_file"]).read_text())
        spans = {e["args"]["id"]: e for e in events["traceEvents"]}
        assert spans, record["workload"]
        for span in spans.values():
            parent_id = span["args"]["parent"]
            if parent_id == -1:
                continue
            parent = spans[parent_id]
            assert parent["args"]["op"] == span["args"]["op"]
            assert parent["ts"] <= span["ts"]
            assert span["ts"] + span["dur"] <= parent["ts"] + parent["dur"]


def test_self_times_account_for_op_wall_time(runs):
    _, records = runs
    for record in records:
        if record["trace"]:
            metrics = record["metrics"]
            assert metrics["bench.min_op_self_share"]["value"] >= 0.95
            assert 0.95 <= metrics["bench.self_time_share"]["value"] <= 1.0


def test_fingerprint_mismatch_raises_error_rate():
    pins = {f"mcf/deuce/2000/s{seed}/none": "0" * 64 for seed in range(200)}
    record = harness.run_workload("cold-mcf", 0, 0.5, "smoke", False, pins)
    assert not record["correct"]
    assert record["failed"] == record["attempted"]
    assert record["metrics"]["error_rate"]["value"] == 1.0


def test_normalize_scales_cpu_seconds_and_keeps_waits():
    ref = hostspeed.REF_SLICE_S
    assert hostspeed.normalize(1.0, 1.0, ref, ref) == pytest.approx(1.0)
    # A host at half speed: CPU seconds halve, waiting stays.
    assert hostspeed.normalize(1.0, 1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert hostspeed.normalize(1.0, 0.6, ref, 3 * ref) == pytest.approx(0.7)
    # CPU time over the wall time (another process's clock) is capped.
    assert hostspeed.normalize(1.0, 1.5, ref, ref) == pytest.approx(1.0)


def test_tracer_restores_every_entry_point():
    from repro.crypto.pads import CachingPadSource
    from repro.sim import runner

    from benchmarks.layers.spans import LayerTracer

    before = (runner.run, runner.build_scheme, vars(CachingPadSource).copy())
    with LayerTracer():
        assert runner.run is not before[0]
    assert (runner.run, runner.build_scheme) == before[:2]
    assert vars(CachingPadSource) == before[2]


def _record(workload, values, failed=0, seconds=15.0):
    return [
        {
            "workload": workload,
            "seed": seed,
            "scale": "full",
            "seconds": seconds,
            "trace": 0,
            "label": "run",
            "attempted": 10,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": v, "unit": m["unit"]}
                for m in SPEC["end_to_end"]
            },
        }
        for seed, v in enumerate(values)
    ]


def test_compare_applies_the_pair_rule():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "gain"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "REGRESSION"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "no change"
    noisy = [1.0, 2.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent[:5], faster[:5], "lower", 0.1)[0].startswith(
        "too few"
    )
    _, bad = compare.compare(_record("w", parent), _record("w", parent, 1))
    assert bad
    _, bad = compare.compare(_record("w", parent), _record("w", parent))
    assert not bad


def test_compare_pairs_by_seed_and_refuses_unlike_runs():
    parent = _record("w", [1.0 + i / 100 for i in range(10)])
    change = _record("w", [0.9 + i / 100 for i in range(10)])
    pairs = compare.pair_runs(parent, change[::-1])
    assert [(p["seed"], c["seed"]) for p, c in pairs] == [(i, i) for i in range(10)]
    table, bad = compare.compare(parent, change[::-1])
    assert "10/10" in table and not bad
    with pytest.raises(compare.Mismatch, match="scale, seconds"):
        compare.compare(parent, _record("w", [1.0] * 10, seconds=5.0))
    with pytest.raises(compare.Mismatch, match="several runs of one seed"):
        compare.compare(parent, change + change)
    # A parent median of 0 must not divide by zero.
    table, _ = compare.compare(_record("w", [0.0] * 10), _record("w", [0.0] * 10))
    assert "n/a" in table
