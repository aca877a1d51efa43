"""``compare``: a parent's run set against a change's, metric by metric.

The rule (choosing-metrics section 8): run at least ten alternating pairs
of parent and change with the same benchmark settings.  For each
(workload, end-to-end metric) report both sides' median and quartiles.
A gain counts only when the change wins at least 9/10 of the pairs (ties
count for neither) and the medians differ by more than the parent's
interquartile range.  A change whose median is worse than the parent's by
more than the metric's bound is a regression, unless the parent's own
spread is wider than the bound: then the row is unresolved.  Any rise in
the error rate is flagged.

A pair is the parent's and the change's run of one workload on one seed.
Both sides must hold at most one run per seed, and every run of a
workload must share its scale and measured seconds; otherwise the run
sets were not made alike and ``compare`` refuses them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from .harness import BENCHMARK_JSON

MIN_PAIRS = 10
WIN_SHARE = 0.9


class Mismatch(ValueError):
    """Parent and change run sets that cannot be paired."""


def load_runs(spec: str) -> list[dict]:
    """Untraced records of ``FILE`` or of one label in ``FILE#LABEL``."""
    path, _, label = spec.partition("#")
    runs = json.loads(Path(path).read_text())["runs"]
    return [
        r for r in runs
        if not r["trace"] and (not label or r["label"] == label)
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, int]:
    """``(verdict, change wins)`` for one (workload, metric) row."""
    pairs = list(zip(parent, change))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    spread = (p3 - p1) / p_med if p_med else 0.0
    if len(pairs) < MIN_PAIRS:
        return f"too few pairs (<{MIN_PAIRS})", wins
    if gain > 0 and wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        return "gain", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(p_med):
        return "REGRESSION", wins
    return "no change", wins


def error_rate(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def pair_runs(p_runs: list[dict], c_runs: list[dict]) -> list[tuple[dict, dict]]:
    """Parent and change runs of one workload, paired by seed.

    Raises :class:`Mismatch` when a side has two runs of one seed or the
    runs differ in scale or measured seconds.
    """
    workload = p_runs[0]["workload"]
    for side, runs in (("parent", p_runs), ("change", c_runs)):
        seeds = [r["seed"] for r in runs]
        if len(set(seeds)) != len(seeds):
            raise Mismatch(
                f"{workload}: the {side} holds several runs of one seed; "
                "select one run set with FILE#LABEL"
            )
    settings = sorted({(r["scale"], r["seconds"]) for r in p_runs + c_runs})
    if len(settings) > 1:
        raise Mismatch(
            f"{workload}: runs differ in (scale, seconds): {settings}"
        )
    by_seed = {r["seed"]: r for r in c_runs}
    return [(p, by_seed[p["seed"]]) for p in p_runs if p["seed"] in by_seed]


def compare(parent_runs: list[dict], change_runs: list[dict]) -> tuple[str, bool]:
    """The comparison table, and whether it shows a regression."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    metrics = spec["end_to_end"]
    rows = [
        f"{'workload':<12} {'metric':<17} {'parent med [q1, q3]':<34} "
        f"{'change med [q1, q3]':<34} {'delta':>8} {'wins':>6}  verdict"
    ]
    bad = False
    workloads = dict.fromkeys(r["workload"] for r in parent_runs)
    for workload in workloads:
        pairs = pair_runs(
            [r for r in parent_runs if r["workload"] == workload],
            [r for r in change_runs if r["workload"] == workload],
        )
        if not pairs:
            rows.append(f"{workload:<12} (no change runs on the parent's seeds)")
            bad = True
            continue
        p_runs = [p for p, _ in pairs]
        c_runs = [c for _, c in pairs]
        for metric in metrics:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in p_runs]
            change = [r["metrics"][name]["value"] for r in c_runs]
            result, wins = verdict(
                parent, change, metric["better"], metric["bound"]
            )
            bad |= result == "REGRESSION"
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            delta = f"{100 * (cm - pm) / pm:>+7.1f}%" if pm else "    n/a "
            rows.append(
                f"{workload:<12} {name:<17} "
                f"{pm:>10.5g} [{p1:.5g}, {p3:.5g}]".ljust(65)
                + f" {cm:>10.5g} [{c1:.5g}, {c3:.5g}]".ljust(35)
                + f" {delta} {wins:>2}/{len(pairs):<3}  {result}"
            )
        p_err, c_err = error_rate(p_runs), error_rate(c_runs)
        if c_err > p_err:
            bad = True
            rows.append(
                f"{workload:<12} error_rate        ERROR RATE UP: "
                f"{p_err:.4g} -> {c_err:.4g}"
            )
    return "\n".join(rows), bad


def main(parent: str, changes: list[str]) -> int:
    parent_runs = load_runs(parent)
    status = 0
    for change in changes:
        try:
            table, bad = compare(parent_runs, load_runs(change))
        except Mismatch as exc:
            print(f"error: {parent} vs {change}: {exc}", file=sys.stderr)
            return 2
        print(f"# {parent}  vs  {change}")
        print(table)
        status |= bad
    return int(status)
