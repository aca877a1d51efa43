"""Baseline regression gate: compare ledger runs against pinned baselines.

The paper's headline claim — DEUCE cuts the ~50% flip rate of full
counter-mode re-encryption to ~24% — must survive every refactor.  This
module turns that into an enforced check: ``baselines/`` pins the expected
flip rate per scheme for a small deterministic suite (plus a writes/sec perf
floor), and :func:`evaluate_gate` compares the newest matching ledger runs
against those pins with a tolerance band.  ``deuce-sim gate`` exits nonzero
on any regression, and CI runs it as a required job.

Baseline files
--------------
``baselines/flip_rates.json``::

    {
      "suite": {"workload": "mcf", "n_writes": 2000, "seed": 0},
      "schemes": {
        "deuce": {"flips_pct": 10.61, "tolerance_pct": 2.0,
                  "paper_suite_avg_pct": 23.9},
        ...
      }
    }

``flips_pct`` is the pinned measurement for the baseline suite config
(deterministic: same config, same trace, same flips); ``tolerance_pct`` is
the absolute band in percentage points; ``paper_suite_avg_pct`` records the
paper's full-suite headline for context (mcf alone is sparser than the
suite average).  ``baselines/perf.json`` pins ``min_writes_per_s``, a
deliberately loose floor that catches order-of-magnitude write-path
regressions without flaking on slow CI machines.

Re-pinning: run the pinned suite, inspect the numbers, then
``deuce-sim gate --pin`` rewrites ``flips_pct`` from the newest matching
ledger runs (tolerances and the perf floor are never auto-rewritten).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.ledger import RunLedger, RunManifest

#: Default baselines directory (repo root / current working directory).
DEFAULT_BASELINES_DIR = "baselines"

FLIP_BASELINE_FILE = "flip_rates.json"
PERF_BASELINE_FILE = "perf.json"


class GateError(Exception):
    """A gate misconfiguration (missing baseline file or entry).

    Distinct from a *failing* gate: a failure is a regression verdict, an
    error means the gate could not be evaluated at all.  Both make
    ``deuce-sim gate`` exit nonzero, with different exit codes.
    """


@dataclass(frozen=True)
class GateCheck:
    """One comparison: a measured value against its tolerance band."""

    name: str
    kind: str  # "flips" | "perf"
    run_id: str
    value: float
    expected: float
    lo: float
    hi: float
    passed: bool
    detail: str = ""

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"[{verdict}] {self.name}: {self.value:.3f} "
            f"(band {self.lo:.3f}..{self.hi:.3f}, run {self.run_id})"
            + (f" — {self.detail}" if self.detail else "")
        )


@dataclass
class GateReport:
    """Every check the gate evaluated, plus the overall verdict."""

    checks: list[GateCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[GateCheck]:
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        n_fail = len(self.failures)
        lines.append(
            f"gate: {len(self.checks) - n_fail}/{len(self.checks)} checks "
            f"passed — {'OK' if self.passed else f'{n_fail} REGRESSION(S)'}"
        )
        return "\n".join(lines)


def load_baselines(directory: str | Path) -> dict[str, object]:
    """Load and validate the baselines directory; raises :class:`GateError`."""
    directory = Path(directory)
    flips_path = directory / FLIP_BASELINE_FILE
    if not flips_path.exists():
        raise GateError(
            f"missing baseline file {flips_path} — pin baselines first "
            "(see 'Run ledger & regression gating' in README.md)"
        )
    flips = json.loads(flips_path.read_text())
    if "schemes" not in flips or not flips["schemes"]:
        raise GateError(f"{flips_path} has no 'schemes' entries")
    perf_path = directory / PERF_BASELINE_FILE
    perf = json.loads(perf_path.read_text()) if perf_path.exists() else {}
    return {"flips": flips, "perf": perf, "directory": directory}


def suite_configs(baselines_dir: str | Path = DEFAULT_BASELINES_DIR):
    """The exact pinned-suite :class:`SimConfig` per baselined scheme.

    Decoded through :meth:`SimConfig.from_dict`, so a typo'd key in the
    baseline ``suite`` block is a :class:`GateError` with the config
    module's did-you-mean message instead of a silently ignored field.
    CI (and anyone re-pinning) runs exactly these configs; they are also
    valid ``POST /jobs`` sweep payloads for the job service.
    """
    from repro.sim.config import ConfigError, SimConfig

    baselines = load_baselines(baselines_dir)
    flips = baselines["flips"]
    suite: dict = dict(flips.get("suite", {}))  # type: ignore[union-attr]
    configs: dict[str, SimConfig] = {}
    for scheme in flips["schemes"]:  # type: ignore[index]
        try:
            configs[scheme] = SimConfig.from_dict({**suite, "scheme": scheme})
        except ConfigError as exc:
            raise GateError(
                f"bad 'suite' block in {FLIP_BASELINE_FILE}: {exc}"
            ) from exc
    return configs


def _band(expected: float, tolerance: float, scale: float) -> tuple[float, float]:
    tol = tolerance * scale
    return expected - tol, expected + tol


def check_flips(
    manifest: RunManifest,
    baseline: dict[str, object],
    *,
    tolerance_scale: float = 1.0,
) -> GateCheck:
    """Gate one run manifest against one scheme's flip-rate baseline entry."""
    expected = float(baseline["flips_pct"])  # type: ignore[arg-type]
    tolerance = float(baseline.get("tolerance_pct", 2.0))  # type: ignore[union-attr]
    lo, hi = _band(expected, tolerance, tolerance_scale)
    value = manifest.summary.get("flips_pct")
    if not isinstance(value, (int, float)):
        raise GateError(
            f"run {manifest.run_id} has no 'flips_pct' in its summary"
        )
    return GateCheck(
        name=f"flips:{manifest.scheme}/{manifest.workload}",
        kind="flips",
        run_id=manifest.run_id,
        value=float(value),
        expected=expected,
        lo=lo,
        hi=hi,
        passed=lo <= float(value) <= hi,
    )


def check_perf(
    manifest: RunManifest, min_writes_per_s: float
) -> GateCheck:
    """Gate one run's throughput against the perf floor."""
    value = manifest.writes_per_s
    return GateCheck(
        name=f"perf:{manifest.scheme}/{manifest.workload}",
        kind="perf",
        run_id=manifest.run_id,
        value=value,
        expected=min_writes_per_s,
        lo=min_writes_per_s,
        hi=float("inf"),
        passed=value >= min_writes_per_s,
        detail="writes/s floor",
    )


def evaluate_gate(
    ledger: RunLedger,
    baselines_dir: str | Path = DEFAULT_BASELINES_DIR,
    *,
    tolerance_scale: float = 1.0,
    run_ids: list[str] | None = None,
) -> GateReport:
    """Gate the newest matching ledger runs against the pinned baselines.

    For every scheme in ``flip_rates.json`` the newest ``kind="run"``
    manifest for the baseline suite's workload is checked against the
    scheme's tolerance band, plus the perf floor when ``perf.json`` pins
    one.  ``run_ids`` restricts the gate to explicit runs instead (each
    run's scheme must have a baseline entry — a missing entry is a
    :class:`GateError`, not a silent pass).

    Raises
    ------
    GateError
        Missing baseline files/entries, or no matching run in the ledger.
    """
    baselines = load_baselines(baselines_dir)
    flips = baselines["flips"]
    schemes: dict[str, dict] = flips["schemes"]  # type: ignore[index,assignment]
    suite: dict = flips.get("suite", {})  # type: ignore[union-attr]
    workload = suite.get("workload")
    min_writes_per_s = float(
        baselines["perf"].get("min_writes_per_s", 0.0)  # type: ignore[union-attr]
    )

    report = GateReport()
    if run_ids:
        targets = [ledger.get(run_id) for run_id in run_ids]
        for manifest in targets:
            baseline = schemes.get(manifest.scheme)
            if baseline is None:
                raise GateError(
                    f"no baseline entry for scheme {manifest.scheme!r} "
                    f"(run {manifest.run_id}); add it to "
                    f"{Path(baselines_dir) / FLIP_BASELINE_FILE} or gate a "
                    "baselined scheme"
                )
            report.checks.append(
                check_flips(
                    manifest, baseline, tolerance_scale=tolerance_scale
                )
            )
            if min_writes_per_s > 0:
                report.checks.append(check_perf(manifest, min_writes_per_s))
        return report

    for scheme, baseline in schemes.items():
        manifest = ledger.latest(kind="run", scheme=scheme, workload=workload)
        if manifest is None:
            raise GateError(
                f"no ledger run for scheme {scheme!r}"
                + (f" on workload {workload!r}" if workload else "")
                + " — run the pinned suite first (see CI's resume-smoke job)"
            )
        report.checks.append(
            check_flips(manifest, baseline, tolerance_scale=tolerance_scale)
        )
        if min_writes_per_s > 0:
            report.checks.append(check_perf(manifest, min_writes_per_s))
    return report


def pin_baselines(
    ledger: RunLedger,
    baselines_dir: str | Path = DEFAULT_BASELINES_DIR,
) -> Path:
    """Rewrite ``flips_pct`` pins from the newest matching ledger runs.

    Intentional re-pinning after a legitimate behaviour change: tolerances,
    the suite config, paper context fields, and the perf floor are all
    preserved — only each scheme's measured ``flips_pct`` is refreshed.
    Raises :class:`GateError` when a baselined scheme has no ledger run.
    """
    baselines = load_baselines(baselines_dir)
    flips = baselines["flips"]
    schemes: dict[str, dict] = flips["schemes"]  # type: ignore[index,assignment]
    workload = flips.get("suite", {}).get("workload")  # type: ignore[union-attr]
    for scheme, baseline in schemes.items():
        manifest = ledger.latest(kind="run", scheme=scheme, workload=workload)
        if manifest is None:
            raise GateError(
                f"cannot pin {scheme!r}: no matching run in the ledger"
            )
        value = manifest.summary.get("flips_pct")
        if not isinstance(value, (int, float)):
            raise GateError(
                f"cannot pin {scheme!r}: run {manifest.run_id} has no "
                "'flips_pct' summary metric"
            )
        baseline["flips_pct"] = round(float(value), 3)
        baseline["pinned_run_id"] = manifest.run_id
        baseline["pinned_git_rev"] = manifest.git_rev
    path = Path(baselines_dir) / FLIP_BASELINE_FILE
    path.write_text(json.dumps(flips, indent=2, sort_keys=True) + "\n")
    return path
