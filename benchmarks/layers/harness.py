"""``run``: workload subprocesses in, metrics and a physics verdict out.

Each workload runs in fresh Python subprocesses, one at a time, so every
pass starts from a cold import and an empty trace cache:

* untraced (``--trace 0``): one measured child between ``SETUP_SAMPLES -
  1`` set-up-only children, half before it and half after.  ``setup_s``
  is the median over all of them.
* traced (``--trace 1``): an untraced child and a traced child, each for
  half of ``--seconds``.  The traced child traces every other op of each
  class; per-layer metrics come from its traced ops, and
  ``bench.tracing_overhead`` compares them with its untraced ones.  The
  untraced child supplies the ``/v1`` service metrics and a second
  process's fingerprints for the traced-equals-untraced check.

All timings are host time; nothing here reports simulated time.  Every
process runs pinned to one CPU (:func:`.hostspeed.pin`).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import hostspeed, oracle
from .workloads import (
    N_WRITES,
    ROOT,
    SERVICE_METRICS,
    SESSION_SPAN,
    SETUP,
    WORKLOADS,
    child_env,
)

BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Set-up samples per untraced run (the median is reported); 1 at smoke
#: scale, where only the measured child sets up.
SETUP_SAMPLES = {"full": 5, "smoke": 1}

#: A child that takes longer than this is stopped and the run fails.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics and their units.  ``op`` is one run (``cold-mcf``,
#: ``fig10-gems``, ``kv-udb-hwl``) or one ``/v1`` job from POST until its
#: terminal state is seen (``service-v1``).  ``op_s_p50`` is the mean over
#: op classes of each class's median, so a workload that mixes slow and
#: fast classes reports a value that does not jump with the mix.
#: ``setup_s`` and the ``norm_`` metrics are normalized to the reference
#: host speed (:mod:`.hostspeed`); ``setup_wall_s``, ``op_s_p50`` and
#: ``writes_per_s`` are the wall-clock ones.  ``norm_writes_per_s`` is
#: writes over the summed normalized op time, ``writes_per_s`` writes over
#: the measured window.  ``ref_slice_s_p50`` is the median reference
#: slice: how fast the host ran.  No higher percentile is reported: with
#: at most ~40 ops per class in a run, none would have ten samples beyond
#: it.  ``peak_rss_mb`` is the workload process's peak RSS once its first
#: cycle of ops has finished (for ``service-v1``, the server's ``VmHWM``
#: once the first six jobs have), and ``peak_rss_end_mb`` the same peak at
#: the end of the run.
END_TO_END = {
    "setup_s": "s",
    "norm_writes_per_s": "writes/s",
    "norm_op_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_wall_s": "s",
    "writes_per_s": "writes/s",
    "op_s_p50": "s",
    "ref_slice_s_p50": "s",
    "peak_rss_end_mb": "MB",
    "error_rate": "fraction",
}

#: Span name -> layer metric stem.
LAYERS = {
    "workloads.trace_gen": "workloads.trace_gen",
    "schemes.write": "schemes.write",
    "schemes.install": "schemes.install",
    "crypto.pad": "crypto.pad",
    "memory.pcm_apply": "memory.pcm_apply",
    "wear.rotation": "wear.rotation",
    "sim.run": "sim.runner_self",
    SESSION_SPAN: "api.session_self",
}
#: Layers that also get a per-scheme breakdown.
SCHEME_LAYERS = ("schemes.write", "crypto.pad", "memory.pcm_apply", "sim.run")
#: Layers whose calls per op are reported.
COUNTED = ("schemes.write", "crypto.pad", "memory.pcm_apply", "wear.rotation")


class ChildFailed(RuntimeError):
    """A workload subprocess crashed, timed out or printed no report."""


def class_median(samples: dict[str, list[float]]) -> float:
    """Mean over op classes of each class's median op time."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


# -- children ---------------------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float, scale: str, role: str):
    """Run one workload subprocess; its report plus its set-up time, as
    ``setup_wall_s`` and normalized to the reference host speed as
    ``setup_s``: the child's CPU seconds until ready are scaled by a
    reference slice here before the start and one in the child once
    ready."""
    cmd = [
        sys.executable, "-m", "benchmarks.layers", "child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--scale", scale, "--role", role,
    ]
    before = hostspeed.slice_s()
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise ChildFailed(f"{workload} {role} child timed out") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} {role} child exited {proc.returncode}"
        )
    report = json.loads(lines[-1])
    report["setup_wall_s"] = report["ready"] - t_spawn
    report["setup_s"] = hostspeed.normalize(
        report["setup_wall_s"], report["setup_cpu_s"], before,
        report["ready_slice_s"],
    )
    return report


# -- metrics ----------------------------------------------------------------------


def end_to_end(reports: list[dict], measured: dict) -> dict[str, float]:
    writes = measured["writes"]
    norm_s = sum(sum(v) for v in measured["norm_samples"].values())
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "norm_writes_per_s": writes / norm_s if writes else 0.0,
        "norm_op_s_p50": class_median(measured["norm_samples"]),
        "peak_rss_mb": measured["rss_mb"],
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in reports),
        "writes_per_s": writes / measured["elapsed_s"] if writes else 0.0,
        "op_s_p50": class_median(measured["samples"]),
        "ref_slice_s_p50": statistics.median(measured["ref_slices"]),
        "peak_rss_end_mb": measured["rss_end_mb"],
    }


def layer_metrics(
    workload: str, scale: str, untraced: dict, traced: dict
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced child and its untraced twin.

    Times are seconds per op (set-up excluded) and shares are fractions
    of op wall time; ``workloads.trace_gen_s`` is seconds per generated
    trace, set-up included, because two workloads synthesize their only
    trace in set-up.
    """
    layers = traced["layers"]
    self_s, calls = layers["self_s"], layers["calls"]

    def total(span: str, table=self_s) -> float:
        return sum(v for k, v in table.get(span, {}).items() if k != SETUP)

    op_span = SESSION_SPAN if workload == "service-v1" else "bench.op"
    n_ops = max(total(op_span, calls), 1)
    wall = sum(total(span) for span in self_s)
    out: dict[str, tuple[float, str]] = {}

    # Every trace and every op of a workload has the same length.
    n_writes = N_WRITES[scale][workload]
    gen_s = sum(self_s.get("workloads.trace_gen", {}).values())
    gen_calls = sum(calls.get("workloads.trace_gen", {}).values())
    out["workloads.trace_gen_s"] = (gen_s / gen_calls if gen_calls else 0.0, "s")
    out["workloads.writes_per_s"] = (
        n_writes * gen_calls / gen_s if gen_s else 0.0, "writes/s"
    )
    for span, stem in LAYERS.items():
        if span != "workloads.trace_gen":
            out[f"{stem}_s"] = (total(span) / n_ops, "s")
        out[f"{stem}_share"] = (total(span) / wall if wall else 0.0, "fraction")
    for span in COUNTED:
        out[f"{LAYERS[span]}_calls"] = (total(span, calls) / n_ops, "count")
    write_calls = total("schemes.write", calls)
    out["schemes.writes_per_call"] = (
        traced["writes"] / write_calls if write_calls else 0.0, "count"
    )
    pads = traced["pad_hits"] + traced["pad_misses"]
    out["crypto.pad_cache_hit_ratio"] = (
        traced["pad_hits"] / pads if pads else 0.0, "fraction"
    )

    for scheme in traced["schemes"]:
        name = scheme.replace("+", "_")
        n = calls.get(op_span, {}).get(scheme, 0)
        scheme_wall = sum(v.get(scheme, 0.0) for v in self_s.values())
        for span in SCHEME_LAYERS:
            seconds = self_s.get(span, {}).get(scheme, 0.0)
            out[f"{LAYERS[span]}_s.{name}"] = (seconds / n if n else 0.0, "s")
        write_s = self_s.get("schemes.write", {}).get(scheme, 0.0)
        out[f"schemes.writes_per_s.{name}"] = (
            n * n_writes / write_s if write_s else 0.0, "writes/s"
        )
        out[f"sim.writes_per_s.{name}"] = (
            n * n_writes / scheme_wall if scheme_wall else 0.0,
            "writes/s",
        )

    # Traced vs untraced ops of the same child.  Host noise only ever adds
    # time, so each class's fastest op is the estimate of its cost; with
    # a handful of ops per class, medians would mostly measure the noise.
    base = traced["base_samples"]
    both = [c for c in traced["samples"] if c in base]
    out["bench.tracing_overhead"] = (
        sum(min(traced["samples"][c]) for c in both)
        / sum(min(base[c]) for c in both)
        - 1.0,
        "fraction",
    )
    # Span self times against the loop's own clock around each op.
    accounted = traced["accounted"]
    shares = [s / w for w, s in accounted]
    out["bench.self_time_share"] = (
        sum(s for _, s in accounted) / sum(w for w, _ in accounted),
        "fraction",
    )
    out["bench.min_op_self_share"] = (min(shares), "fraction")

    service = untraced.get("service")
    for name in SERVICE_METRICS:
        out[name] = (service[name] if service else 0.0, "s")
    job_s = session_s = 0.0
    jobs = trace_bytes = ledger_bytes = 0
    if service:
        job_s = class_median(untraced["samples"])
        session_s = class_median(untraced["session"]["samples"])
        jobs = sum(len(v) for v in untraced["samples"].values())
        trace_bytes = service["trace_bytes"]
        ledger_bytes = service["ledger_bytes"]
    out["api.session_run_s_p50"] = (session_s, "s")
    out["service.overhead_s_p50"] = (job_s - session_s, "s")
    out["service.overhead_share"] = (
        (job_s - session_s) / job_s if job_s else 0.0, "fraction"
    )
    out["obs.trace_bytes_per_job"] = (trace_bytes / jobs if jobs else 0.0, "B")
    out["obs.ledger_bytes_per_job"] = (
        ledger_bytes / jobs if jobs else 0.0, "B"
    )
    return out


def sample_counts(report: dict) -> dict[str, int]:
    return {c: len(v) for c, v in report["samples"].items()}


def all_ops(reports: list[dict]) -> list[list[str]]:
    ops = []
    for report in reports:
        ops += report.get("ops", [])
        ops += report.get("session", {}).get("ops", [])
    return ops


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    scale: str,
    trace: bool,
    pins: dict[str, str],
) -> dict:
    """Every pass of one workload; returns its result record."""
    if trace:
        untraced = spawn(workload, seed, seconds / 2, scale, "untraced")
        traced = spawn(workload, seed, seconds / 2, scale, "traced")
        reports = [untraced, traced]
        metrics = layer_metrics(workload, scale, untraced, traced)
        samples = {
            "untraced": sample_counts(untraced),
            "traced": sample_counts(traced),
        }
        extra = {
            "spans_file": traced["layers"]["spans_file"],
            "spans_kept": traced["layers"]["spans_kept"],
        }
    else:
        # Set-up-only children before and after the measured one, so the
        # set-ups sample the host over the whole run.
        setups = SETUP_SAMPLES[scale] - 1
        reports = [
            spawn(workload, seed, seconds, scale, "setup")
            for _ in range(setups // 2)
        ]
        measured = spawn(workload, seed, seconds, scale, "measure")
        reports.append(measured)
        reports += [
            spawn(workload, seed, seconds, scale, "setup")
            for _ in range(setups - setups // 2)
        ]
        metrics = {
            name: (value, END_TO_END[name])
            for name, value in end_to_end(reports, measured).items()
        }
        samples = {
            "setup": len(reports),
            "op": sample_counts(measured),
            "ref_slices": len(measured["ref_slices"]),
        }
        extra = {}
    ops = all_ops(reports)
    failures = oracle.check_ops(ops, pins)
    attempted = max(len(ops), 1)
    if not trace:
        metrics["error_rate"] = (len(failures) / attempted, "fraction")
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "samples": samples,
        "fingerprints": {key: digest for key, digest, err in ops if not err},
        **extra,
    }


# -- output -----------------------------------------------------------------------


def contract_names(trace: bool) -> list[str]:
    """Metric names BENCHMARK.json lists for this mode."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def render(record: dict) -> str:
    """A record as a table: metric, value, unit, and sample counts."""
    mode = "traced" if record["trace"] else "untraced"
    lines = [
        f"== {record['workload']}  seed {record['seed']}  {mode}  "
        f"{record['seconds']:g} s  scale {record['scale']}  "
        f"ops {record['attempted']}  failed {record['failed']}"
    ]
    samples = record["samples"]
    for name, metric in record["metrics"].items():
        note = ""
        if name in ("setup_s", "setup_wall_s"):
            note = f"n={samples['setup']}"
        elif name == "ref_slice_s_p50":
            note = f"n={samples['ref_slices']}"
        elif name in ("op_s_p50", "norm_op_s_p50"):
            counts = samples["op"]
            note = (
                f"n={sum(counts.values())} over {len(counts)} classes, "
                f"min {min(counts.values())} per class"
            )
        lines.append(
            f"  {name:<34} {metric['value']:>16.6g} {metric['unit']:<9} {note}"
        )
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def summary_line(records: list[dict]) -> dict:
    """The last stdout line: the BENCHMARK.json metrics of every record."""
    metrics = {}
    for record in records:
        names = contract_names(bool(record["trace"]))
        prefix = f"{record['workload']}/" if len(records) > 1 else ""
        for name, metric in record["metrics"].items():
            if name in names:
                metrics[prefix + name] = metric
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def append_out(path: Path, records: list[dict], label: str) -> None:
    """Append records to a results file (``{"runs": [...]}``)."""
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    for record in records:
        kept = {k: v for k, v in record.items() if k != "fingerprints"}
        data["runs"].append({"label": label, **kept})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(args) -> int:
    workloads = args.workload or list(WORKLOADS)
    pins = {} if args.pin else oracle.load_pins()
    hostspeed.pin()
    records = []
    for workload in workloads:
        try:
            record = run_workload(
                workload, args.seed, args.seconds, args.scale,
                bool(args.trace), pins,
            )
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(render(record), flush=True)
        records.append(record)
    if args.out:
        append_out(Path(args.out), records, args.label)
    if args.pin and all(r["correct"] for r in records):
        pinned = oracle.load_pins()
        for record in records:
            pinned.update(record["fingerprints"])
        oracle.save_pins(pinned)
        print(f"pinned {sum(len(r['fingerprints']) for r in records)} "
              f"fingerprints in {oracle.PINS_PATH.relative_to(ROOT)}")
    line = summary_line(records)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1
