"""Command-line interface: ``deuce-sim``.

Subcommands
-----------
``run``
    Stream a workload trace through one scheme and print the summary
    (persisting a run manifest into the ledger unless ``--no-ledger``).
    ``--checkpoint-every N`` makes the run durably resumable; ``--resume
    RUN_ID`` continues a killed run bit-identically.
``sweep``
    Fan a (workloads x schemes) grid over worker processes with per-cell
    retries and crash recovery; ``--sweep-id``/``--resume`` checkpoint
    completed cells so an interrupted sweep re-runs only the missing ones.
    ``--workers-url`` shards the cells over ``deuce-sim serve`` endpoints
    instead.
``experiment``
    Reproduce one of the paper's figures/tables (or ``all``).
``serve``
    Start the HTTP simulation job service (submit runs/sweeps/experiments
    as JSON jobs, stream progress, query the ledger).  With
    ``--workers-url`` its sweep jobs run on that fleet of ``serve``
    workers.
``loadtest``
    Soak the job service with concurrent clients and report latency
    percentiles, error rates, and SLO pass/fail (spawns a private
    service unless ``--url`` points at a running one).
``trace``
    Export a correlated trace (sweep/run/service job) as Chrome
    trace-event JSON (``export``) or print its critical path, top spans,
    and straggler lanes (``report``).
``runs``
    Query the run ledger: ``list``, ``show``, ``diff``, ``gc``.
``gate``
    Compare the newest ledger runs against the pinned baselines; exits
    nonzero on regression.
``dashboard``
    Write a self-contained HTML dashboard of the ledger's history.
``report``
    Run every experiment and write a Markdown reproduction report.
``list``
    Show available workloads, schemes, and experiments.

Examples
--------
::

    deuce-sim run --workload mcf --scheme deuce --writes 10000
    deuce-sim run --workload mcf --scheme deuce --checkpoint-every 5000
    deuce-sim run --resume 20260501T120000-ab12cd
    deuce-sim sweep --workloads mcf libq --schemes deuce encr-fnw \\
        --sweep-id nightly --workers 4
    deuce-sim experiment fig10
    deuce-sim serve --port 8787 --job-workers 2
    deuce-sim serve --port 8790 --workers-url http://a:8787 \\
        --workers-url http://b:8787
    deuce-sim loadtest --duration 30 --clients 8 --p99-slo 500
    deuce-sim trace export my-trace-dir --out trace.json
    deuce-sim runs list --scheme deuce
    deuce-sim gate && echo "no regressions"
    deuce-sim dashboard --output dashboard.html
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import render_table
from repro.sim.config import SimConfig
from repro.sim.experiments import EXPERIMENTS


def _make_session(args: argparse.Namespace):
    """The :class:`repro.api.Session` selected by CLI flags.

    This is the single config-resolution path: the same Session the job
    service and library callers use, so CLI runs and service runs record
    identical manifests and aggregates.
    """
    from repro.api import Session

    return Session(
        ledger=getattr(args, "ledger", True),
        runs_dir=getattr(args, "runs_dir", None),
        label=getattr(args, "label", "") or "",
    )


def _parse_workload_params(raw: str | None) -> dict:
    """``--workload-params`` JSON -> dict, or exit-2-worthy ConfigError."""
    import json

    from repro.sim.config import ConfigError

    if not raw:
        return {}
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"--workload-params is not valid JSON: {exc}"
        ) from None
    if not isinstance(params, dict):
        raise ConfigError(
            "--workload-params must be a JSON object, "
            f"got {type(params).__name__}"
        )
    return params


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.export import summary_row
    from repro.api import CheckpointError, ObsOptions
    from repro.sim.config import ConfigError

    config = None
    if args.resume is None:
        if not args.workload:
            print(
                "error: --workload is required unless --resume is given",
                file=sys.stderr,
            )
            return 2
        # Decode through SimConfig.from_dict — the exact validation path
        # Session and the /v1 envelope use — so a typo'd workload or a bad
        # workload_params field fails here with the same field-path
        # message an API client would see.
        try:
            config = SimConfig.from_dict(
                {
                    "workload": args.workload,
                    "scheme": args.scheme,
                    "n_writes": args.writes,
                    "seed": args.seed,
                    "word_bytes": args.word_bytes,
                    "epoch_interval": args.epoch_interval,
                    "wear_leveling": args.wear_leveling,
                    "pad_kind": args.pad_kind,
                    "pad_cache_lines": args.pad_cache_lines,
                    "chunk_size": args.chunk_size,
                    "workload_params": _parse_workload_params(
                        args.workload_params
                    ),
                }
            )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    session = _make_session(args)
    try:
        result = session.run(
            config,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume,
            obs=ObsOptions(
                metrics_out=args.metrics_out,
                trace_out=args.trace_out,
                sample_interval=args.sample_interval,
                series_out=args.series_out,
            ),
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    if result.series is not None:
        print(
            f"sampled {len(result.series)} intervals "
            f"(every {result.series.interval} writes)"
        )
        if args.series_out:
            print(f"time-series written to {args.series_out}")
    row = summary_row(result, result.manifest)
    print(render_table(list(row), [row]))
    if result.lifetime is not None:
        print(f"lifetime vs encrypted baseline: {result.lifetime.normalized:.2f}x")
    if result.manifest is not None:
        print(f"run {result.manifest.run_id} recorded in {session.ledger.root}")
        if args.checkpoint_every > 0:
            print(
                f"checkpointed every {args.checkpoint_every} writes "
                f"(resume with: deuce-sim run --resume {result.manifest.run_id})"
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.api import CheckpointError, SweepCellFailed
    from repro.sim.config import ConfigError

    session = _make_session(args)
    try:
        params = _parse_workload_params(args.workload_params)
        configs = [
            SimConfig.from_dict(
                {
                    "workload": workload,
                    "scheme": scheme,
                    "n_writes": args.writes,
                    "seed": args.seed,
                    "chunk_size": args.chunk_size,
                    "workload_params": params,
                }
            )
            for workload in args.workloads
            for scheme in args.schemes
        ]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sweep_id = args.resume or args.sweep_id
    executor = None
    if args.workers_url:
        from repro.service.coordinator import FleetExecutor

        executor = FleetExecutor(
            args.workers_url,
            window=args.fleet_window,
            probe_interval_s=args.fleet_probe_interval,
        )
    renderer = _progress_renderer(args, sweep_id or "sweep")
    try:
        results = session.sweep(
            configs,
            workers=args.workers,
            retries=args.retries,
            sweep_id=sweep_id,
            progress=renderer,
            trace_dir=args.trace_dir,
            executor=executor,
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepCellFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        if sweep_id:
            print(
                f"completed cells are checkpointed; re-run with "
                f"--resume {sweep_id} to pick up where it stopped",
                file=sys.stderr,
            )
        return 1
    finally:
        if renderer is not None:
            renderer.close()
    rows = [r.summary_row() for r in results]
    print(render_table(list(rows[0]), rows))
    if executor is not None:
        for stats in executor.fleet_stats():
            print(
                f"fleet: {stats['name']} completed {stats['completed']} "
                f"cell(s) ({'healthy' if stats['healthy'] else 'dead'})"
            )
        if executor.steals or executor.requeues:
            print(
                f"fleet: {executor.steals} steal(s), "
                f"{executor.requeues} requeue(s), "
                f"{executor.duplicates} duplicate completion(s)"
            )
    if args.out:
        payload = {
            "sweep_id": sweep_id or "",
            "results": [r.to_dict() for r in results],
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results written to {args.out}")
    if sweep_id and session.ledger is not None:
        print(
            f"sweep {sweep_id} checkpointed in "
            f"{session.ledger.root / 'sweeps' / sweep_id}"
        )
    if args.trace_dir:
        print(
            f"trace lanes written to {args.trace_dir} "
            f"(export with: deuce-sim trace export {args.trace_dir})"
        )
    return 0


def _progress_renderer(args: argparse.Namespace, label: str):
    """A live renderer when progress is requested (or stderr is a TTY)."""
    enabled = args.progress
    if enabled is None:
        enabled = sys.stderr.isatty()
    if not enabled:
        return None
    from repro.obs import ProgressRenderer

    return ProgressRenderer(label=label)


def _cmd_experiment(args: argparse.Namespace) -> int:
    session = _make_session(args)
    for name in (list(EXPERIMENTS) if args.name == "all" else [args.name]):
        if name not in EXPERIMENTS:
            print(
                f"unknown experiment {name!r}; choose from "
                f"{', '.join(EXPERIMENTS)} or 'all'",
                file=sys.stderr,
            )
            return 2
        renderer = _progress_renderer(args, name)
        try:
            result = session.experiment(
                name,
                n_writes=args.writes,
                workers=args.workers,
                progress=renderer,
            )
        finally:
            if renderer is not None:
                renderer.close()
        print(result.render())
        if result.manifest is not None:
            print(f"experiment {name} recorded as {result.manifest.run_id}")
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    return serve(
        args.host,
        args.port,
        session=_make_session(args),
        job_workers=args.job_workers,
        queue_size=args.queue_size,
        job_timeout_s=args.job_timeout,
        max_sweep_workers=args.max_sweep_workers,
        drain_timeout_s=args.drain_timeout,
        worker_urls=args.workers_url or (),
        fleet_window=args.fleet_window,
        fleet_probe_interval_s=args.fleet_probe_interval,
    )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import contextlib
    import json
    from pathlib import Path

    from repro.service.loadtest import (
        LoadTestOptions,
        parse_mix,
        run_loadtest,
        spawned_service,
    )

    try:
        mix = parse_mix(args.mix) if args.mix else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    options = LoadTestOptions(
        duration_s=args.duration,
        clients=args.clients,
        writes=args.writes,
        workload=args.workload,
        scheme=args.scheme,
        seed=args.seed,
        p99_slo_ms=args.p99_slo,
        max_error_rate=args.max_error_rate,
        label=getattr(args, "label", "") or "",
    )
    if mix is not None:
        options.mix = mix
    session = _make_session(args)
    with contextlib.ExitStack() as stack:
        base = args.url or stack.enter_context(
            spawned_service(
                session,
                job_workers=args.job_workers,
                queue_size=args.queue_size,
                max_sweep_workers=args.max_sweep_workers,
            )
        )
        report = run_loadtest(base, options, ledger=session.ledger)
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    totals = report["totals"]
    latency = report["latency_ms"]
    slo = report["slo"]
    print(
        f"loadtest: {totals['requests']} requests in "
        f"{report['duration_s']}s ({totals['rps']} rps) | "
        f"p50 {latency['p50']}ms p95 {latency['p95']}ms "
        f"p99 {latency['p99']}ms | errors {totals['errors']} "
        f"({totals['error_rate']:.2%}), 429s {totals['backpressure_429']}"
    )
    if not slo["passed"]:
        parts = []
        if options.p99_slo_ms > 0 and slo["p99_ms"] > options.p99_slo_ms:
            parts.append(
                f"p99 {slo['p99_ms']}ms > {options.p99_slo_ms}ms"
            )
        if 0 <= options.max_error_rate < slo["error_rate"]:
            parts.append(
                f"error rate {slo['error_rate']:.2%} > "
                f"{options.max_error_rate:.2%}"
            )
        print("loadtest: SLO FAILED: " + "; ".join(parts), file=sys.stderr)
        return 1
    if options.p99_slo_ms > 0 or options.max_error_rate >= 0:
        print("loadtest: SLO passed")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.ledger import LedgerError, RunLedger

    ledger = RunLedger(args.runs_dir)
    try:
        if args.runs_command == "list":
            manifests = ledger.list(
                kind=args.kind,
                scheme=args.scheme,
                workload=args.workload,
                limit=args.limit or None,
            )
            if not manifests:
                print("no runs recorded")
                return 0
            rows = [
                {
                    "run_id": m.run_id,
                    "kind": m.kind,
                    "label": m.label,
                    "workload": m.workload,
                    "scheme": m.scheme,
                    "writes": m.n_writes,
                    "wall_s": round(m.wall_time_s, 3),
                    "git_rev": m.git_rev,
                }
                for m in manifests
            ]
            print(render_table(list(rows[0]), rows))
        elif args.runs_command == "show":
            import json

            manifest = ledger.get(args.run_id)
            print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
        elif args.runs_command == "diff":
            deltas = ledger.diff(args.run_a, args.run_b)
            if not deltas:
                print("no shared numeric metrics")
                return 0
            rows = [
                {
                    "metric": metric,
                    "a": sides["a"],
                    "b": sides["b"],
                    "delta": (
                        round(sides["delta"], 6)
                        if isinstance(sides["delta"], (int, float))
                        else "(differs)"
                    ),
                }
                for metric, sides in deltas.items()
            ]
            # Four places: phase times are often milliseconds.
            print(render_table(list(rows[0]), rows, precision=4,
                               title=f"{args.run_a} vs {args.run_b}:"))
        elif args.runs_command == "gc":
            removed = ledger.gc(keep=args.keep)
            print(f"removed {len(removed)} runs, kept {len(ledger)}")
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _resolve_trace_path(args: argparse.Namespace):
    """Resolve the ``trace`` argument to a lane file or directory.

    Accepts a path to a ``.jsonl`` lane, a directory of lanes, or a job id
    — the latter resolved against ``<runs-dir>/traces/<id>`` (the place
    the job service writes its lanes).
    """
    from pathlib import Path

    from repro.obs.ledger import default_runs_dir

    candidate = Path(args.trace)
    if candidate.exists():
        return candidate
    runs_dir = Path(args.runs_dir) if args.runs_dir else default_runs_dir()
    by_job = runs_dir / "traces" / args.trace
    if by_job.exists():
        return by_job
    print(
        f"error: no trace at {candidate} and no job trace at {by_job}",
        file=sys.stderr,
    )
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.traceexport import (
        build_report,
        export_chrome_trace,
        load_trace,
    )

    path = _resolve_trace_path(args)
    if path is None:
        return 2
    try:
        if args.trace_command == "export":
            out = args.out or "trace.json"
            export_chrome_trace(path, out)
            lanes = load_trace(path)
            spans = sum(
                1 for lane in lanes
                for r in lane.records if r.get("type") == "span"
            )
            print(
                f"chrome trace written to {out} "
                f"({len(lanes)} lanes, {spans} spans; open in "
                f"https://ui.perfetto.dev or chrome://tracing)"
            )
        else:
            print(build_report(load_trace(path), top=args.top))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    from repro.obs.gate import GateError, evaluate_gate, pin_baselines
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.runs_dir)
    try:
        if args.pin:
            path = pin_baselines(ledger, args.baselines)
            print(f"baselines re-pinned to latest ledger runs: {path}")
            return 0
        report = evaluate_gate(
            ledger,
            baselines_dir=args.baselines,
            tolerance_scale=args.tolerance_scale,
            run_ids=args.run_id or None,
        )
    except GateError as exc:
        print(f"gate error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.passed else 1


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.analysis.dashboard import write_dashboard
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.runs_dir)
    path = write_dashboard(
        args.output, ledger,
        baselines_dir=args.baselines, limit=args.limit or None,
    )
    print(f"dashboard written to {path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_all

    paths = export_all(args.output, n_writes=args.writes, progress=print)
    print(f"{len(paths)} CSV files written to {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.workloads.stats import analyze_trace, recommend_scheme
    from repro.workloads.trace import Trace, generate_trace

    if args.trace_file:
        trace = Trace.load(args.trace_file)
        source = args.trace_file
    else:
        trace = generate_trace(args.workload, args.writes, seed=args.seed)
        source = f"generated {args.workload} trace"
    stats = analyze_trace(trace)
    print(render_table(list(stats.summary()), [stats.summary()],
                       title=f"write behaviour of {source}:"))
    scheme, why = recommend_scheme(stats)
    print(f"recommended scheme: {scheme}")
    print(f"rationale: {why}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import write_report

    path = write_report(
        args.output, n_writes=args.writes, progress=print
    )
    print(f"report written to {path}")
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    from repro import registry

    print("workloads: " + ", ".join(registry.WORKLOADS.names))
    print("schemes:   " + ", ".join(registry.SCHEMES.names))
    print("experiments: " + ", ".join(EXPERIMENTS) + ", all")
    return 0


def _cmd_plugins(args: argparse.Namespace) -> int:
    import json

    from repro import registry

    registries = registry.REGISTRIES
    if args.plugins_verb == "describe" and not args.name:
        print("error: 'plugins describe' needs a plugin name", file=sys.stderr)
        return 2
    if args.name:
        # Search every registry for the named plugin; a name can appear in
        # more than one (unlikely but legal), so print every match.
        matches = {
            kind: reg.describe()[args.name]
            for kind, reg in registries.items()
            if args.name in reg.names
        }
        if not matches:
            all_names = sorted(
                name for reg in registries.values() for name in reg.names
            )
            import difflib

            close = difflib.get_close_matches(args.name, all_names, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            print(f"error: unknown plugin {args.name!r}{hint}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(matches, indent=2, sort_keys=True))
            return 0
        for kind, info in matches.items():
            print(f"{args.name} ({kind.rstrip('s')})")
            if info["description"]:
                print(f"  {info['description']}")
            print("  config schema: " + ", ".join(info["schema"]))
            if info["params"]:
                rows = [
                    {
                        "param": p["name"],
                        "type": p["type"],
                        "default": p["default"],
                        "range": _param_range(p),
                        "doc": p.get("doc", ""),
                    }
                    for p in info["params"]
                ]
                print(render_table(list(rows[0]), rows))
            else:
                print("  parameters: none")
        return 0
    described = {
        kind: reg.describe() for kind, reg in registries.items()
    }
    if args.json:
        print(json.dumps(described, indent=2, sort_keys=True))
        return 0
    for kind, plugins in described.items():
        print(f"{kind}:")
        for name, info in plugins.items():
            n_params = len(info["params"])
            suffix = f" [{n_params} params]" if n_params else ""
            desc = info["description"] or ""
            print(f"  {name:<14}{suffix:<12} {desc}")
    print(
        "\nuse 'deuce-sim plugins describe <name>' for a plugin's "
        "parameter schema"
    )
    return 0


def _param_range(p: dict) -> str:
    lo, hi = p.get("minimum"), p.get("maximum")
    if p.get("choices"):
        return "|".join(str(c) for c in p["choices"])
    if lo is None and hi is None:
        return ""
    return f"[{'' if lo is None else lo}, {'' if hi is None else hi}]"


def _cmd_kv(args: argparse.Namespace) -> int:
    from repro.workloads.suite import (
        CANNED_SUITES,
        RequestSuite,
        build_canned_suite,
        record_suite,
        replay_suite,
    )

    if args.kv_command == "suites":
        for name, spec in CANNED_SUITES.items():
            print(
                f"{name:<12} profile={spec['profile']:<12} "
                f"writes={spec['n_writes']:<6} seed={spec['seed']:<3} "
                f"params={spec['params']}"
            )
        return 0
    if args.kv_command == "record":
        from repro.sim.config import ConfigError

        from repro.registry import RegistryError

        if args.suite:
            suite, trace = build_canned_suite(args.suite)
        else:
            try:
                suite, trace = record_suite(
                    args.profile,
                    args.writes,
                    seed=args.seed,
                    params=_parse_workload_params(args.workload_params),
                )
            except (ConfigError, RegistryError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        suite.save(args.out)
        print(
            f"suite {suite.profile_name} (seed {suite.seed}) recorded to "
            f"{args.out}: {len(suite.requests)} requests -> "
            f"{trace.n_writes} writebacks, phases "
            + ", ".join(f"{n}@{s}" for n, s in trace.phases)
        )
        if args.trace_out:
            trace.save(args.trace_out)
            print(f"writeback trace written to {args.trace_out}")
        return 0
    if args.kv_command == "verify":
        suite = RequestSuite.load(args.suite_file)
        replayed = replay_suite(suite)
        fresh_suite, fresh = record_suite(
            suite.profile_name,
            suite.n_writes,
            seed=suite.seed,
            line_bytes=suite.line_bytes,
            params=suite.params,
        )
        problems = []
        if tuple(fresh_suite.requests) != tuple(suite.requests):
            problems.append("request stream drifted from profile+seed")
        if replayed.phases != fresh.phases:
            problems.append(
                f"phase mismatch: {replayed.phases} != {fresh.phases}"
            )
        n = min(len(replayed.records), len(fresh.records))
        if len(replayed.records) != len(fresh.records):
            problems.append(
                f"length mismatch: {len(replayed.records)} != "
                f"{len(fresh.records)}"
            )
        diverged = next(
            (
                i
                for i in range(n)
                if replayed.records[i] != fresh.records[i]
            ),
            None,
        )
        if diverged is not None:
            problems.append(f"writeback streams diverge at write {diverged}")
        if replayed.initial != fresh.initial:
            problems.append("initial line sets differ")
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        print(
            f"OK: replay of {args.suite_file} is bit-identical to a fresh "
            f"{suite.profile_name} recording ({len(replayed.records)} "
            "writebacks)"
        )
        return 0
    print("error: unknown kv subcommand", file=sys.stderr)
    return 2


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="persist a run manifest into the ledger (default: on; "
        "--no-ledger also skips run-scoped instrumentation)",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="ledger directory (default: $DEUCE_RUNS_DIR or .deuce-runs)",
    )


def _add_fleet_flags(parser: argparse.ArgumentParser, verb: str) -> None:
    parser.add_argument(
        "--workers-url",
        action="append",
        dest="workers_url",
        default=None,
        metavar="URL",
        help=f"{verb} this 'deuce-sim serve' endpoint instead of local "
        "processes (repeatable; e.g. --workers-url http://a:8787 "
        "--workers-url http://b:8787)",
    )
    parser.add_argument(
        "--fleet-window",
        type=int,
        default=2,
        metavar="N",
        help="bounded in-flight cells per fleet worker",
    )
    parser.add_argument(
        "--fleet-probe-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between /v1/healthz probes per fleet worker",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deuce-sim",
        description="DEUCE (ASPLOS'15) secure-NVM write-efficiency simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one (workload, scheme) simulation")
    p_run.add_argument(
        "--workload",
        default=None,
        help="workload registry name: a Table 2 trace or a KV profile "
        "(required unless --resume is given; see 'deuce-sim plugins'); "
        "unknown names fail with a did-you-mean registry error",
    )
    p_run.add_argument(
        "--scheme",
        default="deuce",
        help="scheme registry name (see 'deuce-sim plugins')",
    )
    p_run.add_argument(
        "--workload-params",
        default=None,
        metavar="JSON",
        help="workload parameter overrides as a JSON object, validated "
        "against the plugin's declared schema (e.g. "
        "'{\"zipf_alpha\": 1.2}' for kv-* profiles)",
    )
    p_run.add_argument("--writes", type=int, default=10_000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--word-bytes", type=int, default=2)
    p_run.add_argument("--epoch-interval", type=int, default=32)
    p_run.add_argument(
        "--wear-leveling",
        choices=("none", "hwl", "hwl-hashed", "sr-hwl"),
        default="none",
    )
    p_run.add_argument("--pad-kind", choices=("blake2", "aes"), default="blake2")
    p_run.add_argument(
        "--pad-cache-lines",
        type=int,
        default=SimConfig("mcf", "deuce").pad_cache_lines,
        help="LRU pad-cache capacity in line pads (0 disables caching)",
    )
    p_run.add_argument(
        "--chunk-size",
        type=int,
        default=SimConfig("mcf", "deuce").chunk_size,
        metavar="N",
        help="writes handed to the scheme's batched write path at once "
        "(>= 1; 1 runs the scalar install/write reference; results are "
        "bit-identical at any value)",
    )
    p_run.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write end-of-run metrics (counters/timers) as JSONL",
    )
    p_run.add_argument(
        "--trace-out",
        metavar="PATH",
        help="stream pipeline spans/events (scheme.write, pad.fetch, "
        "pcm.apply, epoch resets, ...) as JSONL",
    )
    p_run.add_argument(
        "--sample-interval",
        type=int,
        default=0,
        metavar="N",
        help="snapshot flip-rate/pad-hit-rate/wear percentiles every N "
        "writes into a time-series (0 = off)",
    )
    p_run.add_argument(
        "--series-out",
        metavar="PATH",
        help="write the sampled time-series as CSV (implies sampling "
        "at ~100 points if --sample-interval is unset)",
    )
    p_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="snapshot all mutable simulation state every N writes into "
        "the run's ledger directory (0 = off); a killed run can then be "
        "continued bit-identically with --resume",
    )
    p_run.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="continue a checkpointed run (a ledger run id or a "
        "checkpoint directory); config flags are read from the checkpoint",
    )
    _add_ledger_flags(p_run)
    p_run.add_argument(
        "--label",
        default="",
        help="free-form tag stored in the run's ledger manifest",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a (workloads x schemes) grid through the fault-tolerant "
        "parallel sweep engine",
    )
    p_sweep.add_argument(
        "--workloads",
        nargs="+",
        required=True,
        help="workload registry names (Table 2 traces and kv-* profiles)",
    )
    p_sweep.add_argument(
        "--schemes",
        nargs="+",
        required=True,
        help="scheme registry names",
    )
    p_sweep.add_argument(
        "--workload-params",
        default=None,
        metavar="JSON",
        help="workload parameter overrides (JSON object) applied to every "
        "workload in the grid; schema-validated per workload",
    )
    p_sweep.add_argument("--writes", type=int, default=10_000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--chunk-size",
        type=int,
        default=SimConfig("mcf", "deuce").chunk_size,
        metavar="N",
        help="batched write-path chunk size for every cell (>= 1; 1 runs "
        "the scalar install/write reference; results are bit-identical at "
        "any value)",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (1 = serial, 0 = auto)",
    )
    p_sweep.add_argument(
        "--retries",
        type=int,
        default=2,
        help="per-cell retry budget (crashed workers are detected and "
        "their cells requeued with exponential backoff)",
    )
    p_sweep.add_argument(
        "--sweep-id",
        default=None,
        metavar="ID",
        help="checkpoint completed cells under <runs-dir>/sweeps/<ID>/ "
        "as they finish; re-running with the same id (or --resume ID) "
        "runs only the missing cells",
    )
    p_sweep.add_argument(
        "--resume",
        default=None,
        metavar="ID",
        help="resume a checkpointed sweep (same as --sweep-id ID on a "
        "sweep that already has completed cells)",
    )
    p_sweep.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the full per-cell results as JSON",
    )
    p_sweep.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write correlated trace lanes (sweep.jsonl + one "
        "cell-<i>.jsonl per cell) here; view with 'deuce-sim trace "
        "export DIR'",
    )
    p_sweep.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="live cells-done/in-flight/ETA line on stderr "
        "(default: only when stderr is a terminal)",
    )
    _add_fleet_flags(p_sweep, "shard cells across")
    _add_ledger_flags(p_sweep)
    p_sweep.add_argument(
        "--label",
        default="",
        help="free-form tag stored on recorded sweep-cell manifests",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_exp = sub.add_parser("experiment", help="reproduce a paper figure/table")
    p_exp.add_argument("name", help=f"one of {', '.join(EXPERIMENTS)} or 'all'")
    p_exp.add_argument("--writes", type=int, default=5_000)
    p_exp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (1 = serial, 0 = auto)",
    )
    p_exp.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="live cells-done/in-flight/ETA line on stderr "
        "(default: only when stderr is a terminal)",
    )
    _add_ledger_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_serve = sub.add_parser(
        "serve",
        help="start the HTTP simulation job service "
        "(POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/runs, ...)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787)
    p_serve.add_argument(
        "--job-workers",
        type=int,
        default=2,
        help="concurrent jobs (worker threads; each sweep job may also "
        "fan cells over processes, see --max-sweep-workers)",
    )
    p_serve.add_argument(
        "--queue-size",
        type=int,
        default=16,
        help="jobs allowed to wait; submissions past this get HTTP 429",
    )
    p_serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job deadline (jobs may set their own timeout_s)",
    )
    p_serve.add_argument(
        "--max-sweep-workers",
        type=int,
        default=4,
        help="cap on any job's requested per-sweep worker processes",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds SIGTERM waits for in-flight jobs before forcing "
        "cooperative cancellation",
    )
    _add_fleet_flags(p_serve, "run sweep jobs' cells on")
    _add_ledger_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser(
        "loadtest",
        help="soak the job service with concurrent clients; report "
        "latency percentiles + error rates, optionally gate on SLOs",
    )
    p_load.add_argument(
        "--url",
        default=None,
        help="base URL of a running service; omitted = spawn a private "
        "in-process service for the soak",
    )
    p_load.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="soak length (default: 10)",
    )
    p_load.add_argument(
        "--clients", type=int, default=8,
        help="concurrent client threads (default: 8)",
    )
    p_load.add_argument(
        "--writes", type=int, default=200,
        help="n_writes of each submitted job (default: 200)",
    )
    p_load.add_argument("--workload", default="mcf",
                        help="workload of submitted jobs")
    p_load.add_argument("--scheme", default="deuce",
                        help="scheme of submitted jobs")
    p_load.add_argument(
        "--mix", default=None, metavar="OP=W,...",
        help="operation weights, e.g. run=2,status=6,cancel=0.5 "
        "(ops: run, sweep, status, cancel, healthz)",
    )
    p_load.add_argument("--seed", type=int, default=0,
                        help="base RNG seed for the client mix")
    p_load.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the full report JSON here",
    )
    p_load.add_argument(
        "--p99-slo", dest="p99_slo", type=float, default=0.0,
        metavar="MS",
        help="fail (exit 1) if p99 latency exceeds this many ms",
    )
    p_load.add_argument(
        "--max-error-rate", type=float, default=-1.0, metavar="RATE",
        help="fail (exit 1) if error rate exceeds this fraction "
        "(429 backpressure is not an error)",
    )
    p_load.add_argument(
        "--job-workers", type=int, default=2,
        help="spawned service: concurrent jobs (ignored with --url)",
    )
    p_load.add_argument(
        "--queue-size", type=int, default=16,
        help="spawned service: queue bound (ignored with --url)",
    )
    p_load.add_argument(
        "--max-sweep-workers", type=int, default=2,
        help="spawned service: per-sweep process cap (ignored with --url)",
    )
    p_load.add_argument("--label", default="",
                        help="label for the recorded loadtest manifest")
    _add_ledger_flags(p_load)
    p_load.set_defaults(func=_cmd_loadtest)

    p_runs = sub.add_parser("runs", help="query the run ledger")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_runs_list = runs_sub.add_parser("list", help="list recorded runs")
    p_runs_list.add_argument("--kind", default=None)
    p_runs_list.add_argument("--scheme", default=None)
    p_runs_list.add_argument("--workload", default=None)
    p_runs_list.add_argument(
        "--limit", type=int, default=20, help="newest N runs (0 = all)"
    )
    p_runs_show = runs_sub.add_parser("show", help="print one run's manifest")
    p_runs_show.add_argument("run_id")
    p_runs_diff = runs_sub.add_parser(
        "diff", help="compare two runs' summary metrics and phase times"
    )
    p_runs_diff.add_argument("run_a")
    p_runs_diff.add_argument("run_b")
    p_runs_gc = runs_sub.add_parser(
        "gc", help="prune the ledger to the newest N runs"
    )
    p_runs_gc.add_argument("--keep", type=int, default=100)
    for sp in (p_runs_list, p_runs_show, p_runs_diff, p_runs_gc):
        sp.add_argument(
            "--runs-dir",
            default=None,
            metavar="DIR",
            help="ledger directory (default: $DEUCE_RUNS_DIR or .deuce-runs)",
        )
    p_runs.set_defaults(func=_cmd_runs)

    p_trace = sub.add_parser(
        "trace",
        help="export or summarize a correlated trace (from a traced "
        "sweep, run, or service job)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_export = trace_sub.add_parser(
        "export",
        help="merge trace lanes into one Chrome trace-event JSON "
        "(open in Perfetto / chrome://tracing)",
    )
    p_trace_export.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (default: trace.json)",
    )
    p_trace_report = trace_sub.add_parser(
        "report",
        help="print the critical path, top spans, and straggler lanes",
    )
    p_trace_report.add_argument(
        "--top", type=int, default=10,
        help="rows in the top-spans table (default: 10)",
    )
    for sp in (p_trace_export, p_trace_report):
        sp.add_argument(
            "trace",
            help="a lane file (.jsonl), a trace directory, or a service "
            "job id (resolved under <runs-dir>/traces/)",
        )
        sp.add_argument(
            "--runs-dir", default=None, metavar="DIR",
            help="ledger directory for job-id lookup "
            "(default: $DEUCE_RUNS_DIR or .deuce-runs)",
        )
    p_trace.set_defaults(func=_cmd_trace)

    p_gate = sub.add_parser(
        "gate",
        help="check the newest ledger runs against pinned baselines "
        "(exit 1 on regression, 2 on misconfiguration)",
    )
    p_gate.add_argument(
        "--baselines",
        default="baselines",
        metavar="DIR",
        help="directory holding flip_rates.json / perf.json",
    )
    p_gate.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="ledger directory (default: $DEUCE_RUNS_DIR or .deuce-runs)",
    )
    p_gate.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiply every baseline tolerance band by this factor",
    )
    p_gate.add_argument(
        "--run-id",
        action="append",
        default=[],
        metavar="RUN_ID",
        help="gate these specific runs instead of the latest per scheme "
        "(repeatable)",
    )
    p_gate.add_argument(
        "--pin",
        action="store_true",
        help="re-pin flip-rate baselines from the latest matching ledger "
        "runs instead of gating",
    )
    p_gate.set_defaults(func=_cmd_gate)

    p_dash = sub.add_parser(
        "dashboard", help="write a self-contained HTML dashboard"
    )
    p_dash.add_argument("--output", default="deuce_dashboard.html")
    p_dash.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="ledger directory (default: $DEUCE_RUNS_DIR or .deuce-runs)",
    )
    p_dash.add_argument(
        "--baselines",
        default="baselines",
        metavar="DIR",
        help="baselines directory for the gate status panel",
    )
    p_dash.add_argument(
        "--limit",
        type=int,
        default=200,
        help="newest N ledger runs to chart (0 = all)",
    )
    p_dash.set_defaults(func=_cmd_dashboard)

    p_report = sub.add_parser(
        "report", help="run all experiments into a Markdown report"
    )
    p_report.add_argument("--output", default="deuce_report.md")
    p_report.add_argument("--writes", type=int, default=3_000)
    p_report.set_defaults(func=_cmd_report)

    p_export = sub.add_parser(
        "export", help="export every experiment's rows as CSV"
    )
    p_export.add_argument("--output", default="deuce_csv")
    p_export.add_argument("--writes", type=int, default=3_000)
    p_export.set_defaults(func=_cmd_export)

    p_analyze = sub.add_parser(
        "analyze", help="characterize a trace and recommend a scheme"
    )
    p_analyze.add_argument(
        "--trace-file", help="a trace saved with Trace.save()"
    )
    p_analyze.add_argument("--workload", default="mcf")
    p_analyze.add_argument("--writes", type=int, default=3_000)
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_list = sub.add_parser("list", help="list workloads/schemes/experiments")
    p_list.set_defaults(func=_cmd_list)

    p_plugins = sub.add_parser(
        "plugins",
        help="list registered plugins (schemes, wear levelers, pad "
        "sources, workloads) and their config schemas",
    )
    p_plugins.add_argument(
        "plugins_verb",
        nargs="?",
        choices=("describe",),
        default=None,
        help="'describe <name>' prints one plugin's parameter schema",
    )
    p_plugins.add_argument(
        "name",
        nargs="?",
        default=None,
        help="plugin name to describe",
    )
    p_plugins.add_argument(
        "--json",
        action="store_true",
        help="machine-readable describe() output instead of tables",
    )
    p_plugins.set_defaults(func=_cmd_plugins)

    p_kv = sub.add_parser(
        "kv",
        help="record / verify on-disk KV request suites "
        "(reusable workload artifacts)",
    )
    kv_sub = p_kv.add_subparsers(dest="kv_command", required=True)
    p_kv_suites = kv_sub.add_parser(
        "suites", help="list the canned suite recipes"
    )
    p_kv_suites.set_defaults(func=_cmd_kv)
    p_kv_record = kv_sub.add_parser(
        "record",
        help="generate a KV request stream and save it (.jsonl or .npz)",
    )
    p_kv_record.add_argument(
        "--suite",
        default=None,
        metavar="NAME",
        help="record a canned recipe (see 'deuce-sim kv suites') instead "
        "of --profile/--writes",
    )
    p_kv_record.add_argument("--profile", default="kv-udb")
    p_kv_record.add_argument("--writes", type=int, default=5_000)
    p_kv_record.add_argument("--seed", type=int, default=0)
    p_kv_record.add_argument(
        "--workload-params",
        default=None,
        metavar="JSON",
        help="profile overrides as a JSON object (schema-validated)",
    )
    p_kv_record.add_argument("--out", required=True, metavar="PATH")
    p_kv_record.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also save the produced writeback trace (binary trace file)",
    )
    p_kv_record.set_defaults(func=_cmd_kv)
    p_kv_verify = kv_sub.add_parser(
        "verify",
        help="replay a saved suite and check it is bit-identical to a "
        "fresh recording (exit 1 on drift)",
    )
    p_kv_verify.add_argument("suite_file", metavar="SUITE_PATH")
    p_kv_verify.set_defaults(func=_cmd_kv)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
