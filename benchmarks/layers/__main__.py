"""Command line: ``python -m benchmarks.layers {run,compare}``.

Run from the repository root.  The package puts the checkout's ``src``
first on ``sys.path`` itself, so no ``PYTHONPATH`` is needed, and it
refuses to run when that ``src`` holds no ``repro`` package.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _parser() -> argparse.ArgumentParser:
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.layers")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument(
        "--workload", nargs="+", choices=WORKLOADS, default=None,
        help="workloads to run, one after another (default: all four)",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seconds", type=float, default=15.0,
        help="measured time per workload (a traced run splits it between "
        "its untraced and traced pass)",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report per-layer metrics from a traced pass",
    )
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument(
        "--out", default=None, metavar="PATH",
        help="append the result records to this results file",
    )
    run.add_argument(
        "--label", default="run",
        help="label stored with each record in --out (selects a run set "
        "in 'compare FILE#LABEL')",
    )
    run.add_argument(
        "--pin", action="store_true",
        help="record every op's fingerprint in fingerprints.json instead "
        "of checking against it",
    )

    compare = sub.add_parser(
        "compare", help="compare a parent's run set with a change's"
    )
    compare.add_argument("parent", help="results file, or FILE#LABEL")
    compare.add_argument("change", nargs="+", help="results file, or FILE#LABEL")

    child = sub.add_parser("child", help=argparse.SUPPRESS)
    child.add_argument("--workload", choices=WORKLOADS, required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--scale", choices=("full", "smoke"), required=True)
    child.add_argument(
        "--role", choices=("setup", "measure", "untraced", "traced"),
        required=True,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = _parser().parse_args(argv)
    if args.command == "run":
        from . import harness

        return harness.main(args)
    if args.command == "compare":
        from . import compare

        return compare.main(args.parent, args.change)
    # A workload subprocess: SIGTERM from the harness unwinds through the
    # ``finally`` blocks that stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from .workloads import run_pass

    report = run_pass(
        args.workload, args.seed, args.seconds, args.scale, args.role
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
