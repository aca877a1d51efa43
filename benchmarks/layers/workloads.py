"""The four workloads, as run inside one workload subprocess.

Every workload is a closed loop: an op starts only after the previous one
(or, for ``service-v1``, the same client's previous one) finished.  Ops
are grouped into cycles of op classes; the measured loop runs whole
cycles until ``seconds`` have passed, so every class gets samples.

* ``cold-mcf`` - one class.  Op ``i`` is ``run(SimConfig("mcf", "deuce",
  seed=S+i))``: the seed differs per op, so every op synthesizes its own
  trace, as a fresh ``deuce-sim run`` does.
* ``fig10-gems`` - ten classes, one per registered scheme, all run on one
  Gems trace generated in set-up (the paper's Fig 10 suite).
* ``kv-udb-hwl`` - three classes (``deuce``, ``encr-dcw``, ``noencr-dcw``)
  on one kv-udb trace generated in set-up, with Start-Gap horizontal wear
  leveling, which cuts chunks to at most ``gap_write_interval`` writes.
* ``service-v1`` - six classes, {mcf, kv-udb} x {deuce, encr-fnw,
  dyndeuce}, submitted as ``/v1`` run jobs to a ``deuce-sim serve``
  subprocess with one job worker by one client, which polls its job
  every 10 ms.

Every op is bracketed by :mod:`.hostspeed` reference slices, so each op
has a wall time and a host-speed-normalized time.  A pass returns a
JSON-safe dict; the harness turns it into metrics.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from .hostspeed import Bracket, cpu_clock, slice_s
from .oracle import config_key, observe

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "layers"

WORKLOADS = ("cold-mcf", "fig10-gems", "kv-udb-hwl", "service-v1")

#: Writes per op at each scale.  ``fig10-gems`` uses 5k writes so that a
#: ten-scheme round (about 2.5 s on a 2-core host) fits several times in
#: one run; the other three use the sizes their users run.
N_WRITES = {
    "full": {
        "cold-mcf": 20_000,
        "fig10-gems": 5_000,
        "kv-udb-hwl": 20_000,
        "service-v1": 2_000,
    },
    "smoke": {
        "cold-mcf": 2_000,
        "fig10-gems": 500,
        "kv-udb-hwl": 2_000,
        "service-v1": 500,
    },
}

KV_SCHEMES = ("deuce", "encr-dcw", "noencr-dcw")
SERVICE_CONFIGS = tuple(
    (workload, scheme)
    for workload in ("mcf", "kv-udb")
    for scheme in ("deuce", "encr-fnw", "dyndeuce")
)
#: Seconds between status polls of one job.
POLL_S = 0.01
TERMINAL = ("done", "failed", "cancelled")
#: Op span name for in-process ``Session.run`` ops; its self time is the
#: API and ledger work around the simulation.
SESSION_SPAN = "api.session"
#: Scheme label under which set-up spans are totalled.
SETUP = "(setup)"


#: Service-side metrics read from the ``/v1/metrics`` JSON: each is the
#: p50 estimate of one labelled histogram.
SERVICE_METRICS = {
    "service.submit_s_p50": (
        "deuce_http_request_duration_seconds",
        {"method": "POST", "route": "/jobs"},
    ),
    "service.queue_wait_s_p50": (
        "deuce_job_queue_wait_seconds", {"kind": "run"},
    ),
    "service.exec_s_p50": ("deuce_job_exec_seconds", {"kind": "run"}),
}


def child_env() -> dict[str, str]:
    """The environment for a child Python: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Ops:
    """Samples, fingerprints and counters of one measured loop.

    In a traced pass, ``samples`` and the counters cover the traced ops;
    ``base_samples`` holds the untraced ops run alongside them.
    ``norm_samples`` holds the normalized times of the ``samples`` ops and
    ``ref_slices`` every reference slice time.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.norm_samples: dict[str, list[float]] = defaultdict(list)
        self.base_samples: dict[str, list[float]] = defaultdict(list)
        self.ref_slices: list[float] = []
        self.ops: list[list[str]] = []
        self.writes = 0
        self.pad_hits = 0
        self.pad_misses = 0
        #: Traced ops only: [loop wall seconds, sum of span self seconds].
        self.accounted: list[list[float]] = []
        #: Peak RSS once the first cycle's ops have finished, and at the
        #: end of the loop.  The first is the same amount of work on every
        #: commit; the second shows memory that grows with the op count.
        self.rss_mb = 0.0
        self.rss_end_mb = 0.0

    def done(
        self,
        cls: str,
        seconds: float,
        norm_s: float,
        result: dict,
        base: bool = False,
    ) -> None:
        self.ops.append(list(observe(result)))
        if base:
            self.base_samples[cls].append(seconds)
            return
        self.samples[cls].append(seconds)
        self.norm_samples[cls].append(norm_s)
        self.writes += result["n_writes"]
        self.pad_hits += result["pad_hits"]
        self.pad_misses += result["pad_misses"]

    def failed(self, key: str, error: str) -> None:
        self.ops.append([key, "", error])

    def to_dict(self) -> dict:
        return {
            "samples": dict(self.samples),
            "norm_samples": dict(self.norm_samples),
            "base_samples": dict(self.base_samples),
            "ref_slices": self.ref_slices,
            "ops": self.ops,
            "writes": self.writes,
            "pad_hits": self.pad_hits,
            "pad_misses": self.pad_misses,
            "accounted": self.accounted,
            "rss_mb": self.rss_mb,
            "rss_end_mb": self.rss_end_mb,
        }


def _timed_loop(cycle, run_op, seconds: float, tracer) -> tuple[_Ops, float]:
    """Run whole cycles until ``seconds`` passed; ``(ops, elapsed)``.

    ``cycle(i)`` lists ``(class, scheme, config)`` for cycle ``i``;
    ``run_op(config)`` returns a ``RunResult``.  With a tracer, op ``j`` of
    cycle ``i`` runs traced, inside a span named ``run_op.span``, when
    ``i + j`` is even, and untraced otherwise: each class alternates, so
    traced and untraced ops of one class run side by side in one process
    and their times give the tracing overhead.
    """
    ops = _Ops()
    t_start = time.perf_counter()
    bracket = Bracket()
    ops.ref_slices = bracket.slices
    i = op_id = 0
    while True:
        for j, (cls, scheme, config) in enumerate(cycle(i)):
            traced = tracer is not None and (i + j) % 2 == 0
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            result = None
            try:
                if traced:
                    with tracer, tracer.op(op_id, scheme, run_op.span):
                        result = run_op(config)
                else:
                    result = run_op(config)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                ops.failed(
                    config_key(config.to_dict()),
                    f"{type(exc).__name__}: {exc}",
                )
            wall = time.perf_counter() - t0
            norm_s = bracket.normalize(wall, time.process_time() - cpu0)
            op_id += 1
            if traced:
                ops.accounted.append([wall, tracer.last_op_self_s])
            if result is not None:
                base = tracer is not None and not traced
                ops.done(cls, wall, norm_s, result.to_dict(), base)
        i += 1
        if i == 1:
            ops.rss_mb = maxrss_mb()
        if time.perf_counter() - t_start >= seconds:
            ops.rss_end_mb = maxrss_mb()
            return ops, time.perf_counter() - t_start


def _generate(workloads: list[str], n_writes: int, seed: int, tracer):
    """Traces for set-up; traced as set-up spans when a tracer is given."""
    from repro.workloads.trace import generate_trace

    if tracer is None:
        return [generate_trace(w, n_writes, seed=seed) for w in workloads]
    gen = tracer.wrap(generate_trace, "workloads.trace_gen")
    with tracer.op(-1, SETUP, "bench.setup"):
        return [gen(w, n_writes, seed=seed) for w in workloads]


# -- in-process simulation workloads -------------------------------------------


class SimWorkload:
    """``cold-mcf``, ``fig10-gems`` and ``kv-udb-hwl``: direct ``run`` calls."""

    def __init__(self, name: str, seed: int, n_writes: int) -> None:
        self.name = name
        self.seed = seed
        self.n_writes = n_writes
        self.trace = None

    def setup(self, tracer=None) -> None:
        """Imports, configs, and the shared trace where the workload has one."""
        from repro import registry
        from repro.sim import runner
        from repro.sim.config import SimConfig

        self._runner = runner
        self._config = SimConfig
        if self.name == "fig10-gems":
            self.trace_workload, self.schemes = "Gems", registry.SCHEMES.names
        elif self.name == "kv-udb-hwl":
            self.trace_workload, self.schemes = "kv-udb", KV_SCHEMES
        else:
            self.trace_workload, self.schemes = None, ("deuce",)
        if self.trace_workload is not None:
            (self.trace,) = _generate(
                [self.trace_workload], self.n_writes, self.seed, tracer
            )

    def cycle(self, i: int) -> list:
        if self.name == "cold-mcf":
            config = self._config(
                "mcf", "deuce", n_writes=self.n_writes, seed=self.seed + i
            )
            return [("mcf/deuce", "deuce", config)]
        leveling = "hwl" if self.name == "kv-udb-hwl" else "none"
        return [
            (
                scheme,
                scheme,
                self._config(
                    self.trace_workload,
                    scheme,
                    n_writes=self.n_writes,
                    seed=self.seed,
                    wear_leveling=leveling,
                ),
            )
            for scheme in self.schemes
        ]

    def measure(self, seconds: float, tracer=None) -> dict:
        def run_op(config):
            # Looked up per call so the traced pass sees the wrapped ``run``.
            return self._runner.run(config, trace=self.trace)

        run_op.span = "bench.op"
        ops, elapsed = _timed_loop(self.cycle, run_op, seconds, tracer)
        return {**ops.to_dict(), "elapsed_s": elapsed}

    def cpu_s(self) -> float:
        """CPU seconds this process has used so far."""
        return time.process_time()

    def close(self) -> None:
        pass


# -- the job service -------------------------------------------------------------


def _request(conn, method: str, path: str, body=None) -> tuple[int, object]:
    data = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    return response.status, json.loads(raw) if raw else None


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class ServiceWorkload:
    """``service-v1``: ``/v1`` run jobs against a ``deuce-sim serve`` child."""

    def __init__(self, name: str, seed: int, n_writes: int) -> None:
        self.name = name
        self.seed = seed
        self.n_writes = n_writes
        self.configs = [
            {
                "workload": workload,
                "scheme": scheme,
                "n_writes": n_writes,
                "seed": seed,
            }
            for workload, scheme in SERVICE_CONFIGS
        ]
        self.tmp = WORK_DIR / f"service-{os.getpid()}"
        self.proc = None
        self.port = 0

    def setup(self) -> None:
        """Start the server and wait until ``/v1/healthz`` answers."""
        runs_dir = self.tmp / "server-runs"
        runs_dir.mkdir(parents=True, exist_ok=True)
        self.log = open(self.tmp / "server.log", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--runs-dir", str(runs_dir),
                "--job-workers", "1",
                "--max-sweep-workers", "1",
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on http://")[1].split()[0]
                        .rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            while True:
                try:
                    status, _ = _request(conn, "GET", "/v1/healthz")
                except ConnectionError:
                    conn.close()
                    status = 0
                if status == 200:
                    return
                time.sleep(0.01)
        finally:
            conn.close()

    def _client(self, ops: _Ops, deadline: float) -> float:
        """Jobs one after another until ``deadline``; when the last ended."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        n = len(self.configs)
        bracket = Bracket()
        ops.ref_slices = bracket.slices
        last = time.perf_counter()
        idx = 0
        try:
            while idx < n or time.perf_counter() < deadline:
                config = self.configs[idx % n]
                idx += 1
                cls = f"{config['workload']}/{config['scheme']}"
                key = config_key(config)
                cpu0 = self.cpu_s()
                t0 = time.perf_counter()
                status, body = _request(
                    conn, "POST", "/v1/jobs", {"kind": "run", "config": config}
                )
                if status != 201:
                    ops.failed(key, f"POST /v1/jobs answered {status}: {body}")
                    continue
                path = f"/v1/jobs/{body['job_id']}"
                while True:
                    status, snap = _request(conn, "GET", path)
                    if status != 200 or snap["state"] in TERMINAL:
                        break
                    time.sleep(POLL_S)
                seconds = time.perf_counter() - t0
                last = time.perf_counter()
                norm_s = bracket.normalize(seconds, self.cpu_s() - cpu0)
                if status != 200 or snap["state"] != "done":
                    ops.failed(key, f"job ended {status} {snap}")
                    continue
                status, body = _request(conn, "GET", path + "/result")
                if status != 200:
                    ops.failed(key, f"GET result answered {status}")
                    continue
                ops.done(cls, seconds, norm_s, body["result"]["results"][0])
                if idx == n:
                    ops.rss_mb = self._server_hwm_mb()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            ops.failed("client", f"{type(exc).__name__}: {exc}")
        finally:
            conn.close()
        return last

    def cpu_s(self) -> float:
        """CPU seconds the server and this process have used so far."""
        server = time.clock_gettime(cpu_clock(self.proc.pid)) if self.proc else 0.0
        return server + time.process_time()

    def _server_hwm_mb(self) -> float:
        """The server's peak RSS so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            hwm_kb = next(
                int(line.split()[1])
                for line in status
                if line.startswith("VmHWM:")
            )
        return hwm_kb / 1024.0

    def _scrape(self) -> dict:
        """Service-side p50s from ``/v1/metrics``, ledger sizes per job."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            _, body = _request(conn, "GET", "/v1/metrics")
        finally:
            conn.close()
        out = {}
        for metric, (name, labels) in SERVICE_METRICS.items():
            out[metric] = next(
                (
                    snap["p50"]
                    for snap in body["metrics"]
                    if snap["name"] == name and snap.get("labels") == labels
                ),
                0.0,
            )
        runs_dir = self.tmp / "server-runs"
        trace_bytes = _dir_bytes(runs_dir / "traces")
        out["trace_bytes"] = trace_bytes
        out["ledger_bytes"] = _dir_bytes(runs_dir) - trace_bytes
        return out

    def measure(self, seconds: float) -> dict:
        """Jobs for ``seconds`` (at least one of each config), then stop
        the server."""
        ops = _Ops()
        t_start = time.perf_counter()
        last = self._client(ops, t_start + seconds)
        ops.rss_end_mb = self._server_hwm_mb()
        service = self._scrape()
        self._stop_server()
        return {**ops.to_dict(), "elapsed_s": last - t_start, "service": service}

    def session_pass(self, seconds: float, tracer=None) -> dict:
        """The same configs through an in-process ``Session`` with a ledger."""
        from repro.api import Session
        from repro.sim.config import SimConfig

        session = Session(runs_dir=str(self.tmp / "session-runs"))
        configs = [SimConfig.from_dict(c) for c in self.configs]
        # The server's trace cache holds both traces after its first jobs;
        # pre-generating them here keeps synthesis out of the Session ops.
        names = sorted({c.workload for c in configs})
        traces = dict(
            zip(names, _generate(names, self.n_writes, self.seed, tracer))
        )

        def cycle(i):
            return [(f"{c.workload}/{c.scheme}", c.scheme, c) for c in configs]

        def run_op(config):
            return session.run(config, trace=traces[config.workload])

        run_op.span = SESSION_SPAN
        ops, elapsed = _timed_loop(cycle, run_op, seconds, tracer)
        return {**ops.to_dict(), "elapsed_s": elapsed}

    def _stop_server(self) -> None:
        """SIGTERM drains the server; wait until it has exited."""
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None
        self.log.close()

    def close(self) -> None:
        self._stop_server()
        shutil.rmtree(self.tmp, ignore_errors=True)


def make(name: str, seed: int, scale: str):
    n_writes = N_WRITES[scale][name]
    if name == "service-v1":
        return ServiceWorkload(name, seed, n_writes)
    return SimWorkload(name, seed, n_writes)


def _layers(tracer, spans_path: Path) -> dict:
    """The tracer's totals, JSON-safe, plus the span dump's location."""
    tracer.write_chrome_trace(spans_path)
    return {
        "self_s": {k: dict(v) for k, v in tracer.self_s.items()},
        "calls": {k: dict(v) for k, v in tracer.calls.items()},
        "spans_kept": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def _ready(workload, out: dict) -> None:
    """Stamp the end of set-up: the clock, the CPU seconds spent in this
    process and its server, and a reference slice just after it."""
    out["ready"] = time.monotonic()
    out["setup_cpu_s"] = workload.cpu_s()
    out["ready_slice_s"] = slice_s()


def run_pass(name: str, seed: int, seconds: float, scale: str, role: str):
    """One workload subprocess's work; returns its JSON-safe report.

    ``role`` is ``setup`` (set up, then stop), ``measure`` (the untraced
    end-to-end pass), ``untraced`` (the untraced half of a traced run) or
    ``traced`` (the same loop, every other op under
    :class:`~.spans.LayerTracer`).  For ``service-v1``, ``measure`` runs
    jobs for ``seconds`` and then one in-process ``Session`` cycle as the
    physics reference; ``untraced`` splits ``seconds`` between the two;
    ``traced`` starts no server and traces ``Session`` ops for
    ``seconds``.
    """
    workload = make(name, seed, scale)
    service = name == "service-v1"
    out: dict = {}
    try:
        if role == "traced":
            from repro import registry

            from .spans import LayerTracer

            out["schemes"] = list(registry.SCHEMES.names)
            tracer = LayerTracer()
            if not service:
                workload.setup(tracer)
            _ready(workload, out)
            measure = workload.session_pass if service else workload.measure
            out.update(measure(seconds, tracer))
            out["layers"] = _layers(
                tracer, WORK_DIR / f"spans-{name}-s{seed}.json"
            )
            return out
        workload.setup()
        _ready(workload, out)
        if role == "setup":
            return out
        if service and role == "untraced":
            out.update(workload.measure(seconds / 2))
            out["session"] = workload.session_pass(seconds / 2)
        else:
            out.update(workload.measure(seconds))
            if service:
                out["session"] = workload.session_pass(0.0)
        return out
    finally:
        workload.close()
