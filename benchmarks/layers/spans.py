"""Outside-in layer tracing: timed wrappers around repro's entry points.

:class:`LayerTracer` replaces a fixed set of public functions and methods
with wrappers that time each call, and puts the originals back on exit.
Nothing inside ``repro`` is edited and ``Instruments`` stays off, so a
traced run executes the same write loop as an untraced one; the only
added work is the wrapper around each call.

When a wrapped call returns, its self time (its duration minus the time
its wrapped callees took) is added to its span name.
The benchmark opens one span around every operation it times, so the
self times of one op sum to that op's wall time.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Spans of one op are kept or dropped together, so a kept span's parent
#: is always kept too.  Past this many spans, later ops are still totalled
#: but left out of the span dump.
KEEP_SPANS = 50_000

#: (module, class or None, attribute, span name) for every patched entry
#: point.  ``repro.sim.runner.generate_trace`` is the name ``cached_trace``
#: resolves, and ``repro.sim.runner.run`` is what ``Session.run`` imports at
#: call time, so the direct and the API path are both covered.
PATCHES = (
    ("repro.sim.runner", None, "generate_trace", "workloads.trace_gen"),
    ("repro.sim.runner", None, "run", "sim.run"),
    ("repro.crypto.pads", "CachingPadSource", "line_pad_array", "crypto.pad"),
    ("repro.crypto.pads", "CachingPadSource", "line_pads_batch", "crypto.pad"),
    ("repro.crypto.pads", "CachingPadSource", "pad_block", "crypto.pad"),
    ("repro.memory.pcm", "PcmArray", "apply_write", "memory.pcm_apply"),
    ("repro.memory.pcm", "PcmArray", "apply_batch", "memory.pcm_apply"),
    ("repro.memory.pcm", "PcmArray", "apply_batch_diffs", "memory.pcm_apply"),
    ("repro.wear.hwl", "HorizontalWearLeveler", "rotation", "wear.rotation"),
    ("repro.wear.startgap", "StartGap", "advance", "wear.rotation"),
    ("repro.wear.startgap", "StartGap", "on_write", "wear.rotation"),
)

#: Spans whose functions call nothing that is wrapped.
LEAVES = frozenset(
    {"workloads.trace_gen", "crypto.pad", "memory.pcm_apply", "wear.rotation"}
)

#: Scheme methods wrapped on every instance ``build_scheme`` returns.
SCHEME_METHODS = (
    ("install", "schemes.install"),
    ("install_batch", "schemes.install"),
    ("write", "schemes.write"),
    ("write_batch", "schemes.write"),
)


#: Wrapper bodies, compiled per wrapped function with its own parameters.
#: A leaf charges its duration to ``charged``; a span measures its child
#: time as what ``charged`` gained while it ran, then replaces that gain
#: with its own duration, so nothing is counted twice.
_LEAF = """\
def wrapper({params}):
    t0 = _perf()
    result = _fn({args})
    t1 = _perf()
    d = t1 - t0
    _charged[0] += d
    _cell[0] += d
    _cell[1] += 1
    if _op[0]:
        _spans.append((next(_ids), _name, t0, t1, _parents[-1], _op[1]))
    return result
"""
_SPAN = """\
def wrapper({params}):
    before = _charged[0]
    keep = _op[0]
    if keep:
        sid = next(_ids)
        _parents.append(sid)
    t0 = _perf()
    try:
        return _fn({args})
    finally:
        t1 = _perf()
        d = t1 - t0
        _cell[0] += d - (_charged[0] - before)
        _cell[1] += 1
        _charged[0] = before + d
        if keep:
            _parents.pop()
            _spans.append((sid, _name, t0, t1, _parents[-1], _op[1]))
"""


def _exact(target, template: str, **scope):
    """Compile a wrapper ``template`` with ``target``'s own parameters.

    A wrapper whose signature matches the wrapped function keeps CPython's
    fast path for calls with exact positional arguments, which a
    ``*args, **kwargs`` wrapper loses.  On ``fig10-gems``, where every
    write crosses three wrappers, plain ``*args, **kwargs`` closures put
    ``bench.tracing_overhead`` over its 10% limit (README, "Per-layer
    metrics", has the measurements).
    """
    params, args = [], []
    star = False
    for i, p in enumerate(inspect.signature(target).parameters.values()):
        if p.name in scope:
            raise ValueError(f"cannot wrap {target!r}: parameter {p.name!r}")
        default = ""
        if p.default is not p.empty:
            scope[f"_d{i}"] = p.default
            default = f"=_d{i}"
        if p.kind is p.VAR_POSITIONAL:
            star = True
            params.append(f"*{p.name}")
            args.append(f"*{p.name}")
        elif p.kind is p.VAR_KEYWORD:
            params.append(f"**{p.name}")
            args.append(f"**{p.name}")
        elif p.kind is p.KEYWORD_ONLY:
            if not star:
                star = True
                params.append("*")
            params.append(p.name + default)
            args.append(f"{p.name}={p.name}")
        else:
            params.append(p.name + default)
            args.append(p.name)
    exec(
        template.format(params=", ".join(params), args=", ".join(args)),
        scope,
    )
    return scope["wrapper"]


class LayerTracer:
    """Self-time and call totals per (span name, scheme), plus kept spans.

    Use as a context manager, as often as needed: entering patches the
    entry points in :data:`PATCHES` and ``repro.sim.runner.build_scheme``,
    leaving restores every original.  ``self_s[name][scheme]`` and
    ``calls[name][scheme]`` total every op run under :meth:`op` with that
    scheme label.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.calls: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        #: Kept spans: (id, name, start, end, parent id, op id).
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        #: Sum of the spans' self seconds of the last op.
        self.last_op_self_s = 0.0
        # Per-op [self seconds, calls] per span name, folded into the
        # totals and zeroed when the op ends.
        self._cells: dict[str, list] = {}
        # Seconds charged to every finished span not yet inside a finished
        # parent.  A span's child time is what this gains while it runs;
        # on exit the span replaces that gain with its own duration.
        self._charged = [0.0]
        # Ids of the open spans of a kept op; -1 is "no parent".
        self._parents = [-1]
        self._ids = itertools.count()
        # [keep this op's spans?, op id], shared with every wrapper.
        self._op = [False, -1]
        # Wrappers are built once; entering and leaving only swap them in
        # and out, so tracing every other op rebuilds nothing per op.
        self._table = self._replacements()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call.

        A leaf span (:data:`LEAVES`) calls nothing that is wrapped, so its
        self time is its duration and it opens no frame.  Wrappers add a
        fixed cost per call, which is what ``bench.tracing_overhead``
        measures.
        """
        return _exact(
            fn,
            _LEAF if name in LEAVES else _SPAN,
            _perf=time.perf_counter,
            _fn=fn,
            _name=name,
            _charged=self._charged,
            _cell=self._cells.setdefault(name, [0.0, 0]),
            _spans=self.spans,
            _ids=self._ids,
            _parents=self._parents,
            _op=self._op,
        )

    def _replacements(self) -> list[tuple[object, str, object, object]]:
        """``(owner, attribute, original, wrapper)`` per entry point."""
        table = []
        for module_name, class_name, attr, name in PATCHES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            table.append((owner, attr, original, self.wrap(original, name)))

        from repro.sim import runner

        build = runner.build_scheme

        def build_scheme(config):
            scheme = build(config)
            for attr, name in SCHEME_METHODS:
                setattr(scheme, attr, self.wrap(getattr(scheme, attr), name))
            return scheme

        table.append((runner, "build_scheme", build, build_scheme))
        return table

    def __enter__(self) -> "LayerTracer":
        for owner, attr, _, wrapper in self._table:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original, _ in self._table:
            setattr(owner, attr, original)

    # -- ops ------------------------------------------------------------------

    @contextmanager
    def op(self, op_id: int, scheme: str, name: str = "bench.op"):
        """One timed operation, whose spans' totals go under ``scheme``.

        ``name`` is the op span's own name.  Its self time is whatever the
        op does outside every wrapped layer: the API and ledger for a
        ``Session.run`` op, next to nothing for a direct ``run`` call.
        """
        keep = len(self.spans) < KEEP_SPANS
        self._op[:] = [keep, op_id]
        sid = next(self._ids)
        self._parents.append(sid)
        before = self._charged[0]
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._parents.pop()
            cell = self._cells.setdefault(name, [0.0, 0])
            cell[0] += t1 - t0 - (self._charged[0] - before)
            cell[1] += 1
            self._charged[0] = before + t1 - t0
            if keep:
                self.spans.append((sid, name, t0, t1, -1, op_id))
            self.last_op_self_s = 0.0
            for span, (seconds, n) in self._cells.items():
                if n:
                    self.self_s[span][scheme] += seconds
                    self.calls[span][scheme] += n
                    self.last_op_self_s += seconds
                    self._cells[span][:] = [0.0, 0]

    # -- output ---------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> Path:
        """Kept spans as Chrome trace-event JSON (loads in Perfetto)."""
        t_base = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - t_base) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": sid, "parent": parent, "op": op},
            }
            for sid, name, start, end, parent, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return path
