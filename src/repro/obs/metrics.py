"""Lightweight zero-dependency metrics: counters, gauges, histograms, timers.

The simulation's hot loops run millions of iterations, so the registry is
built around two rules:

* **Null by default** — :data:`NULL_METRICS` hands out shared no-op
  instruments whose methods are empty; callers thread one ``metrics`` object
  through unconditionally and pay (almost) nothing when observability is off.
  The runner goes one step further and skips instrumentation entirely when
  every backend is null (see :mod:`repro.obs.instruments`).
* **Plain Python state** — a real :class:`Counter` is one attribute add, a
  :class:`Histogram` five scalar updates; no locks, no label cardinality, no
  export machinery in the hot path.  Snapshots are taken once at the end of a
  run and dumped as JSON lines.

Instruments are keyed by name plus an optional label set; asking the
registry for the same (name, labels) twice returns the same instrument, and
asking for a key under two different types is an error (it would silently
split the data otherwise).

The service layer additionally uses :class:`BucketHistogram` — fixed
upper-bound buckets with p50/p95/p99 quantile estimation — and renders the
whole registry in Prometheus text exposition format via
:mod:`repro.obs.promfmt`.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_left
from pathlib import Path
from typing import Iterator, Sequence


def _with_labels(snap: dict[str, object], labels: dict[str, str]) -> dict[str, object]:
    if labels:
        snap["labels"] = dict(labels)
    return snap


class Counter:
    """Monotonically increasing count (writes, flips, cache hits, ...)."""

    __slots__ = ("name", "value", "labels")

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.value = 0
        self.labels = dict(labels or {})

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict[str, object]:
        return _with_labels(
            {"type": self.kind, "name": self.name, "value": self.value},
            self.labels,
        )


class Gauge:
    """Last-write-wins scalar (working-set size, current epoch, ...)."""

    __slots__ = ("name", "value", "labels")

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.value = 0.0
        self.labels = dict(labels or {})

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict[str, object]:
        return _with_labels(
            {"type": self.kind, "name": self.name, "value": self.value},
            self.labels,
        )


class Histogram:
    """Streaming distribution summary: count, sum, min, max, mean.

    Deliberately keeps no per-observation storage — a run observes one value
    per write, and the consumers (per-phase timing regressions) need totals
    and extremes, not exact quantiles.
    """

    __slots__ = ("name", "count", "total", "min", "max", "labels")

    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.labels = dict(labels or {})

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, total: float, count: int) -> None:
        """Fold ``count`` observations summing to ``total`` in one call.

        Counts and sums stay exactly what ``count`` separate
        :meth:`observe` calls would record, while min/max are updated with
        the mean (per-observation extremes are not recoverable).  The write
        loop fills ``scheme.write_s``, ``wear.rotation_s`` and
        ``pcm.apply_s`` with one call each at the end of a run, so for
        those timers min and max are the run mean.
        """
        if count <= 0:
            return
        self.count += count
        self.total += total
        mean = total / count
        if mean < self.min:
            self.min = mean
        if mean > self.max:
            self.max = mean

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, object]:
        return _with_labels(
            {
                "type": self.kind,
                "name": self.name,
                "count": self.count,
                "sum": self.total,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "mean": self.mean,
            },
            self.labels,
        )


#: Default latency bucket upper bounds in seconds (Prometheus-style, spanning
#: sub-millisecond HTTP handlers up to multi-second simulation jobs).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class BucketHistogram:
    """Fixed-bucket histogram with streaming quantile estimation.

    Unlike :class:`Histogram` (which keeps only count/sum/min/max for the
    simulation hot loop), this instrument bins every observation into fixed
    upper-bound buckets, so the service layer can answer "what is the p99
    request latency" without storing raw samples.  An observation lands in
    the first bucket whose bound is ``>= value`` (``le`` semantics); values
    beyond the last bound land in an implicit ``+Inf`` overflow bucket.

    :meth:`quantile` interpolates linearly inside the bucket containing the
    requested rank (the Prometheus ``histogram_quantile`` estimator), so the
    estimate is always within one bucket width of the true quantile.

    Observations may carry an *exemplar* — a trace id linking the bucket
    to one concrete traced operation that landed in it (OpenMetrics-style).
    The last exemplar per bucket is kept, so a scrape of a slow bucket
    always points at a recent offending trace.  Exemplars appear in the
    JSON :meth:`snapshot` only; the Prometheus text 0.0.4 renderer
    ignores them (the format predates exemplar syntax).
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max",
                 "labels", "exemplars")

    kind = "bucket_histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: dict[str, str] | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("bucket_histogram needs at least one bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {bounds}"
            )
        if not math.isfinite(bounds[-1]):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing +Inf overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.labels = dict(labels or {})
        # bucket index -> (value, trace_id): the most recent exemplar.
        self.exemplars: dict[int, tuple[float, str]] = {}

    def observe(self, value: float, exemplar: str = "") -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect_left(self.buckets, value)
        self.counts[index] += 1
        if exemplar:
            self.exemplars[index] = (value, exemplar)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> list[int]:
        """Cumulative per-bucket counts (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) of the observations.

        Linear interpolation inside the bucket holding the target rank;
        the first bucket interpolates from a lower bound of 0 (latencies
        are non-negative), the overflow bucket reports the observed max.
        Empty histograms report 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if c and cum >= rank:
                if i == len(self.buckets):
                    return self.max  # overflow bucket: no upper bound
                lo = self.buckets[i - 1] if i else 0.0
                hi = self.buckets[i]
                frac = min(1.0, max(0.0, (rank - (cum - c)) / c))
                return lo + (hi - lo) * frac
        return self.max

    def percentiles(self) -> dict[str, float]:
        """The SLO staples: estimated p50, p95, and p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> dict[str, object]:
        snap: dict[str, object] = {
            "type": self.kind,
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": [
                [bound, cum]
                for bound, cum in zip(self.buckets, self.cumulative())
            ]
            + [["+Inf", self.count]],
        }
        if self.exemplars:
            bounds = list(self.buckets) + ["+Inf"]
            snap["exemplars"] = [
                {
                    "le": bounds[index],
                    "value": value,
                    "trace_id": trace_id,
                }
                for index, (value, trace_id) in sorted(self.exemplars.items())
            ]
        snap.update(self.percentiles())
        return _with_labels(snap, self.labels)


class Timer(Histogram):
    """A histogram of durations in seconds with a context-manager helper."""

    __slots__ = ()

    kind = "timer"

    class _Timing:
        __slots__ = ("_timer", "_t0")

        def __init__(self, timer: "Timer") -> None:
            self._timer = timer
            self._t0 = 0.0

        def __enter__(self) -> "Timer._Timing":
            self._t0 = time.perf_counter()
            return self

        def __exit__(self, *exc: object) -> None:
            self._timer.observe(time.perf_counter() - self._t0)

    def time(self) -> "Timer._Timing":
        """``with timer.time(): ...`` records the block's wall duration."""
        return Timer._Timing(self)


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument type."""

    __slots__ = ()

    name = ""
    kind = "null"
    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0
    labels: dict[str, str] = {}
    buckets: tuple[float, ...] = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, exemplar: str = "") -> None:
        pass

    def observe_many(self, total: float, count: int) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> dict[str, float]:
        return {}

    def cumulative(self) -> list[int]:
        return []

    class _NullTiming:
        __slots__ = ()

        def __enter__(self) -> "_NullInstrument._NullTiming":
            return self

        def __exit__(self, *exc: object) -> None:
            pass

    _TIMING = _NullTiming()

    def time(self) -> "_NullInstrument._NullTiming":
        return _NullInstrument._TIMING

    def snapshot(self) -> dict[str, object]:
        return {"type": self.kind, "name": self.name}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    >>> m = MetricsRegistry()
    >>> m.counter("writes").inc()
    >>> m.counter("writes").value
    1
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    @staticmethod
    def _key(name: str, labels: dict[str, str] | None) -> str:
        """Registry key: the name plus a canonical label rendering.

        Instruments with the same name but different labels are distinct
        time series (``http_requests{route="/jobs"}`` vs ``{route="/runs"}``)
        and live side by side in the registry.
        """
        if not labels:
            return name
        rendered = ",".join(
            f'{k}="{labels[k]}"' for k in sorted(labels)
        )
        return f"{name}{{{rendered}}}"

    def _get(self, name: str, cls: type,
             labels: dict[str, str] | None = None, **kwargs):
        key = self._key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels=labels, **kwargs)
            self._instruments[key] = instrument
            return instrument
        if type(instrument) is not cls:
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}"
            )
        return instrument

    def counter(self, name: str,
                labels: dict[str, str] | None = None) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(self, name: str,
              labels: dict[str, str] | None = None) -> Gauge:
        return self._get(name, Gauge, labels)

    def histogram(self, name: str,
                  labels: dict[str, str] | None = None) -> Histogram:
        return self._get(name, Histogram, labels)

    def bucket_histogram(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> BucketHistogram:
        """Get or create a fixed-bucket histogram.

        ``buckets`` applies only on first creation; later lookups under the
        same (name, labels) return the existing instrument unchanged.
        """
        return self._get(name, BucketHistogram, labels, buckets=buckets)

    def timer(self, name: str,
              labels: dict[str, str] | None = None) -> Timer:
        return self._get(name, Timer, labels)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[object]:
        return iter(self._instruments.values())

    def snapshot(self) -> list[dict[str, object]]:
        """One flat dict per instrument, in registration order."""
        return [m.snapshot() for m in self._instruments.values()]  # type: ignore[attr-defined]

    def dump_jsonl(self, path: str | Path) -> Path:
        """Write the snapshot as JSON lines (one instrument per line)."""
        path = Path(path)
        with open(path, "w") as fh:
            for snap in self.snapshot():
                fh.write(json.dumps(snap, separators=(",", ":")) + "\n")
        return path


class NullMetricsRegistry(MetricsRegistry):
    """Registry whose instruments do nothing; shared via :data:`NULL_METRICS`."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def _get(self, name: str, cls: type,
             labels: dict[str, str] | None = None, **kwargs):
        return _NULL_INSTRUMENT

    def snapshot(self) -> list[dict[str, object]]:
        return []


#: Process-wide null registry; safe to share (it holds no state).
NULL_METRICS = NullMetricsRegistry()
