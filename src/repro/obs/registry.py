"""Process-wide metrics registry: counters, gauges, log-bucket histograms.

The registry is the single sink every instrumented layer writes into —
PLDS rebalancing rounds, CPLDS marking and sandwiched-read retries, the
columnar-frontier store's vectorised kernels, union-find traffic, the coordinator's
queue, the supervisor's recovery machinery.  Design constraints, in order:

* **Disabled means one branch.**  Hot paths guard every instrumentation
  call with ``if REGISTRY.enabled:`` — a global load, an attribute load and
  a jump.  Nothing else (no allocation, no lock, no dict lookup) happens on
  the disabled path; ``benchmarks/bench_obs.py`` measures exactly this.
* **Thread-safe when enabled.**  Counters/gauges/histograms take a small
  per-metric lock, so concurrent readers and the update thread can both
  report without losing increments (see ``tests/test_obs.py``).
* **Zero dependencies.**  Pure stdlib; importable from anywhere in the
  tree without cycles (the harness, the core structures and the runtime
  all sit *above* this module).
* **Stable handles.**  :meth:`MetricsRegistry.reset` zeroes metrics *in
  place* instead of discarding them, so modules may cache metric handles
  at import time and tests may reset between cases without re-wiring.

Histograms use fixed log-scale buckets (:func:`log_buckets`): bucket ``i``
holds observations ``x`` with ``bounds[i-1] < x <= bounds[i]`` — upper
bounds are inclusive, matching Prometheus ``le`` semantics — plus a final
overflow bucket for ``x > bounds[-1]``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from typing import Iterator, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricKey",
    "log_buckets",
    "TIME_BUCKETS",
    "COUNT_BUCKETS",
]

#: A metric's identity: name plus sorted ``(label, value)`` pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def log_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` geometric upper bounds: ``start * factor**i``.

    >>> log_buckets(1.0, 2.0, 4)
    (1.0, 2.0, 4.0, 8.0)
    """
    if start <= 0:
        raise ValueError("start must be positive")
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(start * factor**i for i in range(count))


#: Default duration buckets: 1µs .. ~8.4s, doubling (24 bounds + overflow).
TIME_BUCKETS = log_buckets(1e-6, 2.0, 24)

#: Default magnitude buckets for discrete work (retries, rounds, moves).
COUNT_BUCKETS = log_buckets(1.0, 2.0, 16)


def _key(name: str, labels: Mapping[str, str] | None) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class Counter:
    """A monotonically increasing count (float deltas allowed)."""

    __slots__ = ("key", "_value", "_lock")

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self._value: int | float = 0
        self._lock = threading.Lock()

    def inc(self, delta: int | float = 1) -> None:
        """Add ``delta`` (must be >= 0) to the counter."""
        if delta < 0:
            raise ValueError(f"counter {self.key[0]!r} cannot decrease")
        with self._lock:
            self._value += delta

    @property
    def value(self) -> int | float:
        return self._value

    def _zero(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time value (queue depth, health, capacity)."""

    __slots__ = ("key", "_value", "_lock")

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self._value: int | float = 0.0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: int | float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> int | float:
        return self._value

    def _zero(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket histogram with inclusive (``le``) upper bounds.

    ``counts`` has ``len(bounds) + 1`` entries; the last is the overflow
    bucket for observations above every bound.
    """

    __slots__ = ("key", "bounds", "counts", "_sum", "_count", "_lock")

    def __init__(
        self, key: MetricKey, bounds: Sequence[float] = TIME_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.key = key
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, x: int | float) -> None:
        """Record one observation (``x == bound`` lands in that bucket)."""
        idx = bisect_left(self.bounds, x)
        with self._lock:
            self.counts[idx] += 1
            self._sum += x
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds, self.counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def _zero(self) -> None:
        with self._lock:
            for i in range(len(self.counts)):
                self.counts[i] = 0
            self._sum = 0.0
            self._count = 0


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms.

    One process-wide instance (``repro.obs.REGISTRY``) backs all built-in
    instrumentation; tests may build private instances.  The ``enabled``
    flag is what hot paths branch on — the registry itself always works
    (cold-path layers like the service telemetry report unconditionally).
    """

    def __init__(self, enabled: bool = False, max_spans: int = 256) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}
        #: Finished *root* spans, oldest first (bounded; see repro.obs.trace).
        self.spans: deque = deque(maxlen=max_spans)
        self._tls = threading.local()

    # -- switches --------------------------------------------------------
    def enable(self) -> None:
        """Turn hot-path instrumentation on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn hot-path instrumentation off (one-branch cost remains)."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric **in place** and drop recorded spans.

        Cached metric handles stay valid — this is what lets hot modules
        look their counters up once at import time.
        """
        with self._lock:
            for c in self._counters.values():
                c._zero()
            for g in self._gauges.values():
                g._zero()
            for h in self._histograms.values():
                h._zero()
            self.spans.clear()

    # -- metric accessors (get-or-create) --------------------------------
    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        key = _key(name, labels)
        try:
            return self._counters[key]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(key, Counter(key))

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        key = _key(name, labels)
        try:
            return self._gauges[key]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(key, Gauge(key))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = TIME_BUCKETS,
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        key = _key(name, labels)
        try:
            return self._histograms[key]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(key, Histogram(key, buckets))

    # -- one-shot conveniences -------------------------------------------
    def inc(
        self,
        name: str,
        delta: int | float = 1,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self.counter(name, labels).inc(delta)

    def set_gauge(
        self,
        name: str,
        value: int | float,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self.gauge(name, labels).set(value)

    def observe(
        self,
        name: str,
        value: int | float,
        buckets: Sequence[float] = TIME_BUCKETS,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self.histogram(name, buckets, labels).observe(value)

    # -- introspection ----------------------------------------------------
    def counters(self) -> Iterator[Counter]:
        return iter(sorted(self._counters.values(), key=lambda m: m.key))

    def gauges(self) -> Iterator[Gauge]:
        return iter(sorted(self._gauges.values(), key=lambda m: m.key))

    def histograms(self) -> Iterator[Histogram]:
        return iter(sorted(self._histograms.values(), key=lambda m: m.key))

    def counter_value(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> int | float:
        """Current value of a counter (0 if it was never touched)."""
        metric = self._counters.get(_key(name, labels))
        return metric.value if metric is not None else 0

    def snapshot(self) -> dict:
        """Plain-data view of every metric (JSON-ready).

        Keys are the metric name, or ``name{k=v,...}`` for labelled
        metrics; histogram entries carry bounds, per-bucket counts, sum
        and count.
        """
        def fmt(key: MetricKey) -> str:
            name, labels = key
            if not labels:
                return name
            inner = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{inner}}}"

        return {
            "counters": {fmt(c.key): c.value for c in self.counters()},
            "gauges": {fmt(g.key): g.value for g in self.gauges()},
            "histograms": {
                fmt(h.key): {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for h in self.histograms()
            },
        }

    # -- span support (used by repro.obs.trace) ---------------------------
    def _span_stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current_span(self):
        """The innermost live span on this thread, or the null span."""
        from repro.obs.trace import NULL_SPAN

        stack = self._span_stack()
        return stack[-1] if stack else NULL_SPAN

    def span(self, name: str, **attrs):
        """Open a span (``with registry.span("insert_batch") as sp:``).

        Returns the shared no-op span when the registry is disabled, so
        call sites need no guard of their own on cold paths.
        """
        from repro.obs.trace import NULL_SPAN, Span

        if not self.enabled:
            return NULL_SPAN
        return Span(name, registry=self, attrs=attrs)
