"""Process-local metrics: counters, gauges, and latency histograms.

The 3DESS pipeline spans three tiers (interface, server, database) and
its cost is dominated by a handful of hot sections — normalization,
voxelization, thinning, the feature scan.  This module gives every tier a
shared, dependency-free place to record where time goes:

* :class:`Counter` — monotonically increasing event counts (cache hits,
  candidates examined).
* :class:`Gauge` — last-written values (cache size).
* :class:`Histogram` — latency distributions with a bounded reservoir,
  exposing count/total/mean/min/max and p50/p90/p99.
* :class:`MetricsRegistry` — the namespace holding them, with
  :meth:`~MetricsRegistry.timed` (context manager *and* decorator),
  :meth:`~MetricsRegistry.snapshot`, and
  :meth:`~MetricsRegistry.render_table`.

Everything is stdlib-only.  A disabled registry reduces every recording
call to one attribute load and a branch, so instrumentation can stay in
the hot paths permanently.  Metrics are process-local and not persisted;
they are a profiling surface, not a time-series database.
"""

from __future__ import annotations

import functools
import threading
import time
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Type

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "timed",
    "snapshot",
    "render_table",
    "set_enabled",
    "reset",
]

#: Default number of recent observations a histogram keeps for
#: percentile estimation (a ring buffer; aggregates are exact).
DEFAULT_RESERVOIR = 1024


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "unit", "_registry", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry", unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._registry = registry
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (no-op while the registry is disabled)."""
        if self._registry.enabled:
            self._value += n

    def reset(self) -> None:
        self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A last-written value (e.g. current cache size)."""

    __slots__ = ("name", "unit", "_registry", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry", unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._registry = registry
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        """Overwrite the value (no-op while the registry is disabled)."""
        if self._registry.enabled:
            self._value = float(value)

    def reset(self) -> None:
        self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self.name}={self._value}>"


class Histogram:
    """A distribution of observations (typically latencies in seconds).

    Aggregates (count, total, min, max) are exact; percentiles are
    estimated from a bounded ring buffer of the most recent
    ``reservoir`` observations.
    """

    __slots__ = (
        "name",
        "unit",
        "reservoir",
        "_registry",
        "count",
        "total",
        "min",
        "max",
        "_ring",
        "_ring_pos",
    )

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        unit: str = "s",
        reservoir: int = DEFAULT_RESERVOIR,
    ) -> None:
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self.name = name
        self.unit = unit
        self.reservoir = int(reservoir)
        self._registry = registry
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._ring: List[float] = []
        self._ring_pos = 0

    def observe(self, value: float) -> None:
        """Record one observation (no-op while the registry is disabled)."""
        if not self._registry.enabled:
            return
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._ring) < self.reservoir:
            self._ring.append(value)
        else:
            self._ring[self._ring_pos] = value
            self._ring_pos = (self._ring_pos + 1) % self.reservoir

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100]) over the reservoir.

        Linear interpolation between closest ranks; 0.0 when empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._ring:
            return 0.0
        ordered = sorted(self._ring)
        if len(ordered) == 1:
            return ordered[0]
        pos = (q / 100.0) * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._ring = []
        self._ring_pos = 0

    def summary(self) -> Dict[str, Any]:
        """Aggregate view used by :meth:`MetricsRegistry.snapshot`.

        Values are floats except ``unit`` (the unit label string).
        """
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "unit": self.unit,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.6f}>"


class _Timer:
    """Times a ``with`` block or a decorated function into a histogram.

    The enabled check happens at entry time, so a timer created while the
    registry is enabled keeps honoring a later ``disable()`` (and vice
    versa).
    """

    __slots__ = ("_histogram", "_t0")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self._histogram.observe(time.perf_counter() - self._t0)

    def __call__(self, func: Callable) -> Callable:
        histogram = self._histogram

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                histogram.observe(time.perf_counter() - t0)

        return wrapper


class MetricsRegistry:
    """A process-local namespace of named metrics.

    Metrics are created on first use (``registry.counter("cache.hits")``)
    and keep their identity for the registry's lifetime, so hot paths can
    bind a metric once and call ``inc``/``observe`` without dictionary
    lookups.  ``enabled`` gates all *recording*; creation and reads always
    work, so a disabled system still renders an (empty) table.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        """Turn recording on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off (metrics keep their last values)."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric (registrations are kept)."""
        with self._lock:
            for metric in (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            ):
                metric.reset()

    # -- metric accessors (get-or-create) ------------------------------
    def counter(self, name: str, unit: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name, self, unit=unit))
        return metric

    def gauge(self, name: str, unit: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name, self, unit=unit))
        return metric

    def histogram(
        self, name: str, unit: str = "s", reservoir: int = DEFAULT_RESERVOIR
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    name, Histogram(name, self, unit=unit, reservoir=reservoir)
                )
        return metric

    # -- recording conveniences ----------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Increment a counter by name."""
        self.counter(name).inc(n)

    def timed(self, name: str) -> _Timer:
        """Context manager / decorator timing into histogram ``name``.

        >>> registry = MetricsRegistry()
        >>> with registry.timed("pipeline.normalize"):
        ...     pass
        >>> @registry.timed("search.knn")
        ... def run_query():
        ...     pass
        """
        return _Timer(self.histogram(name))

    # -- reading -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time view of every metric, as plain dicts.

        Structure::

            {
              "enabled": bool,
              "counters":   {name: int},
              "gauges":     {name: float},
              "histograms": {name: {count, total, mean, min, max,
                                    p50, p90, p99, unit}},
              "derived":    {name: float},   # e.g. cache.hit_rate
            }
        """
        with self._lock:
            counters = {name: c.value for name, c in sorted(self._counters.items())}
            gauges = {name: g.value for name, g in sorted(self._gauges.items())}
            histograms = {
                name: h.summary() for name, h in sorted(self._histograms.items())
            }
        return {
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "derived": self._derived(counters),
        }

    @staticmethod
    def _derived(counters: Dict[str, int]) -> Dict[str, float]:
        """Ratios worth reading directly off the table."""
        derived: Dict[str, float] = {}
        hits = counters.get("cache.hits", 0)
        misses = counters.get("cache.misses", 0)
        if hits + misses:
            derived["cache.hit_rate"] = hits / (hits + misses)
        queries = counters.get("search.queries", 0)
        examined = counters.get("search.candidates_examined", 0)
        if queries:
            derived["search.candidates_per_query"] = examined / queries
        return derived

    def render_table(self) -> str:
        """The per-stage profiling table printed by ``three-dess stats``.

        One section per metric kind; timings are scaled to milliseconds
        for readability.
        """
        snap = self.snapshot()
        lines: List[str] = []

        histograms = {
            name: s for name, s in snap["histograms"].items() if s["count"]
        }
        if histograms:
            width = max(len(name) for name in histograms)
            lines.append(
                f"{'timer':<{width}} {'count':>7} {'total':>10} "
                f"{'mean':>9} {'p50':>9} {'p90':>9} {'max':>9}"
            )
            for name, s in histograms.items():
                unit = s["unit"]
                if unit == "s":
                    scale, shown = 1e3, "ms"
                else:  # pragma: no cover - no non-second histograms yet
                    scale, shown = 1.0, unit
                lines.append(
                    f"{name:<{width}} {s['count']:>7d} "
                    f"{s['total'] * scale:>8.2f}{shown} "
                    f"{s['mean'] * scale:>7.2f}{shown} "
                    f"{s['p50'] * scale:>7.2f}{shown} "
                    f"{s['p90'] * scale:>7.2f}{shown} "
                    f"{s['max'] * scale:>7.2f}{shown}"
                )

        counters = {name: v for name, v in snap["counters"].items() if v}
        if counters:
            if lines:
                lines.append("")
            lines.append("counters")
            width = max(len(name) for name in counters)
            for name, value in counters.items():
                lines.append(f"  {name:<{width}}  {value}")

        gauges = snap["gauges"]
        if gauges:
            if lines:
                lines.append("")
            lines.append("gauges")
            width = max(len(name) for name in gauges)
            for name, value in gauges.items():
                lines.append(f"  {name:<{width}}  {value:g}")

        derived = snap["derived"]
        if derived:
            if lines:
                lines.append("")
            lines.append("derived")
            width = max(len(name) for name in derived)
            for name, value in derived.items():
                lines.append(f"  {name:<{width}}  {value:.3f}")

        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)


#: The process-wide default registry used by all instrumented modules.
_DEFAULT_REGISTRY = MetricsRegistry(enabled=True)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def timed(name: str, registry: Optional[MetricsRegistry] = None) -> _Timer:
    """Module-level shortcut: time into the default registry."""
    return (registry or _DEFAULT_REGISTRY).timed(name)


def snapshot() -> Dict[str, Any]:
    """Snapshot of the default registry."""
    return _DEFAULT_REGISTRY.snapshot()


def render_table() -> str:
    """Profiling table of the default registry."""
    return _DEFAULT_REGISTRY.render_table()


def set_enabled(flag: bool) -> None:
    """Enable or disable recording on the default registry."""
    if flag:
        _DEFAULT_REGISTRY.enable()
    else:
        _DEFAULT_REGISTRY.disable()


def reset() -> None:
    """Zero every metric on the default registry."""
    _DEFAULT_REGISTRY.reset()
