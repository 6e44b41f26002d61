"""Named metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` hands out get-or-create instruments by name, so
instrumentation sites can say ``tracer.counter("knn.radius_expansions").inc()``
without coordinating construction.  Instruments are deliberately tiny —
plain Python attributes, no locks — because they sit inside search loops.

Histograms use *fixed upper-bound buckets* (Prometheus-style, inclusive):
an observation lands in the first bucket whose upper bound is >= the value,
or in the implicit ``+inf`` overflow bucket.  Percentiles are estimated from
the bucket counts (upper bound of the covering bucket), which is exactly as
accurate as the bucket grid — good enough for the p95 columns of the trace
report, and O(#buckets) memory regardless of observation count.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram grid: a 1-2-5 geometric ladder covering counts from
#: single candidates to ~1M (page reads, candidate counts, iteration sizes).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    m * 10**e for e in range(6) for m in (1, 2, 5)
)


class Counter:
    """Monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Last-write-wins named value (e.g. a hit rate, a fraction frozen)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds."""

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "count")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name} has duplicate bucket edges")
        self.name = name
        self.bounds: List[float] = bounds
        self.counts: List[int] = [0] * len(bounds)
        self.overflow = 0  # observations above the last bound (+inf bucket)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.count += 1
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect_left on bounds)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[lo] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket containing the q-quantile (0 < q <= 1).

        Returns ``inf`` when the quantile falls in the overflow bucket and
        ``nan`` when the histogram is empty — an empty histogram has no
        quantiles, and ``0.0`` would read as "all observations were fast".
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = math.ceil(q * self.count)
        seen = 0
        for bound, n in zip(self.bounds, self.counts):
            seen += n
            if seen >= rank:
                return bound
        return math.inf


class _NullInstrument:
    """No-op counter/gauge/histogram handed out by the null tracer."""

    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_COUNTER = _NullInstrument()
_NULL_GAUGE = _NullInstrument()
_NULL_HISTOGRAM = _NullInstrument()


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create; ``buckets`` only applies on first creation."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return instrument

    def reset(self) -> None:
        """Drop every instrument so the registry can be reused across runs.

        Handles to previously issued instruments stay functional but
        detached — the next get-or-create returns a fresh instrument, so
        records from one bench leg cannot leak into the next.
        """
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def merge_records(self, records: List[dict]) -> None:
        """Fold flattened instrument records (one worker's
        :meth:`as_records` output) into this registry.

        Counters add, gauges last-write-win (callers merge shards in a
        fixed order, keeping the outcome deterministic), histograms merge
        bucket-by-bucket.  A histogram whose bucket grid differs from the
        local instrument's cannot be merged losslessly and raises.
        """
        for record in records:
            kind = record.get("type")
            name = record["name"]
            if kind == "counter":
                self.counter(name).inc(float(record["value"]))
            elif kind == "gauge":
                self.gauge(name).set(float(record["value"]))
            elif kind == "histogram":
                hist = self.histogram(name, buckets=record["bounds"])
                if hist.bounds != [float(b) for b in record["bounds"]]:
                    raise ValueError(
                        f"histogram {name!r} bucket grids differ; "
                        "cannot merge worker records losslessly"
                    )
                for i, n in enumerate(record["counts"]):
                    hist.counts[i] += int(n)
                hist.overflow += int(record["overflow"])
                hist.total += float(record["total"])
                hist.count += int(record["count"])
            else:
                raise ValueError(f"unknown metric record type {kind!r}")

    def as_records(self) -> List[dict]:
        """Flatten every instrument to a JSON-serializable record."""
        records: List[dict] = []
        for counter in self.counters.values():
            records.append(
                {"type": "counter", "name": counter.name,
                 "value": counter.value}
            )
        for gauge in self.gauges.values():
            records.append(
                {"type": "gauge", "name": gauge.name, "value": gauge.value}
            )
        for hist in self.histograms.values():
            records.append(
                {
                    "type": "histogram",
                    "name": hist.name,
                    "bounds": hist.bounds,
                    "counts": hist.counts,
                    "overflow": hist.overflow,
                    "total": hist.total,
                    "count": hist.count,
                }
            )
        return records
