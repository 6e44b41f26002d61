"""Baseline comparison with per-metric tolerance bands.

The gate logic:

* ``fingerprints`` — compared exactly, always gating.  A changed answer
  set is a correctness regression (or an intentional algorithm change,
  which must re-baseline via ``update`` with the diff reviewed).
* ``counters`` — gating, exact by default; a metric may carry a
  :class:`ToleranceBand` (relative and/or absolute slack) when a small
  drift is acceptable.  Missing and newly appeared counters both gate:
  silently losing a metric hides regressions, and a new metric means the
  baseline is stale and must be regenerated deliberately.
* ``advisory`` — wall-clock numbers; shown in the table for the human,
  never gating.  CI machines are too noisy for timing assertions — the
  logical counters are the machine-independent stand-in (the point of
  this subsystem).

A spec change (same name, different workload definition) also gates: the
counters would not be comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from .report import BenchReport

__all__ = [
    "ToleranceBand",
    "MetricDelta",
    "Comparison",
    "DEFAULT_TOLERANCES",
    "compare_reports",
    "format_table",
]

Number = Union[int, float]


@dataclass(frozen=True)
class ToleranceBand:
    """Allowed drift for one counter: ``|cur - base|`` may not exceed
    ``max(abs_slack, rel_slack * |base|)``."""

    rel_slack: float = 0.0
    abs_slack: float = 0.0

    def __post_init__(self) -> None:
        if self.rel_slack < 0 or self.abs_slack < 0:
            raise ValueError("tolerance slack must be >= 0")

    def allows(self, baseline: Number, current: Number) -> bool:
        return abs(current - baseline) <= max(
            self.abs_slack, self.rel_slack * abs(baseline)
        )


#: Counters that legitimately wiggle a little.  The float hit rate is
#: rounded at emission; one page of slack absorbs rounding of the ratio
#: without letting a real cache regression (which moves it by whole
#: percentage points) through.
DEFAULT_TOLERANCES: Dict[str, ToleranceBand] = {
    "buffer_hit_rate_warm": ToleranceBand(abs_slack=1e-6),
}

_EXACT = ToleranceBand()


@dataclass(frozen=True)
class MetricDelta:
    """One row of the regression table."""

    section: str  # "counter" | "advisory" | "fingerprint" | "spec"
    name: str
    baseline: Optional[Union[Number, str]]
    current: Optional[Union[Number, str]]
    status: str  # "ok" | "drift" | "missing" | "new" | "info"

    @property
    def gating(self) -> bool:
        return self.status in ("drift", "missing", "new")


@dataclass
class Comparison:
    """All deltas between one baseline report and one current report."""

    name: str
    rows: List[MetricDelta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(row.gating for row in self.rows)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [row for row in self.rows if row.gating]


def _compare_section(
    rows: List[MetricDelta],
    section: str,
    baseline: dict,
    current: dict,
    gate: bool,
    tolerances: Dict[str, ToleranceBand],
) -> None:
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            rows.append(
                MetricDelta(
                    section, name, baseline[name], None,
                    "missing" if gate else "info",
                )
            )
            continue
        if name not in baseline:
            rows.append(
                MetricDelta(
                    section, name, None, current[name],
                    "new" if gate else "info",
                )
            )
            continue
        base, cur = baseline[name], current[name]
        if not gate:
            rows.append(MetricDelta(section, name, base, cur, "info"))
            continue
        if section == "fingerprint" or isinstance(base, str):
            status = "ok" if base == cur else "drift"
        else:
            band = tolerances.get(name, _EXACT)
            status = "ok" if band.allows(base, cur) else "drift"
        rows.append(MetricDelta(section, name, base, cur, status))


def compare_reports(
    baseline: BenchReport,
    current: BenchReport,
    tolerances: Optional[Dict[str, ToleranceBand]] = None,
) -> Comparison:
    """Diff ``current`` against ``baseline`` under the gate rules."""
    if tolerances is None:
        tolerances = DEFAULT_TOLERANCES
    comparison = Comparison(name=baseline.name)
    if baseline.spec != current.spec:
        changed = sorted(
            key
            for key in set(baseline.spec) | set(current.spec)
            if baseline.spec.get(key) != current.spec.get(key)
        )
        comparison.rows.append(
            MetricDelta(
                "spec",
                ",".join(changed) or "<structure>",
                "baseline spec",
                "current spec",
                "drift",
            )
        )
    _compare_section(
        comparison.rows, "fingerprint",
        baseline.fingerprints, current.fingerprints, True, tolerances,
    )
    _compare_section(
        comparison.rows, "counter",
        baseline.counters, current.counters, True, tolerances,
    )
    _compare_section(
        comparison.rows, "advisory",
        baseline.advisory, current.advisory, False, tolerances,
    )
    return comparison


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        # Fingerprints are long; the tail is where digests differ visibly.
        return value if len(value) <= 24 else value[:10] + "…" + value[-6:]
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_table(comparisons: List[Comparison]) -> str:
    """Render comparisons as one aligned regression table."""
    header = ("workload", "section", "metric", "baseline", "current",
              "status")
    table: List[tuple] = [header]
    for comparison in comparisons:
        for row in comparison.rows:
            status = row.status.upper() if row.gating else row.status
            table.append(
                (
                    comparison.name,
                    row.section,
                    row.name,
                    _fmt(row.baseline),
                    _fmt(row.current),
                    status,
                )
            )
    widths = [
        max(len(str(row[col])) for row in table)
        for col in range(len(header))
    ]
    lines = []
    for i, row in enumerate(table):
        lines.append(
            "  ".join(
                str(cell).ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    verdict = (
        "OK: no gating drift"
        if all(c.ok for c in comparisons)
        else "DRIFT: "
        + ", ".join(
            f"{c.name} ({len(c.regressions)} metric(s))"
            for c in comparisons
            if not c.ok
        )
    )
    return "\n".join(lines + ["", verdict])
