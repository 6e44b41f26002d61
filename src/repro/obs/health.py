"""Index health telemetry: gauge snapshots, time series, and thresholds.

A :class:`HealthSampler` snapshots the structural health of a live index —
how far online inserts have drifted each partition's mean projection error
(MPE) from its bulk-load value, how much of the dataset is tombstoned or
sitting in the delta store, buffer effectiveness, and WAL growth since the
last checkpoint — into an in-memory time series of :class:`HealthSample`
rows (JSONL-exportable for offline plotting).

MPE drift is the scheme-level early warning the paper's adaptive reduction
implies: each subspace was fit so its members' projection error is small,
and every online insert routed into it adds a *known* residual (the
``ProjDist_r`` computed at routing time).  The live MPE estimate

    (bulk_mpe * bulk_size + sum(insert residuals)) / (bulk_size + n_inserts)

is therefore free to maintain, and its relative drift tells an operator
when the bulk-loaded ellipsoids no longer describe the data and a re-fit /
repack is due — before recall or page-access regressions show up.

:class:`HealthReport` judges the latest sample against direction-aware
thresholds (``ok`` / ``warn``, advisory only); the bench runner embeds its
``as_dict()`` in :class:`~repro.bench.report.BenchReport` as an advisory
section that the regression comparator ignores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "DEFAULT_THRESHOLDS",
    "HealthSample",
    "HealthSampler",
    "HealthReport",
    "Threshold",
    "drift_scores",
]


@dataclass(frozen=True)
class Threshold:
    """Warn when a gauge goes past ``value`` in ``direction``."""

    direction: str  # "above" | "below"
    value: float

    def __post_init__(self) -> None:
        if self.direction not in ("above", "below"):
            raise ValueError(
                f"direction must be 'above' or 'below', "
                f"got {self.direction!r}"
            )

    def status(self, observed: float) -> str:
        if self.direction == "above":
            return "warn" if observed > self.value else "ok"
        return "warn" if observed < self.value else "ok"


#: Advisory warn thresholds for the structural gauges.  Gauges absent here
#: are informational only (always "ok").  Rationale:
#: - mpe_drift_max: a partition's live MPE 50% above its bulk-load value
#:   means the fitted ellipsoid no longer describes its members; re-fit.
#: - tombstone_fraction: >30% dead entries pay their page reads for nothing.
#: - delta_fraction: the unindexed delta store is scanned linearly by every
#:   query; past ~25% of the dataset it dominates probe cost — compact.
#: - wal_commits_since_checkpoint: recovery replays everything after the
#:   last checkpoint; 10k+ committed transactions means a long restart.
DEFAULT_THRESHOLDS: Dict[str, Threshold] = {
    "mpe_drift_max": Threshold("above", 0.50),
    "tombstone_fraction": Threshold("above", 0.30),
    "delta_fraction": Threshold("above", 0.25),
    "wal_commits_since_checkpoint": Threshold("above", 10_000.0),
}


@dataclass(frozen=True)
class HealthSample:
    """One snapshot of an index's health gauges."""

    seq: int
    scheme: str
    label: Optional[str]
    gauges: Dict[str, float]

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "scheme": self.scheme,
            "label": self.label,
            "gauges": dict(self.gauges),
        }


def _live_mpe(subspace, residuals: Dict[int, Tuple[int, float]], i: int):
    """``(live_mpe, drift)`` for one partition: the running live estimate
    and its normalized delta against the build-time MPE
    (``live / bulk - 1``; 0.0 with no inserts, +inf when insert residuals
    land in a partition that was fit with zero error)."""
    n_ins, sum_resid = residuals.get(i, (0, 0.0))
    denom = subspace.size + n_ins
    live = (
        (subspace.mpe * subspace.size + sum_resid) / denom
        if denom
        else 0.0
    )
    if subspace.mpe > 0:
        drift = live / subspace.mpe - 1.0
    else:
        drift = float("inf") if live > 0 else 0.0
    return live, drift


def drift_scores(index) -> Dict[int, float]:
    """Per-partition drift score: normalized live-MPE delta vs. the
    build-time MPE (``live_mpe / bulk_mpe - 1``).

    This is THE drift definition — the ingest reorganization trigger
    (:meth:`repro.ingest.IngestPipeline.check_drift`), the bench health
    section, and the ``mpe_drift_max`` gauge all read it from here, so a
    threshold tuned against one is valid against the others.  Empty for
    indexes without a reduced dataset.
    """
    reduced = getattr(index, "reduced", None)
    if reduced is None:
        return {}
    residuals = index._insert_residuals
    return {
        i: _live_mpe(subspace, residuals, i)[1]
        for i, subspace in enumerate(reduced.subspaces)
    }


def _mpe_gauges(index) -> Dict[str, float]:
    """Per-partition live MPE estimates and the max relative drift."""
    reduced = getattr(index, "reduced", None)
    if reduced is None:
        return {}
    residuals = index._insert_residuals
    gauges: Dict[str, float] = {}
    max_drift = 0.0
    for i, subspace in enumerate(reduced.subspaces):
        live, drift = _live_mpe(subspace, residuals, i)
        gauges[f"mpe_live.p{i}"] = live
        max_drift = max(max_drift, drift)
    gauges["mpe_drift_max"] = max_drift
    return gauges


def sample_gauges(index) -> Dict[str, float]:
    """Snapshot every health gauge the index can answer right now."""
    gauges: Dict[str, float] = {}
    gauges.update(_mpe_gauges(index))

    live = float(index.live_count)
    tombstones = float(len(index._tombstones))
    delta_entries = float(len(index._delta_rids()))
    total = live + tombstones
    gauges["live_count"] = live
    gauges["tombstone_count"] = tombstones
    gauges["tombstone_fraction"] = tombstones / total if total else 0.0
    gauges["delta_entries"] = delta_entries
    gauges["delta_fraction"] = delta_entries / live if live else 0.0
    gauges["buffer_hit_rate"] = float(index.buffer_hit_rate)

    wal = getattr(index, "wal", None)
    if wal is not None:
        stats = wal.stats()
        gauges["wal_bytes"] = float(stats["bytes"])
        gauges["wal_records"] = float(stats["records"])
        gauges["wal_commits_since_checkpoint"] = float(
            stats["commits_since_checkpoint"]
        )
    return gauges


class HealthSampler:
    """Collects :class:`HealthSample` rows into an in-memory time series."""

    def __init__(self) -> None:
        self.samples: List[HealthSample] = []

    def sample(self, index, label: Optional[str] = None) -> HealthSample:
        """Snapshot ``index`` now; ``label`` names the moment (e.g. the
        bench leg that just finished)."""
        row = HealthSample(
            seq=len(self.samples),
            scheme=getattr(index, "name", "?"),
            label=label,
            gauges=sample_gauges(index),
        )
        self.samples.append(row)
        return row

    @property
    def latest(self) -> Optional[HealthSample]:
        return self.samples[-1] if self.samples else None

    def drift_score(self, index) -> Dict[int, float]:
        """Per-partition normalized live-MPE drift (the single shared
        definition — see :func:`drift_scores`)."""
        return drift_scores(index)

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """One ``{"type": "health", ...}`` record per sample; returns the
        record count.  Appendable alongside trace JSONL files."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for row in self.samples:
                fh.write(
                    json.dumps({"type": "health", **row.as_dict()}) + "\n"
                )
        return len(self.samples)

    def report(
        self, thresholds: Optional[Dict[str, Threshold]] = None
    ) -> "HealthReport":
        return HealthReport.from_sampler(self, thresholds=thresholds)


@dataclass(frozen=True)
class HealthReport:
    """Threshold judgement of the latest sample.  Advisory only — nothing
    here gates a bench comparison."""

    gauges: Dict[str, float]
    status: Dict[str, str]  # gauge name -> "ok" | "warn" (thresholded only)
    n_samples: int
    scheme: str = "?"
    warnings: Tuple[str, ...] = field(default_factory=tuple)

    @staticmethod
    def from_sampler(
        sampler: HealthSampler,
        thresholds: Optional[Dict[str, Threshold]] = None,
    ) -> "HealthReport":
        thresholds = (
            thresholds if thresholds is not None else DEFAULT_THRESHOLDS
        )
        latest = sampler.latest
        gauges = dict(latest.gauges) if latest else {}
        status: Dict[str, str] = {}
        warnings: List[str] = []
        for name, threshold in thresholds.items():
            if name not in gauges:
                continue
            verdict = threshold.status(gauges[name])
            status[name] = verdict
            if verdict == "warn":
                warnings.append(
                    f"{name}={gauges[name]:.4g} is "
                    f"{threshold.direction} {threshold.value:.4g}"
                )
        return HealthReport(
            gauges=gauges,
            status=status,
            n_samples=len(sampler.samples),
            scheme=latest.scheme if latest else "?",
            warnings=tuple(warnings),
        )

    @property
    def ok(self) -> bool:
        return not self.warnings

    def as_dict(self) -> dict:
        """JSON-ready form for :class:`~repro.bench.report.BenchReport`'s
        advisory ``health`` section."""
        return {
            "ok": self.ok,
            "scheme": self.scheme,
            "n_samples": self.n_samples,
            "gauges": {k: v for k, v in sorted(self.gauges.items())},
            "status": dict(self.status),
            "warnings": list(self.warnings),
        }
