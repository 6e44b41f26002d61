"""The versioned benchmark report artifact.

A :class:`BenchReport` is what one :func:`~repro.bench.runner.run_bench`
call produces and what ``benchmarks/baselines/*.json`` commits.  Its three
metric sections have different contracts:

* ``counters`` — machine-independent logical costs (page reads, distance
  evaluations, key comparisons, WAL replay counts, buffer hit rate).
  These are **gate-eligible**: the comparator fails CI when they drift
  outside their tolerance band (exact by default).
* ``advisory`` — wall-clock observations (QPS, speedups, recovery
  seconds).  Recorded for trend-watching, shown in the regression table,
  **never gating** — they depend on the host.
* ``fingerprints`` — result fingerprints per execution mode (see
  :mod:`repro.bench.fingerprint`); compared exactly.
* ``health`` — the index's :class:`~repro.obs.health.HealthReport`
  (``as_dict()``) at the end of the run: structural gauges (MPE drift,
  tombstone/delta fractions, WAL backlog) with ok/warn status.  Purely
  advisory and **optional**: absent in pre-PR-6 baselines, ignored by the
  comparator, never gating.
``schema_version`` is checked on load: a report written by a different
schema is rejected with :class:`BenchReportError` rather than being
reinterpreted silently.

The top-level ``BENCH_<kind>.json`` files (throughput, recovery, serve,
ingest) are kept as flat *views* of a report
(:func:`flat_view`), so their consumers and their committed history
survive the reporter swap; :func:`validate_view` checks a view file
against the expected key set.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from numbers import Real
from pathlib import Path
from typing import Dict, Union

__all__ = [
    "SCHEMA_VERSION",
    "BenchReport",
    "BenchReportError",
    "THROUGHPUT_VIEW_KEYS",
    "RECOVERY_VIEW_KEYS",
    "SERVE_VIEW_KEYS",
    "INGEST_VIEW_KEYS",
    "flat_view",
    "validate_view",
]

SCHEMA_VERSION = 1


class BenchReportError(ValueError):
    """A report (or view) file does not conform to the schema."""


@dataclass(frozen=True)
class BenchReport:
    """One benchmark run's versioned result artifact."""

    name: str
    spec: dict
    counters: Dict[str, Union[int, float]]
    advisory: Dict[str, float] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: Advisory health section (HealthReport.as_dict()); {} when the run
    #: recorded none.  Optional in files for pre-PR-6 baseline compat.
    health: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        # An empty health section is omitted, so reports from runs that
        # record none match files written before the section existed.
        if not data["health"]:
            data.pop("health")
        # schema_version leads in the file for human readers.
        return {
            "schema_version": data.pop("schema_version"),
            **data,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps())
        return path

    @classmethod
    def from_dict(cls, data: object) -> "BenchReport":
        """Validate and rebuild a report; raises :class:`BenchReportError`
        on any shape, type, or schema-version problem."""
        if not isinstance(data, dict):
            raise BenchReportError(
                f"report must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise BenchReportError(
                f"schema version mismatch: file has {version!r}, this "
                f"code reads {SCHEMA_VERSION}; re-run `python -m "
                "repro.bench update` with matching code"
            )
        required = {
            "name": str,
            "spec": dict,
            "counters": dict,
            "advisory": dict,
            "fingerprints": dict,
        }
        missing = sorted(set(required) - set(data))
        if missing:
            raise BenchReportError(f"report missing fields: {missing}")
        optional = {"health": dict}
        unknown = sorted(
            set(data) - set(required) - set(optional) - {"schema_version"}
        )
        if unknown:
            raise BenchReportError(f"report has unknown fields: {unknown}")
        for key, typ in required.items():
            if not isinstance(data[key], typ):
                raise BenchReportError(
                    f"report field {key!r} must be {typ.__name__}, "
                    f"got {type(data[key]).__name__}"
                )
        for key, typ in optional.items():
            if key in data and not isinstance(data[key], typ):
                raise BenchReportError(
                    f"report field {key!r} must be {typ.__name__}, "
                    f"got {type(data[key]).__name__}"
                )
        _check_metric_dict("counters", data["counters"])
        _check_metric_dict("advisory", data["advisory"])
        for mode, fp in data["fingerprints"].items():
            if not isinstance(fp, str):
                raise BenchReportError(
                    f"fingerprint {mode!r} must be a string, "
                    f"got {type(fp).__name__}"
                )
        return cls(
            name=data["name"],
            spec=data["spec"],
            counters=dict(data["counters"]),
            advisory=dict(data["advisory"]),
            fingerprints=dict(data["fingerprints"]),
            health=dict(data.get("health", {})),
            schema_version=version,
        )

    @classmethod
    def loads(cls, text: str) -> "BenchReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BenchReportError(f"report is not valid JSON: {exc}")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BenchReport":
        return cls.loads(Path(path).read_text())


def _check_metric_dict(section: str, metrics: dict) -> None:
    for name, value in metrics.items():
        if not isinstance(name, str):
            raise BenchReportError(
                f"{section} keys must be strings, got {name!r}"
            )
        if isinstance(value, bool) or not isinstance(value, Real):
            raise BenchReportError(
                f"{section}[{name!r}] must be a number, "
                f"got {type(value).__name__}"
            )


# ---------------------------------------------------------------------
# Flat views: the historical BENCH_*.json formats.
# ---------------------------------------------------------------------

#: BENCH_throughput.json keys (all advisory wall-clock rates).
THROUGHPUT_VIEW_KEYS = (
    "qps_sequential",
    "qps_batch",
    "speedup_batch",
)

#: BENCH_recovery.json keys (mixed logical counts + advisory seconds).
RECOVERY_VIEW_KEYS = (
    "n_points",
    "n_ops",
    "wal_bytes",
    "update_s",
    "update_ops_per_s",
    "checkpoint_s",
    "recover_s",
    "recover_after_checkpoint_s",
    "records_replayed",
    "records_replayed_after_checkpoint",
)

#: BENCH_serve.json keys (logical serve counts + advisory latencies).
#: ``qps`` is completions per wall second under an open-loop schedule
#: at ``arrival_rate_hz``, so it tracks that rate; it is not a capacity
#: figure.
SERVE_VIEW_KEYS = (
    "n_shards",
    "n_requests",
    "arrival_rate_hz",
    "n_partial",
    "respawns",
    "retries",
    "qps",
    "p50_ms",
    "p99_ms",
)

#: BENCH_ingest.json keys (logical mutation/reorg counts + advisory rates).
INGEST_VIEW_KEYS = (
    "n_points",
    "n_ops",
    "reorgs",
    "final_generation",
    "crash_schedules",
    "recovered_old",
    "recovered_new",
    "swap_requests",
    "swap_partial",
    "ingest_ops_per_s",
    "reorg_s",
)

_VIEW_KEYS = {
    "throughput": THROUGHPUT_VIEW_KEYS,
    "recovery": RECOVERY_VIEW_KEYS,
    "serve": SERVE_VIEW_KEYS,
    "ingest": INGEST_VIEW_KEYS,
}


def _view_keys(kind: str):
    try:
        return _VIEW_KEYS[kind]
    except KeyError:
        raise BenchReportError(
            f"unknown view kind {kind!r}; expected one of "
            f"{sorted(_VIEW_KEYS)}"
        )


def flat_view(kind: str, report: BenchReport) -> dict:
    """The flat ``BENCH_<kind>.json`` dict, drawn from a report."""
    keys = _view_keys(kind)
    merged = {**report.counters, **report.advisory}
    missing = [key for key in keys if key not in merged]
    if missing:
        raise BenchReportError(
            f"report {report.name!r} lacks view metrics {missing}"
        )
    return {key: merged[key] for key in keys}


def validate_view(kind: str, data: object) -> None:
    """Check a flat view dict (``kind`` is a :func:`flat_view` kind:
    ``"throughput"``, ``"recovery"``, ``"serve"`` or ``"ingest"``) for
    exactly the expected numeric keys."""
    keys = _view_keys(kind)
    if not isinstance(data, dict):
        raise BenchReportError(
            f"{kind} view must be a JSON object, got {type(data).__name__}"
        )
    missing = sorted(set(keys) - set(data))
    unknown = sorted(set(data) - set(keys))
    if missing or unknown:
        raise BenchReportError(
            f"{kind} view key mismatch: missing {missing}, "
            f"unknown {unknown}"
        )
    _check_metric_dict(f"{kind} view", data)
