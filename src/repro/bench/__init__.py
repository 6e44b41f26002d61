"""Machine-independent benchmark reports and the perf-regression gate.

The paper's evaluation (§6) — like Thomasian's cost-model methodology for
dimensionality-reduced clustered indexing — compares schemes on *logical*
costs: page accesses and distance computations, not wall-clock seconds.
Those are exactly the counters the simulated storage stack and
:mod:`repro.obs` already produce, and they are stable across machines,
Python versions and CPU load.  This package turns them into an enforced
trajectory:

* :class:`WorkloadSpec` — a declarative, fully seeded workload (dataset,
  scheme, build params, query set, update stream);
* :func:`run_bench` — executes the workload through three execution
  modes (sequential, batched, and crash-recovered after an update
  stream) and requires their **result fingerprints** — stable hashes
  over KNN ids + quantized distances — to agree;
* :class:`BenchReport` — the versioned JSON artifact: logical counters
  (gate-eligible), advisory wall-clock numbers (never gating), and the
  fingerprints;
* :func:`compare_reports` — per-metric tolerance-band comparison against
  a committed golden baseline;
* ``python -m repro.bench {run,compare,update}`` — the CLI CI runs as the
  ``bench_gate`` step: nonzero exit on any counter or fingerprint drift.

Golden baselines live in ``benchmarks/baselines/*.json``; re-baselining is
``python -m repro.bench update`` with the resulting diff reviewed in the PR.
"""

from .compare import (
    Comparison,
    MetricDelta,
    ToleranceBand,
    compare_reports,
    format_table,
)
from .fingerprint import (
    batch_fingerprint,
    canonicalize_rows,
    result_fingerprint,
)
from .report import (
    SCHEMA_VERSION,
    BenchReport,
    BenchReportError,
    flat_view,
    validate_view,
)
from .runner import FingerprintMismatch, run_bench
from .spec import WorkloadSpec
from .specs import DEFAULT_SPECS

__all__ = [
    "SCHEMA_VERSION",
    "BenchReport",
    "BenchReportError",
    "Comparison",
    "DEFAULT_SPECS",
    "FingerprintMismatch",
    "MetricDelta",
    "ToleranceBand",
    "WorkloadSpec",
    "batch_fingerprint",
    "canonicalize_rows",
    "compare_reports",
    "flat_view",
    "format_table",
    "result_fingerprint",
    "run_bench",
    "validate_view",
]
