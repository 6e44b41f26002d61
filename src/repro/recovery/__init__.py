"""Crash recovery for WAL-protected indexes (DESIGN.md §10).

:func:`recover` rebuilds a crash-consistent index from the last checkpoint
snapshot plus the write-ahead log's committed transactions (redo-only,
ARIES-lite); :func:`checkpoint` writes the snapshot + CHECKPOINT record
pair that bounds recovery work.  :mod:`repro.recovery.harness` sweeps
deterministic crashpoints over an update workload and proves equivalence
with a freshly built index.
"""

from .recover import (
    GenerationMismatchError,
    RecoveryError,
    RecoveryReport,
    checkpoint,
    recover,
)
from .harness import (
    CrashOutcome,
    apply_op,
    count_update_writes,
    crash_sweep,
    make_update_workload,
    run_crashpoint,
    sweep_schedules,
)

__all__ = [
    "CrashOutcome",
    "GenerationMismatchError",
    "RecoveryError",
    "RecoveryReport",
    "apply_op",
    "checkpoint",
    "count_update_writes",
    "crash_sweep",
    "make_update_workload",
    "recover",
    "run_crashpoint",
    "sweep_schedules",
]
