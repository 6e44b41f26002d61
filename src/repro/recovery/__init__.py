"""Crash recovery for WAL-protected indexes (DESIGN.md §10).

:func:`recover` rebuilds a crash-consistent index from the last checkpoint
snapshot plus the write-ahead log's committed transactions (redo-only,
ARIES-lite); :func:`checkpoint` writes the snapshot + CHECKPOINT record
pair that bounds recovery work; :func:`index_dir_writes` and
:func:`recover_index_dir` write and reopen the one on-disk index
directory (snapshot + WAL + rid map) that serving and ingestion share.
:mod:`repro.recovery.harness` sweeps deterministic crashpoints over an
update workload and proves equivalence with a freshly built index.
"""

from .recover import (
    RID_MAP_NAME,
    SNAPSHOT_NAME,
    WAL_NAME,
    GenerationMismatchError,
    RecoveryError,
    RecoveryReport,
    checkpoint,
    index_dir_writes,
    recover,
    recover_index_dir,
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
    "RID_MAP_NAME",
    "RecoveryError",
    "RecoveryReport",
    "SNAPSHOT_NAME",
    "WAL_NAME",
    "apply_op",
    "checkpoint",
    "count_update_writes",
    "crash_sweep",
    "index_dir_writes",
    "make_update_workload",
    "recover",
    "recover_index_dir",
    "run_crashpoint",
    "sweep_schedules",
]
