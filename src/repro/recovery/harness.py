"""Deterministic crashpoint harness (DESIGN.md §10).

Proves the durability contract end to end: for both sides of every
physical page write an update workload issues, simulate a crash at
exactly that point (:class:`~repro.storage.faults.CrashPoint`), recover
from WAL + last checkpoint, validate the recovered B+-tree's structure,
and check that KNN answers are **bit-identical** to a freshly built index
over the surviving logical state (the committed prefix of the workload
replayed through the plain ``insert``/``delete`` API — both paths are
deterministic, so equality is exact, not approximate).

:func:`sweep_schedules` is the one schedule loop: this module's
:func:`crash_sweep` and the generational swap sweep
(:func:`repro.ingest.sweep.swap_crash_sweep`) both enumerate their crash
schedules through it and keep only their own verification.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from ..index.base import VectorIndex
from ..storage.faults import PHASES, CrashError, CrashPoint
from ..storage.wal import WriteAheadLog
from .recover import WAL_NAME, RecoveryReport, checkpoint, recover

__all__ = [
    "CrashOutcome",
    "apply_op",
    "count_update_writes",
    "crash_sweep",
    "make_update_workload",
    "run_crashpoint",
    "sweep_schedules",
]

_T = TypeVar("_T")

#: One workload op: ("insert", point, rid, beta) or ("delete", rid).
Op = Tuple


def make_update_workload(
    points: np.ndarray,
    n_bulk: int,
    rng: np.random.Generator,
    n_inserts: int = 8,
    n_deletes: int = 6,
    beta: float = 0.25,
    noise: float = 0.01,
) -> List[Op]:
    """A seeded, interleaved insert/delete op list.

    Inserts perturb rows sampled from ``points`` (so they route into real
    subspaces) and take fresh rids above ``n_bulk``; deletes pick distinct
    bulk rids.  The interleaving is a seeded shuffle — same generator
    state, same workload, forever.
    """
    points = np.asarray(points, dtype=np.float64)
    ops: List[Op] = []
    rows = rng.integers(0, points.shape[0], size=n_inserts)
    jitter = rng.normal(0.0, noise, size=(n_inserts, points.shape[1]))
    for j in range(n_inserts):
        ops.append(
            ("insert", points[rows[j]] + jitter[j], n_bulk + j, beta)
        )
    victims = rng.choice(n_bulk, size=min(n_deletes, n_bulk), replace=False)
    for rid in victims.tolist():
        ops.append(("delete", int(rid)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def apply_op(index: VectorIndex, op: Op) -> None:
    if op[0] == "insert":
        _, point, rid, beta = op
        index.insert(point, rid, beta=beta)
    elif op[0] == "delete":
        index.delete(op[1])
    else:
        raise ValueError(f"unknown workload op {op[0]!r}")


@dataclass
class CrashOutcome:
    """What one crashpoint run observed."""

    crashpoint: Optional[CrashPoint]
    crashed: bool
    ops_started: int
    committed_ops: int
    report: RecoveryReport
    invariants_ok: bool
    equivalent: bool
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.invariants_ok and self.equivalent and not self.error


def _prepare(
    build_index: Callable[[], VectorIndex],
    workdir: Path,
    crashpoint: Optional[CrashPoint],
):
    """Fresh index + fresh WAL + initial checkpoint under ``workdir``."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    index = build_index()
    wal = WriteAheadLog(workdir / WAL_NAME)
    wal_store = index.enable_wal(wal, crashpoint=crashpoint)
    checkpoint(index, workdir / "checkpoint")
    return index, wal, wal_store


def count_update_writes(
    build_index: Callable[[], VectorIndex],
    ops: Sequence[Op],
    workdir: Union[str, Path],
) -> int:
    """Physical page writes the full workload issues under WAL (the sweep
    range: crashpoints 1..N are every distinct torn schedule)."""
    index, wal, wal_store = _prepare(
        build_index, Path(workdir) / "probe", None
    )
    for op in ops:
        apply_op(index, op)
    wal.close()
    return wal_store.clock.writes


def run_crashpoint(
    build_index: Callable[[], VectorIndex],
    ops: Sequence[Op],
    workdir: Union[str, Path],
    crashpoint: Optional[CrashPoint],
    queries: np.ndarray,
    k: int,
) -> CrashOutcome:
    """Run the workload into a simulated crash, recover, and verify."""
    tag = (
        f"cp_{crashpoint.phase}_{crashpoint.at_write}"
        if crashpoint is not None
        else "cp_none"
    )
    subdir = Path(workdir) / tag
    index, wal, _ = _prepare(build_index, subdir, crashpoint)
    crashed = False
    ops_started = 0
    for op in ops:
        ops_started += 1
        try:
            apply_op(index, op)
        except CrashError:
            crashed = True
            break
    wal.close()  # the "process" is dead; only the files survive
    del index

    recovered, report = recover(subdir / WAL_NAME)
    committed = report.metas_applied
    error: Optional[str] = None

    invariants_ok = True
    tree = getattr(recovered, "tree", None)
    if tree is not None and hasattr(tree, "check_invariants"):
        try:
            tree.check_invariants()
        except AssertionError as exc:
            invariants_ok = False
            error = f"invariants: {exc}"

    # Reference: fresh build + the committed prefix via the plain API.
    reference = build_index()
    for op in ops[:committed]:
        apply_op(reference, op)

    equivalent = True
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    for qi, query in enumerate(queries):
        got = recovered.knn(query, k)
        want = reference.knn(query, k)
        if not (
            np.array_equal(got.ids, want.ids)
            and np.array_equal(got.distances, want.distances)
        ):
            equivalent = False
            if error is None:
                error = (
                    f"query {qi}: recovered KNN diverges from reference "
                    f"(ids {got.ids.tolist()} vs {want.ids.tolist()})"
                )
            break

    if crashed and committed != ops_started - 1:
        # A crash interrupts exactly the op in flight; anything else means
        # commits were lost or invented.
        equivalent = False
        if error is None:
            error = (
                f"crash during op {ops_started} but {committed} commits "
                "recovered"
            )
    if not crashed and committed != len(ops):
        equivalent = False
        if error is None:
            error = (
                f"no crash but only {committed}/{len(ops)} commits "
                "recovered"
            )

    return CrashOutcome(
        crashpoint=crashpoint,
        crashed=crashed,
        ops_started=ops_started,
        committed_ops=committed,
        report=report,
        invariants_ok=invariants_ok,
        equivalent=equivalent,
        error=error,
    )


def sweep_schedules(
    n_writes: int,
    run: Callable[[CrashPoint], _T],
    max_schedules: Optional[int] = None,
) -> List[_T]:
    """Call ``run`` once per crash schedule and collect the results.

    The schedules are both phases of every write ``1..n_writes``, in
    :data:`~repro.storage.faults.PHASES` order (all ``"before"`` points,
    then all ``"after"`` points).  ``max_schedules`` subsamples that list
    evenly — every ``len // max_schedules``-th schedule — for quick smoke
    runs; ``None`` runs them all.
    """
    schedules = [
        CrashPoint(at_write=w, phase=phase)
        for phase in PHASES
        for w in range(1, n_writes + 1)
    ]
    if max_schedules is not None and len(schedules) > max_schedules:
        stride = max(1, len(schedules) // max_schedules)
        schedules = schedules[::stride]
    return [run(crashpoint) for crashpoint in schedules]


def crash_sweep(
    build_index: Callable[[], VectorIndex],
    ops: Sequence[Op],
    workdir: Union[str, Path],
    queries: np.ndarray,
    k: int,
) -> List[CrashOutcome]:
    """Crash on both sides of every physical write the workload issues
    and return one :class:`CrashOutcome` per schedule."""
    workdir = Path(workdir)
    return sweep_schedules(
        count_update_writes(build_index, ops, workdir),
        lambda crashpoint: run_crashpoint(
            build_index, ops, workdir, crashpoint, queries, k
        ),
    )
