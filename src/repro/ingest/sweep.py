"""Crashpoint sweep over the generational build → swap → truncate sequence.

The contract under test (ISSUE: crash-consistent reorganization): kill the
process at **any** physical write of the swap protocol and a subsequent
:meth:`~repro.ingest.pipeline.IngestPipeline.open` must recover to exactly
the old generation or exactly the new one — a batch-KNN fingerprint equal
to the pre-swap fingerprint or the post-swap fingerprint, never anything
else.  "Anything else" is what a hybrid state (new snapshot + old WAL, old
matrix + new rid map, half-deleted generation directory) would produce.

:func:`swap_crash_sweep` first runs the identical workload cleanly to
learn the two legal fingerprints and the number of physical writes in the
sequence, then replays it once per ``(phase, at_write)`` crash schedule —
both torn sides of every write — recovering and fingerprinting each time.
The schedules come from :func:`repro.recovery.harness.sweep_schedules`,
which the per-operation WAL sweep uses too: that one proves single
mutations atomic, this one proves whole-generation swaps atomic.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..bench.fingerprint import batch_fingerprint
from ..recovery.harness import sweep_schedules
from ..reduction.base import ReducedDataset
from ..storage.faults import CrashError, CrashPoint
from .pipeline import IngestPipeline, IngestThresholds, Op

__all__ = [
    "SwapSweepOutcome",
    "SwapSweepReport",
    "swap_crash_sweep",
]


@dataclass(frozen=True)
class SwapSweepOutcome:
    """One crash schedule's verdict."""

    phase: str
    at_write: int
    #: "old" | "new" — which legal generation recovery landed on.
    recovered_to: str
    generation: int
    ops_replayed: int


@dataclass(frozen=True)
class SwapSweepReport:
    """Verdicts for every schedule in one sweep (all of them legal, or the
    sweep raised)."""

    scheme: str
    swap_writes: int
    pre_fingerprint: str
    post_fingerprint: str
    outcomes: Tuple[SwapSweepOutcome, ...]

    @property
    def schedules(self) -> int:
        return len(self.outcomes)

    @property
    def recovered_old(self) -> int:
        return sum(1 for o in self.outcomes if o.recovered_to == "old")

    @property
    def recovered_new(self) -> int:
        return sum(1 for o in self.outcomes if o.recovered_to == "new")

    def summary(self) -> str:
        return (
            f"{self.scheme}: {self.schedules} crash schedules over "
            f"{self.swap_writes} swap writes -> {self.recovered_old} "
            f"recovered to the old generation, {self.recovered_new} to "
            f"the new, 0 hybrids"
        )


def _run_workload(
    root: Path,
    points: np.ndarray,
    ops: Sequence[Op],
    reduce_fn: Callable[[np.ndarray], ReducedDataset],
    scheme: str,
) -> IngestPipeline:
    """Create a pipeline and push the whole mutation stream through it
    (reorganization strictly manual — the sweep owns the swap timing)."""
    pipeline, _ = IngestPipeline.create(
        root,
        points,
        reduce_fn,
        scheme,
        thresholds=IngestThresholds(
            drift_score=float("inf"),
            delta_fraction=float("inf"),
            tombstone_fraction=float("inf"),
        ),
        auto_reorg=False,
    )
    for op in ops:
        pipeline.apply(op)
    return pipeline


def swap_crash_sweep(
    root: Union[str, Path],
    points: np.ndarray,
    ops: Sequence[Op],
    queries: np.ndarray,
    k: int,
    reduce_fn: Callable[[np.ndarray], ReducedDataset],
    scheme: str,
    max_schedules: Optional[int] = None,
) -> SwapSweepReport:
    """Sweep every ``(phase, at_write)`` crash schedule of one reorg.

    ``reduce_fn`` must be deterministic (seeded) — the post-swap
    fingerprint is only well-defined if rebuilding the same live set
    yields the same index.  ``max_schedules`` subsamples the sweep evenly
    (both phases kept) for quick smoke runs; ``None`` sweeps every write.

    Raises ``AssertionError`` with a diagnostic if any schedule recovers
    to a fingerprint that is neither the pre- nor the post-swap one.
    """
    root = Path(root)
    queries = np.ascontiguousarray(queries, dtype=np.float64)

    # Clean probe: learn the two legal fingerprints and the write count.
    clean_dir = root / "clean"
    pipeline = _run_workload(clean_dir, points, ops, reduce_fn, scheme)
    try:
        pre = pipeline.knn_batch(queries, k)
        pre_fp = batch_fingerprint(pre.ids, pre.distances)
        reorg = pipeline.reorg()
        post = pipeline.knn_batch(queries, k)
        post_fp = batch_fingerprint(post.ids, post.distances)
    finally:
        pipeline.close()

    def run(crashpoint: CrashPoint) -> SwapSweepOutcome:
        phase, at_write = crashpoint.phase, crashpoint.at_write
        run_dir = root / f"crash-{phase}-{at_write:03d}"
        pipeline = _run_workload(run_dir, points, ops, reduce_fn, scheme)
        pipeline.store.clock.arm(crashpoint)
        try:
            pipeline.reorg()
        except CrashError:
            pass
        else:  # pragma: no cover - sweep misconfiguration
            raise AssertionError(
                f"crashpoint ({phase}, {at_write}) did not fire"
            )
        finally:
            pipeline.close()

        recovered, report = IngestPipeline.open(
            run_dir,
            reduce_fn=reduce_fn,
            scheme=scheme,
            auto_reorg=False,
        )
        try:
            result = recovered.knn_batch(queries, k)
            fp = batch_fingerprint(result.ids, result.distances)
        finally:
            recovered.close()

        # Which generation did recovery land on?  The manifest says; the
        # fingerprint must then match that generation's legal answer.
        # (The two fingerprints often coincide — both generations index
        # the same live set exactly — so the generation number, not the
        # digest, is what discriminates old from new.)
        if report.generation == 1:
            recovered_to, expected_fp = "old", pre_fp
        elif report.generation == 2:
            recovered_to, expected_fp = "new", post_fp
        else:
            raise AssertionError(
                f"hybrid recovery at schedule ({phase}, {at_write}): "
                f"landed on unexpected generation {report.generation}"
            )
        if fp != expected_fp:
            raise AssertionError(
                f"hybrid recovery at schedule ({phase}, {at_write}): "
                f"recovered generation {report.generation} but "
                f"fingerprint {fp} != expected {expected_fp} "
                f"(pre {pre_fp}, post {post_fp})"
            )
        shutil.rmtree(run_dir, ignore_errors=True)
        return SwapSweepOutcome(
            phase=phase,
            at_write=at_write,
            recovered_to=recovered_to,
            generation=report.generation,
            ops_replayed=report.ops_replayed,
        )

    outcomes = sweep_schedules(reorg.swap_writes, run, max_schedules)
    return SwapSweepReport(
        scheme=scheme,
        swap_writes=reorg.swap_writes,
        pre_fingerprint=pre_fp,
        post_fingerprint=post_fp,
        outcomes=tuple(outcomes),
    )
