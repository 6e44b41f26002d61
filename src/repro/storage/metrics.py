"""Cost accounting shared by every storage-backed component.

The paper reports two per-query costs for each indexing scheme: page
accesses (I/O cost, Figures 9a/9b) and CPU time (Figures 10a/10b).  Both are
collected here.  Every page read in the reproduction flows through a
:class:`CostCounters` instance attached to the buffer pool, and the search
code times itself with :meth:`CostCounters.cpu_timer`, so experiment
harnesses can diff two snapshots around a query batch and report exactly what
the paper plots.

Distance-computation and key-comparison counts are also tracked.  They are
deterministic (unlike wall-clock time) and are used by the test suite to
cross-check the CPU-cost *trends* the paper claims — e.g. that the Hybrid
tree performs d-dimensional distance computations in its internal nodes while
the extended iDistance only compares 1-dimensional keys.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator

__all__ = ["CostCounters", "CostSnapshot"]


@dataclass
class CostSnapshot:
    """Immutable copy of counter values at one instant.

    Produced by :meth:`CostCounters.snapshot`; two snapshots can be
    subtracted to get the cost of the work done between them.
    """

    logical_reads: int = 0
    physical_reads: int = 0
    page_writes: int = 0
    sequential_reads: int = 0
    distance_computations: int = 0
    distance_flops: int = 0
    key_comparisons: int = 0
    cpu_seconds: float = 0.0

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def total_page_reads(self) -> int:
        """Physical page accesses: random (buffer misses) plus sequential."""
        return self.physical_reads + self.sequential_reads


@dataclass
class CostCounters:
    """Mutable cost accumulator.

    Attributes
    ----------
    logical_reads:
        Page read requests, whether or not they hit the buffer pool.
    physical_reads:
        Page reads that missed the buffer pool (what Figure 9 plots).
    page_writes:
        Pages written (index construction cost).
    sequential_reads:
        Pages read by streaming scans that bypass the buffer pool, e.g. the
        sequential-scan baseline of Figure 9.
    distance_computations:
        Full-vector distance evaluations (any metric, any dimensionality).
    distance_flops:
        Dimension-weighted distance work: a d-dimensional evaluation adds d.
        This is the deterministic stand-in for the CPU trends of Figure 10 —
        wall-clock time depends on the host, flops do not.
    key_comparisons:
        Single-dimensional key comparisons (B+-tree traversal).
    cpu_seconds:
        Wall-clock time accumulated inside :meth:`cpu_timer` blocks.
    """

    logical_reads: int = 0
    physical_reads: int = 0
    page_writes: int = 0
    sequential_reads: int = 0
    distance_computations: int = 0
    distance_flops: int = 0
    key_comparisons: int = 0
    cpu_seconds: float = 0.0
    _timer_depth: int = field(default=0, repr=False)

    def count_logical_read(self, pages: int = 1) -> None:
        self.logical_reads += pages

    def count_physical_read(self, pages: int = 1) -> None:
        self.physical_reads += pages

    def count_page_write(self, pages: int = 1) -> None:
        self.page_writes += pages

    def count_sequential_read(self, pages: int = 1) -> None:
        self.sequential_reads += pages

    def count_distance(self, n: int = 1, dims: int = 1) -> None:
        self.distance_computations += n
        self.distance_flops += n * dims

    def count_key_comparison(self, n: int = 1) -> None:
        self.key_comparisons += n

    @contextmanager
    def cpu_timer(self) -> Iterator[None]:
        """Accumulate wall time for the enclosed block into ``cpu_seconds``.

        Nested use is safe: only the outermost block accumulates, so calling
        code can wrap a whole query while helpers wrap themselves too.
        """
        self._timer_depth += 1
        start = time.perf_counter() if self._timer_depth == 1 else None
        try:
            yield
        finally:
            self._timer_depth -= 1
            if start is not None:
                self.cpu_seconds += time.perf_counter() - start

    def merge(self, delta: CostSnapshot) -> None:
        """Fold a snapshot *delta* into these counters.

        Used by the batched query path: work accounted elsewhere (the
        shared scan's per-query ledgers) is summed and folded back so the
        index's own counters still reflect every query it has ever
        answered.
        """
        for name in _SNAPSHOT_FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(delta, name))

    def snapshot(self) -> CostSnapshot:
        """Copy the current counter values.

        Field-driven (``dataclasses.fields(CostSnapshot)``), so a counter
        added to both dataclass declarations is picked up automatically —
        there is no third place to keep in sync.
        """
        return CostSnapshot(
            **{name: getattr(self, name) for name in _SNAPSHOT_FIELD_NAMES}
        )

    def reset(self) -> None:
        """Zero every counter (timer nesting state is preserved)."""
        for f in fields(CostSnapshot):
            setattr(self, f.name, f.default)


# Snapshot fields are the single source of truth for snapshot()/reset();
# resolved once because snapshot() sits on the per-query hot path.
_SNAPSHOT_FIELD_NAMES = tuple(f.name for f in fields(CostSnapshot))

# Import-time sync guard: every public CostCounters field must have a
# CostSnapshot twin (and vice versa), otherwise snapshot()/__sub__ would
# silently drop the new counter.  Fails fast instead.
_counter_fields = {
    f.name for f in fields(CostCounters) if not f.name.startswith("_")
}
if _counter_fields != set(_SNAPSHOT_FIELD_NAMES):
    raise TypeError(
        "CostCounters and CostSnapshot fields out of sync: "
        f"{sorted(_counter_fields ^ set(_SNAPSHOT_FIELD_NAMES))}"
    )
