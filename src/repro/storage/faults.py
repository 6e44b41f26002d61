"""Deterministic fault injection for the simulated storage stack.

The paper's testbed assumes a reliable disk; a production service cannot.
This module makes the failure modes of real storage reproducible on the
simulated :class:`~repro.storage.pager.PageStore`:

* **transient read errors** — a fetch raises
  :class:`~repro.storage.pager.TransientPageError`; the buffer pool's read
  path retries with bounded backoff and the query proceeds unharmed;
* **torn writes** — an allocate/overwrite lands, but the stored page image
  no longer matches its checksum, so the next buffer-pool miss raises
  :class:`~repro.storage.pager.PageCorruptionError`;
* **bit flips** — a resting page is corrupted in place at read time, with
  the same detection guarantee.

Faults come from a :class:`FaultPlan`: a seed plus per-operation
probabilities.  The plan is consumed through one private
``random.Random(seed)`` stream in operation order, so a given plan against
a given access pattern injects exactly the same faults every run — the
equivalence tests rely on this to assert that transient-only plans leave
KNN results bit-identical to a fault-free run.

Usage::

    plan = FaultPlan(seed=7, transient_read_prob=0.05)
    faulty = index.enable_faults(plan)        # wraps the index's store
    index.knn(query, k)                        # retries happen inside
    faulty.fault_metrics.counters["faults.retried"].value  # > 0

Every injection and retry is counted in the wrapper's
:class:`~repro.obs.metrics.MetricsRegistry` (``faults.injected``,
``faults.injected.<kind>``, ``faults.retried``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Set, TypeVar

from ..obs.metrics import MetricsRegistry
from .pager import (
    Page,
    PageStore,
    StoreWrapper,
    TransientPageError,
)

__all__ = [
    "CrashError",
    "CrashPoint",
    "FaultPlan",
    "FaultyPageStore",
    "PHASES",
    "RetryPolicy",
    "WriteClock",
    "corrupt_page",
]

_T = TypeVar("_T")


class CrashError(RuntimeError):
    """A simulated process crash (power loss) at a planned crashpoint.

    Raised by a :class:`WriteClock` when its :class:`CrashPoint` fires.
    The in-memory state that was mutating is considered lost; only what
    reached disk survives (for an index: the write-ahead log and the last
    checkpoint snapshot, which :func:`repro.recovery.recover` rebuilds
    from).  Catching this anywhere except a crash harness is a bug.
    """


#: The two sides of a physical write a :class:`CrashPoint` can cut.
PHASES = ("before", "after")


@dataclass(frozen=True)
class CrashPoint:
    """Deterministic crash schedule: die at the N-th physical write.

    ``at_write`` is 1-based and counts the writes a :class:`WriteClock`
    runs from the moment the point is armed on it.  ``phase`` selects
    which side of that write the power is cut on:

    * ``"after"`` (default) — the write took effect, nothing after it
      did.  For a WAL page write that means the log record is durable
      but the page image never lands: the classic torn schedule
      redo-only recovery exists for;
    * ``"before"`` — the write never happened (for the WAL, the log
      ends at the previous record).

    Either way the interrupted operation never completes; a sweep over
    both phases of every write proves recovery from both sides.
    """

    at_write: int
    phase: str = "after"

    def __post_init__(self) -> None:
        if self.at_write < 1:
            raise ValueError(
                f"at_write is 1-based and must be >= 1, got {self.at_write}"
            )
        if self.phase not in PHASES:
            raise ValueError(
                f"phase must be one of {PHASES}, got {self.phase!r}"
            )


class WriteClock:
    """Counts physical writes and fires an armed :class:`CrashPoint`.

    The page WAL (:class:`~repro.storage.wal.WALPageStore`) runs every
    log append through one clock, and the generation store
    (:class:`~repro.ingest.generation.GenerationStore`) every file
    operation of a swap: one crash schedule type, one firing rule.
    """

    def __init__(self) -> None:
        #: Physical writes run through :meth:`guarded` so far.
        self.writes = 0
        self.crashpoint: Optional[CrashPoint] = None
        self._armed_at = 0

    def arm(self, crashpoint: Optional[CrashPoint]) -> None:
        """Arm ``crashpoint`` (``None`` disarms); its ``at_write`` counts
        from the next write on."""
        self.crashpoint = crashpoint
        self._armed_at = self.writes

    def guarded(self, label: str, action: Callable[[], _T]) -> _T:
        """Run one physical write, crashing before or after it when the
        armed point says so."""
        self.writes += 1
        n = self.writes - self._armed_at
        self._fire("before", n, label)
        result = action()
        self._fire("after", n, label)
        return result

    def _fire(self, phase: str, n: int, label: str) -> None:
        cp = self.crashpoint
        if cp is not None and cp.phase == phase and cp.at_write == n:
            raise CrashError(
                f"simulated crash at write {n} ({phase} {label})"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient read faults.

    ``max_attempts`` counts the initial try: 5 means one read plus up to
    four retries.  Backoff doubles per retry from ``backoff_s``; the
    default is 0 because simulated storage has no device to wait out —
    set it > 0 when modelling real latency.
    """

    max_attempts: int = 5
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ValueError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )

    def sleep(self, attempt: int) -> None:
        """Back off before retry number ``attempt`` (1-based)."""
        if self.backoff_s > 0:
            time.sleep(self.backoff_s * (2 ** (attempt - 1)))


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of which faults to inject, and how often.

    Probabilities are per operation (per fetch for reads, per
    allocate/overwrite for writes).  ``transient_repeat`` is how many
    consecutive attempts a transient fault survives; the attempt after
    them reads clean — keep it below the retry policy's ``max_attempts``
    and every transient fault is recoverable, which is the precondition
    for the bit-identical-results guarantee.  ``max_faults`` caps total
    injections (``None`` = unlimited).
    """

    seed: int
    transient_read_prob: float = 0.0
    torn_write_prob: float = 0.0
    bit_flip_prob: float = 0.0
    transient_repeat: int = 1
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "transient_read_prob", "torn_write_prob", "bit_flip_prob"
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.transient_repeat < 1:
            raise ValueError(
                f"transient_repeat must be >= 1, got {self.transient_repeat}"
            )
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError(
                f"max_faults must be >= 0, got {self.max_faults}"
            )

    @property
    def transient_only(self) -> bool:
        """True when the plan can never corrupt data (recoverable faults
        only) — the regime under which results must stay bit-identical."""
        return self.torn_write_prob == 0.0 and self.bit_flip_prob == 0.0


def corrupt_page(store: PageStore, page_id: int, bit: int = 0) -> None:
    """Flip one bit of a stored page's image (simulated at-rest bit rot).

    The flip is modelled on the page's checksum word — equivalent, for
    detection purposes, to flipping a payload bit, without having to
    rewrite a live Python payload object.  The next checksum verification
    of the page (any buffer-pool miss) raises
    :class:`~repro.storage.pager.PageCorruptionError`.

    Routed through :meth:`~repro.storage.pager.PageStore.corrupt_checksum`
    so serializing stores (mmap) persist the flip in their metadata table
    instead of on a transient deserialized Page.
    """
    store.corrupt_checksum(page_id, bit)


class FaultyPageStore(StoreWrapper):
    """A :class:`~repro.storage.pager.StoreWrapper` that injects a
    :class:`FaultPlan` into fetches and writes.

    Install with :meth:`repro.index.base.VectorIndex.enable_faults` (or by
    swapping it in wherever the inner store was referenced).
    ``raw_fetch`` is inherited untouched: accounting replays never see a
    fault.
    """

    def __init__(
        self,
        inner: PageStore,
        plan: FaultPlan,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(inner)
        self.plan = plan
        self.fault_metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self._rng = random.Random(plan.seed)
        self._injected = 0
        # page_id -> consecutive attempts that must still fail; a page
        # at 0 reads clean once, then draws faults again.
        self._pending_transient: dict = {}
        # Pages already hit by a bit flip (corruption is permanent).
        self._flipped: Set[int] = set()

    # -- plan bookkeeping ------------------------------------------------

    def _budget_left(self) -> bool:
        return (
            self.plan.max_faults is None
            or self._injected < self.plan.max_faults
        )

    def _draw(self, probability: float) -> bool:
        if probability <= 0.0 or not self._budget_left():
            return False
        if self._rng.random() >= probability:
            return False
        self._injected += 1
        return True

    def _count(self, kind: str) -> None:
        self.fault_metrics.counter("faults.injected").inc()
        self.fault_metrics.counter(f"faults.injected.{kind}").inc()

    @property
    def faults_injected(self) -> int:
        """Total faults injected so far (all kinds)."""
        return self._injected

    # -- intercepted storage interface ----------------------------------

    def discard(self, page_id: int) -> None:
        self.inner.discard(page_id)
        self._pending_transient.pop(page_id, None)
        self._flipped.discard(page_id)

    def allocate(self, payload, size_bytes: int) -> int:
        page_id = self.inner.allocate(payload, size_bytes)
        if self._draw(self.plan.torn_write_prob):
            self._count("torn_write")
            corrupt_page(self.inner, page_id)
        return page_id

    def overwrite(self, page_id: int, payload, size_bytes: int) -> None:
        self.inner.overwrite(page_id, payload, size_bytes)
        if self._draw(self.plan.torn_write_prob):
            self._count("torn_write")
            corrupt_page(self.inner, page_id)

    def fetch(self, page_id: int) -> Page:
        pending = self._pending_transient.get(page_id)
        if pending:
            self._pending_transient[page_id] = pending - 1
            raise TransientPageError(
                f"injected transient read fault on page {page_id} "
                f"({pending - 1} repeats left)"
            )
        if pending is not None:
            # The fault's run is over: this attempt reads clean, so a
            # run shorter than the retry budget always recovers.
            del self._pending_transient[page_id]
        elif self._draw(self.plan.transient_read_prob):
            self._count("transient")
            self._pending_transient[page_id] = self.plan.transient_repeat - 1
            raise TransientPageError(
                f"injected transient read fault on page {page_id}"
            )
        if page_id not in self._flipped and self._draw(
            self.plan.bit_flip_prob
        ):
            self._count("bit_flip")
            self._flipped.add(page_id)
            corrupt_page(self.inner, page_id)
        return self.inner.fetch(page_id)

    def free(self, page_id: int) -> None:
        self.inner.free(page_id)
        self._pending_transient.pop(page_id, None)
        self._flipped.discard(page_id)
