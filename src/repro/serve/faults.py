"""Seeded process-level fault injection for shard workers.

:mod:`repro.storage.faults` injects faults *below* an index (torn pages,
transient reads); serving adds a second failure domain — the worker
process and its connection.  A :class:`WorkerFaultSpec` rides into the
worker at spawn time and fires deterministically on the N-th KNN request
the process receives, covering exactly the failure modes the router's
ladder has a rung for:

==================  ====================================================
``kill_on_request``  SIGKILL mid-request → EOF at the router
                     (``ConnectionLostError``) → supervised respawn.
``hang_on_request``  Sleep ``hang_s`` before replying → deadline expiry
                     at the router → retry.
``garble_on_request`` Reply with a bit-flipped payload (CRC intact
                     length prefix) → ``GarbledFrameError`` → retry on
                     the same, still-aligned connection.
``drop_on_request``  Swallow the reply entirely → deadline expiry with
                     a healthy worker → the retry answers.
==================  ====================================================

Ordinals are 1-based and count every KNN request the worker *receives* —
retries included, which is what makes "the retry succeeds"
deterministic: the fault fired on request 1, the retry is request 2.
``persistent=False`` (default) means the fault belongs to one process
life: the supervisor drops the spec on respawn, so recovery genuinely
recovers.  ``persistent=True`` re-arms the spec in every
respawned worker — the route-around rung (a shard that never comes back).

``storage_plan`` additionally wraps the worker's store in a seeded
:class:`~repro.storage.faults.FaultPlan` at startup, so storage-level and
process-level faults compose in one shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..storage.faults import FaultPlan

__all__ = ["WorkerFaultSpec"]


@dataclass(frozen=True)
class WorkerFaultSpec:
    """Deterministic fault schedule for one shard worker process."""

    kill_on_request: Optional[int] = None
    hang_on_request: Optional[int] = None
    hang_s: float = 1.0
    garble_on_request: Optional[int] = None
    drop_on_request: Optional[int] = None
    #: Re-arm in every respawned process (route-around scenarios) instead
    #: of dying with the first process (recovery scenarios).
    persistent: bool = False
    #: Storage-level faults enabled on the worker's index at startup.
    storage_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        for name in (
            "kill_on_request",
            "hang_on_request",
            "garble_on_request",
            "drop_on_request",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(
                    f"{name} is a 1-based request ordinal, got {value}"
                )
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s}")

    def _fires(self, ordinal: int, at: Optional[int]) -> bool:
        if at is None:
            return False
        return ordinal >= at if self.persistent else ordinal == at

    def should_kill(self, ordinal: int) -> bool:
        return self._fires(ordinal, self.kill_on_request)

    def should_hang(self, ordinal: int) -> bool:
        return self._fires(ordinal, self.hang_on_request)

    def should_garble(self, ordinal: int) -> bool:
        return self._fires(ordinal, self.garble_on_request)

    def should_drop(self, ordinal: int) -> bool:
        return self._fires(ordinal, self.drop_on_request)
