"""Redo-only (ARIES-lite) recovery from checkpoint + write-ahead log.

The recovery contract (DESIGN.md §10):

* A **checkpoint** is a :mod:`repro.persist` snapshot of the whole index
  plus a ``CHECKPOINT`` record naming it; the log is truncated to that
  record, so recovery work is bounded by the update traffic since.
* **Analysis** scans the log (tolerating a torn tail — the expected end
  state of a crash mid-append) and collects the transactions that reached
  their ``COMMIT`` record.  Everything else is discarded: an insert or
  delete whose commit never became durable simply never happened
  (atomicity), which makes in-process failure and power loss the same
  case.
* **Redo** replays committed transactions in LSN order: physical page
  after-images are installed into the page store, gated on the page's
  stamped LSN so replay is idempotent; then each commit's index-level
  metadata after-image (delta-store entry, radii, B+-tree scalars — state
  that is not page-resident) is applied via
  ``VectorIndex._apply_recovery_meta``.  There is no undo pass — nothing
  from an uncommitted transaction is ever applied.

An **index directory** is the durable unit every caller above the index
persists and reopens: ``ckpt/`` (the snapshot), ``wal.log`` (a WAL whose
CHECKPOINT names that snapshot) and ``rid_map.npy`` (local → global rids).
:func:`index_dir_writes` lays one out and :func:`recover_index_dir`
reopens it; serving shards and ingest generations are both written and
read through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..index.base import VectorIndex
from ..obs.tracer import Tracer, ensure_tracer
from ..persist.snapshot import load_index, save_index, snapshot_generation
from ..storage.wal import (
    CHECKPOINT,
    COMMIT,
    PAGE_ALLOC,
    PAGE_FREE,
    PAGE_WRITE,
    WALError,
    WALRecord,
    WriteAheadLog,
)

__all__ = [
    "GenerationMismatchError",
    "RID_MAP_NAME",
    "RecoveryError",
    "RecoveryReport",
    "SNAPSHOT_NAME",
    "WAL_NAME",
    "checkpoint",
    "index_dir_writes",
    "recover",
    "recover_index_dir",
]

#: The three files of an index directory.
SNAPSHOT_NAME = "ckpt"
WAL_NAME = "wal.log"
RID_MAP_NAME = "rid_map.npy"


class RecoveryError(WALError):
    """The log + snapshot pair cannot produce a consistent index (no
    checkpoint to start from, snapshot missing, or malformed records)."""


class GenerationMismatchError(RecoveryError):
    """The snapshot belongs to a different index generation than the log's
    CHECKPOINT record declares (DESIGN.md §15).  Replaying a newer
    generation's log onto an older generation's snapshot would silently
    produce a hybrid state, so the pair is rejected outright."""


@dataclass
class RecoveryReport:
    """What one :func:`recover` call saw and did."""

    wal_path: str
    snapshot_path: str
    checkpoint_lsn: int
    records_scanned: int
    torn_tail_bytes: int
    committed_txns: int
    discarded_txns: int
    pages_redone: int
    pages_skipped: int
    pages_freed: int
    metas_applied: int
    committed_kinds: List[str] = field(default_factory=list)
    #: Payload of the CHECKPOINT record recovery started from (empty when
    #: the log had none), including any caller ``extra`` watermarks.
    checkpoint_payload: dict = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"recovered from {self.snapshot_path} + "
            f"{self.committed_txns} committed txns "
            f"({self.discarded_txns} discarded, "
            f"{self.pages_redone} pages redone, "
            f"{self.torn_tail_bytes} torn bytes dropped)"
        )


def checkpoint(
    index: VectorIndex,
    snapshot_path: Union[str, Path],
    generation: Optional[int] = None,
    extra: Optional[dict] = None,
) -> int:
    """Snapshot a WAL-protected index and truncate its log.

    The WAL wrapper is detached around the snapshot write (an open log
    file cannot — and must not — be pickled into the snapshot), then
    reattached before the ``CHECKPOINT`` record is appended.  Returns the
    checkpoint record's LSN.

    ``generation`` stamps both the snapshot manifest and the CHECKPOINT
    record, which is what lets :func:`recover` refuse a mixed
    snapshot/log pair with :class:`GenerationMismatchError`.  ``extra``
    rides along in the CHECKPOINT payload
    (:meth:`~repro.storage.wal.WriteAheadLog.checkpoint`) and comes back
    as :attr:`RecoveryReport.checkpoint_payload`.
    """
    wal_store = index.disable_wal()
    if wal_store is None:
        raise RecoveryError(
            "checkpoint requires WAL protection; call enable_wal first"
        )
    try:
        save_index(index, snapshot_path, generation=generation)
    finally:
        index.reattach_wal(wal_store)
    return wal_store.wal.checkpoint(
        snapshot_path, truncate=True, generation=generation, extra=extra
    )


def _analyze(
    records: List[WALRecord],
) -> Tuple[Optional[WALRecord], List[WALRecord], int]:
    """Find the last checkpoint, the committed COMMIT records after it
    (in LSN order), and the count of discarded (uncommitted) txns."""
    ckpt: Optional[WALRecord] = None
    for record in records:
        if record.rtype == CHECKPOINT:
            ckpt = record
    after = [
        r for r in records if ckpt is None or r.lsn > ckpt.lsn
    ]
    commits = [r for r in after if r.rtype == COMMIT]
    committed_ids = {r.txn_id for r in commits}
    seen_ids = {r.txn_id for r in after if r.txn_id != 0}
    return ckpt, commits, len(seen_ids - committed_ids)


def recover(
    wal_path: Union[str, Path],
    snapshot_path: Optional[Union[str, Path]] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[VectorIndex, RecoveryReport]:
    """Rebuild a crash-consistent index from ``wal_path``.

    The baseline state comes from the snapshot the log's last
    ``CHECKPOINT`` record names (override with ``snapshot_path`` when the
    snapshot directory moved).  Returns the recovered index — WAL
    *detached*; the caller re-enables it to resume mutating — plus a
    :class:`RecoveryReport`.
    """
    wal_path = Path(wal_path)
    if not wal_path.is_file():
        raise RecoveryError(f"no write-ahead log at {wal_path}")
    tracer = ensure_tracer(tracer)
    records, _, torn = WriteAheadLog.scan(wal_path)
    ckpt, commits, discarded = _analyze(records)
    if ckpt is None and snapshot_path is None:
        raise RecoveryError(
            f"log {wal_path} holds no CHECKPOINT record and no snapshot "
            "path was given; there is no baseline state to recover onto"
        )
    if snapshot_path is None:
        # Relative to the log's directory; logs written before snapshot
        # paths were stored relative hold absolute ones, which the join
        # keeps as they are.
        snapshot_path = wal_path.parent / ckpt.payload["snapshot"]
    checkpoint_lsn = ckpt.lsn if ckpt is not None else 0

    # Generation cross-check (DESIGN.md §15): a CHECKPOINT stamped with a
    # generation only ever replays onto a snapshot stamped with the same
    # one.  An unstamped snapshot (pre-generation format) paired with a
    # stamped log is equally refused — it cannot prove it matches.
    wal_generation = (
        ckpt.payload.get("generation") if ckpt is not None else None
    )
    if wal_generation is not None:
        snap_generation = snapshot_generation(snapshot_path)
        if snap_generation != wal_generation:
            raise GenerationMismatchError(
                f"log {wal_path} checkpoints generation "
                f"{wal_generation}, but snapshot {snapshot_path} is "
                f"generation {snap_generation}; replaying would build a "
                "hybrid of two generations"
            )

    with tracer.span(
        "recovery.run",
        records=len(records),
        committed=len(commits),
        discarded=discarded,
    ):
        with tracer.span("recovery.load_snapshot"):
            index = load_index(snapshot_path)
        store = index.store
        committed_ids = {r.txn_id for r in commits}
        pages_redone = pages_skipped = pages_freed = 0
        with tracer.span("recovery.redo_pages"):
            for record in records:
                if record.lsn <= checkpoint_lsn:
                    continue
                if record.txn_id not in committed_ids:
                    continue
                if record.rtype in (PAGE_ALLOC, PAGE_WRITE):
                    body = record.payload
                    page_id = body["page_id"]
                    if page_id in store:
                        lsn = store.raw_fetch(page_id).lsn
                        if lsn is not None and lsn >= record.lsn:
                            pages_skipped += 1
                            continue
                    store.install(
                        page_id,
                        body["payload"],
                        body["size_bytes"],
                        lsn=record.lsn,
                    )
                    pages_redone += 1
                elif record.rtype == PAGE_FREE:
                    store.discard(record.payload["page_id"])
                    pages_freed += 1
        metas_applied = 0
        kinds: List[str] = []
        with tracer.span("recovery.redo_meta"):
            for commit in commits:
                meta = commit.payload.get("meta")
                if meta is None:
                    raise RecoveryError(
                        f"COMMIT lsn={commit.lsn} carries no metadata "
                        "after-image; the mutator failed to set_meta"
                    )
                index._apply_recovery_meta(meta)
                metas_applied += 1
                kinds.append(commit.payload.get("kind", "?"))
        # The snapshot's buffer pool may cache pre-crash page objects that
        # redo just replaced — recovery ends with a cold pool.
        index.reset_cache()

    report = RecoveryReport(
        wal_path=str(wal_path),
        snapshot_path=str(snapshot_path),
        checkpoint_lsn=checkpoint_lsn,
        records_scanned=len(records),
        torn_tail_bytes=torn,
        committed_txns=len(commits),
        discarded_txns=discarded,
        pages_redone=pages_redone,
        pages_skipped=pages_skipped,
        pages_freed=pages_freed,
        metas_applied=metas_applied,
        committed_kinds=kinds,
        checkpoint_payload=dict(ckpt.payload) if ckpt is not None else {},
    )
    return index, report


def index_dir_writes(
    index: VectorIndex,
    directory: Union[str, Path],
    rid_map: np.ndarray,
    generation: Optional[int] = None,
    extra: Optional[dict] = None,
) -> List[Tuple[str, Callable[[], None]]]:
    """The writes that lay out an index directory, as labelled steps in
    order: the rid map, the snapshot, then a fresh WAL whose CHECKPOINT
    names that snapshot (``generation`` and ``extra`` as in
    :func:`checkpoint`).  The caller runs each step, so a crash clock can
    guard them one by one."""
    directory = Path(directory)
    snapshot_path = directory / SNAPSHOT_NAME

    def write_rid_map() -> None:
        np.save(
            directory / RID_MAP_NAME,
            np.ascontiguousarray(rid_map, dtype=np.int64),
        )

    def write_snapshot() -> None:
        save_index(index, snapshot_path, generation=generation)

    def write_wal() -> None:
        wal = WriteAheadLog(directory / WAL_NAME)
        try:
            wal.checkpoint(
                snapshot_path,
                truncate=True,
                generation=generation,
                extra=extra,
            )
        finally:
            wal.close()

    return [
        ("rid_map", write_rid_map),
        ("snapshot", write_snapshot),
        ("wal", write_wal),
    ]


def recover_index_dir(
    directory: Union[str, Path],
) -> Tuple[VectorIndex, np.ndarray, RecoveryReport]:
    """Reopen an index directory through :func:`recover`.  Returns
    ``(index, rid_map, report)``; the index comes back WAL-detached."""
    directory = Path(directory)
    index, report = recover(
        directory / WAL_NAME, snapshot_path=directory / SNAPSHOT_NAME
    )
    return index, np.load(directory / RID_MAP_NAME), report
