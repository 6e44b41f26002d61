"""Page-level write-ahead logging for the simulated storage stack.

PR 3 made the *read* path fault-tolerant; this module is the write-path
counterpart (DESIGN.md §10).  Every page mutation applied through a
:class:`WALPageStore` is first framed as a CRC-checked record and appended
to an on-disk :class:`WriteAheadLog`, then applied to the wrapped in-memory
:class:`~repro.storage.pager.PageStore` with the record's LSN stamped on the
page.  A process crash therefore loses at most the in-memory state — the
log plus the last checkpoint snapshot always reconstruct every *committed*
mutation (:mod:`repro.recovery`).

Log format
----------
The log is a flat append-only file of records::

    +-------+-----+--------+-------+-------------+-------+---------+
    | magic | lsn | txn_id | rtype | payload_len | crc32 | payload |
    | 4s    | u64 | u64    | u8    | u32         | u32   | bytes   |
    +-------+-----+--------+-------+-------------+-------+---------+

``crc32`` covers the header fields *and* the payload, so any torn tail —
a header cut short, a payload cut short, or a record half-written when the
power died — fails verification and replay stops at the last intact record
(``wal.torn_tail_dropped`` counts the discarded bytes).  LSNs increase by
one per record and survive checkpoint truncation, so a page stamped with an
LSN can always be ordered against any record in any later log segment.

Record types
------------
``BEGIN``/``COMMIT`` bracket one logical index mutation (an insert or a
delete).  ``PAGE_ALLOC``/``PAGE_WRITE``/``PAGE_FREE`` carry physical page
after-images (the payload object pickled at append time, i.e. the page
bytes as of that write).  ``COMMIT`` additionally carries the index-level
metadata after-image (delta-store entry, radii, tree scalars) that lives
outside the page store.  ``CHECKPOINT`` names a snapshot directory; records
before the last checkpoint are dead weight and are dropped when the
checkpoint truncates the log.

Transactions are strictly serial (the reproduction's mutators are
single-threaded); a page mutation outside an open transaction raises
:class:`WALProtocolError` rather than silently escaping crash protection.

Crashpoints
-----------
Every log append of a page mutation runs through the
:class:`WALPageStore`'s :class:`~repro.storage.faults.WriteClock`.  A
:class:`~repro.storage.faults.CrashPoint` armed there raises
:class:`~repro.storage.faults.CrashError` at the N-th physical page write
— before or after its log append, by plan — which is how
:func:`repro.recovery.crash_sweep` covers every torn schedule
deterministically.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple, Union

from ..obs.metrics import MetricsRegistry
from .faults import CrashPoint, WriteClock
from .pager import PageStore, StoreWrapper

__all__ = [
    "WAL_MAGIC",
    "BEGIN",
    "PAGE_ALLOC",
    "PAGE_WRITE",
    "PAGE_FREE",
    "COMMIT",
    "CHECKPOINT",
    "RECORD_TYPE_NAMES",
    "WALError",
    "WALProtocolError",
    "WALRecord",
    "WALTransaction",
    "WriteAheadLog",
    "WALPageStore",
]

#: Per-record magic: cheap resynchronization check ahead of the CRC.
WAL_MAGIC = b"WALR"

# Record types.
BEGIN = 1
PAGE_ALLOC = 2
PAGE_WRITE = 3
PAGE_FREE = 4
COMMIT = 5
CHECKPOINT = 6

RECORD_TYPE_NAMES = {
    BEGIN: "BEGIN",
    PAGE_ALLOC: "PAGE_ALLOC",
    PAGE_WRITE: "PAGE_WRITE",
    PAGE_FREE: "PAGE_FREE",
    COMMIT: "COMMIT",
    CHECKPOINT: "CHECKPOINT",
}

#: Header minus the trailing CRC word (which covers header + payload).
_PREFIX = struct.Struct("<4sQQBI")
_CRC = struct.Struct("<I")
_HEADER_SIZE = _PREFIX.size + _CRC.size


class WALError(RuntimeError):
    """Base class for write-ahead-log failures."""


class WALProtocolError(WALError):
    """The WAL was used outside its contract: a page mutation without an
    open transaction, nested transactions, or commit of a foreign/closed
    transaction.  These are caller bugs, never recoverable at runtime."""


class WALRecord:
    """One decoded log record (immutable value object)."""

    __slots__ = ("lsn", "txn_id", "rtype", "payload")

    def __init__(self, lsn: int, txn_id: int, rtype: int, payload: Any):
        self.lsn = lsn
        self.txn_id = txn_id
        self.rtype = rtype
        self.payload = payload

    @property
    def type_name(self) -> str:
        return RECORD_TYPE_NAMES.get(self.rtype, f"UNKNOWN({self.rtype})")

    def __repr__(self) -> str:  # debugging aid for recovery reports
        return (
            f"WALRecord(lsn={self.lsn}, txn={self.txn_id}, "
            f"type={self.type_name})"
        )


class WALTransaction:
    """Handle for one open logical mutation (insert/delete).

    The mutator calls :meth:`set_meta` with the index-level after-image
    just before the transaction commits; recovery hands that payload back
    to ``VectorIndex._apply_recovery_meta`` after redoing the
    transaction's page records.
    """

    __slots__ = ("txn_id", "kind", "meta", "committed")

    def __init__(self, txn_id: int, kind: str) -> None:
        self.txn_id = txn_id
        self.kind = kind
        self.meta: Optional[dict] = None
        self.committed = False

    def set_meta(self, meta: dict) -> None:
        self.meta = meta


def _encode(lsn: int, txn_id: int, rtype: int, payload: Any) -> bytes:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    prefix = _PREFIX.pack(WAL_MAGIC, lsn, txn_id, rtype, len(body))
    crc = zlib.crc32(prefix + body) & 0xFFFFFFFF
    return prefix + _CRC.pack(crc) + body


def _decode_stream(
    data: bytes,
) -> Tuple[List[WALRecord], int]:
    """Decode records from ``data``; return them plus the byte offset of
    the first invalid/torn record (== ``len(data)`` for a clean log)."""
    records: List[WALRecord] = []
    offset = 0
    total = len(data)
    while True:
        if total - offset < _HEADER_SIZE:
            break
        magic, lsn, txn_id, rtype, length = _PREFIX.unpack_from(data, offset)
        if magic != WAL_MAGIC:
            break
        (crc,) = _CRC.unpack_from(data, offset + _PREFIX.size)
        body_start = offset + _HEADER_SIZE
        if total - body_start < length:
            break  # payload torn off mid-record
        body = data[body_start : body_start + length]
        actual = (
            zlib.crc32(data[offset : offset + _PREFIX.size] + body)
            & 0xFFFFFFFF
        )
        if actual != crc:
            break
        try:
            payload = pickle.loads(body)
        except Exception:
            break  # CRC collision on garbage — treat as torn
        records.append(WALRecord(lsn, txn_id, rtype, payload))
        offset = body_start + length
    return records, offset


class WriteAheadLog:
    """Append-only, CRC-framed, LSN-ordered log file.

    Opening an existing log scans it, keeps the longest valid prefix, and
    truncates any torn tail in place (counted in ``wal.torn_tail_dropped``
    bytes) — the next LSN continues after the last surviving record.

    Parameters
    ----------
    path:
        Log file location (created empty when absent).
    metrics:
        Registry for ``wal.*`` counters; a private one is created when
        omitted.
    fsync:
        Issue ``os.fsync`` on every flush.  Defaults off: the tests crash
        processes logically (exceptions), not physically, and the paper's
        cost model has no fsync column.
    """

    def __init__(
        self,
        path: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fsync = fsync
        self._active: Optional[WALTransaction] = None
        next_lsn, next_txn = 1, 1
        if self.path.exists():
            records, valid_bytes, torn = self.scan(self.path)
            if torn:
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid_bytes)
                self.metrics.counter("wal.torn_tail_dropped").inc(torn)
            if records:
                next_lsn = records[-1].lsn + 1
                next_txn = (
                    max(r.txn_id for r in records) + 1
                )
            self._records_in_log = len(records)
            self._bytes_in_log = valid_bytes
            # Commits since the last CHECKPOINT record in the surviving
            # log.  Counting only records past that LSN keeps the reopened
            # figure exact even for logs written with truncate=False (or
            # any log where commits precede a checkpoint), matching what
            # the incremental counter would have reported pre-reopen.
            last_ckpt_lsn = max(
                (r.lsn for r in records if r.rtype == CHECKPOINT),
                default=0,
            )
            self._commits_since_checkpoint = sum(
                1
                for r in records
                if r.rtype == COMMIT and r.lsn > last_ckpt_lsn
            )
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._records_in_log = 0
            self._bytes_in_log = 0
            self._commits_since_checkpoint = 0
        self._next_lsn = next_lsn
        self._next_txn = max(next_txn, 1)
        self._fh = open(self.path, "ab")

    # ------------------------------------------------------------------
    # low-level record I/O
    # ------------------------------------------------------------------

    @staticmethod
    def scan(
        path: Union[str, Path]
    ) -> Tuple[List[WALRecord], int, int]:
        """Decode ``path`` → ``(records, valid_bytes, torn_tail_bytes)``.

        Never raises on a torn tail: the longest valid record prefix is
        returned and the remainder reported as dropped bytes, which is the
        crash-recovery contract (a half-written record *is* the expected
        end state of a crash mid-append).
        """
        data = Path(path).read_bytes()
        records, valid_bytes = _decode_stream(data)
        return records, valid_bytes, len(data) - valid_bytes

    def append(self, rtype: int, payload: Any, txn_id: int = 0) -> int:
        """Frame and append one record; returns its LSN."""
        lsn = self._next_lsn
        self._next_lsn += 1
        frame = _encode(lsn, txn_id, rtype, payload)
        self._fh.write(frame)
        self._records_in_log += 1
        self._bytes_in_log += len(frame)
        self.metrics.counter("wal.appends").inc()
        self.metrics.counter("wal.bytes_appended").inc(len(frame))
        return lsn

    def flush(self) -> None:
        self._fh.flush()
        if self.fsync:
            import os

            os.fsync(self._fh.fileno())

    def records(self) -> List[WALRecord]:
        """All currently durable records (flushes, then re-reads disk)."""
        self.flush()
        records, _, _ = self.scan(self.path)
        return records

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        return self._next_lsn - 1

    def continue_after(self, lsn: int) -> None:
        """Number the next record past ``lsn`` if it would not be already.

        A fresh log attached to pages stamped by an earlier one must
        outnumber them: recovery skips a page record whose LSN is not
        above the page's own, so a restarted numbering would lose
        committed writes."""
        self._next_lsn = max(self._next_lsn, lsn + 1)

    def stats(self) -> dict:
        """Log size and checkpoint recency, tracked incrementally.

        No disk re-scan: ``bytes``/``records`` follow appends and
        truncating checkpoints in memory (validated against the on-disk
        scan at open), so the health sampler can poll this per operation.
        ``commits_since_checkpoint`` is the recovery-replay backlog —
        the checkpoint age measured in committed operations.
        """
        return {
            "bytes": self._bytes_in_log,
            "records": self._records_in_log,
            "commits_since_checkpoint": self._commits_since_checkpoint,
            "last_lsn": self.last_lsn,
        }

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __getstate__(self) -> None:
        raise TypeError(
            "WriteAheadLog holds an open file and cannot be pickled; "
            "detach the WAL (VectorIndex.disable_wal) before snapshotting"
        )

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    @property
    def active_txn(self) -> Optional[WALTransaction]:
        return self._active

    def begin(self, kind: str) -> WALTransaction:
        """Open a transaction (strictly serial: nesting raises)."""
        if self._active is not None:
            raise WALProtocolError(
                f"transaction {self._active.txn_id} "
                f"({self._active.kind}) is still open"
            )
        txn = WALTransaction(self._next_txn, kind)
        self._next_txn += 1
        self.append(BEGIN, {"kind": kind}, txn.txn_id)
        self._active = txn
        return txn

    def commit(self, txn: WALTransaction) -> int:
        """Durably commit: the COMMIT record (carrying the index metadata
        after-image) is appended and flushed; only then is the mutation
        recoverable."""
        if txn is not self._active:
            raise WALProtocolError(
                "commit of a transaction that is not the open one"
            )
        lsn = self.append(
            COMMIT, {"kind": txn.kind, "meta": txn.meta}, txn.txn_id
        )
        self.flush()
        self.metrics.counter("wal.commits").inc()
        self._commits_since_checkpoint += 1
        txn.committed = True
        self._active = None
        return lsn

    def abandon(self, txn: WALTransaction) -> None:
        """Drop an open transaction without committing (error paths).

        Nothing is appended: recovery discards transactions without a
        COMMIT record, which makes in-process failure and power loss the
        same case.
        """
        if txn is self._active:
            self._active = None

    @contextmanager
    def transaction(self, kind: str) -> Iterator[WALTransaction]:
        """``with wal.transaction("insert") as txn:`` — commit on success,
        abandon on any exception (including a planned crash)."""
        txn = self.begin(kind)
        try:
            yield txn
        except BaseException:
            self.abandon(txn)
            raise
        self.commit(txn)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def checkpoint(
        self,
        snapshot_path: Union[str, Path],
        truncate: bool = True,
        generation: Optional[int] = None,
        extra: Optional[dict] = None,
    ) -> int:
        """Record that a snapshot at ``snapshot_path`` captures all state
        up to this point.

        With ``truncate`` (the default) the log is rewritten to contain
        only the CHECKPOINT record — everything earlier is reachable from
        the snapshot, so recovery work and log size stay bounded by the
        update traffic since the last checkpoint.  LSNs keep counting
        across the truncation.

        ``generation`` stamps the index generation the snapshot belongs to
        (generational reorganization, DESIGN.md §15); recovery cross-checks
        it against the snapshot manifest so an old-generation snapshot can
        never silently replay a newer generation's log.  ``extra`` rides
        along in the CHECKPOINT payload for caller-level watermarks (the
        ingest pipeline stores its oplog sequence there); the reserved
        ``snapshot``/``generation`` keys cannot be overridden.

        A snapshot under the log's directory is recorded relative to it,
        so the record's bytes do not depend on where that directory lies;
        any other snapshot is recorded by its absolute path.
        """
        if self._active is not None:
            raise WALProtocolError(
                "cannot checkpoint while a transaction is open"
            )
        lsn = self._next_lsn
        self._next_lsn += 1
        payload: dict = {}
        if extra:
            reserved = {"snapshot", "generation"} & set(extra)
            if reserved:
                raise WALProtocolError(
                    f"checkpoint extra payload uses reserved keys "
                    f"{sorted(reserved)}"
                )
            payload.update(extra)
        snapshot = os.path.abspath(snapshot_path)
        directory = os.path.abspath(self.path.parent)
        if os.path.commonpath([snapshot, directory]) == directory:
            snapshot = os.path.relpath(snapshot, directory)
        payload["snapshot"] = snapshot
        if generation is not None:
            payload["generation"] = int(generation)
        frame = _encode(lsn, 0, CHECKPOINT, payload)
        if truncate:
            self._fh.close()
            with open(self.path, "wb") as fh:
                fh.write(frame)
            self._fh = open(self.path, "ab")
            self._records_in_log = 1
            self._bytes_in_log = len(frame)
        else:
            self._fh.write(frame)
            self._records_in_log += 1
            self._bytes_in_log += len(frame)
        self._commits_since_checkpoint = 0
        self.flush()
        self.metrics.counter("wal.checkpoints").inc()
        return lsn


class WALPageStore(StoreWrapper):
    """A :class:`~repro.storage.pager.StoreWrapper` enforcing
    log-before-write.

    Attached to and detached from a live index by
    ``VectorIndex.enable_wal`` / ``disable_wal``.  Every mutation requires
    an open :class:`WALTransaction` and is appended to the log before it
    is applied; the record's LSN is stamped onto the page.  Reads are
    inherited untouched.

    Each log append is one physical write on ``clock`` (a
    :class:`~repro.storage.faults.WriteClock`), where an armed
    :class:`~repro.storage.faults.CrashPoint` fires.
    """

    def __init__(
        self,
        inner: PageStore,
        wal: WriteAheadLog,
        crashpoint: Optional[CrashPoint] = None,
    ) -> None:
        super().__init__(inner)
        self.wal = wal
        wal.continue_after(inner.max_lsn())
        self.clock = WriteClock()
        self.clock.arm(crashpoint)

    # -- write path ------------------------------------------------------

    def _txn_id(self) -> int:
        txn = self.wal.active_txn
        if txn is None:
            raise WALProtocolError(
                "page mutation outside a WAL transaction; wrap index "
                "updates in the index's insert()/delete() (or "
                "wal.transaction()) so they are crash-consistent"
            )
        return txn.txn_id

    def _log_write(self, rtype: int, payload: dict) -> int:
        """One physical write: the log append, run through the clock."""
        txn_id = self._txn_id()
        return self.clock.guarded(
            RECORD_TYPE_NAMES[rtype],
            lambda: self.wal.append(rtype, payload, txn_id),
        )

    def allocate(self, payload: Any, size_bytes: int) -> int:
        page_id = self.inner.next_page_id
        lsn = self._log_write(
            PAGE_ALLOC,
            {
                "page_id": page_id,
                "payload": payload,
                "size_bytes": size_bytes,
            },
        )
        allocated = self.inner.allocate(payload, size_bytes)
        if allocated != page_id:  # pragma: no cover - store invariant
            raise WALProtocolError(
                f"store allocated page {allocated}, log recorded {page_id}"
            )
        self.inner.stamp_lsn(page_id, lsn)
        return page_id

    def overwrite(self, page_id: int, payload: Any, size_bytes: int) -> None:
        lsn = self._log_write(
            PAGE_WRITE,
            {
                "page_id": page_id,
                "payload": payload,
                "size_bytes": size_bytes,
            },
        )
        self.inner.overwrite(page_id, payload, size_bytes)
        self.inner.stamp_lsn(page_id, lsn)

    def free(self, page_id: int) -> None:
        self._log_write(PAGE_FREE, {"page_id": page_id})
        self.inner.free(page_id)
