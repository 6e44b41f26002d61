"""Simulated paged storage.

The 2003 testbed measured real disk pages; this reproduction replaces the
disk with an in-memory page store that charges the same accounting.  A
:class:`PageStore` hands out fixed-size pages identified by integer ids; a
page carries an arbitrary Python payload (a B+-tree node, a Hybrid-tree node,
a run of data vectors) plus a declared byte size, and the store refuses
payloads that exceed the page capacity.  Reads normally go through a
:class:`~repro.storage.buffer.BufferPool`, which is where physical-read
accounting happens.

Byte-size constants mirror the layout assumed in DESIGN.md §5: 4 KiB pages,
float32 vector components, 8-byte keys and pointers.

Robustness (DESIGN.md §9): every page carries a CRC32 checksum over its
payload bytes, stamped at allocate/overwrite time and verified on every
buffer-pool miss.  A mismatch raises the typed :class:`PageCorruptionError`
— corruption is detected, never silently served.  Unknown or freed page ids
raise :class:`PageNotFoundError` (a ``KeyError`` subclass), and freeing a
page invalidates it in every registered buffer pool so a stale cached
payload can never be read back.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .metrics import CostCounters

__all__ = [
    "PAGE_SIZE",
    "FLOAT_SIZE",
    "KEY_SIZE",
    "POINTER_SIZE",
    "RID_SIZE",
    "Page",
    "PageStore",
    "StoreWrapper",
    "PageOverflowError",
    "PageNotFoundError",
    "PageCorruptionError",
    "TransientPageError",
    "page_checksum",
    "verify_page",
    "vector_bytes",
    "rows_per_page",
    "pages_for_vectors",
]

#: Simulated page size in bytes (a common DBMS default, used by the paper's
#: era of systems).
PAGE_SIZE = 4096
#: Bytes per stored vector component (float32).
FLOAT_SIZE = 4
#: Bytes per B+-tree key (float64 distance value).
KEY_SIZE = 8
#: Bytes per child-page pointer.
POINTER_SIZE = 8
#: Bytes per record identifier stored alongside a leaf key.
RID_SIZE = 8


class PageOverflowError(ValueError):
    """Raised when a payload is declared larger than the page capacity."""


class PageNotFoundError(KeyError):
    """Raised when a page id was never allocated or has been freed.

    Subclasses ``KeyError`` so pre-existing callers that caught the bare
    ``KeyError`` keep working; new code should catch this type.
    """


class PageCorruptionError(IOError):
    """Raised when a page's payload no longer matches its stored checksum.

    Covers bit flips and torn writes in simulated storage as well as
    tampered snapshot files (see :mod:`repro.persist`).  Detection is the
    contract: corrupted data is never silently returned to a caller.
    """


class TransientPageError(IOError):
    """A read failed transiently (injected fault); retrying may succeed.

    Raised by :class:`~repro.storage.faults.FaultyPageStore`; the buffer
    pool's read path retries these with bounded backoff.
    """


def page_checksum(payload: Any) -> int:
    """CRC32 over the payload's serialized bytes (the simulated page image).

    The payload objects live in memory, so "the bytes on the page" are the
    payload's canonical pickle serialization.  Within one process (and its
    forked children) equal object state yields equal bytes, which is the
    only property verification needs.
    """
    return zlib.crc32(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    ) & 0xFFFFFFFF


def verify_page(page: "Page") -> None:
    """Raise :class:`PageCorruptionError` if the page fails its checksum.

    Pages stamped with ``checksum=None`` (hand-built in tests, or predating
    the checksum format) are skipped rather than failed.
    """
    if page.checksum is None:
        return
    actual = page_checksum(page.payload)
    if actual != page.checksum:
        raise PageCorruptionError(
            f"page {page.page_id} failed checksum verification "
            f"(stored 0x{page.checksum:08x}, computed 0x{actual:08x})"
        )


def vector_bytes(dimensionality: int) -> int:
    """Bytes needed to store one ``dimensionality``-dimensional vector."""
    if dimensionality < 0:
        raise ValueError(f"dimensionality must be >= 0, got {dimensionality}")
    return dimensionality * FLOAT_SIZE


def rows_per_page(dimensionality: int) -> int:
    """Packed vectors of the given width that fit on one page (>= 1)."""
    return max(1, PAGE_SIZE // max(1, vector_bytes(dimensionality)))


def pages_for_vectors(count: int, dimensionality: int) -> int:
    """Pages needed to store ``count`` packed vectors of the given width.

    Vectors are packed without splitting across page boundaries, matching how
    the sequential-scan baseline and index leaves charge their I/O.  Zero- and
    low-dimensional corner cases still cost at least one page when any data
    exists.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return 0
    return -(-count // rows_per_page(dimensionality))  # ceil division


@dataclass
class Page:
    """One fixed-size page: an id, a payload, and its declared byte size.

    ``checksum`` is the CRC32 of the payload bytes at the last write
    (:func:`page_checksum`), or ``None`` for pages built outside a
    :class:`PageStore` (checksum verification then skips the page).

    ``lsn`` is the log sequence number of the last write-ahead-log record
    that wrote this page (see :mod:`repro.storage.wal`), or ``None`` for
    pages written outside WAL protection.  Recovery's redo pass compares it
    against each log record's LSN so replaying a record twice is a no-op.
    """

    page_id: int
    payload: Any
    size_bytes: int
    checksum: Optional[int] = field(default=None, compare=False)
    lsn: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes > PAGE_SIZE:
            raise PageOverflowError(
                f"payload of {self.size_bytes} bytes exceeds the "
                f"{PAGE_SIZE}-byte page capacity"
            )
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")


class PageStore:
    """Allocates pages and serves raw (uncached, uncounted) page fetches.

    The store itself never counts reads: callers either go through a
    :class:`~repro.storage.buffer.BufferPool` (random access, counted as
    logical/physical reads) or call :meth:`read_sequential` for streaming
    scans (counted as sequential reads).  Writes are counted here because
    construction cost does not depend on the buffer pool.
    """

    def __init__(self, counters: Optional[CostCounters] = None) -> None:
        self._pages: Dict[int, Page] = {}
        self._next_id = 0
        self.counters = counters if counters is not None else CostCounters()
        # Buffer pools layered over this store; free() invalidates the page
        # in every one of them so a stale cached payload is never served.
        self._pools: List[Any] = []

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def register_pool(self, pool: Any) -> None:
        """Attach a buffer pool for free-time invalidation callbacks."""
        if pool not in self._pools:
            self._pools.append(pool)

    @property
    def next_page_id(self) -> int:
        """The id :meth:`allocate` will assign next.

        The write-ahead log needs it to frame a page-allocation record
        *before* the allocation lands (log-before-write ordering).
        """
        return self._next_id

    def allocate(self, payload: Any, size_bytes: int) -> int:
        """Store a payload on a fresh page and return its id."""
        page = Page(
            self._next_id, payload, size_bytes, page_checksum(payload)
        )
        self._pages[page.page_id] = page
        self._next_id += 1
        self.counters.count_page_write()
        return page.page_id

    def overwrite(self, page_id: int, payload: Any, size_bytes: int) -> None:
        """Replace the payload of an existing page (checksum restamped)."""
        if page_id not in self._pages:
            raise PageNotFoundError(
                f"page {page_id} was never allocated or has been freed"
            )
        self._pages[page_id] = Page(
            page_id, payload, size_bytes, page_checksum(payload)
        )
        self.counters.count_page_write()

    def fetch(self, page_id: int) -> Page:
        """Return a page without any I/O accounting (buffer pool internal)."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(
                f"page {page_id} was never allocated or has been freed"
            ) from None

    def raw_fetch(self, page_id: int) -> Page:
        """Fetch bypassing any fault injection layered over the store.

        Used by accounting-replay paths (the batch engine's
        ``descend_path``) and build-time internals, which model *no* real
        I/O and must therefore never observe injected faults.  On a plain
        store this is :meth:`fetch`; :class:`~repro.storage.faults.
        FaultyPageStore` overrides it to reach the pristine inner store.
        """
        return self.fetch(page_id)

    def read_sequential(self, page_id: int) -> Page:
        """Read a page as part of a streaming scan (no buffering)."""
        page = self.fetch(page_id)
        self.counters.count_sequential_read()
        return page

    def free(self, page_id: int) -> None:
        """Release a page (dynamic deletes; unused pages stop counting).

        Every registered buffer pool drops the page too, so a later fetch
        of the dead id fails typed instead of serving a stale payload.
        """
        if page_id not in self._pages:
            raise PageNotFoundError(
                f"page {page_id} was never allocated or has been freed"
            )
        del self._pages[page_id]
        for pool in self._pools:
            pool.invalidate(page_id)

    # -- metadata mutation hooks -----------------------------------------
    #
    # The WAL wrapper stamps LSNs and the fault injector flips checksum
    # bits *after* a page landed.  On this in-memory store those are plain
    # in-place mutations of the stored Page object; a serializing store
    # (MmapPageStore) overrides them to update its metadata table instead —
    # mutating a fetched Page there would touch a transient deserialized
    # copy and silently persist nothing.

    def stamp_lsn(self, page_id: int, lsn: Optional[int]) -> None:
        """Record the LSN of the last logged write to ``page_id``."""
        self.raw_fetch(page_id).lsn = lsn

    def max_lsn(self) -> int:
        """The highest LSN stamped on any stored page (0 when none is)."""
        stamped = (page.lsn for page in self._pages.values())
        return max((lsn for lsn in stamped if lsn is not None), default=0)

    def corrupt_checksum(self, page_id: int, bit: int = 0) -> None:
        """Flip one bit of the stored checksum word (simulated bit rot).

        The next checksum verification of the page (any buffer-pool miss)
        raises :class:`PageCorruptionError`.
        """
        page = self.raw_fetch(page_id)
        if page.checksum is None:
            page.checksum = 0
        page.checksum ^= 1 << (bit % 32)

    # -- lifecycle -------------------------------------------------------

    def flush(self) -> None:
        """Push buffered writes to the backing medium.

        A no-op for the in-memory store; :class:`~repro.storage.mmap_store.
        MmapPageStore` overrides it.  Part of the PageStore protocol so
        wrappers can forward it blindly.
        """

    def close(self) -> None:
        """Release backing resources (files, mappings).

        A no-op for the in-memory store; serializing stores override it.
        Wrappers forward to their inner store, so ``store.close()`` always
        reaches the physical layer no matter how deep the stack is.
        """

    # -- recovery support ------------------------------------------------

    def install(
        self,
        page_id: int,
        payload: Any,
        size_bytes: int,
        lsn: Optional[int] = None,
    ) -> None:
        """Place a page image at a *specific* id (recovery's redo path).

        Unlike :meth:`allocate`/:meth:`overwrite`, the caller dictates the
        page id: redo must reproduce exactly the ids the crashed run
        assigned, whether or not the page survived into the checkpoint.
        The id counter advances past the installed id, the checksum is
        restamped, and any registered buffer pool drops its stale copy.
        """
        self._pages[page_id] = Page(
            page_id, payload, size_bytes, page_checksum(payload), lsn
        )
        self._next_id = max(self._next_id, page_id + 1)
        self.counters.count_page_write()
        for pool in self._pools:
            pool.invalidate(page_id)

    def discard(self, page_id: int) -> None:
        """Idempotent :meth:`free` (redo of a logged free record)."""
        if page_id in self._pages:
            self.free(page_id)

    @property
    def allocated_pages(self) -> int:
        """Number of live pages (index size in pages)."""
        return len(self._pages)


class StoreWrapper(PageStore):
    """A :class:`PageStore` layered over another one (``inner``).

    The wrapper owns no pages: every protocol method forwards to
    ``inner``, so wrapping a live index's store is safe and reversible.
    Subclasses (:class:`~repro.storage.faults.FaultyPageStore`,
    :class:`~repro.storage.wal.WALPageStore`) override only what they
    change.  :meth:`read_sequential` goes through the wrapper's own
    :meth:`fetch`, so a subclass that intercepts reads sees streaming
    scans too.
    """

    def __init__(self, inner: PageStore) -> None:
        # Deliberately no super().__init__: all page state lives in
        # `inner` and must never be shadowed by a dict of the wrapper's.
        self.inner = inner

    @property
    def counters(self) -> CostCounters:
        return self.inner.counters

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.inner

    @property
    def allocated_pages(self) -> int:
        return self.inner.allocated_pages

    @property
    def next_page_id(self) -> int:
        return self.inner.next_page_id

    def register_pool(self, pool: Any) -> None:
        # Free-time invalidation happens in the inner store, so that is
        # where the pool must be registered.
        self.inner.register_pool(pool)

    def allocate(self, payload: Any, size_bytes: int) -> int:
        return self.inner.allocate(payload, size_bytes)

    def overwrite(self, page_id: int, payload: Any, size_bytes: int) -> None:
        self.inner.overwrite(page_id, payload, size_bytes)

    def fetch(self, page_id: int) -> Page:
        return self.inner.fetch(page_id)

    def raw_fetch(self, page_id: int) -> Page:
        return self.inner.raw_fetch(page_id)

    def max_lsn(self) -> int:
        return self.inner.max_lsn()

    def read_sequential(self, page_id: int) -> Page:
        page = self.fetch(page_id)
        self.inner.counters.count_sequential_read()
        return page

    def free(self, page_id: int) -> None:
        self.inner.free(page_id)

    def stamp_lsn(self, page_id: int, lsn: Optional[int]) -> None:
        self.inner.stamp_lsn(page_id, lsn)

    def corrupt_checksum(self, page_id: int, bit: int = 0) -> None:
        self.inner.corrupt_checksum(page_id, bit)

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    def install(
        self,
        page_id: int,
        payload: Any,
        size_bytes: int,
        lsn: Optional[int] = None,
    ) -> None:
        self.inner.install(page_id, payload, size_bytes, lsn)

    def discard(self, page_id: int) -> None:
        self.inner.discard(page_id)
