"""Out-of-core page store backed by one mmap'd file.

The in-memory :class:`~repro.storage.pager.PageStore` holds every payload
as a live Python object — fine for simulation, useless for datasets larger
than RAM.  :class:`MmapPageStore` keeps the same contract (ids, checksums,
typed errors, ``register_pool`` invalidation, WAL/fault wrappers compose
unchanged) while the page *images* live in a memory-mapped file the OS
pages in and out on demand:

* **Layout** — an append-only heap of pickled payload blobs.  A small
  in-memory table maps ``page_id -> (offset, length, size_bytes,
  checksum, lsn)``; ``overwrite`` appends a fresh blob and repoints the
  table entry (old space is leaked until the store is rebuilt, exactly
  like a log-structured heap between compactions).  The file doubles via
  ``mmap.resize`` when the heap outgrows it.
* **Fetch semantics** — every :meth:`fetch` deserializes a *fresh*
  :class:`~repro.storage.pager.Page`; callers must persist payload
  mutations through :meth:`overwrite` (the indexes already do — that is
  what the checksum restamp on write is for).  This is why the base
  store grew :meth:`~repro.storage.pager.PageStore.stamp_lsn` and
  :meth:`~repro.storage.pager.PageStore.corrupt_checksum`: WAL LSNs and
  injected bit rot must land in the metadata table, not on a transient
  deserialized copy.
* **Durability semantics** — :meth:`flush` msync's the mapping (the
  ``fsync`` analogue); :meth:`close` flushes, unmaps and deletes the
  backing file when the store created it itself (anonymous temp-file
  mode).  Pass ``path`` to keep the heap on a caller-owned file instead.
* **Pickling** — checkpoint/snapshot pickle whole indexes; the store
  serializes its raw blobs plus the table, and rebuilds into a fresh
  temp-backed mapping on unpickle, so crash-recovery round trips work
  with no special casing in :mod:`repro.persist` or :mod:`repro.recovery`.
"""

from __future__ import annotations

import mmap
import os
import pickle
import tempfile
import zlib
from typing import Any, Dict, List, Optional, Union

from .metrics import CostCounters
from .pager import (
    PAGE_SIZE,
    Page,
    PageNotFoundError,
    PageOverflowError,
    PageStore,
)

__all__ = ["MmapPageStore"]

#: Initial heap size; doubled as needed.  1 MiB keeps temp files cheap for
#: the many short-lived stores tests create.
_INITIAL_CAPACITY = 1 << 20


class _PageMeta:
    """Table entry for one live page (mutable: overwrite/LSN/corruption)."""

    __slots__ = ("offset", "length", "size_bytes", "checksum", "lsn")

    def __init__(self, offset, length, size_bytes, checksum, lsn=None):
        self.offset = offset
        self.length = length
        self.size_bytes = size_bytes
        self.checksum = checksum
        self.lsn = lsn


class MmapPageStore(PageStore):
    """A :class:`PageStore` whose page images live in an mmap'd heap file."""

    def __init__(
        self,
        counters: Optional[CostCounters] = None,
        path: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        self.counters = counters if counters is not None else CostCounters()
        self._pools: List[Any] = []
        self._next_id = 0
        self._meta: Dict[int, _PageMeta] = {}
        self._open_heap(path)

    # -- heap file management --------------------------------------------

    def _open_heap(self, path) -> None:
        if path is None:
            fd, self._path = tempfile.mkstemp(
                prefix="repro_mmap_", suffix=".pages"
            )
            self._file = os.fdopen(fd, "r+b")
            self._owns_file = True
        else:
            self._path = os.fspath(path)
            self._file = open(self._path, "w+b")
            self._owns_file = False
        self._capacity = _INITIAL_CAPACITY
        self._file.truncate(self._capacity)
        self._mm = mmap.mmap(self._file.fileno(), self._capacity)
        self._write_pos = 0

    def _append_blob(self, blob: bytes) -> int:
        """Write ``blob`` at the heap tail, growing the map if needed;
        returns its offset."""
        end = self._write_pos + len(blob)
        if end > self._capacity:
            new_capacity = self._capacity
            while new_capacity < end:
                new_capacity *= 2
            # mmap.resize grows the backing file too (ftruncate + remap).
            self._mm.resize(new_capacity)
            self._capacity = new_capacity
        offset = self._write_pos
        self._mm[offset:end] = blob
        self._write_pos = end
        return offset

    def flush(self) -> None:
        """msync the mapping to the backing file (fsync semantics)."""
        self._mm.flush()

    def close(self) -> None:
        """Flush, unmap and close; deletes the heap file when owned.

        Idempotent.  A closed store serves no further reads or writes.
        """
        mm = getattr(self, "_mm", None)
        if mm is None:
            return
        try:
            if not mm.closed:
                mm.flush()
                mm.close()
            self._file.close()
        finally:
            self._mm = None
            if self._owns_file:
                try:
                    os.unlink(self._path)
                except OSError:
                    pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    @property
    def heap_bytes(self) -> int:
        """Bytes appended to the heap so far (including leaked blobs)."""
        return self._write_pos

    @property
    def path(self) -> str:
        """Filesystem path of the backing heap file."""
        return self._path

    # -- PageStore contract ----------------------------------------------

    def __len__(self) -> int:
        return len(self._meta)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._meta

    @property
    def allocated_pages(self) -> int:
        return len(self._meta)

    def _put(
        self,
        page_id: int,
        payload: Any,
        size_bytes: int,
        lsn: Optional[int] = None,
    ) -> None:
        if size_bytes > PAGE_SIZE:
            raise PageOverflowError(
                f"payload of {size_bytes} bytes exceeds the "
                f"{PAGE_SIZE}-byte page capacity"
            )
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        # CRC over the canonical pickle bytes == page_checksum(payload),
        # without serializing twice.
        checksum = zlib.crc32(blob) & 0xFFFFFFFF
        offset = self._append_blob(blob)
        self._meta[page_id] = _PageMeta(
            offset, len(blob), size_bytes, checksum, lsn
        )

    def allocate(self, payload: Any, size_bytes: int) -> int:
        page_id = self._next_id
        self._put(page_id, payload, size_bytes)
        self._next_id += 1
        self.counters.count_page_write()
        return page_id

    def overwrite(self, page_id: int, payload: Any, size_bytes: int) -> None:
        if page_id not in self._meta:
            raise PageNotFoundError(
                f"page {page_id} was never allocated or has been freed"
            )
        self._put(page_id, payload, size_bytes)
        self.counters.count_page_write()

    def fetch(self, page_id: int) -> Page:
        meta = self._meta.get(page_id)
        if meta is None:
            raise PageNotFoundError(
                f"page {page_id} was never allocated or has been freed"
            )
        blob = self._mm[meta.offset:meta.offset + meta.length]
        return Page(
            page_id,
            pickle.loads(blob),
            meta.size_bytes,
            meta.checksum,
            meta.lsn,
        )

    def free(self, page_id: int) -> None:
        if page_id not in self._meta:
            raise PageNotFoundError(
                f"page {page_id} was never allocated or has been freed"
            )
        del self._meta[page_id]
        for pool in self._pools:
            pool.invalidate(page_id)

    def install(
        self,
        page_id: int,
        payload: Any,
        size_bytes: int,
        lsn: Optional[int] = None,
    ) -> None:
        self._put(page_id, payload, size_bytes, lsn)
        self._next_id = max(self._next_id, page_id + 1)
        self.counters.count_page_write()
        for pool in self._pools:
            pool.invalidate(page_id)

    def discard(self, page_id: int) -> None:
        if page_id in self._meta:
            self.free(page_id)

    # -- metadata mutation hooks (see PageStore) -------------------------

    def max_lsn(self) -> int:
        stamped = (meta.lsn for meta in self._meta.values())
        return max((lsn for lsn in stamped if lsn is not None), default=0)

    def stamp_lsn(self, page_id: int, lsn: Optional[int]) -> None:
        meta = self._meta.get(page_id)
        if meta is None:
            raise PageNotFoundError(
                f"page {page_id} was never allocated or has been freed"
            )
        meta.lsn = lsn

    def corrupt_checksum(self, page_id: int, bit: int = 0) -> None:
        meta = self._meta.get(page_id)
        if meta is None:
            raise PageNotFoundError(
                f"page {page_id} was never allocated or has been freed"
            )
        if meta.checksum is None:
            meta.checksum = 0
        meta.checksum ^= 1 << (bit % 32)

    # -- pickling (checkpoint / snapshot / crash recovery) ---------------

    def __getstate__(self) -> dict:
        pages = {
            pid: (
                bytes(self._mm[m.offset:m.offset + m.length]),
                m.size_bytes,
                m.checksum,
                m.lsn,
            )
            for pid, m in self._meta.items()
        }
        # _pools rides along: the buffer pool holds a back-reference to
        # this store, and pickle's memo keeps the cycle consistent inside
        # one snapshot payload.
        return {
            "counters": self.counters,
            "next_id": self._next_id,
            "pages": pages,
            "pools": self._pools,
        }

    def __setstate__(self, state: dict) -> None:
        self.counters = state["counters"]
        self._pools = state["pools"]
        self._next_id = state["next_id"]
        self._meta = {}
        self._open_heap(None)
        for pid, (blob, size_bytes, checksum, lsn) in state["pages"].items():
            offset = self._append_blob(blob)
            self._meta[pid] = _PageMeta(
                offset, len(blob), size_bytes, checksum, lsn
            )
