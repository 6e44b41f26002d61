"""Simulated paged storage: page store, LRU buffer pool, cost accounting.

This subpackage is the substrate under every index in the reproduction.  The
paper measured disk page accesses and CPU seconds on a 2003 workstation; we
replace the disk with an in-memory :class:`PageStore` plus an LRU
:class:`BufferPool` that charge deterministic, machine-independent I/O
counts, and we time CPU work with :class:`CostCounters`.
"""

from .buffer import BufferPool
from .faults import (
    CrashError,
    CrashPoint,
    FaultPlan,
    FaultyPageStore,
    RetryPolicy,
    WriteClock,
    corrupt_page,
)
from .metrics import CostCounters, CostSnapshot
from .mmap_store import MmapPageStore
from .pager import (
    FLOAT_SIZE,
    KEY_SIZE,
    PAGE_SIZE,
    POINTER_SIZE,
    RID_SIZE,
    Page,
    PageCorruptionError,
    PageNotFoundError,
    PageOverflowError,
    PageStore,
    StoreWrapper,
    TransientPageError,
    page_checksum,
    pages_for_vectors,
    vector_bytes,
    verify_page,
)

from .wal import (
    WALPageStore,
    WALProtocolError,
    WALRecord,
    WALTransaction,
    WriteAheadLog,
)

__all__ = [
    "BufferPool",
    "CostCounters",
    "CostSnapshot",
    "CrashError",
    "CrashPoint",
    "FLOAT_SIZE",
    "FaultPlan",
    "FaultyPageStore",
    "KEY_SIZE",
    "MmapPageStore",
    "PAGE_SIZE",
    "POINTER_SIZE",
    "RID_SIZE",
    "Page",
    "PageCorruptionError",
    "PageNotFoundError",
    "PageOverflowError",
    "PageStore",
    "RetryPolicy",
    "StoreWrapper",
    "TransientPageError",
    "WALPageStore",
    "WALProtocolError",
    "WALRecord",
    "WALTransaction",
    "WriteAheadLog",
    "WriteClock",
    "corrupt_page",
    "page_checksum",
    "pages_for_vectors",
    "vector_bytes",
    "verify_page",
]
