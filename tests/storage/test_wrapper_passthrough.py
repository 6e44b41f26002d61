"""Wrapper passthrough contract: every PageStore protocol method forwards.

The store wrappers (:class:`~repro.storage.pager.StoreWrapper` and its
subclasses :class:`~repro.storage.faults.FaultyPageStore` and
:class:`~repro.storage.wal.WALPageStore`) deliberately skip
``PageStore.__init__`` — all page state lives in ``inner``.  That makes
silent *inheritance* of a ``PageStore`` method body a bug class: it would
touch the wrapper's nonexistent ``_pages``/``_pools`` (crash), or — worse,
for the in-place metadata hooks — mutate a transient object and silently
persist nothing on a serializing store.  ``stamp_lsn`` and
``corrupt_checksum`` over mmap once failed exactly this way.

Two guards:

* an introspective audit — no public protocol name defined on
  :class:`~repro.storage.pager.PageStore` may resolve to ``PageStore``'s
  own body on any wrapper (``StoreWrapper`` forwards them all, its
  subclasses inherit or override those forwards), so adding a protocol
  method without forwarding it fails CI immediately;
* a behavioral regression stacking every layer at once
  (WAL over faults over mmap) and driving the named hooks end to end.
"""

import numpy as np
import pytest

from repro.storage.buffer import BufferPool
from repro.storage.faults import FaultPlan, FaultyPageStore, corrupt_page
from repro.storage.metrics import CostCounters
from repro.storage.mmap_store import MmapPageStore
from repro.storage.pager import (
    PageCorruptionError,
    PageStore,
    StoreWrapper,
    TransientPageError,
)
from repro.storage.wal import WALPageStore, WriteAheadLog

WRAPPERS = [StoreWrapper, FaultyPageStore, WALPageStore]


def _protocol_names():
    """Public protocol surface of PageStore (plus the dunder container
    protocol), excluding construction."""
    names = {
        name
        for name in vars(PageStore)
        if not name.startswith("_") or name in ("__len__", "__contains__")
    }
    return sorted(names - {"__init__"})


@pytest.mark.parametrize("wrapper", WRAPPERS, ids=lambda w: w.__name__)
def test_every_protocol_method_is_explicitly_forwarded(wrapper):
    missing = [
        name
        for name in _protocol_names()
        if getattr(wrapper, name) is getattr(PageStore, name)
    ]
    assert not missing, (
        f"{wrapper.__name__} inherits {missing} from PageStore instead of "
        f"forwarding to .inner; the inherited body would operate on the "
        f"wrapper's own (nonexistent) page state"
    )


def test_protocol_audit_sees_lifecycle_methods():
    # The audit itself must cover the names this PR added; if flush/close
    # ever leave the base protocol the stacked test below loses meaning.
    names = _protocol_names()
    assert "flush" in names and "close" in names
    assert "stamp_lsn" in names and "corrupt_checksum" in names


@pytest.fixture
def stacked(tmp_path):
    """WAL over faults over mmap — the deepest supported stack — plus a
    handle on each layer.  ``enable_wal`` refuses this layering on an
    index (the equivalence tests need the simple cases); the raw stores
    compose it directly, which is exactly what this regression guards."""
    counters = CostCounters()
    mmap_store = MmapPageStore(counters)
    faulty = FaultyPageStore(
        mmap_store, FaultPlan(seed=3, transient_read_prob=1.0, max_faults=1)
    )
    wal = WriteAheadLog(tmp_path / "stack.wal")
    stacked = WALPageStore(faulty, wal)
    yield stacked, faulty, mmap_store, wal
    wal.close()
    mmap_store.close()


def test_stacked_stamp_lsn_reaches_mmap_metadata(stacked):
    store, _faulty, mmap_store, wal = stacked
    with wal.transaction("test") as txn:
        page_id = store.allocate({"rows": list(range(8))}, 256)
        txn.set_meta({})
    store.stamp_lsn(page_id, 41)
    # The stamp must land in the mmap metadata table, not on a transient
    # deserialized Page: a fresh fetch (new Page object) must carry it.
    assert mmap_store.raw_fetch(page_id).lsn == 41
    store.stamp_lsn(page_id, None)
    assert mmap_store.raw_fetch(page_id).lsn is None


def test_stacked_corrupt_checksum_persists_and_detects(stacked):
    store, _faulty, mmap_store, wal = stacked
    with wal.transaction("test") as txn:
        page_id = store.allocate(np.arange(16).tolist(), 128)
        txn.set_meta({})
    store.corrupt_checksum(page_id, bit=2)
    pool = BufferPool(mmap_store, 4, CostCounters())
    with pytest.raises(PageCorruptionError):
        pool.read(page_id)


def test_stacked_transient_fault_fires_through_wal_layer(stacked):
    store, faulty, _mmap_store, wal = stacked
    with wal.transaction("test") as txn:
        page_id = store.allocate("payload", 64)
        txn.set_meta({})
    with pytest.raises(TransientPageError):
        store.fetch(page_id)
    assert faulty.faults_injected == 1
    # The plan's budget (max_faults=1) is spent; reads are clean again.
    assert store.fetch(page_id).payload == "payload"


def test_stacked_raw_fetch_bypasses_faults(tmp_path):
    counters = CostCounters()
    mmap_store = MmapPageStore(counters)
    faulty = FaultyPageStore(
        mmap_store, FaultPlan(seed=3, transient_read_prob=1.0)
    )
    wal = WriteAheadLog(tmp_path / "raw.wal")
    store = WALPageStore(faulty, wal)
    try:
        with wal.transaction("test") as txn:
            page_id = store.allocate("x", 8)
            txn.set_meta({})
        # raw_fetch models no real I/O: it must never see injected faults,
        # no matter how deep the stack.
        for _ in range(5):
            assert store.raw_fetch(page_id).payload == "x"
    finally:
        wal.close()
        mmap_store.close()


def test_stacked_flush_and_close_reach_physical_layer(tmp_path):
    counters = CostCounters()
    mmap_store = MmapPageStore(counters)
    faulty = FaultyPageStore(mmap_store, FaultPlan(seed=1))
    wal = WriteAheadLog(tmp_path / "life.wal")
    store = WALPageStore(faulty, wal)
    with wal.transaction("test") as txn:
        page_id = store.allocate("durable", 64)
        txn.set_meta({})
    store.flush()
    store.close()
    wal.close()
    # close() propagated through both wrappers to the mmap file: further
    # physical access fails rather than touching a dangling mapping.
    with pytest.raises(Exception):
        mmap_store.raw_fetch(page_id)


def test_corrupt_page_helper_routes_through_wrapper_stack(stacked):
    store, _faulty, mmap_store, wal = stacked
    with wal.transaction("test") as txn:
        page_id = store.allocate([1, 2, 3], 64)
        txn.set_meta({})
    corrupt_page(store, page_id)
    pool = BufferPool(mmap_store, 4, CostCounters())
    with pytest.raises(PageCorruptionError):
        pool.read(page_id)
