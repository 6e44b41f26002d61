"""Write-ahead log: framing, torn tails, transactions, checkpoints."""

import pickle

import numpy as np
import pytest

from repro.storage.buffer import BufferPool
from repro.storage.metrics import CostCounters
from repro.storage.pager import PageStore
from repro.storage.wal import (
    BEGIN,
    CHECKPOINT,
    COMMIT,
    PAGE_ALLOC,
    PAGE_FREE,
    PAGE_WRITE,
    WAL_MAGIC,
    WALPageStore,
    WALProtocolError,
    WriteAheadLog,
)
from repro.storage.faults import CrashError, CrashPoint


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(tmp_path / "wal.log")
    yield log
    log.close()


class TestFraming:
    def test_append_and_scan_round_trip(self, wal):
        lsn1 = wal.append(PAGE_WRITE, {"page_id": 3, "x": [1, 2]}, txn_id=7)
        lsn2 = wal.append(PAGE_FREE, {"page_id": 3}, txn_id=7)
        assert (lsn1, lsn2) == (1, 2)
        records = wal.records()
        assert [r.lsn for r in records] == [1, 2]
        assert [r.txn_id for r in records] == [7, 7]
        assert records[0].rtype == PAGE_WRITE
        assert records[0].payload == {"page_id": 3, "x": [1, 2]}

    def test_lsns_are_strictly_increasing(self, wal):
        lsns = [wal.append(BEGIN, {}, txn_id=1) for _ in range(10)]
        assert lsns == list(range(1, 11))
        assert wal.last_lsn == 10

    def test_file_starts_with_magic(self, wal, tmp_path):
        wal.append(BEGIN, {}, txn_id=1)
        wal.flush()
        assert (tmp_path / "wal.log").read_bytes()[:4] == WAL_MAGIC

    def test_payloads_survive_arbitrary_pickles(self, wal):
        payload = {"vec": np.arange(5.0), "nested": {"k": (1, 2.5)}}
        wal.append(COMMIT, payload, txn_id=1)
        got = wal.records()[0].payload
        assert np.array_equal(got["vec"], payload["vec"])
        assert got["nested"] == payload["nested"]

    def test_cannot_pickle_open_log(self, wal):
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(wal)


class TestTornTail:
    def _write_then_tear(self, tmp_path, cut):
        path = tmp_path / "torn.log"
        log = WriteAheadLog(path)
        for i in range(4):
            log.append(PAGE_WRITE, {"page_id": i, "blob": "x" * 50}, 1)
        log.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - cut])
        return path

    @pytest.mark.parametrize("cut", [1, 7, 30])
    def test_scan_stops_at_last_intact_record(self, tmp_path, cut):
        path = self._write_then_tear(tmp_path, cut)
        records, valid, torn = WriteAheadLog.scan(path)
        assert torn > 0
        assert len(records) == 3
        assert [r.payload["page_id"] for r in records] == [0, 1, 2]

    def test_reopen_truncates_and_continues_lsns(self, tmp_path):
        path = self._write_then_tear(tmp_path, 5)
        log = WriteAheadLog(path)
        assert log.metrics.counter("wal.torn_tail_dropped").value > 0
        lsn = log.append(PAGE_WRITE, {"page_id": 9}, 2)
        assert lsn == 4  # records 1..3 survived; the torn 4th is replaced
        records = log.records()
        assert [r.lsn for r in records] == [1, 2, 3, 4]
        log.close()

    def test_corrupted_middle_record_truncates_rest(self, tmp_path):
        path = tmp_path / "bitflip.log"
        log = WriteAheadLog(path)
        for i in range(3):
            log.append(PAGE_WRITE, {"page_id": i}, 1)
        log.close()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        records, _, torn = WriteAheadLog.scan(path)
        assert len(records) < 3
        assert torn > 0


class TestTransactions:
    def test_commit_appends_begin_and_commit(self, wal):
        with wal.transaction("insert") as txn:
            txn.set_meta({"rid": 5})
        types = [r.rtype for r in wal.records()]
        assert types == [BEGIN, COMMIT]
        commit = wal.records()[-1]
        assert commit.payload == {"kind": "insert", "meta": {"rid": 5}}
        assert wal.metrics.counter("wal.commits").value == 1

    def test_exception_abandons_without_commit(self, wal):
        with pytest.raises(RuntimeError, match="boom"):
            with wal.transaction("insert"):
                raise RuntimeError("boom")
        types = [r.rtype for r in wal.records()]
        assert COMMIT not in types
        assert wal.active_txn is None

    def test_nested_transactions_raise(self, wal):
        wal.begin("insert")
        with pytest.raises(WALProtocolError, match="still open"):
            wal.begin("delete")

    def test_commit_of_foreign_txn_raises(self, wal):
        txn = wal.begin("insert")
        wal.commit(txn)
        with pytest.raises(WALProtocolError):
            wal.commit(txn)

    def test_txn_ids_resume_after_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        log = WriteAheadLog(path)
        with log.transaction("insert"):
            pass
        log.close()
        log = WriteAheadLog(path)
        txn = log.begin("delete")
        assert txn.txn_id == 2
        log.commit(txn)
        log.close()


class TestCheckpoint:
    def test_truncation_keeps_only_checkpoint_record(self, wal):
        with wal.transaction("insert"):
            wal.append(PAGE_WRITE, {"page_id": 1}, wal.active_txn.txn_id)
        last = wal.last_lsn
        wal.checkpoint("/snap/dir")
        records = wal.records()
        assert [r.rtype for r in records] == [CHECKPOINT]
        assert records[0].payload == {"snapshot": "/snap/dir"}
        assert records[0].lsn == last + 1  # LSNs survive truncation

    def test_checkpoint_with_open_txn_raises(self, wal):
        wal.begin("insert")
        with pytest.raises(WALProtocolError, match="open"):
            wal.checkpoint("/snap")

    def test_non_truncating_checkpoint_appends(self, wal):
        with wal.transaction("insert"):
            pass
        wal.checkpoint("/snap", truncate=False)
        types = [r.rtype for r in wal.records()]
        assert types == [BEGIN, COMMIT, CHECKPOINT]

    def test_generation_and_extra_ride_in_payload(self, wal):
        wal.checkpoint("/snap", generation=3, extra={"ingest_seq": 41})
        payload = wal.records()[-1].payload
        assert payload == {
            "snapshot": "/snap",
            "generation": 3,
            "ingest_seq": 41,
        }

    def test_extra_cannot_shadow_reserved_keys(self, wal):
        with pytest.raises(WALProtocolError, match="reserved"):
            wal.checkpoint("/snap", extra={"snapshot": "/evil"})
        with pytest.raises(WALProtocolError, match="reserved"):
            wal.checkpoint("/snap", extra={"generation": 9})


class TestReopenStats:
    """``commits_since_checkpoint`` must survive close/reopen exactly —
    the health gauge and the ingest watermark both read it."""

    def _commit_n(self, log, n):
        for _ in range(n):
            with log.transaction("insert"):
                pass

    def test_reopen_after_truncating_checkpoint_counts_new_commits(
        self, tmp_path
    ):
        path = tmp_path / "wal.log"
        log = WriteAheadLog(path)
        self._commit_n(log, 4)
        log.checkpoint("/snap")  # truncate=True
        self._commit_n(log, 2)
        live = log.stats()["commits_since_checkpoint"]
        log.close()
        reopened = WriteAheadLog(path)
        try:
            assert live == 2
            assert reopened.stats()["commits_since_checkpoint"] == live
        finally:
            reopened.close()

    def test_reopen_after_non_truncating_checkpoint(self, tmp_path):
        # Regression: the reopen path used to count every COMMIT in the
        # surviving log, including those *before* the CHECKPOINT record —
        # wrong whenever the log was checkpointed with truncate=False.
        path = tmp_path / "wal.log"
        log = WriteAheadLog(path)
        self._commit_n(log, 5)
        log.checkpoint("/snap", truncate=False)
        self._commit_n(log, 3)
        live = log.stats()["commits_since_checkpoint"]
        log.close()
        reopened = WriteAheadLog(path)
        try:
            assert live == 3
            assert reopened.stats()["commits_since_checkpoint"] == live
        finally:
            reopened.close()

    def test_reopen_with_no_checkpoint_counts_all_commits(self, tmp_path):
        path = tmp_path / "wal.log"
        log = WriteAheadLog(path)
        self._commit_n(log, 3)
        log.close()
        reopened = WriteAheadLog(path)
        try:
            assert reopened.stats()["commits_since_checkpoint"] == 3
        finally:
            reopened.close()


class TestWALPageStore:
    # Every test takes make_store: the WAL wrapper must behave identically
    # over the in-memory and the mmap-backed store (LSN stamping goes
    # through the stamp_lsn hook, which serializing stores override).
    def _stack(self, wal, make_store=None):
        counters = CostCounters()
        inner = (
            make_store(counters) if make_store is not None
            else PageStore(counters)
        )
        return inner, WALPageStore(inner, wal)

    def test_mutation_outside_txn_raises(self, wal):
        _, store = self._stack(wal)
        with pytest.raises(WALProtocolError, match="outside"):
            store.allocate("payload", 10)

    def test_log_before_write_order_and_lsn_stamp(self, wal, make_store):
        inner, store = self._stack(wal, make_store)
        with wal.transaction("insert"):
            pid = store.allocate({"v": 1}, 16)
            store.overwrite(pid, {"v": 2}, 16)
        records = wal.records()
        body = [(r.rtype, r.payload) for r in records[1:-1]]
        assert body[0][0] == PAGE_ALLOC
        assert body[0][1]["page_id"] == pid
        assert body[1][0] == PAGE_WRITE
        assert body[1][1]["payload"] == {"v": 2}
        # the page carries the LSN of its latest record
        assert inner.raw_fetch(pid).lsn == records[2].lsn
        assert store.clock.writes == 2

    def test_free_is_logged_and_applied(self, wal, make_store):
        inner, store = self._stack(wal, make_store)
        with wal.transaction("delete"):
            pid = store.allocate({"v": 1}, 16)
            store.free(pid)
        assert pid not in inner
        assert PAGE_FREE in [r.rtype for r in wal.records()]

    def test_register_pool_forwards_to_inner(self, wal, make_store):
        inner, store = self._stack(wal, make_store)
        pool = BufferPool(store, 4, inner.counters)
        store.register_pool(pool)
        with wal.transaction("insert"):
            pid = store.allocate({"v": 1}, 16)
            pool.read(pid)
            assert pid in pool
            store.free(pid)
        # invalidation must reach the pool through the wrapper
        assert pid not in pool

    def test_reads_are_delegated_not_logged(self, wal):
        inner, store = self._stack(wal)
        with wal.transaction("insert"):
            pid = store.allocate({"v": 1}, 16)
        n_records = len(wal.records())
        assert store.fetch(pid).payload == {"v": 1}
        assert store.raw_fetch(pid).payload == {"v": 1}
        assert len(store) == 1
        assert store.allocated_pages == 1
        assert len(wal.records()) == n_records

    @pytest.mark.parametrize("phase", ["before", "after"])
    def test_crashpoint_fires_at_exact_write(self, wal, phase, make_store):
        inner, _ = self._stack(wal, make_store)
        store = WALPageStore(
            inner, wal, crashpoint=CrashPoint(at_write=2, phase=phase)
        )
        with pytest.raises(CrashError, match="write 2"):
            with wal.transaction("insert"):
                store.allocate({"v": 1}, 16)
                store.allocate({"v": 2}, 16)
        logged = [
            r for r in wal.records() if r.rtype == PAGE_ALLOC
        ]
        # before: the 2nd record never hit the log; after: it did
        assert len(logged) == (1 if phase == "before" else 2)
        # either way the 2nd page was never applied to the store
        assert len(inner) == 1


class TestCrashPointValidation:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            CrashPoint(at_write=0)
        with pytest.raises(ValueError):
            CrashPoint(at_write=1, phase="sideways")
