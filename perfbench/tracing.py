"""Outside-in span recorder for the traced benchmark run.

Nothing here touches the program's source.  :class:`SpanRecorder`
replaces each layer's public functions with timing wrappers *where their
callers bind them* (a class attribute, or every ``repro.*`` module
attribute that holds the same function object), and puts the originals
back on :meth:`SpanRecorder.uninstall`.

Every wrapped call is a span: name, start, end, parent and the request it
belongs to.  Self time is the span's duration minus the part of that
interval its children cover.  Children on the caller's thread are
sequential, so their durations add; children started on another thread
(the router's per-shard scatter threads) may overlap, so their intervals
are merged first.  Self time is aggregated as each span ends, keyed by
the kind of request in flight (``setup``, ``knn``, ``batch``, ``write``,
``count``), so memory stays flat however many spans a run makes; the
first ``keep_spans`` raw spans are also kept and written out as JSON
lines when the run ends.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "SpanRecorder", "default_targets", "layer_of"]

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is a class (the attribute is replaced on that class) or a
    module path (the function is replaced in every loaded ``repro``
    module that binds it, including the defining one).  ``counter``, when
    set, is read from the call's arguments before and after the call and
    the difference is summed; ``post`` turns the call's arguments and
    result into a number that is summed.
    """

    owner: Any
    attr: str
    span: str
    counter: Optional[Callable[[tuple], float]] = None
    post: Optional[Callable[[tuple, Any], float]] = None


#: Span-name prefix → layer, for the per-layer shares.  ``bench`` is the
#: benchmark's own request span (client-side time outside every layer).
_LAYERS = (
    ("index.", "index"),
    ("btree.", "btree"),
    ("storage.", "storage"),
    ("linalg.", "linalg"),
    ("reduction.", "reduction"),
    ("cluster.", "cluster"),
    ("wal.", "wal"),
    ("recovery.", "recovery"),
    ("persist.", "recovery"),
    ("ingest.", "ingest"),
    ("serve.", "serve"),
)


def layer_of(span: str) -> str:
    for prefix, layer in _LAYERS:
        if span.startswith(prefix):
            return layer
    return "bench"


def _key_comparisons(args: tuple) -> float:
    return args[0].counters.key_comparisons


def _descend_path_comparisons(args: tuple, result: Any) -> float:
    return result[1]


def _worker_seconds(args: tuple, result: Any) -> float:
    if isinstance(result, dict):
        return float(result.get("wall_seconds", 0.0))
    return 0.0


def default_targets() -> List[Target]:
    """Every layer boundary the benchmark times (imports the program)."""
    from repro.btree.tree import BPlusTree
    from repro.cluster.elliptical import EllipticalKMeans
    from repro.index.base import VectorIndex
    from repro.index.global_ldr import GlobalLDRIndex
    from repro.index.hybrid_tree import HybridTree
    from repro.index.idistance import ExtendedIDistance
    from repro.ingest.pipeline import IngestPipeline, OpLog
    from repro.reduction import LDRReducer, MMDRReducer
    from repro.serve.protocol import FrameReader
    from repro.serve.router import Router
    from repro.storage.buffer import BufferPool
    from repro.storage.pager import PageStore
    from repro.storage.wal import WriteAheadLog

    # Importing these binds the functions below in their caller modules,
    # so the module-level patches reach every call site.
    import repro.ingest.generation  # noqa: F401
    import repro.linalg.mahalanobis  # noqa: F401
    import repro.serve.supervisor  # noqa: F401
    import repro.serve.worker  # noqa: F401

    return [
        # reduction / clustering (setup, and inside ingest reorgs)
        Target(MMDRReducer, "reduce", "reduction.reduce"),
        Target(LDRReducer, "reduce", "reduction.reduce"),
        Target(EllipticalKMeans, "fit", "cluster.ekmeans_fit"),
        Target("repro.cluster.kmeans", "kmeans", "cluster.kmeans_fit"),
        # index build and query engines
        Target(ExtendedIDistance, "__init__", "index.build"),
        Target(GlobalLDRIndex, "__init__", "index.build"),
        Target(ExtendedIDistance, "knn", "index.knn"),
        Target(GlobalLDRIndex, "knn", "index.knn"),
        Target(VectorIndex, "knn_batch", "index.knn_batch"),
        Target(HybridTree, "expand", "index.hybrid_expand"),
        # B+-tree
        Target(BPlusTree, "bulk_load", "btree.bulk_load"),
        Target(BPlusTree, "_descend", "btree.descend",
               counter=_key_comparisons),
        Target(BPlusTree, "descend_path", "btree.descend_path",
               post=_descend_path_comparisons),
        Target(BPlusTree, "cursor", "btree.cursor"),
        Target(BPlusTree, "insert", "btree.insert"),
        Target(BPlusTree, "delete", "btree.delete"),
        # storage: buffer pool, then the miss path's fetch + checksum
        Target(BufferPool, "read", "storage.pool_read"),
        Target(PageStore, "fetch", "storage.fetch"),
        Target("repro.storage.pager", "verify_page", "storage.verify"),
        # distance kernels
        Target("repro.linalg.backend", "flat_l2", "linalg.flat_l2"),
        Target("repro.linalg.backend", "batch_l2_rows",
               "linalg.batch_l2_rows"),
        Target("repro.linalg.backend", "batch_mahalanobis_rows",
               "linalg.batch_mahalanobis_rows"),
        Target("repro.linalg.backend", "cold_lru_physical_reads",
               "linalg.cold_lru"),
        Target("repro.linalg.kernels", "normalize_rows",
               "linalg.normalize_rows"),
        Target("repro.linalg.kernels", "multi_arange",
               "linalg.multi_arange"),
        # write-ahead log, checkpoints, ingestion
        Target(WriteAheadLog, "append", "wal.append"),
        Target(WriteAheadLog, "flush", "wal.flush"),
        Target(WriteAheadLog, "commit", "wal.commit"),
        Target(IngestPipeline, "checkpoint", "recovery.checkpoint"),
        Target("repro.persist.snapshot", "save_index", "persist.save_index"),
        Target(OpLog, "append", "ingest.oplog_append"),
        Target(IngestPipeline, "check_drift", "ingest.drift_check"),
        Target(IngestPipeline, "reorg", "ingest.reorg"),
        # serving (router process only: workers are forked before install)
        Target(Router, "knn", "serve.router_knn"),
        Target("repro.serve.protocol", "encode_frame", "serve.encode"),
        Target("repro.serve.protocol", "send_message", "serve.send"),
        Target(FrameReader, "read_message", "serve.wait",
               post=_worker_seconds),
        Target("repro.serve.router", "merge_topk", "serve.merge"),
    ]


class _Frame:
    __slots__ = ("span_id", "name", "t0", "child_ns", "foreign")

    def __init__(self, span_id: int, name: str, t0: int) -> None:
        self.span_id = span_id
        self.name = name
        self.t0 = t0
        self.child_ns = 0
        self.foreign: Optional[List[Tuple[int, int]]] = None


def _union_ns(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


class SpanRecorder:
    """Wrap layer functions, record spans, aggregate self time."""

    def __init__(self, keep_spans: int = 20_000) -> None:
        #: ``(kind, span) -> [calls, total_ns, self_ns, extra]``.
        self.stats: Dict[Tuple[str, str], list] = {}
        #: Root request spans per kind: ``kind -> [requests, rows, ns]``.
        self.requests: Dict[str, list] = {}
        self.spans: List[tuple] = []
        self.keep_spans = keep_spans
        self.kind = "idle"
        self.request_id = 0
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: List[_Frame] = []
        self._local.stack = self._main_stack
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._targets: List[Target] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> Tuple[List[_Frame], Optional[_Frame]]:
        """This thread's frame stack, and the frame that adopts a span
        opened on an empty stack of another thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack or stack is self._main_stack:
            return stack, None
        return stack, (self._main_stack[-1] if self._main_stack else None)

    def _open(self, name: str) -> Tuple[List[_Frame], Optional[_Frame], _Frame]:
        stack, adopter = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        frame = _Frame(span_id, name, _clock())
        stack.append(frame)
        return stack, adopter, frame

    def _close(
        self,
        stack: List[_Frame],
        adopter: Optional[_Frame],
        frame: _Frame,
        extra: float,
    ) -> int:
        t1 = _clock()
        stack.pop()
        duration = t1 - frame.t0
        child = frame.child_ns
        if frame.foreign:
            child += _union_ns(frame.foreign, frame.t0, t1)
        self_ns = max(0, duration - child)
        if stack:
            parent = stack[-1]
            parent.child_ns += duration
        elif adopter is not None:
            parent = adopter
            with self._lock:
                if adopter.foreign is None:
                    adopter.foreign = []
                adopter.foreign.append((frame.t0, t1))
        else:
            parent = None
        with self._lock:
            key = (self.kind, frame.name)
            row = self.stats.get(key)
            if row is None:
                row = self.stats[key] = [0, 0, 0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += self_ns
            row[3] += extra
            if len(self.spans) < self.keep_spans:
                self.spans.append(
                    (
                        frame.span_id,
                        parent.span_id if parent is not None else 0,
                        self.request_id,
                        self.kind,
                        frame.name,
                        frame.t0,
                        t1,
                    )
                )
        return duration

    @contextmanager
    def request(self, kind: str, rows: int = 1):
        """Root span of one client request (or of one set-up phase)."""
        previous = self.kind
        self.kind = kind
        self.request_id += 1
        stack, adopter, frame = self._open("bench." + kind)
        try:
            yield
        finally:
            duration = self._close(stack, adopter, frame, 0.0)
            totals = self.requests.setdefault(kind, [0, 0, 0])
            totals[0] += 1
            totals[1] += rows
            totals[2] += duration
            self.kind = previous

    def wrap(self, target: Target, fn: Callable) -> Callable:
        recorder = self
        name, counter, post = target.span, target.counter, target.post

        def traced(*args, **kwargs):
            stack, adopter, frame = recorder._open(name)
            before = counter(args) if counter is not None else 0.0
            extra = 0.0
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    extra = post(args, result)
                return result
            finally:
                if counter is not None:
                    extra += counter(args) - before
                recorder._close(stack, adopter, frame, extra)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching -------------------------------------------------------------

    def install(self, targets: List[Target]) -> None:
        """Patch every target where its callers bind it."""
        if self._patches:
            raise RuntimeError("recorder is already installed")
        self._targets = list(targets)
        for target in targets:
            if isinstance(target.owner, str):
                original = getattr(sys.modules[target.owner], target.attr)
                traced = self.wrap(target, original)
                for mod_name, module in list(sys.modules.items()):
                    if not mod_name.startswith("repro") or module is None:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, traced)
            else:
                original = target.owner.__dict__[target.attr]
                self._patch(target.owner, target.attr,
                            self.wrap(target, original))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, targets: List[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def suspended(self):
        """Run the block with the originals back in place (e.g. while
        forking worker processes), then re-install."""
        targets = self._targets
        self.uninstall()
        try:
            yield
        finally:
            if targets:
                self.install(targets)

    # -- results --------------------------------------------------------------

    def calls(self, kind: str, span: str) -> int:
        row = self.stats.get((kind, span))
        return row[0] if row else 0

    def total_us(self, kind: str, span: str) -> float:
        row = self.stats.get((kind, span))
        return row[1] / 1e3 if row else 0.0

    def self_us(self, kind: str, span: str) -> float:
        row = self.stats.get((kind, span))
        return row[2] / 1e3 if row else 0.0

    def extra(self, kind: str, span: str) -> float:
        row = self.stats.get((kind, span))
        return row[3] if row else 0.0

    def layer_self_us(self, kind: str) -> Dict[str, float]:
        """Self time per layer for one request kind (µs, summed)."""
        out: Dict[str, float] = {}
        for (k, span), row in self.stats.items():
            if k == kind:
                layer = layer_of(span)
                out[layer] = out.get(layer, 0.0) + row[2] / 1e3
        return out

    def write_jsonl(self, path) -> int:
        fields = ("id", "parent", "request", "kind", "name", "start_ns",
                  "end_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
        return len(self.spans)
