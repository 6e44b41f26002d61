"""Generational index storage with an atomic, crash-consistent swap.

A :class:`GenerationStore` lays a root directory out as::

    root/
      CURRENT              # the pointer: "<generation>\\n<crc32>\\n"
      oplog.log            # the pipeline's durable mutation stream
      gen-000001/
        points.npy         # the generation's bulk matrix (original space)
        rid_map.npy        # local row -> global rid (int64)
        ckpt/              # repro.persist snapshot (generation-stamped)
        wal.log            # WAL whose CHECKPOINT names ckpt/ + generation
        GENERATION.json    # generation manifest (self-checksummed)
      gen-000002/ ...

A generation directory is an index directory
(:func:`repro.recovery.index_dir_writes` writes ``rid_map.npy``, ``ckpt/``
and ``wal.log``; :func:`repro.recovery.recover_index_dir` reopens them)
plus the bulk matrix and the manifest.

The **swap protocol** (DESIGN.md §15) is build → swap → truncate:

1. *build* — the next generation's directory is written in full next to
   the live one.  Nothing references it yet, so any crash here leaves the
   published generation untouched and the partial directory is garbage.
2. *swap* — ``CURRENT`` is replaced via write-temp-then-``os.replace``,
   the single atomic commit point.  Before the replace the old generation
   is current; after it the new one is.  There is no in-between.
3. *truncate* — the superseded generation's files and the baked oplog
   prefix are removed.  The new generation is already published, so a
   crash mid-truncate only leaves unreferenced garbage for
   :meth:`collect_garbage` to finish on the next open.

Every physical write of that sequence funnels through :meth:`guarded`,
which runs it on the store's :class:`~repro.storage.faults.WriteClock` —
the same clock and :class:`~repro.storage.faults.CrashPoint` the page WAL
uses, here at file granularity.  ``repro.ingest.sweep`` arms it to prove
that a crash at *any* write recovers to exactly the old or the new
generation.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, List, Optional, Tuple, TypeVar, Union

import numpy as np

from ..index.base import VectorIndex
from ..persist.snapshot import _canonical_manifest_bytes, _crc32
from ..recovery.recover import (
    RecoveryReport,
    index_dir_writes,
    recover_index_dir,
)
from ..storage.faults import WriteClock

__all__ = [
    "CURRENT_NAME",
    "GEN_MANIFEST_NAME",
    "OPLOG_NAME",
    "POINTS_NAME",
    "GenerationError",
    "GenerationMissingError",
    "GenerationStore",
]

CURRENT_NAME = "CURRENT"
OPLOG_NAME = "oplog.log"
GEN_MANIFEST_NAME = "GENERATION.json"
POINTS_NAME = "points.npy"

_T = TypeVar("_T")


class GenerationError(RuntimeError):
    """Base class for generational-store failures."""


class GenerationMissingError(GenerationError):
    """The store has no published generation (``CURRENT`` absent or the
    directory it names is gone) — nothing to load."""


class GenerationStore:
    """Owns the generational directory layout and the swap protocol.

    The store itself is mechanism, not policy: it writes, publishes,
    loads, and garbage-collects generations.  What goes *into* a
    generation (the rebuilt index, its bulk matrix, the oplog watermark)
    is the :class:`~repro.ingest.pipeline.IngestPipeline`'s business.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Counts the physical file operations run through
        #: :meth:`guarded`; crash sweeps arm their crashpoint here.
        self.clock = WriteClock()

    def guarded(self, label: str, action: Callable[[], _T]) -> _T:
        """Run one physical file operation on :attr:`clock`."""
        return self.clock.guarded(label, action)

    # -- layout ----------------------------------------------------------

    def gen_dir(self, generation: int) -> Path:
        return self.root / f"gen-{generation:06d}"

    @property
    def current_path(self) -> Path:
        return self.root / CURRENT_NAME

    @property
    def oplog_path(self) -> Path:
        return self.root / OPLOG_NAME

    def list_generations(self) -> List[int]:
        """Every generation directory present on disk, published or not."""
        found = []
        for entry in self.root.iterdir():
            if entry.is_dir() and entry.name.startswith("gen-"):
                try:
                    found.append(int(entry.name[4:]))
                except ValueError:
                    continue
        return sorted(found)

    def read_current(self) -> Optional[int]:
        """The published generation number, or ``None`` when nothing has
        been published.  A torn or checksum-failing pointer raises
        :class:`GenerationError` — ``CURRENT`` is replaced atomically, so
        that is corruption, not a crash artifact."""
        path = self.current_path
        if not path.is_file():
            return None
        lines = path.read_text().splitlines()
        if len(lines) != 2:
            raise GenerationError(
                f"{path} is malformed ({len(lines)} lines, expected 2)"
            )
        body, recorded = lines
        if _crc32(body.encode()) != int(recorded):
            raise GenerationError(f"{path} failed its checksum")
        return int(body)

    # -- build ------------------------------------------------------------

    def install(
        self,
        index: VectorIndex,
        points: np.ndarray,
        rid_map: np.ndarray,
        generation: int,
        ingest_seq: int,
        parent: Optional[int] = None,
        meta: Optional[dict] = None,
    ) -> Path:
        """Write generation ``generation``'s directory in full (protocol
        step 1: *build*).  Unreferenced until :meth:`publish`; every file
        lands through :meth:`guarded`."""
        gdir = self.gen_dir(generation)
        self.guarded(
            "gen_dir", lambda: gdir.mkdir(parents=True, exist_ok=True)
        )
        self.guarded(
            "points",
            lambda: np.save(
                gdir / POINTS_NAME,
                np.ascontiguousarray(points, dtype=np.float64),
            ),
        )
        for label, write in index_dir_writes(
            index,
            gdir,
            rid_map,
            generation=generation,
            extra={"ingest_seq": int(ingest_seq)},
        ):
            self.guarded(label, write)

        manifest = {
            "generation": int(generation),
            "parent": None if parent is None else int(parent),
            "scheme": getattr(index, "name", type(index).__name__),
            "n_points": int(rid_map.size),
            "ingest_seq": int(ingest_seq),
        }
        if meta:
            manifest["meta"] = meta
        manifest["manifest_crc32"] = _crc32(
            _canonical_manifest_bytes(manifest)
        )
        self.guarded(
            "gen_manifest",
            lambda: (gdir / GEN_MANIFEST_NAME).write_text(
                json.dumps(manifest, sort_keys=True, indent=2) + "\n"
            ),
        )
        return gdir

    def read_manifest(self, generation: int) -> dict:
        path = self.gen_dir(generation) / GEN_MANIFEST_NAME
        if not path.is_file():
            raise GenerationError(f"no generation manifest at {path}")
        try:
            manifest = json.loads(path.read_text())
        except (ValueError, UnicodeDecodeError) as exc:
            raise GenerationError(
                f"generation manifest {path} is not parseable: {exc}"
            ) from exc
        recorded = manifest.get("manifest_crc32")
        if not isinstance(recorded, int) or _crc32(
            _canonical_manifest_bytes(manifest)
        ) != recorded:
            raise GenerationError(
                f"generation manifest {path} failed its checksum"
            )
        return manifest

    def is_complete(self, generation: int) -> bool:
        """A generation directory is complete iff its manifest landed
        (the manifest is the last file :meth:`install` writes)."""
        try:
            self.read_manifest(generation)
        except GenerationError:
            return False
        return True

    # -- swap --------------------------------------------------------------

    def publish(self, generation: int) -> None:
        """Protocol step 2: atomically repoint ``CURRENT``.

        The temp-file write and the ``os.replace`` are separate guarded
        writes — a crash between them leaves the old pointer fully intact,
        a crash after the replace leaves the new one; POSIX rename
        atomicity guarantees there is no third state.
        """
        if not self.is_complete(generation):
            raise GenerationError(
                f"refusing to publish incomplete generation {generation}"
            )
        body = str(int(generation))
        content = f"{body}\n{_crc32(body.encode())}\n"
        tmp = self.current_path.with_suffix(".tmp")
        self.guarded("current_tmp", lambda: tmp.write_text(content))
        self.guarded(
            "current_replace", lambda: os.replace(tmp, self.current_path)
        )

    # -- truncate ----------------------------------------------------------

    def _remove_tree(self, path: Path, guard: bool) -> None:
        """Remove a directory file-by-file; each unlink is its own guarded
        write when ``guard`` (the truncate step of a live swap), unguarded
        during opportunistic GC at open time."""
        if not path.exists():
            return
        for child in sorted(path.iterdir()):
            if child.is_dir():
                self._remove_tree(child, guard)
            elif guard:
                self.guarded(f"unlink:{child.name}", child.unlink)
            else:
                child.unlink()
        if guard:
            self.guarded(f"rmdir:{path.name}", path.rmdir)
        else:
            path.rmdir()

    def truncate(self, keep: int) -> List[int]:
        """Protocol step 3: drop every generation except ``keep``.

        Only callable once ``keep`` is the published generation; removal
        order (oldest first, file by file) does not matter for
        correctness — nothing references these directories any more.
        """
        current = self.read_current()
        if current != keep:
            raise GenerationError(
                f"truncate(keep={keep}) but CURRENT is {current}; "
                "publish before truncating"
            )
        removed = []
        for generation in self.list_generations():
            if generation == keep:
                continue
            self._remove_tree(self.gen_dir(generation), guard=True)
            removed.append(generation)
        tmp = self.current_path.with_suffix(".tmp")
        if tmp.exists():
            self.guarded("unlink:current_tmp", tmp.unlink)
        return removed

    # -- open / recovery ---------------------------------------------------

    def collect_garbage(self) -> List[int]:
        """Remove unreferenced generation directories: half-built ones a
        crash left before publish, and superseded ones a crash left
        mid-truncate.  Never touches the published generation."""
        current = self.read_current()
        removed = []
        for generation in self.list_generations():
            if generation == current:
                continue
            self._remove_tree(self.gen_dir(generation), guard=False)
            removed.append(generation)
        tmp = self.current_path.with_suffix(".tmp")
        if tmp.exists():
            tmp.unlink()
        return removed

    def load_current(
        self,
    ) -> Tuple[VectorIndex, np.ndarray, np.ndarray, dict, RecoveryReport]:
        """Load the published generation through real WAL recovery.

        Returns ``(index, points, rid_map, manifest, recovery_report)``;
        the index comes back WAL-detached, exactly as
        :func:`repro.recovery.recover` leaves it.
        """
        current = self.read_current()
        if current is None:
            raise GenerationMissingError(
                f"{self.root} has no published generation"
            )
        gdir = self.gen_dir(current)
        if not gdir.is_dir():
            raise GenerationMissingError(
                f"CURRENT names generation {current} but {gdir} is gone"
            )
        manifest = self.read_manifest(current)
        index, rid_map, report = recover_index_dir(gdir)
        points = np.load(gdir / POINTS_NAME)
        return index, points, rid_map, manifest, report
