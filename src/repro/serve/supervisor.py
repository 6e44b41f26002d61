"""Builds, checkpoints, and keeps alive one worker process per shard.

``prepare()`` turns a :class:`~repro.serve.planner.ShardPlan` into on-disk
shard state: each shard's index is built from its local reduction and
written as an index directory (snapshot + checkpointed WAL + rid map,
:func:`repro.recovery.index_dir_writes`) into ``<root>/shard_<id>/``.
The supervisor then *never ships a live index to a worker*: every spawn
— first boot and post-crash respawn alike — rebuilds from checkpoint +
WAL via :func:`repro.recovery.recover_index_dir`, so the recovery path is
exercised on every process start, not just after disasters.

Workers are forked (one socketpair each); fork is required — the spawn
start method would re-import and re-pickle, and the platforms this
repository targets in CI all provide fork.  ``respawn()`` is the router's
rung for dead or hung workers: SIGKILL whatever is left, fork a fresh
process from the same durable state.

Fault specs (:class:`~repro.serve.faults.WorkerFaultSpec`) are handed to
the worker at spawn; a non-``persistent`` spec is consumed by the first
spawn, so a respawned worker comes back clean (recovery scenarios), while
a ``persistent`` spec re-arms every life (route-around scenarios).
"""

from __future__ import annotations

import multiprocessing
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Union

from ..index import index_builder
from ..recovery import index_dir_writes
from .faults import WorkerFaultSpec
from .planner import ShardPlan
from .protocol import FrameReader, send_message
from .worker import worker_main

__all__ = ["WorkerHandle", "Supervisor"]


@dataclass
class WorkerHandle:
    """The parent's view of one live worker: process + framed channel."""

    process: multiprocessing.process.BaseProcess
    sock: socket.socket
    reader: FrameReader
    generation: int


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise RuntimeError(
            "the serving layer requires the fork start method"
        ) from exc


class Supervisor:
    """Owns shard state on disk and the worker process per shard."""

    def __init__(
        self,
        plan: ShardPlan,
        scheme: str,
        root: Union[str, Path],
        store: str = "memory",
    ) -> None:
        self._build = index_builder(scheme, store)
        self.plan = plan
        self.root = Path(root)
        self.workers: Dict[int, WorkerHandle] = {}
        self.spawn_counts: Dict[int, int] = {}
        self._fault_specs: Dict[int, WorkerFaultSpec] = {}
        self._ctx = _fork_context()
        self._prepared = False
        #: Per-shard directory overrides installed by :meth:`swap_shard`
        #: (generational swaps); shards not listed serve from ``root``.
        self._shard_dirs: Dict[int, Path] = {}

    # -- shard state on disk --------------------------------------------

    def shard_dir(self, shard_id: int) -> Path:
        override = self._shard_dirs.get(shard_id)
        if override is not None:
            return override
        return self.root / f"shard_{shard_id}"

    @property
    def shard_ids(self):
        return [a.shard_id for a in self.plan.shards]

    def _prepare_shard(self, assignment, sdir: Path) -> None:
        """Build one shard assignment and write its index directory."""
        sdir.mkdir(parents=True, exist_ok=True)
        index = self._build(assignment.reduced)
        for _label, write in index_dir_writes(
            index, sdir, assignment.rid_map
        ):
            write()
        # Release the build-time physical store (mmap file handles);
        # workers rehydrate their own from the snapshot.
        index.store.close()

    def prepare(self) -> None:
        """Build + checkpoint every shard's index into its directory."""
        for assignment in self.plan.shards:
            self._prepare_shard(
                assignment, self.shard_dir(assignment.shard_id)
            )
        self._prepared = True

    # -- generational swap ------------------------------------------------

    def prepare_generation(
        self, new_plan: ShardPlan, new_root: Union[str, Path]
    ) -> Dict[int, Path]:
        """Build a new index generation's shard state under ``new_root``
        without touching any live worker (swap protocol step 1: *build*).

        The new plan must be shard-compatible with the live one — same
        shard ids, dimensionality, metric, and mode — because the router
        keeps scattering every request to every shard id while the swap
        rolls.  Returns ``{shard_id: shard_dir}`` for :meth:`swap_shard`.
        """
        live = self.plan
        if [a.shard_id for a in new_plan.shards] != [
            a.shard_id for a in live.shards
        ]:
            raise ValueError(
                "new plan's shard ids "
                f"{[a.shard_id for a in new_plan.shards]} do not match the "
                f"live plan's {[a.shard_id for a in live.shards]}"
            )
        for attr in ("dimensionality", "metric", "mode"):
            if getattr(new_plan, attr) != getattr(live, attr):
                raise ValueError(
                    f"new plan's {attr} ({getattr(new_plan, attr)!r}) does "
                    f"not match the live plan's "
                    f"({getattr(live, attr)!r})"
                )
        new_root = Path(new_root)
        dirs: Dict[int, Path] = {}
        for assignment in new_plan.shards:
            sdir = new_root / f"shard_{assignment.shard_id}"
            self._prepare_shard(assignment, sdir)
            dirs[assignment.shard_id] = sdir
        return dirs

    def swap_shard(self, shard_id: int, new_dir: Path) -> WorkerHandle:
        """Point one shard at a new generation's directory and respawn its
        worker from that state (the caller is responsible for draining the
        shard's in-flight requests first — see ``Router.rolling_swap``)."""
        if shard_id not in (a.shard_id for a in self.plan.shards):
            raise ValueError(f"unknown shard id {shard_id}")
        self._shard_dirs[shard_id] = Path(new_dir)
        return self.respawn(shard_id)

    def adopt_plan(self, new_plan: ShardPlan) -> None:
        """Install the new generation's plan as the live one (after every
        shard has swapped)."""
        self.plan = new_plan

    # -- fault injection -------------------------------------------------

    def set_fault_spec(self, shard_id: int, spec: WorkerFaultSpec) -> None:
        """Arm a fault spec for ``shard_id``'s *next* spawn (call before
        :meth:`start`).  Non-persistent specs are consumed by that spawn."""
        self._fault_specs[shard_id] = spec

    # -- process lifecycle ----------------------------------------------

    def start(self) -> None:
        if not self._prepared:
            self.prepare()
        for shard_id in self.shard_ids:
            self.spawn(shard_id)

    def spawn(self, shard_id: int) -> WorkerHandle:
        if shard_id in self.workers:
            raise RuntimeError(
                f"shard {shard_id} already has a live worker; use respawn"
            )
        generation = self.spawn_counts.get(shard_id, 0)
        spec = self._fault_specs.get(shard_id)
        if spec is not None and generation > 0 and not spec.persistent:
            del self._fault_specs[shard_id]
            spec = None
        parent_sock, child_sock = socket.socketpair()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_sock, shard_id, str(self.shard_dir(shard_id)), spec),
            daemon=True,
        )
        process.start()
        # The parent's copy of the child end must close, or a dead worker
        # would never surface as EOF on the parent's socket.
        child_sock.close()
        handle = WorkerHandle(
            process=process,
            sock=parent_sock,
            reader=FrameReader(parent_sock),
            generation=generation,
        )
        self.workers[shard_id] = handle
        self.spawn_counts[shard_id] = generation + 1
        return handle

    def handle(self, shard_id: int) -> WorkerHandle:
        try:
            return self.workers[shard_id]
        except KeyError:
            raise RuntimeError(
                f"shard {shard_id} has no live worker (not started?)"
            ) from None

    def alive(self, shard_id: int) -> bool:
        handle = self.workers.get(shard_id)
        return handle is not None and handle.process.is_alive()

    def _reap(self, handle: WorkerHandle, graceful: bool) -> None:
        if graceful and handle.process.is_alive():
            try:
                send_message(handle.sock, {"op": "shutdown"})
            except Exception:
                pass
            handle.process.join(timeout=1.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=5.0)
        try:
            handle.sock.close()
        except OSError:
            pass

    def respawn(self, shard_id: int) -> WorkerHandle:
        """Kill whatever is left of a shard's worker and fork a fresh one
        from the shard's durable checkpoint + WAL."""
        handle = self.workers.pop(shard_id, None)
        if handle is not None:
            self._reap(handle, graceful=False)
        return self.spawn(shard_id)

    def stop(self) -> None:
        """Shut every worker down (graceful first, SIGKILL after 1 s)."""
        for shard_id in list(self.workers):
            handle = self.workers.pop(shard_id)
            self._reap(handle, graceful=True)
