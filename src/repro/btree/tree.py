"""Paged B+-tree with bulk loading, inserts, range scans and bidirectional
cursors.

This is the single index structure under the extended iDistance (§5): all
subspace projections map to one-dimensional keys and live together in one
tree.  Every node occupies one simulated page; all reads flow through the
:class:`~repro.storage.buffer.BufferPool`, so traversals charge exactly the
I/O the paper's Figure 9 measures, and key comparisons are counted for the
CPU-cost cross-checks of Figure 10.

The KNN search of iDistance needs more than plain range scans: it starts at
a key and expands outward in both directions as the query radius grows.
:class:`BTreeCursor` supports that access pattern — it is positioned between
entries and steps left or right one entry at a time, fetching sibling leaf
pages (with accounting) only when it crosses a page boundary.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Sequence, Tuple

from ..storage.buffer import BufferPool
from ..storage.metrics import CostCounters
from ..storage.pager import PageStore
from .node import INTERNAL_CAPACITY, LEAF_CAPACITY, InternalNode, LeafNode

__all__ = ["BPlusTree", "BTreeCursor", "BTreeInvariantError"]


class BTreeInvariantError(AssertionError):
    """A structural invariant of the tree does not hold.

    Raised by :meth:`BPlusTree.check_invariants`; the message names the
    page and the violated property.  Subclasses ``AssertionError`` because
    a violation is always a logic bug (or unrecovered corruption), never a
    condition callers should handle.
    """


class BPlusTree:
    """A disk-simulated B+-tree mapping float64 keys to int64 record ids.

    Duplicate keys are allowed (iDistance keys are distances, which tie).
    """

    def __init__(
        self,
        store: PageStore,
        pool: BufferPool,
        leaf_capacity: int = LEAF_CAPACITY,
        internal_capacity: int = INTERNAL_CAPACITY,
    ) -> None:
        if leaf_capacity < 2 or internal_capacity < 3:
            raise ValueError(
                "capacities too small for a functioning tree "
                f"(leaf={leaf_capacity}, internal={internal_capacity})"
            )
        self.store = store
        self.pool = pool
        self.leaf_capacity = leaf_capacity
        self.internal_capacity = internal_capacity
        self.counters: CostCounters = pool.counters
        self.root_page: Optional[int] = None
        self.height = 0
        self.n_entries = 0
        self._first_leaf: Optional[int] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def bulk_load(
        self, keys: Sequence[float], rids: Sequence[int]
    ) -> None:
        """Build the tree bottom-up from key-sorted data (classic bulk load:
        fill leaves left to right, then stack internal levels)."""
        if self.root_page is not None:
            raise RuntimeError("tree is already loaded")
        if len(keys) != len(rids):
            raise ValueError(f"{len(keys)} keys but {len(rids)} rids")
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("bulk_load requires keys in ascending order")
        if not keys:
            # Empty tree: a single empty leaf as root.
            leaf = LeafNode()
            self.root_page = self.store.allocate(leaf, leaf.size_bytes)
            self._first_leaf = self.root_page
            self.height = 1
            return

        # Fill leaves at ~90% so early inserts do not split immediately.
        fill = max(2, int(self.leaf_capacity * 0.9))
        leaf_pages: List[int] = []
        leaf_high_keys: List[float] = []
        prev_page: Optional[int] = None
        for lo in range(0, len(keys), fill):
            hi = min(lo + fill, len(keys))
            leaf = LeafNode(
                keys=[float(k) for k in keys[lo:hi]],
                rids=[int(r) for r in rids[lo:hi]],
                prev_page=prev_page,
            )
            page_id = self.store.allocate(leaf, leaf.size_bytes)
            if prev_page is not None:
                prev_leaf = self.store.fetch(prev_page).payload
                prev_leaf.next_page = page_id
                self.store.overwrite(
                    prev_page, prev_leaf, prev_leaf.size_bytes
                )
            leaf_pages.append(page_id)
            leaf_high_keys.append(float(keys[hi - 1]))
            prev_page = page_id
        self._first_leaf = leaf_pages[0]
        self.n_entries = len(keys)

        level_pages = leaf_pages
        level_high = leaf_high_keys
        self.height = 1
        ifill = max(3, int(self.internal_capacity * 0.9))
        while len(level_pages) > 1:
            next_pages: List[int] = []
            next_high: List[float] = []
            for lo in range(0, len(level_pages), ifill):
                hi = min(lo + ifill, len(level_pages))
                children = level_pages[lo:hi]
                separators = level_high[lo:hi - 1]
                node = InternalNode(
                    separators=list(separators), children=list(children)
                )
                next_pages.append(
                    self.store.allocate(node, node.size_bytes)
                )
                next_high.append(level_high[hi - 1])
            level_pages = next_pages
            level_high = next_high
            self.height += 1
        self.root_page = level_pages[0]

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _descend(self, key: float) -> int:
        """Page id of the leaf that should contain ``key``; a separator
        equal to ``key`` routes right so the leaf holding the first entry
        ``>= key`` is found."""
        if self.root_page is None:
            raise RuntimeError("tree is empty; bulk_load or insert first")
        page_id = self.root_page
        node = self.pool.read(page_id)
        while not node.is_leaf:
            idx = bisect.bisect_left(node.separators, key)
            self.counters.count_key_comparison(
                max(1, len(node.separators).bit_length())
            )
            page_id = node.children[idx]
            node = self.pool.read(page_id)
        return page_id

    def descend_path(self, key: float) -> Tuple[List[int], int]:
        """The pages :meth:`_descend` would read (root → leaf, in order) and
        the key comparisons it would charge, computed *without* touching the
        buffer pool or counters.

        iDistance's recording sink (``_BlockLedger``, used by
        ``knn_batch``) logs tree descents through this instead of the
        shared pool; this keeps the replayed I/O and CPU accounting exactly
        equal to the live descent its live sink runs for ``knn``.  Replay
        models no real I/O, so it uses ``raw_fetch`` and never observes
        injected faults (the live descent it mirrors already paid — and
        retried — them through the buffer pool).
        """
        if self.root_page is None:
            raise RuntimeError("tree is empty; bulk_load or insert first")
        page_id = self.root_page
        pages = [page_id]
        comparisons = 0
        node = self.store.raw_fetch(page_id).payload
        while not node.is_leaf:
            idx = bisect.bisect_left(node.separators, key)
            comparisons += max(1, len(node.separators).bit_length())
            page_id = node.children[idx]
            pages.append(page_id)
            node = self.store.raw_fetch(page_id).payload
        return pages, comparisons

    def search(self, key: float) -> List[int]:
        """All rids stored under exactly ``key`` (duplicates included)."""
        rids: List[int] = []
        for k, rid in self.range(key, key):
            del k
            rids.append(rid)
        return rids

    def range(
        self, lo: float, hi: float
    ) -> Iterator[Tuple[float, int]]:
        """Yield ``(key, rid)`` for all entries with ``lo <= key <= hi``."""
        if self.root_page is None:
            return
        if hi < lo:
            return
        page_id: Optional[int] = self._descend(lo)
        while page_id is not None:
            leaf: LeafNode = self.pool.read(page_id)
            start = bisect.bisect_left(leaf.keys, lo)
            self.counters.count_key_comparison(
                max(1, len(leaf.keys).bit_length())
            )
            for idx in range(start, len(leaf.keys)):
                if leaf.keys[idx] > hi:
                    return
                self.counters.count_key_comparison()
                yield leaf.keys[idx], leaf.rids[idx]
            page_id = leaf.next_page

    def cursor(self, key: float) -> "BTreeCursor":
        """A bidirectional cursor positioned at the first entry >= key."""
        if self.root_page is None:
            raise RuntimeError("tree is empty; bulk_load or insert first")
        page_id = self._descend(key)
        leaf: LeafNode = self.pool.read(page_id)
        idx = bisect.bisect_left(leaf.keys, key)
        self.counters.count_key_comparison(
            max(1, len(leaf.keys).bit_length())
        )
        return BTreeCursor(self, page_id, idx)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, key: float, rid: int) -> None:
        """Insert one entry, splitting nodes on overflow (root included)."""
        key = float(key)
        rid = int(rid)
        if self.root_page is None:
            leaf = LeafNode(keys=[key], rids=[rid])
            self.root_page = self.store.allocate(leaf, leaf.size_bytes)
            self._first_leaf = self.root_page
            self.height = 1
            self.n_entries = 1
            return

        path: List[Tuple[int, int]] = []  # (page_id, child_idx) per level
        page_id = self.root_page
        node = self.pool.read(page_id)
        while not node.is_leaf:
            idx = bisect.bisect_left(node.separators, key)
            path.append((page_id, idx))
            page_id = node.children[idx]
            node = self.pool.read(page_id)

        leaf: LeafNode = node
        pos = bisect.bisect_right(leaf.keys, key)
        leaf.keys.insert(pos, key)
        leaf.rids.insert(pos, rid)
        self.n_entries += 1
        if len(leaf.keys) <= self.leaf_capacity:
            self.store.overwrite(page_id, leaf, leaf.size_bytes)
            self.pool.invalidate(page_id)
            return

        # Leaf split: right half moves to a new page.
        mid = len(leaf.keys) // 2
        right = LeafNode(
            keys=leaf.keys[mid:],
            rids=leaf.rids[mid:],
            prev_page=page_id,
            next_page=leaf.next_page,
        )
        right_page = self.store.allocate(right, right.size_bytes)
        if leaf.next_page is not None:
            nxt = self.store.fetch(leaf.next_page).payload
            nxt.prev_page = right_page
            self.store.overwrite(leaf.next_page, nxt, nxt.size_bytes)
            self.pool.invalidate(leaf.next_page)
        leaf.keys = leaf.keys[:mid]
        leaf.rids = leaf.rids[:mid]
        leaf.next_page = right_page
        self.store.overwrite(page_id, leaf, leaf.size_bytes)
        self.pool.invalidate(page_id)
        self._insert_into_parent(
            path, page_id, leaf.keys[-1], right_page
        )

    def _insert_into_parent(
        self,
        path: List[Tuple[int, int]],
        left_page: int,
        separator: float,
        right_page: int,
    ) -> None:
        if not path:
            root = InternalNode(
                separators=[separator], children=[left_page, right_page]
            )
            self.root_page = self.store.allocate(root, root.size_bytes)
            self.height += 1
            return
        parent_page, child_idx = path.pop()
        parent: InternalNode = self.store.fetch(parent_page).payload
        parent.separators.insert(child_idx, separator)
        parent.children.insert(child_idx + 1, right_page)
        if len(parent.children) <= self.internal_capacity:
            self.store.overwrite(parent_page, parent, parent.size_bytes)
            self.pool.invalidate(parent_page)
            return
        mid = len(parent.separators) // 2
        promote = parent.separators[mid]
        right = InternalNode(
            separators=parent.separators[mid + 1:],
            children=parent.children[mid + 1:],
        )
        right_id = self.store.allocate(right, right.size_bytes)
        parent.separators = parent.separators[:mid]
        parent.children = parent.children[: mid + 1]
        self.store.overwrite(parent_page, parent, parent.size_bytes)
        self.pool.invalidate(parent_page)
        self._insert_into_parent(path, parent_page, promote, right_id)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete(self, key: float, rid: int) -> None:
        """Remove the entry ``(key, rid)``; raises ``KeyError`` if absent.

        Duplicate keys are resolved by rid, scanning rightward across leaf
        boundaries when a duplicate run spills over.  Leaves are allowed to
        underflow (even to empty — cursors and range scans skip them), and
        no rebalancing or merging happens: online deletes in the simulated
        index are tombstone-cheap, and :meth:`check_invariants` documents
        exactly which occupancy bounds therefore still hold.
        """
        key = float(key)
        rid = int(rid)
        if self.root_page is None:
            raise KeyError(f"entry ({key!r}, {rid}) not in an empty tree")
        page_id: Optional[int] = self._descend(key)
        while page_id is not None:
            leaf: LeafNode = self.pool.read(page_id)
            idx = bisect.bisect_left(leaf.keys, key)
            self.counters.count_key_comparison(
                max(1, len(leaf.keys).bit_length())
            )
            while idx < len(leaf.keys) and leaf.keys[idx] == key:
                self.counters.count_key_comparison()
                if leaf.rids[idx] == rid:
                    del leaf.keys[idx]
                    del leaf.rids[idx]
                    self.store.overwrite(page_id, leaf, leaf.size_bytes)
                    self.pool.invalidate(page_id)
                    self.n_entries -= 1
                    return
                idx += 1
            if idx < len(leaf.keys):
                # First key past the duplicates exceeds `key`: not present.
                break
            # The duplicate run (or an empty leaf) may continue rightward.
            page_id = leaf.next_page
        raise KeyError(f"entry ({key!r}, {rid}) not in tree")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def check_invariants(self) -> dict:
        """Validate the tree's structure; raise :class:`BTreeInvariantError`
        on the first violation, else return a summary dict.

        Checked properties:

        * every internal node has ``len(children) == len(separators) + 1``,
          non-decreasing separators, and at most ``internal_capacity``
          children (at least 2 for the root when the tree has >1 level);
        * every node's occupancy respects the page-derived capacity upper
          bound (lower bounds are *not* enforced for leaves: bulk load
          fills to ~90% and :meth:`delete` never rebalances, so leaves may
          legally underflow to empty);
        * every subtree's keys lie within the separator interval routing
          to it (non-strict on both sides — duplicates may touch either
          separator);
        * leaf keys are sorted, with ``len(keys) == len(rids)``;
        * the leaf sibling chain from the first leaf visits exactly the
          DFS leaf sequence, with consistent prev/next links and globally
          non-decreasing keys across the chain;
        * ``n_entries`` equals the total number of leaf entries and
          ``height`` the root-to-leaf depth.

        Traversal uses ``raw_fetch`` so validation charges no I/O and
        observes no injected faults.
        """
        if self.root_page is None:
            if self.n_entries != 0:
                raise BTreeInvariantError(
                    f"empty tree claims {self.n_entries} entries"
                )
            return {"leaves": 0, "internal": 0, "entries": 0, "depth": 0}

        dfs_leaves: List[int] = []
        internal_nodes = 0
        depth_seen = set()

        def walk(
            page_id: int, lo: Optional[float], hi: Optional[float], depth: int
        ) -> None:
            nonlocal internal_nodes
            node = self.store.raw_fetch(page_id).payload
            if node.is_leaf:
                depth_seen.add(depth)
                if len(node.keys) != len(node.rids):
                    raise BTreeInvariantError(
                        f"leaf {page_id}: {len(node.keys)} keys vs "
                        f"{len(node.rids)} rids"
                    )
                if len(node.keys) > self.leaf_capacity:
                    raise BTreeInvariantError(
                        f"leaf {page_id} holds {len(node.keys)} entries; "
                        f"capacity is {self.leaf_capacity}"
                    )
                for i in range(len(node.keys) - 1):
                    if node.keys[i] > node.keys[i + 1]:
                        raise BTreeInvariantError(
                            f"leaf {page_id} keys out of order at {i}"
                        )
                if node.keys:
                    if lo is not None and node.keys[0] < lo:
                        raise BTreeInvariantError(
                            f"leaf {page_id} key {node.keys[0]!r} below "
                            f"its routing interval (>= {lo!r})"
                        )
                    if hi is not None and node.keys[-1] > hi:
                        raise BTreeInvariantError(
                            f"leaf {page_id} key {node.keys[-1]!r} above "
                            f"its routing interval (<= {hi!r})"
                        )
                dfs_leaves.append(page_id)
                return
            internal_nodes += 1
            if len(node.children) != len(node.separators) + 1:
                raise BTreeInvariantError(
                    f"internal {page_id}: {len(node.children)} children "
                    f"vs {len(node.separators)} separators"
                )
            if len(node.children) > self.internal_capacity:
                raise BTreeInvariantError(
                    f"internal {page_id} holds {len(node.children)} "
                    f"children; capacity is {self.internal_capacity}"
                )
            # Lower bound is 1, not ceil(capacity/2): the bulk loader may
            # leave a single-child node at a level's tail, and deletes
            # never rebalance — both are valid states for this tree.
            if len(node.children) < 1:
                raise BTreeInvariantError(
                    f"internal {page_id} has no children"
                )
            for i in range(len(node.separators) - 1):
                if node.separators[i] > node.separators[i + 1]:
                    raise BTreeInvariantError(
                        f"internal {page_id} separators out of order "
                        f"at {i}"
                    )
            for i, child in enumerate(node.children):
                child_lo = (
                    lo if i == 0 else node.separators[i - 1]
                )
                child_hi = (
                    hi
                    if i == len(node.separators)
                    else node.separators[i]
                )
                walk(child, child_lo, child_hi, depth + 1)

        walk(self.root_page, None, None, 1)

        if len(depth_seen) != 1:
            raise BTreeInvariantError(
                f"leaves at differing depths: {sorted(depth_seen)}"
            )
        depth = depth_seen.pop()
        if depth != self.height:
            raise BTreeInvariantError(
                f"height says {self.height}, leaves sit at depth {depth}"
            )

        # Leaf sibling chain: same pages, same order, consistent links,
        # globally sorted keys, and an entry count matching n_entries.
        chain: List[int] = []
        entries = 0
        prev_id: Optional[int] = None
        prev_last_key: Optional[float] = None
        page_id = self._first_leaf
        while page_id is not None:
            if len(chain) > len(dfs_leaves):
                raise BTreeInvariantError(
                    "leaf chain is longer than the tree's leaf set "
                    "(cycle or stray link)"
                )
            leaf = self.store.raw_fetch(page_id).payload
            if leaf.prev_page != prev_id:
                raise BTreeInvariantError(
                    f"leaf {page_id} prev_page is {leaf.prev_page}, "
                    f"expected {prev_id}"
                )
            if leaf.keys:
                if (
                    prev_last_key is not None
                    and leaf.keys[0] < prev_last_key
                ):
                    raise BTreeInvariantError(
                        f"leaf chain keys regress entering {page_id}"
                    )
                prev_last_key = leaf.keys[-1]
            entries += len(leaf.keys)
            chain.append(page_id)
            prev_id = page_id
            page_id = leaf.next_page
        if chain != dfs_leaves:
            raise BTreeInvariantError(
                "leaf chain and tree DFS disagree on the leaf sequence"
            )
        if entries != self.n_entries:
            raise BTreeInvariantError(
                f"n_entries says {self.n_entries}, leaves hold {entries}"
            )
        return {
            "leaves": len(chain),
            "internal": internal_nodes,
            "entries": entries,
            "depth": depth,
        }

    def __len__(self) -> int:
        return self.n_entries

    def items(self) -> Iterator[Tuple[float, int]]:
        """All entries in key order (sequential leaf walk, with I/O)."""
        page_id = self._first_leaf
        while page_id is not None:
            leaf: LeafNode = self.pool.read(page_id)
            yield from zip(leaf.keys, leaf.rids)
            page_id = leaf.next_page

    def leaf_page_ids(self) -> List[int]:
        """Leaf pages left to right (no I/O accounting; test helper)."""
        pages = []
        page_id = self._first_leaf
        while page_id is not None:
            pages.append(page_id)
            page_id = self.store.raw_fetch(page_id).payload.next_page
        return pages


class BTreeCursor:
    """Bidirectional entry cursor for iDistance's outward leaf expansion.

    The cursor sits *between* entries: ``peek_next`` returns the entry at
    the current position (first entry >= the seek key right after
    :meth:`BPlusTree.cursor`), ``peek_prev`` the one before it.  ``next`` /
    ``prev`` return the same entries and advance.  Crossing a page boundary
    reads the sibling leaf through the buffer pool.
    """

    def __init__(self, tree: BPlusTree, page_id: int, index: int) -> None:
        self.tree = tree
        self.page_id: Optional[int] = page_id
        self.index = index  # position within the current leaf

    def _leaf(self, page_id: int) -> LeafNode:
        return self.tree.pool.read(page_id)

    def peek_next(self) -> Optional[Tuple[float, int]]:
        entry = self._entry_at(self.page_id, self.index)
        return entry[0] if entry else None

    def next(self) -> Optional[Tuple[float, int]]:
        entry = self._entry_at(self.page_id, self.index)
        if entry is None:
            return None
        (key_rid, page_id, index) = entry
        self.page_id, self.index = page_id, index + 1
        return key_rid

    def _entry_at(self, page_id: Optional[int], index: int):
        """Resolve (entry, page, idx) skipping empty leaves rightward."""
        while page_id is not None:
            leaf = self._leaf(page_id)
            if index < len(leaf.keys):
                return (leaf.keys[index], leaf.rids[index]), page_id, index
            page_id = leaf.next_page
            index = 0
        return None

    def peek_prev(self) -> Optional[Tuple[float, int]]:
        entry = self._entry_before(self.page_id, self.index)
        return entry[0] if entry else None

    def prev(self) -> Optional[Tuple[float, int]]:
        entry = self._entry_before(self.page_id, self.index)
        if entry is None:
            return None
        (key_rid, page_id, index) = entry
        self.page_id, self.index = page_id, index
        return key_rid

    def _entry_before(self, page_id: Optional[int], index: int):
        if page_id is None:
            return None
        while True:
            if index > 0:
                leaf = self._leaf(page_id)
                return (
                    (leaf.keys[index - 1], leaf.rids[index - 1]),
                    page_id,
                    index - 1,
                )
            leaf = self._leaf(page_id)
            if leaf.prev_page is None:
                return None
            page_id = leaf.prev_page
            index = len(self._leaf(page_id).keys)
