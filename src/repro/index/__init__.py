"""KNN indexes over reduced datasets (the schemes of Figures 9/10).

* :class:`ExtendedIDistance` — the paper's contribution: one B+-tree over
  all subspaces (iMMDR / iLDR depending on which reducer produced the data).
* :class:`GlobalLDRIndex` — the gLDR baseline: one Hybrid tree per cluster.
* :class:`SequentialScan` — the no-index floor/ceiling.

All three score identically (reduced-space L2, full L2 for outliers) and
return exact KNN under that scoring, so any cost difference between them is
purely structural.

:data:`INDEX_SCHEMES` and :data:`PAGE_STORES` are the one name registry
the bench specs, the ingestion pipeline and the serving supervisor all
build from, through :func:`index_builder`.
"""

from functools import partial
from typing import Callable, Dict, Optional

from ..reduction.base import ReducedDataset
from ..storage.mmap_store import MmapPageStore

from .base import (
    BatchKNNResult,
    InvalidQueryError,
    KNNResult,
    QueryStats,
    VectorIndex,
)
from .global_ldr import GlobalLDRIndex
from .hybrid_tree import HybridTree, hybrid_internal_fanout, hybrid_leaf_capacity
from .idistance import ExtendedIDistance
from .seqscan import SequentialScan

#: Index scheme name -> constructor over a reduced dataset.
INDEX_SCHEMES: Dict[str, Callable[..., VectorIndex]] = {
    "iMMDR": ExtendedIDistance,
    "gLDR": GlobalLDRIndex,
    "SeqScan": SequentialScan,
}

#: Page store name -> ``store_factory`` (``None``: the in-memory default).
PAGE_STORES: Dict[str, Optional[Callable]] = {
    "memory": None,
    "mmap": MmapPageStore,
}


def index_builder(
    scheme: str, store: str = "memory"
) -> Callable[[ReducedDataset], VectorIndex]:
    """The constructor that builds ``scheme`` over ``store`` from a
    reduced dataset; an unknown name raises ``ValueError``."""
    if scheme not in INDEX_SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of "
            f"{sorted(INDEX_SCHEMES)}"
        )
    if store not in PAGE_STORES:
        raise ValueError(
            f"unknown store {store!r}; expected one of {sorted(PAGE_STORES)}"
        )
    return partial(INDEX_SCHEMES[scheme], store_factory=PAGE_STORES[store])

__all__ = [
    "BatchKNNResult",
    "ExtendedIDistance",
    "GlobalLDRIndex",
    "HybridTree",
    "INDEX_SCHEMES",
    "InvalidQueryError",
    "KNNResult",
    "PAGE_STORES",
    "QueryStats",
    "SequentialScan",
    "VectorIndex",
    "hybrid_internal_fanout",
    "hybrid_leaf_capacity",
    "index_builder",
]
