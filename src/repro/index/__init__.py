"""KNN indexes over reduced datasets (the schemes of Figures 9/10).

* :class:`ExtendedIDistance` — the paper's contribution: one B+-tree over
  all subspaces (iMMDR / iLDR depending on which reducer produced the data).
* :class:`GlobalLDRIndex` — the gLDR baseline: one Hybrid tree per cluster.
* :class:`SequentialScan` — the no-index floor/ceiling.

All three score identically (reduced-space L2, full L2 for outliers) and
return exact KNN under that scoring, so any cost difference between them is
purely structural.

:data:`INDEX_SCHEMES` is the one name → constructor registry the bench
specs, the ingestion pipeline and the serving supervisor all build from.
"""

from typing import Callable, Dict

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

__all__ = [
    "BatchKNNResult",
    "ExtendedIDistance",
    "GlobalLDRIndex",
    "HybridTree",
    "INDEX_SCHEMES",
    "InvalidQueryError",
    "KNNResult",
    "QueryStats",
    "SequentialScan",
    "VectorIndex",
    "hybrid_internal_fanout",
    "hybrid_leaf_capacity",
]
