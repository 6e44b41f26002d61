"""Declarative, fully seeded benchmark workloads.

A :class:`WorkloadSpec` names everything needed to reproduce one benchmark
run from nothing: the synthetic dataset (shape + seed), the reduction, the
index scheme, the query set (count, k, seed), and the online update stream
used by the crash-recovery leg.  Every source of randomness is an explicit
seed, so the same spec produces the same index, the same queries and the
same update ops on every machine — which is what lets the logical
counters and result fingerprints in a :class:`~repro.bench.report.BenchReport`
be committed as golden baselines.

The spec dict round-trips through JSON verbatim and is embedded in every
report, so a baseline is self-describing: ``python -m repro.bench compare``
re-runs exactly the workload the baseline encodes, not whatever the current
registry happens to define.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, List

import numpy as np

from ..data.synthetic import SyntheticSpec, generate_correlated_clusters
from ..data.workload import QueryWorkload, sample_queries
from ..index import index_builder
from ..index.base import VectorIndex
from ..linalg.kernels import normalize_rows
from ..recovery.harness import Op, make_update_workload
from ..reduction import LDRReducer, MMDRReducer, ReducedDataset

__all__ = ["WorkloadSpec", "REDUCERS"]

#: Reducer name -> factory.
REDUCERS: Dict[str, Callable[[], object]] = {
    "mmdr": MMDRReducer,
    "ldr": LDRReducer,
}


#: Fields an earlier spec version carried and no workload has any more
#: (the seed and read-fault rate of the retired transient-fault leg).
#: :meth:`WorkloadSpec.from_dict` drops them, so a baseline written
#: before their removal still re-runs, and the gate reports them as spec
#: drift until that baseline is regenerated.
RETIRED_FIELDS = frozenset({"fault_seed", "transient_read_prob"})


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload, fully determined by its fields."""

    name: str
    scheme: str = "iMMDR"
    reducer: str = "mmdr"
    #: Search metric: "l2" (the paper's setting) or "cosine" (data rows
    #: unit-normalized before reduction; queries/inserts normalized by the
    #: index — see DESIGN.md §13).
    metric: str = "l2"
    #: Physical page store: "memory" (default) or "mmap" (out-of-core
    #: :class:`~repro.storage.mmap_store.MmapPageStore`).  Logical counters
    #: and fingerprints are store-independent by contract.
    store: str = "memory"

    # Synthetic dataset (repro.data.synthetic).
    n_points: int = 2000
    dimensionality: int = 16
    n_clusters: int = 2
    retained_dims: int = 4
    variance_r: float = 0.3
    variance_e: float = 0.015
    noise_fraction: float = 0.01
    data_seed: int = 42
    reduce_seed: int = 0

    # Query workload.
    n_queries: int = 24
    k: int = 10
    query_seed: int = 1
    query_method: str = "perturbed"

    # Update + crash-recovery leg (0/0 disables it).
    n_inserts: int = 10
    n_deletes: int = 6
    update_seed: int = 3
    update_beta: float = 0.25

    def __post_init__(self) -> None:
        # Frozen: the builder is kept outside the dataclass fields, so it
        # stays out of to_dict() and comparisons.
        object.__setattr__(
            self, "_build", index_builder(self.scheme, self.store)
        )
        if self.reducer not in REDUCERS:
            raise ValueError(
                f"unknown reducer {self.reducer!r}; "
                f"expected one of {sorted(REDUCERS)}"
            )
        if self.metric not in ("l2", "cosine"):
            raise ValueError(
                f"metric must be 'l2' or 'cosine', got {self.metric!r}"
            )

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        """Rebuild a spec from its dict form, dropping
        :data:`RETIRED_FIELDS` and rejecting any other unknown key (a
        typo'd or future field silently ignored would change the workload
        without changing the baseline)."""
        data = {k: v for k, v in data.items() if k not in RETIRED_FIELDS}
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown WorkloadSpec fields: {sorted(unknown)}"
            )
        return cls(**data)

    # -- builders ------------------------------------------------------

    @property
    def has_updates(self) -> bool:
        return self.n_inserts + self.n_deletes > 0

    def build_points(self) -> np.ndarray:
        spec = SyntheticSpec(
            n_points=self.n_points,
            dimensionality=self.dimensionality,
            n_clusters=self.n_clusters,
            retained_dims=self.retained_dims,
            variance_r=self.variance_r,
            variance_e=self.variance_e,
            noise_fraction=self.noise_fraction,
        )
        data = generate_correlated_clusters(
            spec, np.random.default_rng(self.data_seed)
        )
        points = data.points
        if self.metric == "cosine":
            # Cosine = L2 over unit vectors: normalization happens once,
            # here, so reduction, bulk load, and queries all see the same
            # representation.
            points = normalize_rows(points)
        return points

    def build_reduced(self, points: np.ndarray) -> ReducedDataset:
        reducer = REDUCERS[self.reducer]()
        reduced = reducer.reduce(
            points, np.random.default_rng(self.reduce_seed)
        )
        reduced.metric = self.metric
        return reduced

    def build_index(self, reduced: ReducedDataset) -> VectorIndex:
        return self._build(reduced)

    def build_workload(self, points: np.ndarray) -> QueryWorkload:
        return sample_queries(
            points,
            self.n_queries,
            np.random.default_rng(self.query_seed),
            k=self.k,
            method=self.query_method,
        )

    def build_ops(self, points: np.ndarray, n_bulk: int) -> List[Op]:
        if not self.has_updates:
            return []
        return make_update_workload(
            points,
            n_bulk,
            np.random.default_rng(self.update_seed),
            n_inserts=self.n_inserts,
            n_deletes=self.n_deletes,
            beta=self.update_beta,
        )
