"""The default benchmark workload registry.

One smoke-sized workload per index scheme, chosen so the whole gate runs
in well under a minute on CI while still exercising every layer: MMDR /
LDR reduction, index build, cold-cache KNN, the batched engine, online
updates under WAL, checkpointing and recovery.

Baselines for these specs are committed under ``benchmarks/baselines/``;
a new workload added here gates nothing until ``python -m repro.bench
update`` commits its baseline.
"""

from __future__ import annotations

from typing import Dict

from .spec import WorkloadSpec

__all__ = ["DEFAULT_SPECS"]


def _registry(*specs: WorkloadSpec) -> Dict[str, WorkloadSpec]:
    registry: Dict[str, WorkloadSpec] = {}
    for spec in specs:
        if spec.name in registry:
            raise ValueError(f"duplicate spec name {spec.name!r}")
        registry[spec.name] = spec
    return registry


DEFAULT_SPECS = _registry(
    # The paper's contribution path: MMDR reduction + extended iDistance.
    WorkloadSpec(
        name="idistance_smoke",
        scheme="iMMDR",
        reducer="mmdr",
        n_points=2000,
        dimensionality=16,
        n_clusters=2,
        retained_dims=4,
        n_queries=24,
        k=10,
        n_inserts=10,
        n_deletes=6,
    ),
    # The gLDR baseline: LDR reduction + one Hybrid tree per cluster.
    WorkloadSpec(
        name="gldr_smoke",
        scheme="gLDR",
        reducer="ldr",
        n_points=1500,
        dimensionality=16,
        n_clusters=2,
        retained_dims=4,
        n_queries=16,
        k=10,
        n_inserts=6,
        n_deletes=4,
    ),
    # The no-index floor: sequential scan over the MMDR reduction.
    WorkloadSpec(
        name="seqscan_smoke",
        scheme="SeqScan",
        reducer="mmdr",
        n_points=1500,
        dimensionality=16,
        n_clusters=2,
        retained_dims=4,
        n_queries=16,
        k=10,
        n_inserts=6,
        n_deletes=4,
    ),
    # Cosine end-to-end: unit-normalized data through MMDR + iDistance,
    # running out-of-core on the mmap store (exercises both new paths).
    WorkloadSpec(
        name="idistance_cosine_smoke",
        scheme="iMMDR",
        reducer="mmdr",
        metric="cosine",
        store="mmap",
        n_points=1500,
        dimensionality=16,
        n_clusters=2,
        retained_dims=4,
        n_queries=16,
        k=10,
        n_inserts=6,
        n_deletes=4,
    ),
)
