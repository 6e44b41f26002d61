"""One (scheme, store) check: every owner of a builder rejects an unknown
name with ``ValueError`` when it is constructed, not when it first builds."""

import numpy as np
import pytest

from repro.bench import WorkloadSpec
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.index import ExtendedIDistance, index_builder
from repro.ingest import GenerationStore, IngestPipeline
from repro.reduction import MMDRReducer
from repro.serve import ShardPlanner, Supervisor
from repro.storage import MmapPageStore


@pytest.fixture(scope="module")
def points():
    spec = SyntheticSpec(
        n_points=200, dimensionality=6, n_clusters=2, retained_dims=2
    )
    return generate_correlated_clusters(
        spec, np.random.default_rng(5)
    ).points


def reduce_fn(points):
    return MMDRReducer().reduce(points, np.random.default_rng(0))


def make_spec(tmp_path, points, scheme, store):
    WorkloadSpec(name="x", scheme=scheme, store=store)


def make_supervisor(tmp_path, points, scheme, store):
    plan = ShardPlanner(2, "hash").plan(reduce_fn(points))
    Supervisor(plan, scheme, tmp_path, store=store)


def make_pipeline(tmp_path, points, scheme, store):
    IngestPipeline(
        GenerationStore(tmp_path),
        reduce_fn=reduce_fn,
        scheme=scheme,
        page_store=store,
    )


def create_pipeline(tmp_path, points, scheme, store):
    IngestPipeline.create(
        tmp_path, points, reduce_fn, scheme, page_store=store
    )


@pytest.mark.parametrize(
    "construct",
    [make_spec, make_supervisor, make_pipeline, create_pipeline],
)
@pytest.mark.parametrize(
    "scheme, store, message",
    [
        ("btree", "memory", "unknown scheme"),
        ("iMMDR", "disk", "unknown store"),
    ],
)
def test_unknown_name_raises_at_construction(
    tmp_path, points, construct, scheme, store, message
):
    with pytest.raises(ValueError, match=message):
        construct(tmp_path, points, scheme, store)


def test_builder_builds_the_scheme_over_the_store(points):
    index = index_builder("iMMDR", "mmap")(reduce_fn(points))
    try:
        assert isinstance(index, ExtendedIDistance)
        assert isinstance(index.store, MmapPageStore)
    finally:
        index.store.close()
