"""One index directory: a serving shard and an ingest generation are both
written by ``index_dir_writes`` and reopened by ``recover_index_dir``.

Each reopened index must answer a query block exactly as the in-memory
index it was written from: same ids and distances, and the same page,
distance and key-comparison count for every query, on either page store.
"""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.data.workload import sample_queries
from repro.index import INDEX_SCHEMES
from repro.ingest import GenerationStore, build_from_vectors
from repro.recovery import recover_index_dir
from repro.reduction import MMDRReducer
from repro.serve import ShardPlanner, Supervisor
from repro.serve.planner import mode_for_scheme

INDEX_DIR = {"ckpt", "wal.log", "rid_map.npy"}
STORES = ["memory", "mmap"]


@pytest.fixture(scope="module")
def points():
    spec = SyntheticSpec(
        n_points=300,
        dimensionality=8,
        n_clusters=2,
        retained_dims=3,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    return generate_correlated_clusters(
        spec, np.random.default_rng(3)
    ).points


def reduce_fn(points):
    return MMDRReducer().reduce(points, np.random.default_rng(0))


@pytest.fixture(scope="module")
def queries(points):
    return sample_queries(
        points, 6, np.random.default_rng(9), k=5, method="perturbed"
    ).queries


def assert_same_answers(reopened, reference, queries):
    got = reopened.knn_batch(queries, 5)
    want = reference.knn_batch(queries, 5)
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.distances, want.distances)
    for g, w in zip(got.stats, want.stats):
        assert g.page_reads == w.page_reads
        assert g.distance_computations == w.distance_computations
        assert g.key_comparisons == w.key_comparisons


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("scheme", sorted(INDEX_SCHEMES))
def test_shard_dir_reopens_to_the_built_index(
    tmp_path, points, queries, scheme, store
):
    plan = ShardPlanner(2, mode_for_scheme(scheme)).plan(reduce_fn(points))
    supervisor = Supervisor(plan, scheme, tmp_path, store=store)
    supervisor.prepare()
    for assignment in plan.shards:
        sdir = supervisor.shard_dir(assignment.shard_id)
        assert {p.name for p in sdir.iterdir()} == INDEX_DIR
        index, rid_map, _report = recover_index_dir(sdir)
        np.testing.assert_array_equal(rid_map, assignment.rid_map)
        reference = INDEX_SCHEMES[scheme](assignment.reduced)
        assert_same_answers(index, reference, queries)
        index.store.close()


@pytest.mark.parametrize("store", STORES)
def test_generation_dir_is_an_index_dir_plus_points_and_manifest(
    tmp_path, points, queries, store
):
    vectors = {i: points[i] for i in range(points.shape[0])}
    index, matrix, rid_map = build_from_vectors(
        vectors, reduce_fn, "iMMDR", store
    )
    generations = GenerationStore(tmp_path)
    gdir = generations.install(
        index, matrix, rid_map, generation=1, ingest_seq=0
    )
    index.store.close()
    assert {p.name for p in gdir.iterdir()} == INDEX_DIR | {
        "points.npy",
        "GENERATION.json",
    }
    reopened, got_rid_map, report = recover_index_dir(gdir)
    np.testing.assert_array_equal(got_rid_map, rid_map)
    assert report.checkpoint_payload["generation"] == 1
    reference, _, _ = build_from_vectors(vectors, reduce_fn, "iMMDR")
    assert_same_answers(reopened, reference, queries)
    reopened.store.close()
