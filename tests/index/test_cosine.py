"""Cosine metric: the index's metric and its typed zero-vector errors.

Cosine is L2 over unit-normalized vectors (DESIGN.md §13): the reduction
is built over normalized rows and the index normalizes queries and
inserts at the boundary.  Every cosine answer, on every query path, is
held to an exact scan by the oracle (``tests/oracle``); what stays here
pins the metric the index reports and the typed errors a zero vector —
which has no direction — raises per query and per insert.
"""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.index.base import InvalidQueryError
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.linalg.kernels import normalize_rows
from repro.reduction.mmdr_adapter import MMDRReducer

SCHEMES = [ExtendedIDistance, SequentialScan, GlobalLDRIndex]


@pytest.fixture(scope="module")
def reductions():
    """One unit-normalized dataset reduced twice: a cosine and an L2
    reduction of the same rows."""
    spec = SyntheticSpec(
        n_points=1200,
        dimensionality=12,
        n_clusters=3,
        retained_dims=4,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    ds = generate_correlated_clusters(spec, np.random.default_rng(3))
    normalized = normalize_rows(
        np.ascontiguousarray(ds.points, dtype=np.float64)
    )
    cosine = MMDRReducer().reduce(normalized, np.random.default_rng(7))
    cosine.metric = "cosine"
    l2 = MMDRReducer().reduce(normalized, np.random.default_rng(7))
    return cosine, l2


@pytest.mark.parametrize("scheme", SCHEMES)
class TestCosineEqualsL2OnNormalized:
    def test_metric_property(self, scheme, reductions):
        cosine, l2 = reductions
        assert scheme(cosine).metric == "cosine"
        assert scheme(l2).metric == "l2"


@pytest.mark.parametrize("scheme", SCHEMES)
class TestZeroVectors:
    """A zero vector has no direction: per query and per insert it is a
    typed error (a batch skips and reports it, which the oracle checks)."""

    def test_zero_query_raises(self, scheme, reductions):
        cosine, _ = reductions
        with pytest.raises(InvalidQueryError, match="zero"):
            scheme(cosine).knn(np.zeros(cosine.dimensionality), 5)

    def test_zero_insert_raises(self, scheme, reductions):
        cosine, _ = reductions
        with pytest.raises(InvalidQueryError, match="zero"):
            scheme(cosine).insert(np.zeros(cosine.dimensionality), 999)
