"""Scalar/bulk parity: the columnar compute path must be a pure
performance change.

For every ported algorithm we assert, on a seeded random graph and across
1, 2, and 8 workers:

* identical ``result.data`` (bit-exact, including float PageRank — the
  bulk ports are written to preserve the scalar path's FP operation
  order, see ARCHITECTURE.md);
* identical per-channel traffic (net/local bytes and message counts from
  ``metrics.channel_breakdown()``), plus superstep/round totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bfs import run_bfs
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sssp import run_sssp
from repro.algorithms.wcc import run_wcc
from repro.graph import rmat

WORKERS = [1, 2, 8]


@pytest.fixture(scope="module")
def directed_graph():
    return rmat(9, edge_factor=8, seed=31, directed=True)


@pytest.fixture(scope="module")
def weighted_graph():
    return rmat(9, edge_factor=4, seed=32, directed=False, weighted=True)


def _assert_parity(scalar_out, bulk_out):
    (data_s, res_s), (data_b, res_b) = scalar_out, bulk_out
    np.testing.assert_array_equal(data_s, data_b)
    assert np.array_equal(res_s.data, res_b.data)
    ms, mb = res_s.metrics, res_b.metrics
    assert ms.channel_breakdown() == mb.channel_breakdown()
    assert ms.supersteps == mb.supersteps
    assert ms.total_rounds == mb.total_rounds
    assert ms.total_net_bytes == mb.total_net_bytes
    assert ms.total_local_bytes == mb.total_local_bytes
    assert ms.total_messages == mb.total_messages


@pytest.mark.parametrize("variant", ["basic", "scatter", "mirror"])
@pytest.mark.parametrize("workers", WORKERS)
def test_pagerank_parity(directed_graph, variant, workers):
    kw = dict(variant=variant, iterations=8, num_workers=workers)
    _assert_parity(
        run_pagerank(directed_graph, mode="scalar", **kw),
        run_pagerank(directed_graph, mode="bulk", **kw),
    )


@pytest.mark.parametrize("workers", WORKERS)
def test_wcc_parity(directed_graph, workers):
    _assert_parity(
        run_wcc(directed_graph, mode="scalar", num_workers=workers),
        run_wcc(directed_graph, mode="bulk", num_workers=workers),
    )


@pytest.mark.parametrize("workers", WORKERS)
def test_bfs_parity(directed_graph, workers):
    _assert_parity(
        run_bfs(directed_graph, source=3, mode="scalar", num_workers=workers),
        run_bfs(directed_graph, source=3, mode="bulk", num_workers=workers),
    )


@pytest.mark.parametrize("workers", WORKERS)
def test_sssp_parity(weighted_graph, workers):
    _assert_parity(
        run_sssp(weighted_graph, source=3, mode="scalar", num_workers=workers),
        run_sssp(weighted_graph, source=3, mode="bulk", num_workers=workers),
    )


class TestBulkCorrectness:
    """Bulk results are right in absolute terms, not just equal to scalar."""

    def test_bulk_wcc_matches_oracle(self, directed_graph):
        from helpers import nx_components

        labels, _ = run_wcc(directed_graph, mode="bulk", num_workers=4)
        np.testing.assert_array_equal(labels, nx_components(directed_graph))

    def test_bulk_pagerank_matches_oracle(self):
        from helpers import pagerank_oracle

        g = rmat(7, edge_factor=6, seed=33, directed=True)
        ranks, _ = run_pagerank(g, variant="scatter", mode="bulk", iterations=15, num_workers=4)
        np.testing.assert_allclose(ranks, pagerank_oracle(g, 15), rtol=1e-9)

    def test_bulk_sssp_matches_oracle(self, weighted_graph):
        from helpers import nx_sssp

        dists, _ = run_sssp(weighted_graph, source=3, mode="bulk", num_workers=4)
        np.testing.assert_allclose(dists, nx_sssp(weighted_graph, 3))


class TestModeValidation:
    def test_unknown_mode_rejected(self, directed_graph):
        with pytest.raises(ValueError, match="mode"):
            run_wcc(directed_graph, mode="columnar")

    def test_prop_variant_has_no_bulk_port(self, directed_graph):
        with pytest.raises(ValueError, match="no 'bulk' port"):
            run_wcc(directed_graph, variant="prop", mode="bulk")
