"""Streaming-graph subsystem tests.

The heart is the acceptance parity matrix: for every streaming algorithm
(PageRank, WCC, SSSP) × worker count {2, 8} × batch shape {insert-only,
delete-heavy}, chained over several epochs, the incremental refresh must
produce ``result.data`` **bit-identical** to a cold full run of the
library algorithm on the mutated graph — and to the epoch engine's own
``refresh="full"`` baseline.
"""

import numpy as np
import pytest

from helpers import line_graph, nx_components, nx_sssp
from repro.core import ChannelEngine
from repro.graph.generators import erdos_renyi, grid_road
from repro.graph.graph import Graph
from repro.graph.partition import extend_partition, hash_partition, range_partition
from repro.streaming import (
    DeltaGraph,
    EpochEngine,
    MutationBatch,
    PageRankStream,
    SSSPStream,
    STREAM_ALGORITHMS,
    WCCStream,
    build_pagerank_schedule,
    synthesize_batch,
    synthesize_stream,
)
from repro.streaming.incremental_wcc import still_connected


# ---------------------------------------------------------------------------
# MutationBatch
# ---------------------------------------------------------------------------
class TestMutationBatch:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            MutationBatch(insert_src=np.array([1, 2]), insert_dst=np.array([3]))

    def test_weight_mismatch(self):
        with pytest.raises(ValueError, match="insertion count"):
            MutationBatch(
                insert_src=np.array([1]),
                insert_dst=np.array([2]),
                insert_weights=np.array([1.0, 2.0]),
            )

    def test_negative_ids(self):
        with pytest.raises(ValueError, match="negative"):
            MutationBatch.from_edges(insertions=[(-1, 2)])

    def test_insert_and_delete_same_edge(self):
        with pytest.raises(ValueError, match="both insertions and deletions"):
            MutationBatch.from_edges(insertions=[(0, 1)], deletions=[(0, 1)])

    def test_deleted_vertex_gaining_edges(self):
        with pytest.raises(ValueError, match="also gain edges"):
            MutationBatch.from_edges(insertions=[(0, 1)], delete_vertices=[1])

    def test_size_and_empty(self):
        assert MutationBatch().empty
        b = MutationBatch.from_edges(
            insertions=[(0, 1)], deletions=[(2, 3)], add_vertices=2
        )
        assert b.size == 4 and not b.empty
        assert b.num_insertions == 1 and b.num_deletions == 1


# ---------------------------------------------------------------------------
# DeltaGraph
# ---------------------------------------------------------------------------
def _arc_multiset(g: Graph):
    src, dst = g.edge_array()
    w = np.zeros(src.size) if g.weights is None else g.weights
    return sorted(zip(src.tolist(), dst.tolist(), w.tolist()))


class TestDeltaGraph:
    def test_apply_matches_from_scratch_build(self):
        g = erdos_renyi(50, 3.0, seed=1, directed=True)
        delta = DeltaGraph(g)
        src, dst = g.edge_array()
        batch = MutationBatch.from_edges(
            insertions=[(0, 49), (7, 3)], deletions=[(int(src[0]), int(dst[0]))]
        )
        delta.apply(batch)
        view = delta.view()
        keep = ~((src == src[0]) & (dst == dst[0]))
        expect = Graph(
            50,
            np.concatenate([src[keep], [0, 7]]),
            np.concatenate([dst[keep], [49, 3]]),
            directed=True,
        )
        assert _arc_multiset(view) == _arc_multiset(expect)
        assert delta.num_arcs == view.num_edges

    def test_undirected_symmetrization(self):
        g = line_graph(5)
        delta = DeltaGraph(g)
        delta.apply(MutationBatch.from_edges(insertions=[(0, 4)]))
        assert delta.has_edge(0, 4) and delta.has_edge(4, 0)
        # deleting by the reversed endpoint order removes both arcs
        delta.apply(MutationBatch.from_edges(deletions=[(4, 0)]))
        assert not delta.has_edge(0, 4) and not delta.has_edge(4, 0)

    def test_deleting_missing_edge_raises(self):
        delta = DeltaGraph(line_graph(4))
        with pytest.raises(ValueError, match="non-existent"):
            delta.apply(MutationBatch.from_edges(deletions=[(0, 3)]))

    def test_undirected_reversed_insert_delete_rejected(self):
        # (2,1) insert vs (1,2) delete name the same undirected edge; the
        # batch-level ordered check misses it, apply must not
        delta = DeltaGraph(line_graph(4))
        with pytest.raises(ValueError, match="both insertions and deletions"):
            delta.apply(
                MutationBatch.from_edges(insertions=[(2, 1)], deletions=[(1, 2)])
            )

    def test_out_of_range_raises(self):
        delta = DeltaGraph(line_graph(4))
        with pytest.raises(ValueError, match="out of range"):
            delta.apply(MutationBatch.from_edges(insertions=[(0, 9)]))
        with pytest.raises(ValueError, match="unknown vertex"):
            delta.apply(MutationBatch(delete_vertices=np.array([9])))

    def test_weight_policy(self):
        unweighted = DeltaGraph(line_graph(4))
        with pytest.raises(ValueError, match="must not carry weights"):
            unweighted.apply(
                MutationBatch.from_edges(insertions=[(0, 2)], weights=[1.0])
            )
        weighted = DeltaGraph(line_graph(4, weighted=True))
        with pytest.raises(ValueError, match="need insert_weights"):
            weighted.apply(MutationBatch.from_edges(insertions=[(0, 2)]))

    def test_parallel_copies_all_deleted(self):
        g = Graph(3, np.array([0, 0]), np.array([1, 1]), directed=True)
        delta = DeltaGraph(g)
        delta.apply(MutationBatch.from_edges(deletions=[(0, 1)]))
        assert delta.num_arcs == 0

    def test_vertex_tombstone(self):
        g = line_graph(5)
        delta = DeltaGraph(g)
        stats = delta.apply(MutationBatch(delete_vertices=np.array([2])))
        assert delta.num_vertices == 5  # id survives
        assert delta.out_degree(2) == 0
        assert stats.del_src.size == 4  # both arcs of both incident edges
        # edges elsewhere survive
        assert delta.has_edge(0, 1) and delta.has_edge(3, 4)

    def test_add_vertices_and_reference_them(self):
        delta = DeltaGraph(line_graph(3))
        delta.apply(
            MutationBatch.from_edges(insertions=[(2, 4)], add_vertices=2)
        )
        assert delta.num_vertices == 5
        assert delta.has_edge(2, 4)

    def test_compaction_preserves_view(self):
        g = erdos_renyi(60, 3.0, seed=2, directed=True)
        delta = DeltaGraph(g)
        src, dst = g.edge_array()
        delta.apply(
            MutationBatch.from_edges(
                insertions=[(1, 2), (5, 9)],
                deletions=[(int(src[3]), int(dst[3]))],
            )
        )
        before = _arc_multiset(delta.view())
        assert delta.overlay_arcs == 3
        delta.compact()
        assert delta.overlay_arcs == 0
        assert delta.num_compactions == 1
        assert _arc_multiset(delta.view()) == before

    def test_maybe_compact_threshold(self):
        delta = DeltaGraph(line_graph(10), compact_threshold=0.2)
        assert not delta.maybe_compact()
        delta.apply(
            MutationBatch.from_edges(insertions=[(0, 5), (1, 7), (2, 9)])
        )
        assert delta.maybe_compact()  # 6 overlay arcs > 0.2 * 18
        assert delta.overlay_arcs == 0


# ---------------------------------------------------------------------------
# The acceptance parity matrix
# ---------------------------------------------------------------------------
def _algo_and_graph(name):
    if name == "pagerank":
        return (
            lambda: PageRankStream(iterations=6),
            erdos_renyi(300, 4.0, seed=31, directed=True),
        )
    if name == "wcc":
        return lambda: WCCStream(), erdos_renyi(300, 2.0, seed=32, directed=True)
    return lambda: SSSPStream(source=0), grid_road(16, 16, seed=33)


def _batches(graph, kind, epochs=3):
    if kind == "insert-only":
        return synthesize_stream(graph, epochs, 12, 0, seed=5)
    # delete-heavy, degree protection off: exercises dead-end churn and
    # the schedule's degrade-to-full path as well
    return synthesize_stream(
        graph, epochs, 4, 12, seed=6, protect_degrees=False
    )


class TestParityMatrix:
    @pytest.mark.parametrize("name", sorted(STREAM_ALGORITHMS))
    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("kind", ["insert-only", "delete-heavy"])
    # range partitioning localizes the dirty region on few workers, so it
    # exercises workers that sit out the final supersteps — hash almost
    # never does
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_incremental_is_bit_identical(self, name, workers, kind, partitioner):
        factory, graph = _algo_and_graph(name)
        batches = _batches(graph, kind)
        partition = (
            hash_partition(graph.num_vertices, workers, seed=1)
            if partitioner == "hash"
            else range_partition(graph.num_vertices, workers)
        )
        inc = EpochEngine(
            graph, factory(), num_workers=workers, refresh="incremental",
            partition=partition,
        )
        full = EpochEngine(
            graph, factory(), num_workers=workers, refresh="full",
            partition=partition,
        )
        for batch in batches:
            ei = inc.run_epoch(batch)
            ef = full.run_epoch(batch)
            # identical to the engine's own cold baseline...
            assert np.array_equal(ei.data, ef.data)
            # ...and to a cold run of the library algorithm on the
            # mutated graph (bit-identical floats, not approx)
            cold, _ = factory().cold_run(inc.graph, workers, inc.owner)
            assert np.array_equal(ei.data, cold)

    def test_pagerank_worker_idle_at_final_step(self):
        # regression: worker 0 owns only clean sender vertices whose last
        # scheduled participation is step T (sending shares into the
        # dirty region on worker 1); its finalized ranks must still be
        # the step-T+1 history, not the stale step-T compute
        graph = Graph(
            5,
            np.array([0, 1, 1, 2, 3, 4]),
            np.array([1, 0, 2, 3, 2, 3]),
            directed=True,
        )
        partition = np.array([0, 0, 1, 1, 0])
        eng = EpochEngine(
            graph, PageRankStream(iterations=6), num_workers=2, partition=partition
        )
        epoch = eng.run_epoch(MutationBatch.from_edges(insertions=[(4, 2)]))
        assert epoch.refresh == "incremental"
        cold, _ = PageRankStream(iterations=6).cold_run(eng.graph, 2, partition)
        assert np.array_equal(epoch.data, cold)

    def test_oracle_agreement_after_mutations(self):
        # belt and braces: the streamed results also match independent
        # serial oracles on the final mutated graph
        graph = grid_road(12, 12, seed=40)
        batches = _batches(graph, "delete-heavy")
        wcc = EpochEngine(graph, WCCStream(), num_workers=4)
        sssp = EpochEngine(graph, SSSPStream(source=0), num_workers=4)
        for batch in batches:
            lw = wcc.run_epoch(batch)
            ls = sssp.run_epoch(batch)
        final = wcc.graph
        assert np.array_equal(lw.data, nx_components(final))
        dist = ls.data
        oracle = nx_sssp(final, 0)
        assert np.allclose(dist, oracle, rtol=0, atol=1e-9, equal_nan=False)

    def test_vertex_insertions_and_deletions(self):
        graph = erdos_renyi(120, 3.0, seed=41, directed=True)
        eng = EpochEngine(graph, WCCStream(), num_workers=4)
        eng.run_epoch(
            MutationBatch.from_edges(
                insertions=[(5, 120), (120, 121)], add_vertices=2
            )
        )
        eng.run_epoch(MutationBatch(delete_vertices=np.array([5])))
        cold, _ = WCCStream().cold_run(eng.graph, 4, eng.owner)
        assert np.array_equal(eng.latest.data, cold)
        # PageRank degrades to full on a vertex-count change but stays exact
        pr = EpochEngine(graph, PageRankStream(iterations=5), num_workers=4)
        epoch = pr.run_epoch(
            MutationBatch.from_edges(insertions=[(3, 120)], add_vertices=1)
        )
        assert epoch.refresh == "full"
        cold, _ = PageRankStream(iterations=5).cold_run(pr.graph, 4, pr.owner)
        assert np.array_equal(epoch.data, cold)


# ---------------------------------------------------------------------------
# Refresh planning internals
# ---------------------------------------------------------------------------
class TestPageRankSchedule:
    def test_full_schedule_shape(self):
        g = erdos_renyi(40, 3.0, seed=8, directed=True)
        sched = build_pagerank_schedule(g, None, None, 5, full=True)
        assert sched.full and sched.affected == 40
        assert sched.dirty[1:].all()
        assert not sched.senders[6].any()  # no sends at the last step

    def test_incremental_dirty_grows_monotonically(self):
        g = erdos_renyi(60, 3.0, seed=9, directed=True)
        delta = DeltaGraph(g)
        src, dst = g.edge_array()
        stats = delta.apply(
            MutationBatch.from_edges(deletions=[(int(src[0]), int(dst[0]))])
        )
        sched = build_pagerank_schedule(
            delta.view(), stats, g.out_degrees == 0, 6, full=False
        )
        assert not sched.full
        for k in range(2, 7):
            assert (sched.dirty[k] <= sched.dirty[k + 1]).all()
        # every dirty vertex's in-neighborhood sends the step before
        assert sched.dirty[2][int(dst[0])]

    def test_empty_delta_schedules_nothing(self):
        g = erdos_renyi(30, 3.0, seed=10, directed=True)
        stats = DeltaGraph(g).apply(MutationBatch())
        sched = build_pagerank_schedule(g, stats, g.out_degrees == 0, 5, full=False)
        assert sched.affected == 0
        assert not sched.active.any()


class TestWCCProbe:
    def test_cycle_edge_survives_probe(self):
        # deleting one edge of a cycle leaves the endpoints connected
        n = 8
        src = np.arange(n, dtype=np.int64)
        g = Graph(n, src, (src + 1) % n, directed=False)
        delta = DeltaGraph(g)
        delta.apply(MutationBatch.from_edges(deletions=[(0, 1)]))
        assert still_connected(delta.view(), 0, 1, cap=64)

    def test_bridge_edge_fails_probe(self):
        g = line_graph(6)
        delta = DeltaGraph(g)
        delta.apply(MutationBatch.from_edges(deletions=[(2, 3)]))
        assert not still_connected(delta.view(), 2, 3, cap=64)

    def test_split_produces_correct_labels(self):
        g = line_graph(6)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        epoch = eng.run_epoch(MutationBatch.from_edges(deletions=[(2, 3)]))
        assert np.array_equal(epoch.data, np.array([0, 0, 0, 3, 3, 3]))


# ---------------------------------------------------------------------------
# Epoch engine mechanics
# ---------------------------------------------------------------------------
class TestEpochEngine:
    def test_bootstrap_only_once(self):
        g = erdos_renyi(50, 3.0, seed=12, directed=True)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        eng.bootstrap()
        with pytest.raises(RuntimeError, match="already bootstrapped"):
            eng.bootstrap()

    def test_empty_batch_is_nearly_free(self):
        g = erdos_renyi(50, 3.0, seed=13, directed=True)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        base = eng.run_epoch(MutationBatch())  # bootstraps, then empty epoch
        assert base.batch_size == 0
        assert base.result.supersteps == 0
        assert base.result.total_net_bytes == 0
        # results survive the idle epoch
        cold, _ = WCCStream().cold_run(eng.graph, 2, eng.owner)
        assert np.array_equal(base.data, cold)

    def test_epoch_counters_in_summary(self):
        g = erdos_renyi(50, 3.0, seed=14, directed=True)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        batch = synthesize_batch(g, 4, 0, seed=3)
        epoch = eng.run_epoch(batch)
        row = epoch.summary()
        assert row["epoch"] == 1
        assert row["refresh"] == "incremental"
        assert row["affected_vertices"] == epoch.affected
        m = epoch.result.metrics
        assert m.epoch == 1 and m.refresh_mode == "incremental"

    def test_partition_stays_aligned_across_growth(self):
        g = erdos_renyi(40, 3.0, seed=15, directed=True)
        eng = EpochEngine(g, WCCStream(), num_workers=4)
        before = eng.owner.copy()
        eng.run_epoch(
            MutationBatch.from_edges(insertions=[(0, 40)], add_vertices=1)
        )
        assert eng.owner.size == 41
        assert np.array_equal(eng.owner[:40], before)

    def test_extend_partition_grouping_invariant(self):
        owner = hash_partition(10, 4, seed=0)
        one_step = extend_partition(owner, 5, 4, seed=7)
        two_step = extend_partition(extend_partition(owner, 2, 4, seed=7), 3, 4, seed=7)
        assert np.array_equal(one_step, two_step)

    def test_bad_refresh_mode(self):
        g = erdos_renyi(20, 2.0, seed=16, directed=True)
        with pytest.raises(ValueError, match="refresh must be"):
            EpochEngine(g, WCCStream(), refresh="lazy")


class TestInitialActive:
    def test_seeded_engine_restricts_first_superstep(self):
        g = erdos_renyi(40, 3.0, seed=17, directed=True)
        # a WCC run seeded at one vertex floods out from it only
        from repro.streaming.incremental_wcc import WCCIncrementalBulk

        warm = np.arange(40, dtype=np.int64)
        prog = type("W", (WCCIncrementalBulk,), {"warm_labels": warm})
        full = ChannelEngine(g, prog, num_workers=2).run()
        seeded = ChannelEngine(
            g, prog, num_workers=2, initial_active=np.array([0])
        ).run()
        assert seeded.metrics.records[0].active_vertices == 1
        assert full.metrics.records[0].active_vertices == 40

    def test_out_of_range_seed_rejected(self):
        g = erdos_renyi(10, 2.0, seed=18, directed=True)
        with pytest.raises(ValueError, match="out-of-range"):
            ChannelEngine(
                g,
                lambda w: None,
                num_workers=2,
                initial_active=np.array([99]),
            )
