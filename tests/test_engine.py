"""Unit tests for the channel engine: lifecycle, halting, activation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Aggregator,
    ChannelEngine,
    CombinedMessage,
    DirectMessage,
    SUM_I64,
    VertexProgram,
)
from repro.core.engine import scatter_results
from repro.graph.graph import Graph
from repro.runtime.serialization import INT64
from helpers import line_graph


class HaltImmediately(VertexProgram):
    def compute(self, v):
        v.vote_to_halt()


class CountSteps(VertexProgram):
    """Runs for `limit` supersteps keeping everyone active."""

    limit = 3

    def __init__(self, worker):
        super().__init__(worker)
        self.seen = []

    def compute(self, v):
        if self.step_num >= self.limit:
            v.vote_to_halt()

    def finalize(self):
        return np.full(self.worker.num_local, self.worker.step_num)


class TestLifecycle:
    def test_halts_after_one_superstep(self):
        g = line_graph(10)
        res = ChannelEngine(g, HaltImmediately, num_workers=2).run()
        assert res.supersteps == 1

    def test_runs_limit_supersteps(self):
        g = line_graph(10)
        res = ChannelEngine(g, CountSteps, num_workers=2).run()
        assert res.supersteps == 3

    def test_step_num_visible_in_finalize(self):
        g = line_graph(4)
        res = ChannelEngine(g, CountSteps, num_workers=2).run()
        assert (res.data == 3).all()

    def test_max_supersteps_guard(self):
        class Forever(VertexProgram):
            def compute(self, v):
                pass  # never halts

        with pytest.raises(RuntimeError, match="max_supersteps"):
            ChannelEngine(line_graph(4), Forever, num_workers=1).run(max_supersteps=5)

    def test_empty_graph_runs_zero_supersteps(self):
        g = Graph.from_edges(0, [])
        res = ChannelEngine(g, HaltImmediately, num_workers=2).run()
        assert res.supersteps == 0


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ChannelEngine(line_graph(4), HaltImmediately, num_workers=0)

    def test_rejects_bad_partition_shape(self):
        with pytest.raises(ValueError):
            ChannelEngine(
                line_graph(4), HaltImmediately, num_workers=2, partition=np.zeros(3)
            )

    def test_rejects_out_of_range_partition(self):
        with pytest.raises(ValueError):
            ChannelEngine(
                line_graph(4),
                HaltImmediately,
                num_workers=2,
                partition=np.array([0, 1, 2, 0]),
            )

    def test_rejects_mismatched_channel_counts(self):
        class Uneven(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                if worker.worker_id == 0:
                    self.msg = DirectMessage(worker)

            def compute(self, v):
                v.vote_to_halt()

        with pytest.raises(RuntimeError, match="same channels"):
            ChannelEngine(line_graph(4), Uneven, num_workers=2)


class MessageWake(VertexProgram):
    """Vertex 0 pings down the line; each vertex relays once then halts."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = DirectMessage(worker, value_codec=INT64)
        self.received = np.zeros(worker.num_local, dtype=np.int64)

    def compute(self, v):
        if self.step_num == 1:
            if v.id == 0 and v.out_degree:
                self.msg.send_message(int(v.edges.max()), 1)
        else:
            for m in self.msg.get_iterator(v):
                self.received[v.local] += int(m)
                nxt = v.edges[v.edges > v.id]
                if nxt.size:
                    self.msg.send_message(int(nxt[0]), int(m))
        v.vote_to_halt()

    def finalize(self):
        return self.received


class TestActivation:
    def test_messages_wake_halted_vertices(self):
        n = 6
        g = line_graph(n)
        res = ChannelEngine(g, MessageWake, num_workers=3).run()
        # the ping visits 1, 2, ..., n-1
        assert res.data.tolist() == [0] + [1] * (n - 1)
        assert res.supersteps == n  # one relay per superstep

    def test_partition_respected(self):
        g = line_graph(8)
        part = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        engine = ChannelEngine(g, HaltImmediately, num_workers=2, partition=part)
        assert engine.workers[0].local_ids.tolist() == [0, 1, 2, 3]
        assert engine.workers[1].local_ids.tolist() == [4, 5, 6, 7]

    def test_single_worker_runs_everything_locally(self):
        g = line_graph(6)
        res = ChannelEngine(g, MessageWake, num_workers=1).run()
        assert res.metrics.total_net_bytes == 0
        assert res.metrics.total_local_bytes > 0


class BeforeSuperstepCounter(VertexProgram):
    def __init__(self, worker):
        super().__init__(worker)
        self.calls = 0

    def before_superstep(self):
        self.calls += 1

    def compute(self, v):
        if self.step_num >= 2:
            v.vote_to_halt()

    def finalize(self):
        return np.full(self.worker.num_local, self.calls)


def test_before_superstep_called_every_superstep_plus_final_check():
    g = line_graph(4)
    res = ChannelEngine(g, BeforeSuperstepCounter, num_workers=2).run()
    # 2 supersteps ran; the hook also fires before the terminating check
    assert (res.data == 3).all()


class TestMetricsIntegration:
    def test_compute_time_recorded(self):
        g = line_graph(10)
        res = ChannelEngine(g, CountSteps, num_workers=2).run()
        assert res.metrics.wall_time > 0
        assert all(r.compute_time_max >= 0 for r in res.metrics.records)

    def test_active_vertex_counts(self):
        g = line_graph(10)
        res = ChannelEngine(g, CountSteps, num_workers=2).run()
        assert res.metrics.records[0].active_vertices == 10


#: result row layouts the scatter helper must place intact
ROW_LAYOUTS = {
    "scalar": (np.dtype(np.float64), ()),
    "2-d": (np.dtype(np.int32), (3,)),
    "structured": (np.dtype([("a", np.int64), ("b", np.float32)]), ()),
}


def _rows(ids, dtype, shape):
    """One row per id, derived from the id (a misplaced row shows)."""
    out = np.empty((len(ids),) + shape, dtype=dtype)
    if dtype.names:
        out["a"], out["b"] = ids, ids * 0.5
    else:
        out[...] = np.reshape(ids, (-1,) + (1,) * len(shape))
    return out


class TestScatterResults:
    @settings(max_examples=80, deadline=None)
    @given(
        workers=st.sampled_from([1, 2, 8]),
        layout=st.sampled_from(sorted(ROW_LAYOUTS)),
        data=st.data(),
    )
    def test_every_row_lands_at_its_global_id(self, workers, layout, data):
        dtype, shape = ROW_LAYOUTS[layout]
        n = data.draw(st.integers(0, 40))
        owner = np.array(
            data.draw(st.lists(st.integers(0, workers - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        parts = []
        for w in range(workers):  # workers owning nothing contribute empty parts
            ids = np.flatnonzero(owner == w)
            ids = np.array(data.draw(st.permutations(ids.tolist())), dtype=np.int64)
            parts.append((ids, _rows(ids, dtype, shape)))
        out = scatter_results(n, parts)
        assert out.dtype == dtype and out.shape == (n,) + shape
        assert np.array_equal(out, _rows(np.arange(n), dtype, shape))

    def test_all_none_is_none(self):
        assert scatter_results(2, [(np.array([0]), None), (np.array([1]), None)]) is None

    def test_empty_parts_may_differ_in_dtype(self):
        parts = [
            (np.array([0, 1]), np.array([4.0, 5.0])),
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=object)),
        ]
        assert np.array_equal(scatter_results(2, parts), [4.0, 5.0])

    @pytest.mark.parametrize(
        "parts, match",
        [
            ([(np.arange(3), np.zeros(2))], "shape"),
            ([(np.arange(2), np.int64(7))], "shape"),
            ([(np.array([0]), np.zeros(1)), (np.array([1]), np.zeros(1, int))], "disagree"),
            ([(np.array([0]), np.zeros((1, 2))), (np.array([1]), np.zeros((1, 3)))], "disagree"),
            ([(np.array([0]), np.zeros(1)), (np.array([1]), None)], "None"),
        ],
        ids=["length", "0-d", "dtype", "row-shape", "mixed-none"],
    )
    def test_rejects_inconsistent_parts(self, parts, match):
        with pytest.raises(ValueError, match=match):
            scatter_results(2 if len(parts) > 1 else 3, parts)
