"""Unit tests for the optimized channels: ScatterCombine, RequestRespond,
Propagation (Table II)."""

import numpy as np
import pytest

from repro.core import (
    ChannelEngine,
    CombinedMessage,
    MIN_F64,
    MIN_I64,
    Propagation,
    RequestRespond,
    ScatterCombine,
    SUM_F64,
    SUM_I64,
    VertexProgram,
)
from repro.graph import rmat, star
from repro.runtime.serialization import INT32, INT64
from helpers import line_graph, two_triangles


def run(graph, program_cls, workers=2, **kw):
    return ChannelEngine(graph, program_cls, num_workers=workers, **kw).run()


class TestScatterCombine:
    def _program(self, combiner=SUM_F64, rounds=2):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = ScatterCombine(worker, combiner)
                self.got = np.empty(worker.num_local, dtype=object)

            def compute(self, v):
                if self.step_num == 1:
                    if v.out_degree:
                        self.msg.add_edges(v, v.edges)
                    self.msg.set_message(v, float(v.id + 1))
                elif self.step_num <= rounds:
                    self.got[v.local] = float(self.msg.get_message(v))
                    self.msg.set_message(v, float(v.id + 1))
                else:
                    self.got[v.local] = float(self.msg.get_message(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.got

        return P

    def test_combined_per_receiver(self):
        g = two_triangles()
        res = run(g, self._program())
        # vertex 0's neighbors are 1 and 2 -> 2 + 3
        assert res.data[0] == 5.0
        assert res.data[3] == 5.0 + 6.0

    def test_values_refresh_each_superstep(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = ScatterCombine(worker, SUM_F64)
                # one column per receiving superstep (2 and 3)
                self.seen = np.full((worker.num_local, 2), np.nan)

            def compute(self, v):
                if self.step_num == 1:
                    self.msg.add_edges(v, v.edges)
                    self.msg.set_message(v, 1.0)
                elif self.step_num == 2:
                    self.seen[v.local, 0] = self.msg.get_message(v)
                    self.msg.set_message(v, 10.0)
                else:
                    self.seen[v.local, 1] = self.msg.get_message(v)
                    v.vote_to_halt()

            def finalize(self):
                return self.seen

        res = run(line_graph(3), P)
        # middle vertex has 2 neighbors: 2.0 then 20.0
        assert res.data[1].tolist() == [2.0, 20.0]

    def test_nothing_sent_when_no_set_message(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = ScatterCombine(worker, SUM_F64)

            def compute(self, v):
                if self.step_num == 1:
                    self.msg.add_edges(v, v.edges)
                    # no set_message at all
                v.vote_to_halt()

        res = run(line_graph(4), P)
        assert res.supersteps == 1  # nobody woken: no traffic

    def test_dedups_destinations_per_worker(self):
        """The Fig. 5 byte saving: per unique destination, not per edge.
        Only the leaves scatter (all toward the single hub)."""
        hub = star(9, center=0)  # leaves 1..8 all point at 0

        def net_bytes(channel):
            class P(VertexProgram):
                def __init__(self, worker):
                    super().__init__(worker)
                    if channel == "scatter":
                        self.msg = ScatterCombine(worker, SUM_F64)
                    else:
                        self.msg = CombinedMessage(worker, SUM_F64)

                def compute(self, v):
                    if self.step_num == 1 and v.id != 0:
                        if channel == "scatter":
                            self.msg.add_edges(v, v.edges)
                            self.msg.set_message(v, 1.0)
                        else:
                            for e in v.edges:
                                self.msg.send_message(int(e), 1.0)
                    else:
                        v.vote_to_halt()

            part = np.zeros(9, dtype=np.int64)
            part[1:] = 1  # all leaves on worker 1, hub on worker 0
            res = ChannelEngine(hub, P, num_workers=2, partition=part).run()
            return res.metrics.total_net_bytes

        # 8 leaf->hub records collapse into 1 for scatter
        assert net_bytes("scatter") < net_bytes("basic") / 3

    def test_matches_combined_message_results(self):
        """Same traffic semantics as CombinedMessage for static patterns."""
        g = rmat(6, edge_factor=3, seed=2)

        results = {}
        for mode in ("scatter", "basic"):

            class P(VertexProgram):
                def __init__(self, worker):
                    super().__init__(worker)
                    if mode == "scatter":
                        self.msg = ScatterCombine(worker, SUM_F64)
                    else:
                        self.msg = CombinedMessage(worker, SUM_F64)
                    self.got = np.empty(worker.num_local, dtype=object)

                def compute(self, v):
                    if self.step_num == 1:
                        if mode == "scatter":
                            self.msg.add_edges(v, v.edges)
                            self.msg.set_message(v, float(v.id))
                        else:
                            for e in v.edges:
                                self.msg.send_message(int(e), float(v.id))
                    else:
                        self.got[v.local] = float(self.msg.get_message(v))
                        v.vote_to_halt()

                def finalize(self):
                    return self.got

            results[mode] = run(g, P, workers=3).data

        assert np.array_equal(results["scatter"], results["basic"])


class TestRequestRespond:
    def _program(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.val = worker.local_ids * 100
                self.rr = RequestRespond(
                    worker,
                    respond_fn=lambda v: int(self.val[v.local]),
                    codec=INT64,
                )
                self.got = np.empty(worker.num_local, dtype=object)

            def compute(self, v):
                if self.step_num == 1:
                    self.rr.add_request(v, (v.id + 1) % self.num_vertices)
                else:
                    target = (v.id + 1) % self.num_vertices
                    self.got[v.local] = int(self.rr.get_respond(target))
                    v.vote_to_halt()

            def finalize(self):
                return self.got

        return P

    def test_basic_conversation(self):
        g = line_graph(4)
        res = run(g, self._program())
        assert res.data.tolist() == [100, 200, 300, 0]

    def test_two_rounds_per_superstep(self):
        res = run(line_graph(4), self._program())
        assert res.metrics.records[0].rounds == 2

    def test_missing_respond_raises(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.rr = RequestRespond(worker, respond_fn=lambda v: 0)
                self.raised = np.empty(worker.num_local, dtype=object)

            def compute(self, v):
                if self.step_num == 2 and v.id == 0:
                    with pytest.raises(KeyError):
                        self.rr.get_respond(1)
                    self.raised[v.local] = True
                if self.step_num == 1:
                    pass  # no requests at all
                else:
                    v.vote_to_halt()

            def finalize(self):
                return self.raised

        res = run(line_graph(2), P)
        assert res.data[0]

    def test_request_dedup_on_wire(self):
        """N requesters of the same destination put ONE id on the wire."""
        hub = star(9, center=0)

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.rr = RequestRespond(
                    worker, respond_fn=lambda v: v.id, codec=INT32
                )

            def compute(self, v):
                if self.step_num == 1:
                    if v.id != 0:
                        self.rr.add_request(v, 0)
                else:
                    v.vote_to_halt()

        part = np.zeros(9, dtype=np.int64)
        part[1:] = 1
        res = ChannelEngine(hub, P, num_workers=2, partition=part).run()
        # worker1 -> worker0: one 4-byte id (+frame); back: one 4-byte value
        assert res.metrics.total_messages == 2

    def test_responses_are_positional_no_id_echo(self):
        """Respond payloads carry bare values: k requests cost k ids one
        way and k values back — not k (id, value) pairs."""
        g = line_graph(8)

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.rr = RequestRespond(
                    worker, respond_fn=lambda v: v.id, codec=INT32
                )

            def compute(self, v):
                if self.step_num == 1:
                    self.rr.add_request(v, (v.id + 4) % 8)
                else:
                    assert self.rr.get_respond((v.id + 4) % 8) == (v.id + 4) % 8
                    v.vote_to_halt()

        part = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        res = ChannelEngine(g, P, num_workers=2, partition=part).run()
        # 8 requests cross (4 each way), 8 responses cross back;
        # payload bytes = 8*4 (ids) + 8*4 (values) = 64
        frame_overhead = 8 * 4  # 4 frames (2 per direction) x 8B header
        assert res.metrics.total_net_bytes == 64 + frame_overhead

    def test_bulk_respond_fn(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.val = worker.local_ids * 7
                self.rr = RequestRespond(
                    worker,
                    respond_fn=lambda v: 0,  # must NOT be used
                    codec=INT64,
                    respond_fn_bulk=lambda idx: self.val[idx],
                )
                self.got = np.empty(worker.num_local, dtype=object)

            def compute(self, v):
                if self.step_num == 1:
                    self.rr.add_request(v, 0)
                else:
                    self.got[v.local] = int(self.rr.get_respond(0))
                    v.vote_to_halt()

            def finalize(self):
                return self.got

        res = run(line_graph(3), P)
        assert all(val == 0 for val in res.data)

        # now with a non-zero attribute at vertex 0's owner
        class P2(P):
            def __init__(self, worker):
                super().__init__(worker)
                self.val = worker.local_ids + 50
                self.rr.respond_fn_bulk = lambda idx: self.val[idx]

        res2 = run(line_graph(3), P2)
        assert all(val == 50 for val in res2.data)


class TestPropagation:
    def test_min_label_fixpoint_single_superstep(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64)
                self.out = np.empty(worker.num_local, dtype=object)

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges)
                    self.prop.set_value(v, v.id)
                else:
                    self.out[v.local] = int(self.prop.get_value(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        g = two_triangles()
        res = run(g, P, workers=3)
        assert [res.data[i] for i in range(6)] == [0, 0, 0, 3, 3, 3]
        assert res.supersteps == 2  # converged inside superstep 1's rounds

    def test_weighted_relaxation(self):
        class P(VertexProgram):
            SRC = 0

            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_F64, edge_fn=lambda w, d: w + d)
                self.out = np.empty(worker.num_local, dtype=object)

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges, np.full(v.out_degree, 2.0))
                    if v.id == self.SRC:
                        self.prop.set_value(v, 0.0)
                else:
                    self.out[v.local] = float(self.prop.get_value(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        g = line_graph(5)
        res = run(g, P, workers=2)
        assert [res.data[i] for i in range(5)] == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_requires_ufunc_combiner(self):
        from repro.core.combiner import make_combiner
        from repro.runtime.serialization import INT64 as I64

        bad = make_combiner(min, 0, I64, ufunc=None)

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, bad)

            def compute(self, v):
                v.vote_to_halt()

        with pytest.raises(ValueError, match="ufunc"):
            ChannelEngine(line_graph(2), P, num_workers=1)

    def test_reset_allows_reuse(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64)
                # one label column per phase; -1 = not labelled in it
                self.out = np.full((worker.num_local, 2), -1)

            def before_superstep(self):
                # re-seed a *smaller* subgraph before superstep 3
                if self.worker.step_num == 2:
                    self.prop.reset()
                    self.worker.activate_local_bulk(
                        np.arange(self.worker.num_local)
                    )

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges)
                    self.prop.set_value(v, v.id)
                elif self.step_num == 2:
                    self.out[v.local, 0] = self.prop.get_value(v)
                elif self.step_num == 3:
                    # phase 2: only vertices >= 3 participate
                    if v.id >= 3:
                        self.prop.add_edges(v, v.edges[v.edges >= 3])
                        self.prop.set_value(v, v.id)
                else:
                    if v.id >= 3:
                        self.out[v.local, 1] = self.prop.get_value(v)
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        g = line_graph(6)
        res = run(g, P, workers=2)
        assert res.data[:, 0].tolist() == [0] * 6
        assert res.data[:, 1].tolist() == [-1, -1, -1, 3, 3, 3]

    def test_propagation_blocked_by_missing_edges(self):
        """Edges not added do not forward values (the SCC aliveness
        mechanism relies on this)."""

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64)
                self.out = np.empty(worker.num_local, dtype=object)

            def compute(self, v):
                if self.step_num == 1:
                    if v.id != 2:  # vertex 2 adds no edges: blocks the line
                        self.prop.add_edges(v, v.edges)
                    self.prop.set_value(v, v.id)
                else:
                    self.out[v.local] = int(self.prop.get_value(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        g = line_graph(5)
        res = run(g, P, workers=2)
        # 0-1-2 see 0; but 2 does not forward, so 3 sees min(2's push? no)
        # vertex 2 received 0 via 1->2 edge; vertex 3 only via 3<->4 + 2->3?
        # 2 added no edges at all, so nothing flows 2->3.
        assert res.data[0] == 0 and res.data[1] == 0 and res.data[2] == 0
        assert res.data[3] == 3 and res.data[4] == 3

    def test_multiworker_matches_singleworker(self):
        g = rmat(7, edge_factor=2, seed=9, directed=False)

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64)
                self.out = np.empty(worker.num_local, dtype=object)

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges)
                    self.prop.set_value(v, v.id)
                else:
                    self.out[v.local] = int(self.prop.get_value(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        r1 = run(g, P, workers=1)
        r4 = run(g, P, workers=4)
        assert np.array_equal(r1.data, r4.data)


class TestPropagationHopBudget:
    def _run_wcc(self, g, hops, workers=3):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64, max_local_hops=hops)
                self.out = np.empty(worker.num_local, dtype=object)

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges)
                    self.prop.set_value(v, v.id)
                else:
                    self.out[v.local] = int(self.prop.get_value(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        return ChannelEngine(g, P, num_workers=workers).run()

    @pytest.mark.parametrize("hops", [1, 2, 5, None])
    def test_result_independent_of_budget(self, hops):
        g = rmat(6, edge_factor=2, seed=8, directed=False)
        ref = self._run_wcc(g, None).data
        assert np.array_equal(self._run_wcc(g, hops).data, ref)

    def test_smaller_budget_needs_more_rounds(self):
        g = line_graph(120)
        shallow = self._run_wcc(g, 1)
        deep = self._run_wcc(g, None)
        assert shallow.metrics.total_rounds > deep.metrics.total_rounds
        assert np.array_equal(shallow.data, deep.data)

    def test_invalid_budget_rejected(self):
        from repro.core import Worker  # noqa: F401

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64, max_local_hops=0)

            def compute(self, v):
                v.vote_to_halt()

        with pytest.raises(ValueError, match="max_local_hops"):
            ChannelEngine(line_graph(2), P, num_workers=1)
