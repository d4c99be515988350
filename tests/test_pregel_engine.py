"""Unit tests for the Pregel+ baseline engine itself."""

import numpy as np
import pytest

from repro.core.combiner import MIN_I64, SUM_I64
from repro.graph.graph import Graph
from repro.pregel import PregelPlusEngine, PregelProgram
from repro.runtime.serialization import INT64, struct_codec, INT32
from helpers import line_graph


class Echo(PregelProgram):
    """Everyone sends its id to vertex 0 in step 1."""

    message_codec = INT64

    def __init__(self, worker):
        super().__init__(worker)
        self.got = np.empty(worker.num_local, dtype=object)

    def compute(self, v, messages):
        if self.step_num == 1:
            v.send_message(0, v.id)
        else:
            self.got[v.local] = sorted(int(m) for m in messages)
        v.vote_to_halt()

    def finalize(self):
        return self.got


class TestBasicMode:
    def test_message_lists_without_combiner(self):
        res = PregelPlusEngine(line_graph(4), Echo, num_workers=2).run()
        assert res.data[0] == [0, 1, 2, 3]

    def test_combined_delivery(self):
        class P(Echo):
            combiner = MIN_I64

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.send_message(0, v.id + 10)
                else:
                    self.got[v.local] = messages  # scalar, already combined
                v.vote_to_halt()

        res = PregelPlusEngine(line_graph(4), P, num_workers=2).run()
        assert res.data[0] == 10

    def test_no_message_is_none_with_combiner(self):
        class P(PregelProgram):
            combiner = MIN_I64
            message_codec = INT64

            def __init__(self, worker):
                super().__init__(worker)
                self.seen = np.empty(worker.num_local, dtype=object)

            def compute(self, v, messages):
                self.seen[v.local] = messages
                v.vote_to_halt()

            def finalize(self):
                return self.seen

        res = PregelPlusEngine(line_graph(3), P, num_workers=2).run()
        assert all(v is None for v in res.data)

    def test_structured_monolithic_type(self):
        tagged = struct_codec([("tag", INT32), ("val", INT32)])

        class P(PregelProgram):
            message_codec = tagged

            def __init__(self, worker):
                super().__init__(worker)
                self.got = np.empty(worker.num_local, dtype=object)

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.send_message(0, (7, v.id))
                else:
                    self.got[v.local] = sorted(messages)
                v.vote_to_halt()

            def finalize(self):
                return self.got

        res = PregelPlusEngine(line_graph(3), P, num_workers=2).run()
        assert res.data[0] == [(7, 0), (7, 1), (7, 2)]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PregelPlusEngine(line_graph(2), Echo, mode="turbo")

    def test_request_outside_reqresp_mode_rejected(self):
        class P(PregelProgram):
            def compute(self, v, messages):
                v.request(0)

        with pytest.raises(RuntimeError, match="reqresp"):
            PregelPlusEngine(line_graph(2), P, mode="basic", num_workers=1).run()

    def test_aggregate_without_declaration_rejected(self):
        class P(PregelProgram):
            def compute(self, v, messages):
                self.aggregate(1)

        with pytest.raises(RuntimeError, match="aggregator"):
            PregelPlusEngine(line_graph(2), P, num_workers=1).run()


class TestAggregator:
    def test_sum_and_timing(self):
        class P(PregelProgram):
            aggregator_combiner = SUM_I64

            def __init__(self, worker):
                super().__init__(worker)
                self.seen = []

            def compute(self, v, messages):
                if v.id == 0:
                    self.seen.append(self.agg_result)
                if self.step_num == 1:
                    self.aggregate(1)
                if self.step_num >= 2:
                    v.vote_to_halt()

        engine = PregelPlusEngine(line_graph(5), P, num_workers=2)
        engine.run()
        assert engine.workers[engine.owner[0]].program.seen == [None, 5]


class TestReqRespMode:
    def test_dedup_and_echo_format(self):
        class P(PregelProgram):
            message_codec = INT64

            def __init__(self, worker):
                super().__init__(worker)
                self.attr = worker.local_ids * 3
                self.got = np.empty(worker.num_local, dtype=object)

            def respond_value(self, local_idx):
                return int(self.attr[local_idx])

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.request(0)
                else:
                    self.got[v.local] = int(v.get_resp(0))
                v.vote_to_halt()

        part = np.array([0, 1, 1, 1])
        engine = PregelPlusEngine(
            line_graph(4), P, num_workers=2, partition=part, mode="reqresp"
        )
        res = engine.run()
        # all of worker 1's requests for vertex 0 dedup to one wire id;
        # the response echoes (id, value): 4B + 8B
        # worker 0's self-request is local
        assert res.metrics.total_messages == 2

    def test_only_requesters_wake(self):
        class P(PregelProgram):
            message_codec = INT64

            def __init__(self, worker):
                super().__init__(worker)
                self.computed = []

            def respond_value(self, local_idx):
                return 1

            def compute(self, v, messages):
                self.computed.append((self.step_num, v.id))
                if self.step_num == 1 and v.id == 0:
                    v.request(2)
                v.vote_to_halt()

        engine = PregelPlusEngine(line_graph(3), P, num_workers=1, mode="reqresp")
        engine.run()
        computed = engine.workers[0].program.computed
        # step 1: everyone; step 2: only vertex 0 (the requester) —
        # the responder (vertex 2) is answered by the system, not compute()
        assert (2, 0) in computed
        assert (2, 2) not in computed and (2, 1) not in computed


class TestGhostMode:
    def test_mirror_expansion_correct(self):
        class P(PregelProgram):
            message_codec = INT64
            combiner = SUM_I64

            def __init__(self, worker):
                super().__init__(worker)
                self.got = np.empty(worker.num_local, dtype=object)

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.broadcast(v.id + 1)
                else:
                    self.got[v.local] = messages
                v.vote_to_halt()

            def finalize(self):
                return self.got

        from repro.graph import star

        g = star(10, center=0)
        part = np.zeros(10, dtype=np.int64)
        part[5:] = 1
        basic = PregelPlusEngine(g, P, num_workers=2, partition=part, mode="basic").run()
        ghost = PregelPlusEngine(
            g, P, num_workers=2, partition=part, mode="ghost", ghost_threshold=3
        ).run()
        assert np.array_equal(basic.data, ghost.data)
        assert ghost.metrics.total_net_bytes < basic.metrics.total_net_bytes

    def test_low_degree_vertices_unaffected(self):
        class P(PregelProgram):
            message_codec = INT64

            def __init__(self, worker):
                super().__init__(worker)
                self.got = np.empty(worker.num_local, dtype=object)

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.broadcast(5)
                else:
                    self.got[v.local] = sorted(messages)
                v.vote_to_halt()

            def finalize(self):
                return self.got

        g = line_graph(4)  # max degree 2 < threshold
        res = PregelPlusEngine(g, P, num_workers=2, mode="ghost", ghost_threshold=16).run()
        assert res.data[1] == [5, 5]
