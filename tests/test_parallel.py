"""Process-backend parity matrix and crash behaviour.

``executor="process"`` must be a pure execution-substrate change: for
every workload × worker count × partitioner, a process run's result
data, per-channel traffic (net/local bytes and message counts), and
superstep/round/byte/message totals are asserted **bit-identical** to
the simulated run's.  One worker is part of the matrix: it runs the
same superstep loop with no rings at all.  A dying worker process must
surface as a clean :class:`WorkerProcessError`, never a hang, including
a death while peers sit spinning on a full ring; and workers must die
with a parent that is killed outright, leaking no shared memory.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.pointer_jumping import run_pointer_jumping
from repro.algorithms.sssp import run_sssp
from repro.algorithms.wcc import run_wcc
from repro.core import Channel, ChannelEngine, ScatterCombine, SUM_F64, VertexProgram
from repro.core.engine import scatter_results
from repro.graph import rmat
from repro.graph.partition import hash_partition, range_partition
from repro.runtime.parallel import WorkerProcessError

WORKERS = [1, 2, 8]
PARTITIONERS = ["hash", "range"]


@pytest.fixture(scope="module")
def directed_graph():
    return rmat(9, edge_factor=8, seed=31, directed=True)


@pytest.fixture(scope="module")
def weighted_graph():
    return rmat(9, edge_factor=4, seed=32, directed=False, weighted=True)


def _partition(name, n, workers):
    if name == "hash":
        return hash_partition(n, workers)
    return range_partition(n, workers)


def _assert_identical(sim_out, proc_out):
    (data_s, res_s), (data_p, res_p) = sim_out, proc_out
    np.testing.assert_array_equal(data_s, data_p)
    assert np.array_equal(res_s.data, res_p.data)
    ms, mp_ = res_s.metrics, res_p.metrics
    assert ms.channel_breakdown() == mp_.channel_breakdown()
    assert ms.supersteps == mp_.supersteps
    assert ms.total_rounds == mp_.total_rounds
    assert ms.total_net_bytes == mp_.total_net_bytes
    assert ms.total_local_bytes == mp_.total_local_bytes
    assert ms.total_messages == mp_.total_messages


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("workers", WORKERS)
def test_pagerank_scatter_parity(directed_graph, workers, partitioner):
    kw = dict(
        variant="scatter",
        iterations=8,
        mode="bulk",
        num_workers=workers,
        partition=_partition(partitioner, directed_graph.num_vertices, workers),
    )
    _assert_identical(
        run_pagerank(directed_graph, **kw),
        run_pagerank(directed_graph, executor="process", **kw),
    )


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("workers", WORKERS)
def test_wcc_parity(directed_graph, workers, partitioner):
    kw = dict(
        mode="bulk",
        num_workers=workers,
        partition=_partition(partitioner, directed_graph.num_vertices, workers),
    )
    _assert_identical(
        run_wcc(directed_graph, **kw),
        run_wcc(directed_graph, executor="process", **kw),
    )


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("workers", WORKERS)
def test_sssp_parity(weighted_graph, workers, partitioner):
    kw = dict(
        source=3,
        num_workers=workers,
        partition=_partition(partitioner, weighted_graph.num_vertices, workers),
    )
    _assert_identical(
        run_sssp(weighted_graph, **kw),
        run_sssp(weighted_graph, executor="process", **kw),
    )


class TestOtherChannels:
    """Channels outside the main matrix also survive the process hop."""

    def test_reqresp_pointer_jumping_parity(self, directed_graph):
        from repro.graph import random_tree

        g = random_tree(400, seed=7)
        kw = dict(variant="reqresp", num_workers=4)
        _assert_identical(
            run_pointer_jumping(g, **kw),
            run_pointer_jumping(g, executor="process", **kw),
        )

    def test_propagation_wcc_parity(self, directed_graph):
        kw = dict(variant="prop", num_workers=4)
        _assert_identical(
            run_wcc(directed_graph, **kw),
            run_wcc(directed_graph, executor="process", **kw),
        )

    def test_mirrored_pagerank_parity(self, directed_graph):
        kw = dict(variant="mirror", iterations=6, num_workers=4)
        _assert_identical(
            run_pagerank(directed_graph, **kw),
            run_pagerank(directed_graph, executor="process", **kw),
        )


class TestEngineIntegration:
    def test_initial_active_seeding(self, directed_graph):
        seeds = np.array([3, 17, 90], dtype=np.int64)
        kw = dict(mode="bulk", num_workers=4, initial_active=seeds)
        _assert_identical(
            run_wcc(directed_graph, **kw),
            run_wcc(directed_graph, executor="process", **kw),
        )

    def test_sync_state_restores_parent_workers(self, directed_graph):
        kw = dict(variant="scatter", iterations=5, mode="bulk", num_workers=4)
        _, res_sim = run_pagerank(directed_graph, **kw)

        from repro.algorithms.pagerank import PageRankScatterBulk

        class PR(PageRankScatterBulk):
            iterations = 5

        engine = ChannelEngine(
            directed_graph, PR, num_workers=4, executor="process", sync_state=True
        )
        res = engine.run()
        assert np.array_equal(res.data, res_sim.data)
        # parent-side program state now reflects the run that happened in
        # the worker processes
        merged = scatter_results(
            directed_graph.num_vertices,
            ((w.local_ids, w.program.finalize()) for w in engine.workers),
        )
        assert np.array_equal(merged, res.data)
        assert all(w.halted.all() for w in engine.workers)

    def test_unknown_executor_rejected(self, directed_graph):
        with pytest.raises(ValueError, match="executor"):
            ChannelEngine(directed_graph, object, executor="threads")

    def test_second_run_is_noop_like_sim(self, directed_graph):
        # the persistent pool keeps worker state alive between runs, so a
        # second run() matches the simulator's semantics exactly: every
        # vertex is halted, zero supersteps execute, results repeat —
        # and no new worker processes are spawned
        from repro.algorithms.wcc import WCCBasicBulk

        sim = ChannelEngine(directed_graph, WCCBasicBulk, num_workers=2)
        sim_first = sim.run()
        sim_second = sim.run()

        engine = ChannelEngine(
            directed_graph, WCCBasicBulk, num_workers=2, executor="process"
        )
        first = engine.run()
        spawned = engine.backend.pool.spawn_count
        second = engine.run()
        assert engine.backend.pool.spawn_count == spawned == 2
        assert np.array_equal(first.data, sim_first.data)
        assert np.array_equal(second.data, sim_second.data)
        assert (
            second.metrics.supersteps
            == first.metrics.supersteps
            == sim_second.metrics.supersteps
        )

    def test_process_checkpointing_counts_like_sim(self, directed_graph):
        # fault tolerance is no longer sim-only: a checkpoint-only process
        # run captures worker-side snapshots whose sizes match the sim's
        from repro.algorithms.wcc import WCCBasicBulk

        sim = ChannelEngine(
            directed_graph, WCCBasicBulk, num_workers=2, checkpoint_every=2
        ).run()
        proc = ChannelEngine(
            directed_graph,
            WCCBasicBulk,
            num_workers=2,
            checkpoint_every=2,
            executor="process",
        ).run()
        assert np.array_equal(proc.data, sim.data)
        assert proc.metrics.num_checkpoints == sim.metrics.num_checkpoints
        assert proc.metrics.checkpoint_bytes == sim.metrics.checkpoint_bytes

    def test_max_supersteps_guard(self):
        from helpers import line_graph

        class Forever(VertexProgram):
            def compute(self, v):
                pass  # never halts

        engine = ChannelEngine(
            line_graph(6), Forever, num_workers=2, executor="process"
        )
        with pytest.raises(RuntimeError, match="max_supersteps"):
            engine.run(max_supersteps=3)


class _DieAtSuperstep2(VertexProgram):
    """Worker 1's process exits hard at superstep 2 — an OOM-kill/segfault
    stand-in.  Everyone keeps one ScatterCombine busy so the death happens
    mid-protocol, with peers blocked on its frames."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = ScatterCombine(worker, SUM_F64)

    def compute(self, v):
        if self.step_num == 1 and v.out_degree > 0:
            self.msg.add_edges(v, v.edges)
        if self.step_num == 2 and self.worker.worker_id == 1:
            os._exit(3)
        if self.step_num >= 4:
            v.vote_to_halt()
        self.msg.set_message(v, 1.0)


class _RaiseAtSuperstep2(VertexProgram):
    def compute(self, v):
        if self.step_num == 2 and self.worker.worker_id == 1:
            raise ValueError("deliberate child failure")
        if self.step_num >= 4:
            v.vote_to_halt()


class _BombChannel(Channel):
    """Keeps every peer waiting on this worker's frames, then detonates on
    worker 1 during superstep 2's exchange round — while peers are blocked
    mid-exchange, the worst place for a death to go unnoticed."""

    hard = False  # os._exit (crash) vs raise (error with traceback)
    frame_bytes = 64

    def serialize(self):
        if self.worker.step_num == 2 and self.worker.worker_id == 1:
            if self.hard:
                os._exit(7)
            raise ValueError("boom in serialize")
        for peer in range(self.num_workers):
            if peer != self.worker.worker_id:
                self.emit(peer, b"x" * self.frame_bytes)

    def deserialize(self, payloads):
        self.round += 1

    def snapshot(self):
        return {}

    def restore(self, state):
        pass


class _HardBombChannel(_BombChannel):
    hard = True


class _DieInExchange(VertexProgram):
    channel_cls = _BombChannel

    def __init__(self, worker):
        super().__init__(worker)
        self.chan = self.channel_cls(worker)

    def compute(self, v):
        if self.step_num >= 4:
            v.vote_to_halt()


class _CrashInExchange(_DieInExchange):
    channel_cls = _HardBombChannel


class _RingFloodBombChannel(_HardBombChannel):
    """Big enough frames that with a deliberately tiny ring every survivor
    is spinning in its frame pump (full outbound ring, dead consumer) at
    the moment worker 1 exits."""

    frame_bytes = 64 * 1024


class _CrashInRingWrite(_DieInExchange):
    channel_cls = _RingFloodBombChannel


class _ObjectResult(VertexProgram):
    """Per-vertex Python objects: fine in process, not over the codec."""

    def compute(self, v):
        v.vote_to_halt()

    def finalize(self):
        return np.full(self.worker.num_local, "x", dtype=object)


class TestCrashHandling:
    def test_object_result_fails_with_the_codec_error(self, directed_graph):
        # the worker's reply codec refuses object arrays (they hold
        # pointers), so the parent sees that TypeError in the worker's
        # traceback instead of a garbled decode of pointer bytes
        engine = ChannelEngine(
            directed_graph, _ObjectResult, num_workers=2, executor="process"
        )
        with pytest.raises(
            WorkerProcessError,
            match=r"(?s)during finalize.*TypeError: cannot checkpoint .* dtype object",
        ):
            engine.run()

    def test_worker_process_death_surfaces_cleanly(self, directed_graph):
        engine = ChannelEngine(
            directed_graph,
            _DieAtSuperstep2,
            num_workers=4,
            executor="process",
        )
        with pytest.raises(WorkerProcessError, match=r"worker process 1 died"):
            engine.run()

    def test_child_exception_carries_traceback(self, directed_graph):
        engine = ChannelEngine(
            directed_graph,
            _RaiseAtSuperstep2,
            num_workers=4,
            executor="process",
        )
        with pytest.raises(WorkerProcessError, match="deliberate child failure"):
            engine.run()

    def test_hard_death_mid_exchange_round_no_hang(self, directed_graph):
        # worker 1 exits inside channel.serialize while its peers block on
        # its frames; supervision must notice the dead process and abort
        # instead of waiting on a reply that can never come
        engine = ChannelEngine(
            directed_graph,
            _CrashInExchange,
            num_workers=4,
            executor="process",
        )
        with pytest.raises(
            WorkerProcessError, match=r"worker process 1 died \(exit code 7\)"
        ):
            engine.run()

    def test_exception_mid_exchange_round_keeps_traceback(self, directed_graph):
        # the dying worker ships its traceback and exits before the parent
        # gets around to reading it; the supervisor must scavenge the
        # buffered error so the cause isn't flattened to "died (exit 0)"
        engine = ChannelEngine(
            directed_graph,
            _DieInExchange,
            num_workers=4,
            executor="process",
        )
        with pytest.raises(WorkerProcessError, match="boom in serialize"):
            engine.run()

    def test_hard_death_with_peers_blocked_in_ring_write(self, directed_graph):
        # the ring worst case: each survivor's 64 KiB frames are 64x the
        # 1 KiB rings, so when worker 1 exits its peers are parked in the
        # frame pump with full outbound rings and a consumer that will
        # never drain them.  Workers carry no liveness
        # checks — the parent must notice the death on the control pipes,
        # raise, and terminate the blocked children at shutdown.
        from repro.runtime.parallel import WorkerPool

        pool = WorkerPool(4, ring_capacity=1024)
        engine = ChannelEngine(
            directed_graph,
            _CrashInRingWrite,
            num_workers=4,
            executor="process",
            pool=pool,
        )
        try:
            with pytest.raises(
                WorkerProcessError, match=r"worker process 1 died \(exit code 7\)"
            ):
                engine.run()
            assert pool.broken
        finally:
            pool.shutdown()
        assert all(not p.is_alive() for p in pool._state.procs)

    def test_crash_poisons_the_pool(self, directed_graph):
        engine = ChannelEngine(
            directed_graph, _CrashInExchange, num_workers=4, executor="process"
        )
        with pytest.raises(WorkerProcessError):
            engine.run()
        pool = engine.backend.pool
        assert pool.broken and pool.closed
        assert all(not p.is_alive() for p in pool._state.procs)
        with pytest.raises(WorkerProcessError, match="shut down"):
            engine.run()


_ORPHAN_CHILD = """
import json, sys, threading, time
from repro.core import ChannelEngine, VertexProgram
from repro.graph import rmat
from repro.runtime.parallel import WorkerPool


class Forever(VertexProgram):
    def compute(self, v):
        if v.id == 0:
            time.sleep(0.01)  # a slow, never-ending run


pool = WorkerPool(2)
engine = ChannelEngine(
    rmat(6, edge_factor=4, seed=1), Forever, num_workers=2,
    executor="process", pool=pool,
)


def report():
    while pool.generation is None:
        time.sleep(0.01)
    state = pool._state
    segments = [ring.spec["name"] for ring in state.rings.values()]
    segments.append(state.votes.spec["name"])
    segments.extend(seg.name for seg in state.export._segments)
    print(json.dumps({"pids": [p.pid for p in state.procs],
                      "segments": segments}), flush=True)


threading.Thread(target=report, daemon=True).start()
engine.run(max_supersteps=10**9)
"""


def _pid_gone(pid):
    # a dead worker reparented to an init that never reaps it lingers as
    # a zombie: it holds no memory or mappings, so it counts as gone
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_workers_die_with_a_killed_parent():
    # SIGKILL gives the parent no chance to run any cleanup: the workers
    # must die anyway, and with them gone the resource tracker unlinks
    # every segment the run created
    import json
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_CHILD],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    try:
        info = json.loads(child.stdout.readline())
        time.sleep(0.3)  # let a few supersteps run
        assert child.poll() is None, "the run ended before it was killed"
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10)
    pids, segments = info["pids"], info["segments"]
    assert len(pids) == 2 and len(segments) >= 4

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        alive = [p for p in pids if not _pid_gone(p)]
        leaked = [s for s in segments if os.path.exists(f"/dev/shm/{s}")]
        if not alive and not leaked:
            break
        time.sleep(0.1)
    for pid in alive:  # don't leave orphans behind a failing run
        os.kill(pid, signal.SIGKILL)
    assert not alive, f"worker processes outlived their parent: {alive}"
    assert not leaked, f"shared-memory segments leaked: {leaked}"
