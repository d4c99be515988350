"""Parent-side orchestration of the multiprocess backend.

:class:`ProcessBackend` implements the
:class:`~repro.runtime.executor.ExecutorBackend` primitives over real OS
worker processes drawn from a persistent
:class:`~repro.runtime.parallel.pool.WorkerPool`:

* **shared state** — the graph's CSR arrays and the partition array are
  exported once per engine configuration into
  ``multiprocessing.shared_memory`` and attached read-only by every
  worker (no per-worker graph copies);
* **barrier protocol** — one duplex control pipe per worker carries one
  ``superstep`` command per superstep; the children vote through the
  pool's vote segment and run compute and every exchange round
  autonomously, then send one consolidated reply each (see
  ARCHITECTURE.md §9).  The shared drive loop in
  :meth:`ExecutorBackend.run` is the barrier: no superstep starts
  before every worker's reply for the previous one arrived;
* **peer-to-peer frames** — per-superstep channel frames travel directly
  between worker processes, as the exact wire bytes the codec layer
  produced, through per-pair shared-memory ring buffers; the parent
  receives only byte counts and feeds them to the same
  :meth:`MetricsCollector.record_exchange` the simulator uses;
* **fault tolerance for real** — checkpoints are captured worker-side
  and shipped to the parent as checkpoint-codec wire bytes; an injected
  failure kills the worker's OS process outright (the parent observes
  the death through the same supervision that catches genuine crashes),
  a replacement is respawned onto the same rings and vote segment, and both
  recovery modes restore it: rollback pushes the latest checkpoint blob
  to *every* worker, confined replays the lost supersteps from the
  parent's sender-side frame log and ships only the recovered state to
  the replacement.

Because compute, serialization, and byte accounting all run the same
code on the same inputs, a process run's ``result.data``, per-channel
traffic, and byte/message totals are **bit-identical** to a simulated
run — with or without checkpoints, injected failures, or streaming
epochs — as enforced by ``tests/test_parallel.py`` and
``tests/test_executor_backends.py``.  What stays simulated is the cost
model: ``simulated_time`` is still modeled from byte counts, while
``wall_time`` reflects genuinely parallel execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.engine import scatter_results
from repro.core.recovery import confined_recovery, rollback_recovery
from repro.runtime.checkpoint import (
    capture_worker_state,
    decode_state,
    encode_state,
    load_worker_state,
)
from repro.runtime.executor import ExecutorBackend
from repro.runtime.rebalance import MigrationContext, remap_worker_states
from repro.runtime.parallel.pool import WorkerPool
from repro.runtime.parallel.protocol import WorkerProcessError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ChannelEngine

__all__ = ["ProcessBackend"]


class ProcessBackend(ExecutorBackend):
    """Runs an engine's program over persistent worker processes."""

    name = "process"

    def __init__(self, engine: "ChannelEngine", pool: WorkerPool | None = None) -> None:
        super().__init__(engine)
        #: whether this backend owns its pool's lifecycle (it created it)
        self.owns_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(engine.num_workers)

    # -- template entry: poison the pool on any escaping error ---------------
    def run(self, **kwargs):
        try:
            return super().run(**kwargs)
        except BaseException:
            # an error escaping mid-protocol leaves worker processes in
            # unknown states (possibly spinning on a ring); the pool
            # cannot be trusted again
            self.pool.broken = True
            self.pool.shutdown()
            raise

    # -- primitives ----------------------------------------------------------
    def begin_run(self, fault_tolerant: bool) -> None:
        engine = self.engine
        pool = self.pool
        # the wall clock is already running: export/spawn/reconfigure are
        # real costs of this backend and belong in wall_time, just as
        # channel initialization is inside the simulator's window
        pool.ensure(
            {
                "graph": engine.graph,
                "owner": engine.owner,
                "seeds": engine.initial_active,
                "factory": engine.program_factory,
                "live": engine.live.spec if engine.live is not None else None,
            },
            engine.generation,
        )
        if pool.num_channels != engine.num_channels:
            raise WorkerProcessError(
                f"worker processes constructed {pool.num_channels} channels, "
                f"expected {engine.num_channels}"
            )
        pool.start_run()
        if fault_tolerant:
            # keep the parent's mirror workers usable: recovery rebuilds
            # and restores them (confined replay *runs* on them), and the
            # documented channel lifecycle promises initialize() first
            for worker in engine.workers:
                for channel in worker.channels:
                    channel.initialize()

    def barrier_vote(self) -> int:
        # one broadcast starts the whole superstep; the children vote
        # through the vote segment and proceed autonomously (or go back
        # to the command loop when the global total is 0)
        pool = self.pool
        seq = pool.next_seq()
        pool.broadcast(
            {
                "cmd": "superstep",
                "seq": seq,
                "log_frames": self.engine.frame_log is not None,
            }
        )
        return sum(pool.read_vote(w, seq) for w in range(pool.num_workers))

    def compute_phase(self) -> None:
        pass  # compute runs inside the children's superstep

    def exchange_phase(self) -> None:
        """Collect the consolidated superstep replies and replay the
        per-round accounting the children performed off-pipe, producing
        byte-for-byte the same metrics and frame-log entries as the
        simulator's round-by-round exchange."""
        engine = self.engine
        metrics = engine.metrics
        pool = self.pool
        n = engine.num_workers
        log_frames = engine.frame_log is not None
        step_log: list[tuple[list[bool], list[list[bytes]]]] = []

        replies = pool.gather("superstep")
        for w, reply in enumerate(replies):
            self._merge(w, reply)

        num_rounds = {len(reply["rounds"]) for reply in replies}
        if len(num_rounds) != 1:  # pragma: no cover - protocol bug guard
            raise WorkerProcessError(
                f"workers disagree on exchange round count: {sorted(num_rounds)}"
            )

        group_active = [True] * engine.num_channels
        for r in range(num_rounds.pop()):
            sent = np.zeros((n, n), dtype=np.int64)
            next_active = [False] * engine.num_channels
            frames: list[list[bytes]] = []
            for w, reply in enumerate(replies):
                rnd = reply["rounds"][r]
                sent[w] = rnd["sent"]
                for cid, flag in enumerate(rnd["next_active"]):
                    if flag:
                        next_active[cid] = True
                if log_frames:
                    frames.append([bytes(b) for b in rnd["frames"]])
            if log_frames:
                step_log.append((list(group_active), frames))
                metrics.record_log_bytes(
                    sum(len(buf) for row in frames for buf in row)
                )
            local_bytes = int(np.trace(sent))
            send_bytes = sent.sum(axis=1) - np.diag(sent)
            recv_bytes = sent.sum(axis=0) - np.diag(sent)
            metrics.record_exchange(send_bytes, recv_bytes, local_bytes=local_bytes)
            # the same OR-merge every child applied in-stream
            group_active = next_active

        if log_frames:
            engine.frame_log.append_step(engine.step_num, step_log)

    def capture_state_blobs(self) -> list[bytes]:
        # snapshots are captured worker-side and cross the control pipes
        # as the exact checkpoint-codec wire bytes the simulator would
        # have written, so checkpoint sizes are bit-identical too
        self.pool.broadcast({"cmd": "capture"})
        return [bytes(reply["blob"]) for reply in self.pool.gather("checkpoint capture")]

    def migrate(self, plan) -> None:
        """Migrate vertex ownership across the live worker processes.

        All children are quiescent (blocked on their control pipes at
        this superstep barrier), so the sequence is race-free: capture
        every child's state over the control protocol (checkpoint wire
        format), remap it parent-side, rewrite the *shared* ownership
        array in place, then have each child rebuild its Worker against
        the migrated partition and load its remapped state (``remap``
        keeps the graph attachments, ``step_num``, and the live writer).
        The parent's mirror workers rebuild last, so recovery and
        confined replay keep operating on the new ownership.
        """
        engine = self.engine
        pool = self.pool
        states = [decode_state(blob) for blob in self.capture_state_blobs()]
        ctx = MigrationContext(engine.owner, plan.new_owner, engine.num_workers)
        new_states = remap_worker_states(states, ctx, engine.workers[0].channels)
        pool.update_owner(plan.new_owner)
        engine.owner = np.asarray(plan.new_owner, dtype=np.int64)
        for w in range(engine.num_workers):
            pool.send(w, {"cmd": "remap", "blob": encode_state(new_states[w])})
        pool.gather("rebalance remap")
        for w in range(engine.num_workers):
            engine.rebuild_worker(w)

    def recover(self, doomed: list[int], mode: str) -> None:
        engine = self.engine
        pool = self.pool

        # the failure is real: each doomed worker's OS process exits hard
        # and its death surfaces through the standard supervision path as
        # a WorkerProcessError, which recovery absorbs; the replacement
        # then re-attaches the surviving peers' rings.  Kill/respawn one
        # worker at a time so the pool's supervision never trips over a
        # *previously* injected death while confirming the next respawn.
        for w in doomed:
            try:
                pool.kill(w)
            except WorkerProcessError:
                pass
            pool.respawn(w)

        # 3. the recovery procedures themselves run on the engine's
        # in-process mirror workers — the same code path as the simulator,
        # operating purely on checkpoint blobs and the parent-side frame
        # log — and the recovered state then ships to the children
        if mode == "confined":
            confined_recovery(engine, doomed)
            # only the failed workers' state changed; survivors' live
            # processes keep their current state, exactly per the paper
            for w in doomed:
                blob = encode_state(capture_worker_state(engine.workers[w]))
                pool.send(
                    w,
                    {"cmd": "restore", "blob": blob, "step_num": engine.step_num},
                )
            for w in doomed:
                pool.reply(w, "confined restore")
        else:
            rollback_recovery(engine, doomed)
            snapshot = engine.checkpoint
            for w in range(engine.num_workers):
                pool.send(
                    w,
                    {
                        "cmd": "restore",
                        "blob": snapshot.blobs[w],
                        "step_num": snapshot.superstep,
                    },
                )
            pool.gather("rollback restore")

    def collect_results(self) -> np.ndarray | None:
        engine = self.engine
        pool = self.pool
        sync = engine.sync_state
        pool.broadcast({"cmd": "finalize", "sync": sync})
        replies = pool.gather("finalize")
        if sync:
            for w, reply in enumerate(replies):
                self._restore_worker(w, reply["state"])
        # by the ownership the children ran on (current after migrations)
        owned = (np.flatnonzero(engine.owner == w) for w in range(len(replies)))
        data = (reply["data"] for reply in replies)
        return scatter_results(engine.graph.num_vertices, zip(owned, data))

    def shutdown(self) -> None:
        if self.owns_pool:
            self.pool.shutdown()

    # -- helpers -------------------------------------------------------------
    def _merge(self, worker_id: int, reply: dict) -> None:
        """Fold one worker's phase reply into the run's metrics, through
        the same counting surface the channels use in-process."""
        metrics = self.engine.metrics
        metrics.record_compute(worker_id, reply["seconds"])
        for phase, seconds in reply.get("phases", {}).items():
            metrics.record_phase(worker_id, phase, seconds)
        counters = reply["counters"]
        if counters["messages"]:
            metrics.count_messages(counters["messages"])
        for label, (net, local, msgs) in counters["channels"].items():
            metrics.count_channel_bytes(label, net, local=False)
            metrics.count_channel_bytes(label, local, local=True)
            metrics.count_channel_messages(label, msgs)

    def _restore_worker(self, w: int, state: dict) -> None:
        """Load a child's end-of-run state into the parent's worker ``w``
        (checkpoint capture format), so post-run introspection of
        ``engine.workers`` sees what actually ran."""
        load_worker_state(self.engine.workers[w], state)
