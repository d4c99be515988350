"""The pluggable execution-backend seam (ARCHITECTURE.md §8).

The paper's channel engine is *one* abstraction with many possible
execution strategies; this module makes that literal.
:class:`ExecutorBackend` owns the superstep drive loop of Fig. 4 —
barrier votes, compute dispatch, exchange rounds, checkpoint cadence,
failure injection, recovery dispatch, result collection — as a template
method (:meth:`ExecutorBackend.run`) over a small set of primitives each
backend implements:

``begin_run``
    Bring the execution substrate up (channel initialization; for the
    process backend also pool spawn/reconfigure).
``barrier_vote``
    Resolve every worker's active set for the next superstep and return
    the global active count (0 terminates the run).
``compute_phase`` / ``exchange_phase``
    One superstep's vertex compute and channel exchange rounds.  The
    exchange phase maintains the sender-side frame log when confined
    recovery is armed.
``capture_state_blobs``
    Per-worker serialized state in the checkpoint capture format
    (:func:`repro.runtime.checkpoint.capture_worker_state`).
``recover``
    React to injected worker deaths with the requested recovery mode.
``collect_results``
    Scatter per-worker ``finalize()`` arrays into ``EngineResult.data``.

Because checkpoint cadence, failure timing, frame-log bookkeeping, and
termination live in the shared template, every fault-tolerance and
streaming feature composes with every backend by construction — the
fault-tolerant superstep choreography cannot drift between them.

Two implementations exist: :class:`SimBackend` here (the in-process
simulated cluster, lifted verbatim out of the old
``ChannelEngine._run``) and
:class:`~repro.runtime.parallel.backend.ProcessBackend` (one OS process
per worker over a persistent :class:`~repro.runtime.parallel.pool.WorkerPool`).
Both produce bit-identical result data, per-channel traffic, and
byte/message totals for the same program.
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING

import numpy as np

from repro.core.recovery import (
    FailureSchedule,
    FrameLog,
    confined_recovery,
    rollback_recovery,
)
from repro.runtime.buffers import BufferExchange
from repro.runtime.checkpoint import (
    SNAPSHOT_VERSION,
    Snapshot,
    capture_worker_state,
    encode_state,
    load_worker_state,
)
from repro.runtime.rebalance import (
    MigrationContext,
    phase_matrix,
    remap_worker_states,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ChannelEngine, EngineResult

__all__ = ["ExecutorBackend", "SimBackend"]


class ExecutorBackend:
    """Drives one engine's program to termination (template method).

    A backend instance is owned by its :class:`ChannelEngine` and lives
    as long as the engine does — it may be asked to :meth:`run` more
    than once (a second run over an all-halted program is a no-op that
    returns the same results on every backend).
    """

    #: the engine's ``executor=`` name for this backend
    name = "?"

    def __init__(self, engine: "ChannelEngine") -> None:
        self.engine = engine

    # -- the drive loop (shared across backends) ---------------------------
    def run(
        self,
        max_supersteps: int = 100_000,
        checkpoint_every: int | None = None,
        failures: FailureSchedule | None = None,
        recovery: str = "rollback",
    ) -> "EngineResult":
        """Run to termination.  Arguments arrive validated and coerced by
        :meth:`ChannelEngine.run` (the single validation point)."""
        from repro.core.engine import EngineResult

        engine = self.engine
        metrics = engine.metrics
        fault_tolerant = checkpoint_every is not None or bool(failures)

        engine.frame_log = (
            FrameLog(engine.num_workers)
            if bool(failures) and recovery == "confined"
            else None
        )

        metrics.start_run()
        self.begin_run(fault_tolerant)

        if fault_tolerant:
            # superstep-0 checkpoint: recovery is possible before the
            # first periodic checkpoint is due
            self.take_checkpoint()

        while True:
            t_barrier = time.perf_counter()
            total_active = self.barrier_vote()
            barrier_seconds = time.perf_counter() - t_barrier
            if total_active == 0:
                break
            engine.step_num += 1
            if engine.step_num > max_supersteps:
                raise RuntimeError(
                    f"exceeded max_supersteps={max_supersteps}; "
                    "the program may not terminate"
                )
            metrics.start_superstep(total_active)
            # the vote is a global sync point every worker waits through,
            # so the whole collection time is charged to each of them
            for w in range(engine.num_workers):
                metrics.record_phase(w, "barrier", barrier_seconds)
            self.compute_phase()
            self.exchange_phase()
            metrics.end_superstep()

            # live telemetry boundary: sim publishes all slots here (the
            # process backend's children already published their own), then
            # the monitor scores the fresh readings online
            if engine.live is not None:
                self.publish_live()
                if engine.monitor is not None:
                    engine.monitor.observe(engine.step_num)

            # superstep boundary: rebalance first (a migration changes
            # what any checkpoint taken below must capture)
            migrated = False
            if (
                engine.rebalance == "superstep"
                and engine.rebalancer is not None
                and engine.step_num % engine.rebalance_every == 0
            ):
                migrated = self.maybe_rebalance()

            # then checkpoint, then inject failures
            if fault_tolerant:
                if migrated or (
                    checkpoint_every is not None
                    and engine.step_num % checkpoint_every == 0
                ):
                    # after a migration the recapture is mandatory: the
                    # previous snapshot (and any logged frames, truncated
                    # by take_checkpoint) reference the old ownership
                    self.take_checkpoint()
                doomed = failures.pop(engine.step_num) if failures else []
                if doomed:
                    metrics.record_failure(len(doomed))
                    self.recover(doomed, recovery)

        if failures and failures.pending():
            # warn, don't raise: the results are still valid (nothing was
            # injected), but anyone measuring recovery must find out that
            # they actually measured a failure-free run
            warnings.warn(
                f"failure schedule events never fired — the run ended after "
                f"{engine.step_num} supersteps: {failures.pending()}",
                RuntimeWarning,
                stacklevel=3,
            )

        result = EngineResult(metrics=metrics)
        if engine.monitor is not None:
            result.live_alerts = list(engine.monitor.alerts)
        result.data = self.collect_results()
        # wall_time is what the caller waits for: results in hand
        metrics.end_run()
        return result

    # -- shared fault-tolerance choreography --------------------------------
    def take_checkpoint(self) -> None:
        """Checkpoint every worker at the current superstep boundary and
        make it the engine's recovery point."""
        engine = self.engine
        snapshot = Snapshot(
            version=SNAPSHOT_VERSION,
            superstep=engine.step_num,
            blobs=self.capture_state_blobs(),
            metrics_state=engine.metrics.snapshot(),
        )
        engine.checkpoint = snapshot
        engine.metrics.record_checkpoint(snapshot.worker_nbytes)
        if engine.live is not None:
            # rollback recovery will rewind live counters to this boundary
            self.live_mark()
        if engine.frame_log is not None:
            # frames covered by this checkpoint can never be replayed
            engine.frame_log.truncate_before(snapshot.superstep)

    # -- shared rebalancing choreography -------------------------------------
    def maybe_rebalance(self) -> bool:
        """Ask the engine's policy for a migration plan over the phase
        timings observed so far and execute it at this barrier; returns
        whether a migration happened.  The plan is a pure function of
        (owner, indptr, matrix), so every backend migrates identically."""
        engine = self.engine
        policy = engine.rebalancer
        plan = policy.propose(
            engine.owner,
            engine.graph.indptr,
            phase_matrix(engine.metrics, window=policy.window),
        )
        if plan is None:
            return False
        t0 = time.perf_counter()
        self.migrate(plan)
        seconds = time.perf_counter() - t0
        engine.metrics.record_rebalance(plan, trigger="superstep", seconds=seconds)
        if engine.live is not None:
            touched = sorted({w for move in plan.moves for w in move[2:]})
            for w in touched:
                engine.live.bump_rebalance(w)
        return True

    def migrate(self, plan) -> None:
        """Move vertex ownership (and all per-vertex state) per ``plan``
        at the current quiescent superstep boundary."""
        raise NotImplementedError

    # -- backend primitives --------------------------------------------------
    def begin_run(self, fault_tolerant: bool) -> None:
        raise NotImplementedError

    def barrier_vote(self) -> int:
        raise NotImplementedError

    def compute_phase(self) -> None:
        raise NotImplementedError

    def exchange_phase(self) -> None:
        raise NotImplementedError

    def capture_state_blobs(self) -> list[bytes]:
        raise NotImplementedError

    def recover(self, doomed: list[int], mode: str) -> None:
        raise NotImplementedError

    def collect_results(self) -> np.ndarray | None:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources (idempotent; a no-op for sim)."""

    # -- live telemetry hooks (ARCHITECTURE.md §11) --------------------------
    def publish_live(self) -> None:
        """Refresh the engine's live metrics slots after a superstep.  The
        process backend's children publish their own slots autonomously,
        so its override is this no-op; sim publishes all slots here."""

    def live_mark(self) -> None:
        """Checkpoint boundary: remember live counters for a later rewind
        (process children mark inside their ``capture`` command)."""


class SimBackend(ExecutorBackend):
    """The in-process simulated cluster: every worker runs sequentially in
    this process, compute is charged as the max over workers (parallel
    makespan), and network time comes from the cost model.  This is the
    reference backend — the process backend's parity matrix is defined
    against it."""

    name = "sim"

    def __init__(self, engine: "ChannelEngine") -> None:
        super().__init__(engine)
        self._exchange = BufferExchange(engine.metrics)
        self._active_sets: list = []
        self._live_writers: list | None = None
        self._live_step: dict | None = None

    # -- primitives ----------------------------------------------------------
    def begin_run(self, fault_tolerant: bool) -> None:
        if self.engine.live is not None and self._live_writers is None:
            # created once per engine, never reset on a re-run: a second
            # run over a halted program adds zero supersteps, and the live
            # counters must keep matching the (also untouched) collector
            self._live_writers = [
                self.engine.live.writer(w) for w in range(self.engine.num_workers)
            ]
        for worker in self.engine.workers:
            for channel in worker.channels:
                channel.initialize()

    def barrier_vote(self) -> int:
        # phase controllers may wake vertices for the upcoming superstep
        for worker in self.engine.workers:
            worker.program.before_superstep()
        self._active_sets = [w.begin_superstep() for w in self.engine.workers]
        return sum(a.size for a in self._active_sets)

    def compute_phase(self) -> None:
        # vertex compute (parallel across workers -> charge max); each
        # worker dispatches scalar (per-vertex) or bulk (whole-active-set)
        # per its program's is_bulk flag
        metrics = self.engine.metrics
        track = self._live_writers is not None
        if track:
            n = self.engine.num_workers
            self._live_step = {"net": [0] * n, "local": [0] * n, "messages": [0] * n}
        for worker, active in zip(self.engine.workers, self._active_sets):
            before = metrics.current_messages if track else 0
            t0 = time.perf_counter()
            worker.run_compute(active)
            seconds = time.perf_counter() - t0
            metrics.record_compute(worker.worker_id, seconds)
            metrics.record_phase(worker.worker_id, "compute", seconds)
            if track:
                # workers run sequentially here, so bracketing the shared
                # collector's message count attributes exactly
                self._live_step["messages"][worker.worker_id] += (
                    metrics.current_messages - before
                )

    def exchange_phase(self) -> None:
        engine = self.engine
        metrics = engine.metrics
        for worker in engine.workers:
            for channel in worker.channels:
                channel.reset_round()

        group_active = [True] * engine.num_channels
        step_log: list[tuple[list[bool], list[list[bytes]]]] | None = (
            [] if engine.frame_log is not None else None
        )

        while any(group_active):
            # serialize
            wrote = False
            track = self._live_step is not None
            for worker in engine.workers:
                before = metrics.current_messages if track else 0
                t0 = time.perf_counter()
                for cid, channel in enumerate(worker.channels):
                    if group_active[cid]:
                        channel.serialize()
                seconds = time.perf_counter() - t0
                metrics.record_compute(worker.worker_id, seconds)
                metrics.record_phase(worker.worker_id, "serialize", seconds)
                net, local = worker.buffers.out_nbytes()
                wrote = wrote or net > 0 or local > 0
                if track:
                    st = self._live_step
                    st["net"][worker.worker_id] += int(net)
                    st["local"][worker.worker_id] += int(local)
                    st["messages"][worker.worker_id] += (
                        metrics.current_messages - before
                    )

            if not wrote and not any(group_active):  # pragma: no cover
                break

            if step_log is not None:
                # sender-side frame log for confined recovery: every
                # cross-worker buffer of this round, captured pre-exchange
                frames = [
                    [
                        b""
                        if peer == worker.worker_id
                        else worker.buffers.out[peer].getvalue()
                        for peer in range(engine.num_workers)
                    ]
                    for worker in engine.workers
                ]
                step_log.append((list(group_active), frames))
                metrics.record_log_bytes(
                    sum(len(buf) for row in frames for buf in row)
                )

            # pairwise exchange (accounted by the cost model)
            t0 = time.perf_counter()
            self._exchange.exchange([w.buffers for w in engine.workers])
            swap_seconds = time.perf_counter() - t0
            # the swap is one shared memcpy pass here; like the barrier,
            # it's a global step every worker sits through
            for w in range(engine.num_workers):
                metrics.record_phase(w, "exchange", swap_seconds)

            # deserialize + decide on another round
            next_active = [False] * engine.num_channels
            for worker in engine.workers:
                before = metrics.current_messages if track else 0
                t0 = time.perf_counter()
                routed = worker.route_inbox()
                for cid, channel in enumerate(worker.channels):
                    if group_active[cid]:
                        channel.deserialize(routed.get(cid, []))
                        if channel.again():
                            next_active[cid] = True
                    elif cid in routed:  # pragma: no cover - defensive
                        raise RuntimeError(
                            f"data arrived for inactive channel {cid}"
                        )
                seconds = time.perf_counter() - t0
                metrics.record_compute(worker.worker_id, seconds)
                metrics.record_phase(worker.worker_id, "serialize", seconds)
                if track:
                    self._live_step["messages"][worker.worker_id] += (
                        metrics.current_messages - before
                    )
            group_active = next_active

        if step_log is not None:
            engine.frame_log.append_step(engine.step_num, step_log)

    def capture_state_blobs(self) -> list[bytes]:
        return [encode_state(capture_worker_state(w)) for w in self.engine.workers]

    def migrate(self, plan) -> None:
        # capture under the old ownership, remap, rebuild every worker
        # under the new one, load.  The active sets refresh at the next
        # barrier vote from the (remapped) halted/woken flags; the live
        # writers are per-slot and carry no worker references
        engine = self.engine
        states = [capture_worker_state(w) for w in engine.workers]
        ctx = MigrationContext(engine.owner, plan.new_owner, engine.num_workers)
        new_states = remap_worker_states(states, ctx, engine.workers[0].channels)
        engine.owner = np.asarray(plan.new_owner, dtype=np.int64)
        for w in range(engine.num_workers):
            engine.rebuild_worker(w)
            load_worker_state(engine.workers[w], new_states[w])

    def recover(self, doomed: list[int], mode: str) -> None:
        if mode == "confined":
            confined_recovery(self.engine, doomed)
        else:
            rollback_recovery(self.engine, doomed)
            if self._live_writers is not None:
                # the collector rolled back to the checkpoint; so does the
                # live plane (re-executed supersteps re-accumulate)
                for writer in self._live_writers:
                    writer.rewind()

    # -- live telemetry ------------------------------------------------------
    def publish_live(self) -> None:
        if self._live_writers is None:
            return
        rec = self.engine.metrics.records[-1]
        step = self._live_step
        for w, writer in enumerate(self._live_writers):
            writer.add(
                superstep=1,
                active=int(self._active_sets[w].size),
                rounds=rec.rounds,
                net_bytes=0 if step is None else step["net"][w],
                local_bytes=0 if step is None else step["local"][w],
                messages=0 if step is None else step["messages"][w],
                **{phase: seconds[w] for phase, seconds in rec.phases.items()},
            )
            writer.publish()
        self._live_step = None

    def live_mark(self) -> None:
        if self._live_writers is not None:
            for writer in self._live_writers:
                writer.mark()

    def collect_results(self) -> np.ndarray | None:
        from repro.core.engine import scatter_results

        parts = ((w.local_ids, w.program.finalize()) for w in self.engine.workers)
        return scatter_results(self.engine.graph.num_vertices, parts)
