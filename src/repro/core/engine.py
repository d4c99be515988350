"""The channel engine: the superstep loop of Fig. 4.

The engine creates one :class:`~repro.core.worker.Worker` per partition
block, instantiates the user's :class:`~repro.core.program.VertexProgram`
on each, and then hands the run to a pluggable
:class:`~repro.runtime.executor.ExecutorBackend` that alternates vertex
compute with channel exchange rounds until every vertex has voted to halt
and no channel requests another round.

Two backends exist (see ARCHITECTURE.md §8): ``"sim"`` runs every worker
sequentially in-process with modeled parallelism, ``"process"`` runs each
worker as a real OS process from a persistent
:class:`~repro.runtime.parallel.pool.WorkerPool`.  Every feature —
checkpointing, failure injection, both recovery modes, bulk compute,
streaming epochs — composes with every backend, with bit-identical
result data, per-channel traffic, and byte/message totals.

Both compute time (max over workers, i.e. parallel makespan) and modeled
network time are accumulated into the run's
:class:`~repro.runtime.metrics.MetricsCollector`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core.recovery import FailureSchedule, FrameLog
from repro.core.worker import Worker
from repro.graph.graph import Graph
from repro.graph.partition import hash_partition
from repro.runtime.costmodel import NetworkModel, DEFAULT_NETWORK
from repro.runtime.metrics import MetricsCollector
from repro.runtime.rebalance import REBALANCE_MODES, RebalancePolicy

__all__ = ["ChannelEngine", "EngineResult", "scatter_results"]

#: recognised ``recovery`` modes (see :mod:`repro.core.recovery`)
RECOVERY_MODES = ("rollback", "confined")

#: recognised execution backends
EXECUTORS = ("sim", "process")

#: recognised adaptive-rebalancing triggers (re-exported from
#: :mod:`repro.runtime.rebalance`); "epoch" is acted on by the streaming
#: :class:`~repro.streaming.epoch.EpochEngine` between epochs, while
#: "superstep" migrates inside a run at the superstep barrier

#: engine configuration generations, for worker-pool reuse: a pool knows
#: which engine's configuration its worker processes currently hold and
#: reconfigures only when a *different* engine runs on it
_GENERATIONS = itertools.count(1)


def scatter_results(
    n: int, parts: Iterable[tuple[np.ndarray, np.ndarray | None]]
) -> np.ndarray | None:
    """Place each worker's ``(global_ids, finalize() rows)`` part into one
    array of ``n`` rows (``None`` if every part is ``None``) — the result
    collection of every engine.  ``ValueError`` if only some parts are
    ``None``, a part's length is off, or non-empty parts differ in dtype
    or row shape."""
    parts = list(parts)
    missing = sum(part is None for _, part in parts)
    if missing == len(parts):
        return None
    if missing:
        raise ValueError(f"{missing} of {len(parts)} finalize() parts are None")
    for w, (ids, part) in enumerate(parts):
        if part.shape[:1] != (len(ids),):
            raise ValueError(f"worker {w}: shape {part.shape} for {len(ids)} vertices")
    first = parts[0][1]
    layouts = {(p.dtype, p.shape[1:]) for ids, p in parts if len(ids)}
    if len(layouts) > 1:
        raise ValueError(f"finalize() rows disagree: {sorted(map(str, layouts))}")
    ((dtype, row),) = layouts or {(first.dtype, first.shape[1:])}
    out = np.empty((n,) + row, dtype=dtype)
    for ids, part in parts:
        out[ids] = part
    return out


@dataclass
class EngineResult:
    """Outcome of one engine run.

    ``data`` row ``g`` is vertex ``g``'s ``finalize()`` row (``None``:
    no per-vertex output; see :func:`scatter_results`).

    The pass-through properties mirror the most-used
    :class:`~repro.runtime.metrics.MetricsCollector` totals so callers
    (benchmarks, examples) don't reach into ``result.metrics`` internals.

    When ``metrics`` is ``None`` (collection disabled) every pass-through
    property returns ``None`` — a run with no collector did not observe
    "0 bytes"/"0.0 seconds", it observed nothing, and the old zero
    fallbacks made byte-identity comparisons between such runs pass
    vacuously.  Callers comparing totals must read them through
    ``result.metrics`` or handle ``None`` explicitly.
    """

    data: np.ndarray | None = None
    metrics: MetricsCollector | None = None
    #: alerts the live monitor raised during the run (``None`` when the
    #: engine had no ``live=`` telemetry segment; see ARCHITECTURE.md §11)
    live_alerts: list | None = None

    @property
    def supersteps(self) -> int | None:
        return self.metrics.supersteps if self.metrics is not None else None

    @property
    def total_net_bytes(self) -> int | None:
        """Serialized bytes that crossed worker boundaries (``None`` when
        metrics collection was disabled — not the same as 0, which means
        a measured run with no traffic)."""
        return self.metrics.total_net_bytes if self.metrics is not None else None

    @property
    def total_messages(self) -> int | None:
        """Network messages counted by all channels (``None`` when
        metrics collection was disabled)."""
        return self.metrics.total_messages if self.metrics is not None else None

    @property
    def simulated_time(self) -> float | None:
        """Modeled parallel runtime (max compute + network per superstep);
        ``None`` when metrics collection was disabled."""
        return self.metrics.simulated_time if self.metrics is not None else None

    @property
    def phase_times(self) -> dict | None:
        """Measured critical-path seconds per superstep phase
        (:meth:`~repro.runtime.metrics.MetricsCollector.phase_totals`);
        ``None`` when metrics collection was disabled."""
        return self.metrics.phase_totals() if self.metrics is not None else None


class ChannelEngine:
    """Runs a channel-based vertex program over a partitioned graph.

    Parameters
    ----------
    graph:
        The input :class:`~repro.graph.graph.Graph`.
    program_factory:
        Callable ``(worker) -> VertexProgram``; typically the program class
        itself.
    num_workers:
        Number of simulated workers (the paper used an 8-node cluster).
    partition:
        Optional vertex->worker array; defaults to hash partitioning, the
        Pregel default ("vertices are randomly assigned to workers").
    network:
        Cost model for the simulated interconnect.
    checkpoint_every:
        Take a checkpoint every ``k`` supersteps (plus one before the
        first superstep).  ``None`` disables periodic checkpoints; an
        initial checkpoint is still taken whenever ``failures`` is set.
    failures:
        A :class:`~repro.core.recovery.FailureSchedule` (or anything its
        constructor accepts, e.g. ``[(3, 7)]`` or ``["3:7"]``): worker 3
        dies at the end of superstep 7.
    recovery:
        ``"rollback"`` (all workers reload the latest checkpoint and
        re-execute) or ``"confined"`` (only the failed worker reloads;
        survivors' logged frames feed its replay).  Defaults can be
        overridden per :meth:`run` call.
    initial_active:
        Global vertex ids active in superstep 1 (``None`` = all vertices,
        the Pregel default).  The streaming layer seeds refresh runs from
        the delta-affected region this way; programs may wake more
        vertices via ``before_superstep`` / message arrival as usual.
    executor:
        ``"sim"`` (default) runs every worker sequentially in-process
        with modeled parallelism; ``"process"`` runs each worker as a
        real OS process over shared memory
        (:mod:`repro.runtime.parallel`) with bit-identical data,
        per-channel traffic, and byte/message totals.  Both backends
        support checkpointing, failure injection, and both recovery
        modes; on the process backend an injected failure really kills
        the worker's OS process and recovery restores a respawned
        replacement through the checkpoint wire format.
    sync_state:
        Process executor only: when ``True``, each worker ships its
        end-of-run state (program state dict, halt/wake flags, channel
        ``snapshot()`` s) back through the checkpoint codec and the
        engine loads it into its own workers, so post-run introspection
        of ``engine.workers`` behaves as after a simulated run.  Off by
        default — result data always comes back regardless.
    trace:
        Optional :class:`~repro.obs.trace.TraceRecorder`: the run emits
        structured span events (run, superstep, per-worker phase,
        exchange round, checkpoint, failure, recovery) through the
        metrics collector.  Both executors produce schema-identical
        traces; see ARCHITECTURE.md §10 and ``repro report``.  The
        caller owns the recorder (the engine never closes it).
    live:
        Optional :class:`~repro.obs.live.LiveMetrics` segment (with
        ``num_workers`` slots): the run publishes per-worker counters
        after every superstep so external observers (``repro top``, the
        ``--metrics-port`` exporter) can watch it in flight, and an
        online :class:`~repro.obs.live.LiveMonitor` flags stragglers /
        anomalies as "alert" trace instants and
        ``EngineResult.live_alerts``.  Both executors publish the same
        slot schema; see ARCHITECTURE.md §11.  The caller owns the
        segment (the engine never closes or unlinks it).
    pool:
        Process executor only: an existing
        :class:`~repro.runtime.parallel.pool.WorkerPool` to run on
        instead of an engine-owned one.  The pool's persistent worker
        processes are *reconfigured* for this engine (delta/remap
        control messages), never respawned — this is how the streaming
        :class:`~repro.streaming.epoch.EpochEngine` amortizes process
        startup across epochs.  The caller keeps ownership: the engine
        never shuts an externally provided pool down.
    rebalance:
        Adaptive load rebalancing (:mod:`repro.runtime.rebalance`,
        ARCHITECTURE.md §13).  ``"superstep"`` consults the policy every
        ``rebalance_every`` supersteps at the barrier and, when it fires,
        migrates vertex ownership (and all per-vertex state, through the
        checkpoint capture format) mid-run — on both executors, with
        identical migration sequences.  ``"epoch"`` is the between-epochs
        trigger acted on by the streaming layer; inside a single engine
        run it does nothing.  ``"off"`` (default) disables rebalancing.
    rebalance_every:
        Superstep cadence of the ``"superstep"`` trigger.
    rebalance_policy:
        Optional pre-built :class:`~repro.runtime.rebalance.RebalancePolicy`
        (to tune thresholds or share hysteresis state); one with default
        thresholds is created when ``rebalance`` is armed without it.
    """

    def __init__(
        self,
        graph: Graph,
        program_factory: Callable[[Worker], object],
        num_workers: int = 8,
        partition: np.ndarray | None = None,
        network: NetworkModel = DEFAULT_NETWORK,
        checkpoint_every: int | None = None,
        failures=None,
        recovery: str = "rollback",
        initial_active: np.ndarray | None = None,
        executor: str = "sim",
        sync_state: bool = False,
        pool=None,
        trace=None,
        live=None,
        rebalance: str = "off",
        rebalance_every: int = 16,
        rebalance_policy: RebalancePolicy | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.validate_options(
            executor=executor,
            recovery=recovery,
            rebalance=rebalance,
            rebalance_every=rebalance_every,
        )
        if pool is not None:
            if executor != "process":
                raise ValueError("pool= only applies to executor='process'")
            if pool.num_workers != num_workers:
                raise ValueError(
                    f"pool has {pool.num_workers} workers, engine wants "
                    f"{num_workers}"
                )
        self.executor = executor
        self.sync_state = bool(sync_state)
        self.pool = pool
        self.generation = next(_GENERATIONS)
        self._backend = None
        self.graph = graph
        self.num_workers = num_workers
        self.program_factory = program_factory
        self.checkpoint_every = checkpoint_every
        self.failures = FailureSchedule.coerce(failures)
        self.recovery = recovery
        self.checkpoint = None  # latest Snapshot, when fault tolerance is on
        self.frame_log: FrameLog | None = None
        if partition is None:
            partition = hash_partition(graph.num_vertices, num_workers)
        partition = np.asarray(partition, dtype=np.int64)
        if partition.shape != (graph.num_vertices,):
            raise ValueError("partition must assign every vertex")
        if partition.size and (partition.min() < 0 or partition.max() >= num_workers):
            raise ValueError("partition assigns vertices to unknown workers")
        self.owner = partition
        self.metrics = MetricsCollector(num_workers=num_workers, network=network)
        if trace is not None:
            self.metrics.trace = trace
            self.metrics.trace_attrs = {"executor": executor}
        self.live = live
        self.monitor = None
        if live is not None:
            if live.num_workers != num_workers:
                raise ValueError(
                    f"live metrics segment has {live.num_workers} worker "
                    f"slots, engine wants {num_workers}"
                )
            from repro.obs.live import LiveMonitor

            self.monitor = LiveMonitor(live, self.metrics)
        #: adaptive rebalancing (ARCHITECTURE.md §13): "superstep" arms
        #: the backend's in-run migration trigger; "epoch" is carried for
        #: the streaming layer (no in-run effect); "off" disables both
        self.rebalance = rebalance
        self.rebalance_every = int(rebalance_every)
        self.rebalancer = rebalance_policy
        if rebalance != "off" and self.rebalancer is None:
            self.rebalancer = RebalancePolicy(num_workers=num_workers)
        self.step_num = 0

        self.workers: list[Worker] = []
        for w in range(num_workers):
            local_ids = np.flatnonzero(partition == w)
            self.workers.append(Worker(self, w, local_ids))
        for worker in self.workers:
            worker.program = program_factory(worker)

        self.initial_active: np.ndarray | None = None
        if initial_active is not None:
            seeds = np.asarray(initial_active, dtype=np.int64)
            if seeds.size and (
                seeds.min() < 0 or seeds.max() >= graph.num_vertices
            ):
                raise ValueError("initial_active contains out-of-range vertex ids")
            self.initial_active = seeds.copy()  # worker processes re-seed from this
            for worker in self.workers:
                worker.seed_active(seeds)

        nchan = {len(w.channels) for w in self.workers}
        if len(nchan) != 1:
            raise RuntimeError(
                "programs must construct the same channels on every worker"
            )
        self.num_channels = nchan.pop()

    # -- option validation (single source of truth; the CLI calls this too) --
    @staticmethod
    def validate_options(
        *,
        executor: str = "sim",
        checkpoint_every: int | None = None,
        failures=None,
        recovery: str = "rollback",
        num_workers: int | None = None,
        rebalance: str = "off",
        rebalance_every: int | None = None,
    ) -> FailureSchedule | None:
        """Validate a backend/fault-tolerance option combination in one
        place, coercing ``failures`` into a
        :class:`~repro.core.recovery.FailureSchedule` on the way.

        Every feature composes with every backend, so what's checked is
        each option's own domain: a known executor, a known recovery
        mode, a positive checkpoint interval, and a failure schedule that
        names only existing workers (when ``num_workers`` is given) and
        leaves at least one survivor.  Raises ``ValueError`` with a
        user-facing message; used by the engine itself and by the CLI,
        so the two can never disagree.
        """
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if recovery not in RECOVERY_MODES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_MODES}, got {recovery!r}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if rebalance not in REBALANCE_MODES:
            raise ValueError(
                f"rebalance must be one of {REBALANCE_MODES}, got {rebalance!r}"
            )
        if rebalance_every is not None and rebalance_every < 1:
            raise ValueError("rebalance_every must be >= 1")
        schedule = FailureSchedule.coerce(failures)
        if schedule is not None and num_workers is not None:
            schedule.validate(num_workers)
        return schedule

    # -- backend resolution --------------------------------------------------
    @property
    def backend(self):
        """This engine's :class:`~repro.runtime.executor.ExecutorBackend`
        (created on first use, then reused across :meth:`run` calls)."""
        if self._backend is None:
            if self.executor == "process":
                from repro.runtime.parallel.backend import ProcessBackend

                self._backend = ProcessBackend(self, pool=self.pool)
            else:
                from repro.runtime.executor import SimBackend

                self._backend = SimBackend(self)
        return self._backend

    # -- main loop ---------------------------------------------------------
    def run(
        self,
        max_supersteps: int = 100_000,
        checkpoint_every: int | None = None,
        failures=None,
        recovery: str | None = None,
    ) -> EngineResult:
        """Run to termination; the fault-tolerance arguments override the
        constructor's defaults for this run (see the class docstring)."""
        if checkpoint_every is None:
            checkpoint_every = self.checkpoint_every
        failures = failures if failures is not None else self.failures
        recovery = recovery if recovery is not None else self.recovery
        failures = self.validate_options(
            executor=self.executor,
            checkpoint_every=checkpoint_every,
            failures=failures,
            recovery=recovery,
            num_workers=self.num_workers,
        )
        if failures is not None:
            # pop() consumes events; work on a per-run copy so the same
            # schedule can drive several runs (e.g. rollback vs confined)
            failures = failures.copy()
        return self.backend.run(
            max_supersteps=max_supersteps,
            checkpoint_every=checkpoint_every,
            failures=failures,
            recovery=recovery,
        )

    def close(self) -> None:
        """Release backend resources now.

        Only meaningful for ``executor="process"`` with an engine-owned
        pool: the worker processes, pipes, and shared-memory segments are
        shut down immediately instead of waiting for the engine to be
        garbage collected (the engine↔backend reference cycle means
        cleanup otherwise happens at the next *cyclic* GC pass, not on
        the last ``del``) or for interpreter exit.  Idempotent; a closed
        engine can no longer ``run()``.  Externally provided pools are
        the caller's to shut down and are left alone.
        """
        if self._backend is not None:
            self._backend.shutdown()

    def rebuild_worker(self, w: int) -> None:
        """Replace worker ``w`` with a fresh instance (simulating a
        replacement node): new Worker, new program, channels rebuilt by
        the program's constructor.  The caller loads checkpointed state
        into it afterwards (:func:`repro.runtime.checkpoint.restore_worker`)."""
        local_ids = np.flatnonzero(self.owner == w)
        worker = Worker(self, w, local_ids)
        worker.program = self.program_factory(worker)
        if len(worker.channels) != self.num_channels:
            raise RuntimeError(
                "rebuilt worker constructed a different channel set"
            )  # pragma: no cover - factory determinism guard
        # the documented lifecycle promises initialize() before any
        # serialize/deserialize; the replacement's channels get it too
        # (restore_worker then overwrites whatever state it set up)
        for channel in worker.channels:
            channel.initialize()
        self.workers[w] = worker
