"""The worker-process main loop (child side of the process backend).

Each child owns one :class:`~repro.core.worker.Worker` — built against
the shared-memory graph and partition — plus the program instance its
factory constructs, exactly as the simulated engine builds them.  The
child is *persistent*: it serves barrier-protocol commands from the
parent for as long as its :class:`~repro.runtime.parallel.pool.WorkerPool`
lives, across many ``engine.run()`` calls and streaming epochs.

Run-loop command (one per superstep):

``superstep``
    The child runs the *whole* superstep autonomously: ``before_superstep``
    and ``begin_superstep``, the barrier vote through its slot of the
    pool's :class:`~repro.runtime.parallel.shm.VoteSegment`, compute,
    and every exchange round — frames flow worker-to-worker through
    shared-memory ring buffers
    (:class:`~repro.runtime.parallel.shm.RingBuffer`), and round
    continuation is merged from in-stream votes.  It then sends one
    consolidated reply carrying the per-round byte counts (the parent
    replays them into the same cost-model accounting the simulator
    uses), the raw outgoing frames when ``log_frames`` is set (feeding
    the parent's sender-side :class:`~repro.core.recovery.FrameLog` for
    confined recovery), and phase timings.  When the global vote is 0
    the child sends nothing — the parent read the same votes.  A
    superstep costs O(1) control-pipe messages per worker; see
    ARCHITECTURE.md §9.
``finalize``
    Ship ``program.finalize()`` — and, when state sync is requested, the
    full per-worker state in the checkpoint layer's capture format —
    back to the parent through the tagged-binary codec.

Lifecycle commands (how a pool outlives any single engine):

``configure``
    Tear the current worker down and rebuild it for a *new* engine
    configuration: attach the new shared-memory graph segments, apply
    the remapped ownership array and seed set, and construct the new
    program from the factory that rode along as pickle bytes (see
    :class:`~repro.core.program.ProgramSpec`).  This is the delta/remap
    message that replaces respawning — streaming epochs reuse the same
    OS processes for the whole run.
``start_run``
    ``channel.initialize()`` on every channel, mirroring what the
    simulated engine does at the top of each ``run()``.  The superstep
    counter deliberately keeps running across same-engine runs — the
    simulator's ``step_num`` does too — and is reset only by
    ``configure`` (new engine) or ``restore`` (recovery rewind).
``capture`` / ``restore``
    Checkpointing across the process boundary: ``capture`` replies with
    this worker's state as checkpoint-codec wire bytes
    (:func:`repro.runtime.checkpoint.capture_worker_state`); ``restore``
    loads such a blob (rollback recovery, or priming a respawned
    replacement after an injected death) and rewinds ``step_num``.
``remap``
    Adaptive rebalancing at a superstep barrier: the parent has already
    rewritten the shared ownership array in place; rebuild the Worker
    against it from the stored program factory and load the remapped
    state blob that rode along.  Unlike ``configure`` this keeps the
    graph attachments, ``step_num``, and the live telemetry writer —
    same engine, same run, new vertex placement.
``die``
    ``os._exit`` immediately — deterministic failure injection through
    the *real* worker-death path (the parent observes a dead process,
    not a polite error reply).
``stop``
    Exit the serve loop.

Channel/worker code runs **unmodified**: the child's
:class:`_WorkerHost` quacks like the engine (graph, owner, metrics,
``step_num``) and its :class:`_ChildCounters` absorbs the byte/message
accounting calls, which the child flushes to the parent with every
reply.
"""

from __future__ import annotations

import ctypes
import gc
import os
import pickle
import signal
import struct
import sys
import time
import traceback
from collections import deque

import numpy as np


from repro.core.worker import Worker
from repro.graph.graph import Graph
from repro.graph.store import attach_store
from repro.runtime.checkpoint import (
    capture_worker_state,
    decode_state,
    encode_state,
    load_worker_state,
)
from repro.runtime.parallel.protocol import recv_msg, send_msg
from repro.runtime.parallel.shm import RingBuffer, VoteSegment, attach_array

__all__ = ["worker_main"]

_U64 = struct.Struct("<Q")

#: pump-loop spin budget before backing off to sleeps
_SPIN = 200

#: prctl(2) option: signal delivered to this process when its parent dies
_PR_SET_PDEATHSIG = 1


class _ChildCounters:
    """Accumulates the metric calls workers/channels make mid-phase; the
    child flushes the deltas to the parent with every reply, where they
    merge into the real :class:`~repro.runtime.metrics.MetricsCollector`."""

    __slots__ = ("messages", "channel_traffic")

    def __init__(self) -> None:
        self.messages = 0
        self.channel_traffic: dict = {}

    # -- MetricsCollector counting surface (see Worker.emit/count_net_messages)
    def count_messages(self, n: int) -> None:
        self.messages += n

    def count_channel_bytes(self, label: str, nbytes: int, local: bool) -> None:
        entry = self.channel_traffic.setdefault(label, [0, 0, 0])
        entry[1 if local else 0] += nbytes

    def count_channel_messages(self, label: str, n: int) -> None:
        entry = self.channel_traffic.setdefault(label, [0, 0, 0])
        entry[2] += n

    def flush(self) -> dict:
        out = {"messages": self.messages, "channels": self.channel_traffic}
        self.messages = 0
        self.channel_traffic = {}
        return out


class _WorkerHost:
    """Just enough of :class:`~repro.core.engine.ChannelEngine` for a
    :class:`Worker` and its channels to run unchanged in a child."""

    def __init__(self, graph: Graph, owner: np.ndarray, num_workers: int) -> None:
        self.graph = graph
        self.owner = owner
        self.num_workers = num_workers
        self.metrics = _ChildCounters()
        self.step_num = 0


class _RingPeer:
    """Per-peer transport state: the outbound send queue and the inbound
    incremental record parser (see :class:`_RingTransport`)."""

    __slots__ = ("out_ring", "in_ring", "pending", "buf", "state", "need",
                 "parts", "votes", "sent", "logged")

    def __init__(self, out_ring: RingBuffer, in_ring: RingBuffer) -> None:
        self.out_ring = out_ring
        self.in_ring = in_ring
        self.pending: deque = deque()  # memoryviews not yet in the ring
        self.buf = bytearray()  # drained but not yet parsed inbound bytes
        self.state = "len"  # "len" | "chunk" | "votes" | "done"
        self.need = 0
        self.parts: list[bytes] = []  # this round's received chunk payloads
        self.votes: bytes | None = None  # this round's received votes record
        self.sent = 0  # bytes queued to this peer this round
        self.logged: list[bytes] = []  # this round's outbound chunks (frame log)


class _RingTransport:
    """The child side of the data plane: one outbound SPSC ring per peer
    (this worker produces) and one inbound ring per peer (this worker
    consumes), pumped from the main thread.  A single-worker pool has
    no peers and no rings; the same loop then only delivers to itself.

    Wire format, per exchange round and directed pair: a sequence of
    ``[u64 length > 0][payload]`` chunks (one per channel flush, so a
    channel's frames publish while later channels are still
    serializing), a ``u64 0`` end-of-round marker, then — after the
    consumer finished deserializing — one *votes record* of
    ``num_channels`` raw bytes (this worker's per-channel
    another-round votes).  Every worker merges the votes identically
    (OR across all workers, its own included), so all children agree on
    the next round's active channel groups without asking the parent.

    Barrier votes go through the pool's vote segment: each superstep,
    the worker publishes its active-vertex count into its own slot under
    the parent-issued sequence number, then reads every peer's slot —
    again, all processes independently compute the same global total
    (the parent reads the same slots for its copy).

    Everything here is single-threaded and non-blocking at the
    primitive level: :meth:`pump` moves whatever bytes fit right now,
    in both directions, across all peers.  Blocking composites
    (:meth:`finish_round`, :meth:`exchange_votes`) loop the pump, so a
    full outbound ring can never deadlock against an unread inbound
    ring.  Waits carry no liveness checks — a peer dying mid-frame
    leaves this worker spinning, and the *parent's* supervision (which
    polls every PID while gathering replies) surfaces the death and
    tears the pool down.
    """

    def __init__(self, worker_id: int, num_workers: int,
                 out_rings: dict[int, RingBuffer], in_rings: dict[int, RingBuffer],
                 votes: VoteSegment):
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.votes = votes
        self.peers = {
            peer: _RingPeer(out_rings[peer], in_rings[peer])
            for peer in range(num_workers)
            if peer != worker_id
        }
        self.nchan = 0
        self.log_frames = False
        self._self_parts: list[bytes] = []
        self._self_sent = 0

    # -- barrier votes ------------------------------------------------------
    def vote_and_total(self, seq: int, my_active: int) -> int:
        self.votes.write_slot(self.worker_id, seq, my_active)
        total = my_active
        for peer in self.peers:
            total += self.votes.read_slot(peer, seq)
        return total

    # -- the pump -----------------------------------------------------------
    def _parse(self, p: _RingPeer) -> None:
        buf = p.buf
        while True:
            if p.state == "len":
                if len(buf) < 8:
                    return
                (n,) = _U64.unpack_from(buf, 0)
                del buf[:8]
                if n == 0:
                    p.state, p.need = "votes", self.nchan
                else:
                    p.state, p.need = "chunk", n
            elif p.state == "chunk":
                if len(buf) < p.need:
                    return
                p.parts.append(bytes(buf[: p.need]))
                del buf[: p.need]
                p.state = "len"
            elif p.state == "votes":
                if len(buf) < p.need:
                    return
                p.votes = bytes(buf[: p.need])
                del buf[: p.need]
                p.state = "done"
            else:  # "done": anything further is next round's lookahead
                return

    def pump(self) -> bool:
        """One non-blocking pass over every peer: drain inbound rings into
        the parsers, push queued outbound bytes into rings with space.
        Returns whether any byte moved (the backoff signal)."""
        progress = False
        for p in self.peers.values():
            data = p.in_ring.read_some()
            if data:
                p.buf += data
                self._parse(p)
                progress = True
            while p.pending:
                mv = p.pending[0]
                n = p.out_ring.write_some(mv)
                if n == 0:
                    break
                progress = True
                if n == len(mv):
                    p.pending.popleft()
                else:
                    p.pending[0] = mv[n:]
        return progress

    def _pump_until(self, done) -> None:
        spins = 0
        while not done():
            if self.pump():
                spins = 0
                continue
            spins += 1
            if spins > _SPIN:
                time.sleep(min(0.002, 5e-5 * (spins - _SPIN)))

    # -- round lifecycle ------------------------------------------------------
    def begin_round(self, nchan: int, log_frames: bool) -> None:
        self.nchan = nchan
        self.log_frames = log_frames
        self._self_parts = []
        self._self_sent = 0
        for p in self.peers.values():
            p.parts = []
            p.votes = None
            p.sent = 0
            p.logged = []
            p.state = "len"
            # a fast peer may already have published this round's chunks
            # (they queue behind the previous round's votes record)
            self._parse(p)

    def publish(self, out_writers) -> None:
        """Queue whatever the channels appended to the per-peer writers
        since the last call, then pump once — this is the overlap hook,
        called after *each* channel's ``serialize`` so its frames hit the
        rings while later channels are still computing theirs."""
        for peer in range(self.num_workers):
            writer = out_writers[peer]
            if not writer.nbytes:
                continue
            data = writer.getvalue()
            writer.clear()
            if peer == self.worker_id:
                self._self_parts.append(data)
                self._self_sent += len(data)
                continue
            p = self.peers[peer]
            p.sent += len(data)
            if self.log_frames:
                p.logged.append(data)
            p.pending.append(memoryview(_U64.pack(len(data))))
            p.pending.append(memoryview(data))
        self.pump()

    def finish_round(self) -> list[bytes]:
        """Terminate this round's outbound streams and pump until every
        peer's inbound stream is complete; returns the round's inbox."""
        for p in self.peers.values():
            p.pending.append(memoryview(_U64.pack(0)))
        self._pump_until(
            lambda: all(
                not p.pending and p.state in ("votes", "done")
                for p in self.peers.values()
            )
        )
        inbox = [b""] * self.num_workers
        inbox[self.worker_id] = b"".join(self._self_parts)
        for peer, p in self.peers.items():
            inbox[peer] = p.parts[0] if len(p.parts) == 1 else b"".join(p.parts)
        return inbox

    def exchange_votes(self, next_active: list[bool]) -> list[bool]:
        """Swap this round's another-round votes with every peer and
        return the merged (global OR) channel-group activity."""
        record = bytes(bytearray(1 if f else 0 for f in next_active))
        for p in self.peers.values():
            p.pending.append(memoryview(record))
        self._pump_until(
            lambda: all(
                not p.pending and p.votes is not None
                for p in self.peers.values()
            )
        )
        merged = list(next_active)
        for p in self.peers.values():
            for cid in range(self.nchan):
                if p.votes[cid]:
                    merged[cid] = True
        return merged

    # -- per-round accounting for the consolidated reply ----------------------
    def round_sent(self) -> np.ndarray:
        sent = np.zeros(self.num_workers, dtype=np.int64)
        sent[self.worker_id] = self._self_sent
        for peer, p in self.peers.items():
            sent[peer] = p.sent
        return sent

    def round_frames(self) -> list[bytes]:
        frames = [b""] * self.num_workers
        for peer, p in self.peers.items():
            frames[peer] = b"".join(p.logged)
        return frames

    def close(self) -> None:
        for p in self.peers.values():
            p.out_ring.close()
            p.in_ring.close()
        self.votes.close()


class _WorkerProcess:
    """One child's whole runtime: shared-memory attachments, the Worker,
    and the command dispatch loop."""

    def __init__(self, worker_id: int, conn, plane: dict):
        self.worker_id = worker_id
        self.conn = conn
        self.segments: list = []
        self.worker: Worker | None = None
        self.host: _WorkerHost | None = None
        self.factory = None  # current program factory (for remap rebuilds)
        self.active = np.empty(0, dtype=np.int64)
        self.live = None
        self.live_writer = None
        unreg = plane["unregister"]
        self.transport = _RingTransport(
            worker_id,
            plane["num_workers"],
            {int(p): RingBuffer.attach(s, unreg) for p, s in plane["out"].items()},
            {int(p): RingBuffer.attach(s, unreg) for p, s in plane["in"].items()},
            VoteSegment.attach(plane["votes"], unreg),
        )

    # -- (re)configuration ---------------------------------------------------
    def build(self, cfg: dict, factory) -> int:
        """(Re)build the worker for an engine configuration: attach the
        shared graph/partition, construct the program, apply seeds.
        Returns the channel count for the parent's validation barrier."""
        old_segments = self.segments
        # drop every reference into the old shared segments (worker ->
        # graph -> shm views) before trying to unmap them
        self.worker = None
        self.host = None
        self.active = np.empty(0, dtype=np.int64)

        segments: list = []
        unreg = cfg["unregister_shm"]
        # the graph arrives as a store descriptor: shm segment specs to
        # map, or an mmap path to re-open (attach-by-path; the page cache
        # shares the physical pages, nothing crosses the pipe).  The store
        # joins `segments` — teardown duck-types close()
        store = attach_store(cfg["graph"], unregister=unreg)
        if store.num_vertices != cfg["num_vertices"]:
            raise ValueError(
                f"graph store has {store.num_vertices} vertices, "
                f"configuration says {cfg['num_vertices']}"
            )
        segments.append(store)
        arrs = store.arrays()
        owner, seg = attach_array(cfg["owner"], unreg)
        segments.append(seg)

        # validate=False: these views are the parent Graph's own arrays,
        # already validated at construction — don't rescan O(E) per worker
        graph = Graph.from_csr(
            cfg["num_vertices"],
            arrs["indptr"],
            arrs["indices"],
            arrs.get("weights"),
            directed=cfg["directed"],
            validate=False,
            store=store,
        )
        host = _WorkerHost(graph, owner, cfg["num_workers"])
        worker = Worker(host, self.worker_id, np.flatnonzero(owner == self.worker_id))
        worker.program = factory(worker)
        if cfg["seeds"] is not None:
            worker.seed_active(np.asarray(cfg["seeds"], dtype=np.int64))
        if cfg["init_channels"]:
            # respawned replacements mirror ChannelEngine.rebuild_worker:
            # initialize now, the parent's restore blob overwrites next
            for channel in worker.channels:
                channel.initialize()
        self.worker, self.host, self.segments = worker, host, segments
        self.factory = factory

        # live telemetry plane: (re)attach the engine's segment and start
        # this worker's slot from zero — a reconfigure means a new engine
        # (or streaming epoch), and its collector also starts from zero
        if self.live is not None:
            try:
                self.live.close()
            except Exception:  # pragma: no cover
                pass
            self.live = None
        self.live_writer = None
        if cfg.get("live") is not None:
            # deferred import: obs.live itself imports from this package
            from repro.obs.live import LiveMetrics

            self.live = LiveMetrics.attach(cfg["live"], unregister=unreg)
            self.live_writer = self.live.writer(self.worker_id)

        if old_segments:
            # the previous generation's mappings: every view should be
            # unreachable now; collect cycles, then unmap best-effort (a
            # surviving stray reference keeps the map until process exit
            # rather than crashing the reconfigure)
            gc.collect()
            for seg in old_segments:
                try:
                    seg.close()
                except BufferError:  # pragma: no cover - stray view
                    pass
                except Exception:  # pragma: no cover
                    pass
        return len(worker.channels)

    def close(self) -> None:
        if self.live is not None:
            try:
                self.live.close()
            except Exception:  # pragma: no cover
                pass
        try:
            self.transport.close()
        except Exception:  # pragma: no cover
            pass
        for seg in self.segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover
                pass

    # -- the serve loop ------------------------------------------------------
    def serve(self) -> None:
        worker_id = self.worker_id
        conn = self.conn

        while True:
            msg = recv_msg(conn)
            cmd = msg["cmd"]
            worker = self.worker
            host = self.host
            counters = host.metrics

            if cmd == "superstep":
                # the whole superstep runs autonomously — barrier votes
                # through the vote segment, frames through the rings,
                # channel-group continuation merged identically by every
                # worker — and the parent gets ONE consolidated reply (or
                # none at all when the global vote was 0)
                transport = self.transport
                worker.program.before_superstep()
                self.active = worker.begin_superstep()
                my_active = int(self.active.size)
                t_vote = time.perf_counter()
                total = transport.vote_and_total(msg["seq"], my_active)
                vote_s = time.perf_counter() - t_vote
                if total == 0:
                    continue  # the parent reads the same votes; run over

                log_frames = msg["log_frames"]
                host.step_num += 1
                t0 = time.perf_counter()
                worker.run_compute(self.active)
                compute_s = time.perf_counter() - t0

                nchan = len(worker.channels)
                for channel in worker.channels:
                    channel.reset_round()
                group_active = [True] * nchan
                rounds: list[dict] = []
                codec_s = 0.0  # serialize + deserialize (matches the sim's
                #                accounting: this is what record_compute sees)
                wire_s = 0.0  # ring pumping: pure transport

                while any(group_active):
                    transport.begin_round(nchan, log_frames)
                    for cid, channel in enumerate(worker.channels):
                        if group_active[cid]:
                            t0 = time.perf_counter()
                            channel.serialize()
                            t1 = time.perf_counter()
                            codec_s += t1 - t0
                            # overlap: this channel's frames start crossing
                            # while the next channel is still serializing
                            transport.publish(worker.buffers.out)
                            wire_s += time.perf_counter() - t1
                    t0 = time.perf_counter()
                    worker.buffers.inbox = transport.finish_round()
                    t1 = time.perf_counter()
                    wire_s += t1 - t0

                    routed = worker.route_inbox()
                    next_active = [False] * nchan
                    for cid, channel in enumerate(worker.channels):
                        if group_active[cid]:
                            channel.deserialize(routed.get(cid, []))
                            if channel.again():
                                next_active[cid] = True
                        elif cid in routed:  # pragma: no cover - defensive
                            raise RuntimeError(
                                f"data arrived for inactive channel {cid}"
                            )
                    t0 = time.perf_counter()
                    codec_s += t0 - t1

                    group_active = transport.exchange_votes(next_active)
                    wire_s += time.perf_counter() - t0

                    record = {
                        "sent": transport.round_sent(),
                        "next_active": next_active,
                    }
                    if log_frames:
                        record["frames"] = transport.round_frames()
                    rounds.append(record)

                if self.live_writer is not None:
                    step_net = step_local = 0
                    for record in rounds:
                        sent = record["sent"]
                        step_net += int(sent.sum() - sent[worker_id])
                        step_local += int(sent[worker_id])
                    self.live_writer.add(
                        superstep=1,
                        active=my_active,
                        rounds=len(rounds),
                        net_bytes=step_net,
                        local_bytes=step_local,
                        messages=counters.messages,
                        barrier=vote_s,
                        compute=compute_s,
                        serialize=codec_s,
                        exchange=wire_s,
                    )
                    self.live_writer.publish()
                send_msg(
                    conn,
                    {
                        "active": my_active,
                        "rounds": rounds,
                        "seconds": compute_s + codec_s,
                        "phases": {
                            "compute": compute_s,
                            "serialize": codec_s,
                            "exchange": wire_s,
                        },
                        "counters": counters.flush(),
                    },
                )

            elif cmd == "start_run":
                for channel in worker.channels:
                    channel.initialize()
                send_msg(conn, {"ok": True})

            elif cmd == "capture":
                blob = encode_state(capture_worker_state(worker))
                if self.live_writer is not None:
                    # checkpoint boundary: rollback recovery rewinds the
                    # live counters to exactly this point
                    self.live_writer.mark()
                send_msg(conn, {"blob": blob})

            elif cmd == "restore":
                load_worker_state(worker, decode_state(msg["blob"]))
                host.step_num = msg["step_num"]
                if self.live_writer is not None:
                    self.live_writer.rewind()
                send_msg(conn, {"ok": True})

            elif cmd == "remap":
                # adaptive rebalancing: the parent rewrote the shared
                # ownership array in place before sending this; rebuild
                # the Worker against it (same graph attachments, same
                # program factory) and load this worker's remapped state.
                # step_num and the live writer deliberately survive —
                # same engine, same run, new vertex placement
                new_worker = Worker(
                    host, worker_id, np.flatnonzero(host.owner == worker_id)
                )
                new_worker.program = self.factory(new_worker)
                for channel in new_worker.channels:
                    channel.initialize()
                load_worker_state(new_worker, decode_state(msg["blob"]))
                self.worker = new_worker
                self.active = np.empty(0, dtype=np.int64)
                send_msg(conn, {"ok": True})

            elif cmd == "configure":
                factory = pickle.loads(msg["factory"])
                num_channels = self.build(msg["cfg"], factory)
                send_msg(conn, {"ready": True, "num_channels": num_channels})

            elif cmd == "finalize":
                reply = {"data": worker.program.finalize()}
                if msg["sync"]:
                    # same capture format as runtime.checkpoint snapshots
                    reply["state"] = capture_worker_state(worker)
                send_msg(conn, reply)

            elif cmd == "die":
                # failure injection: die the way a crashed worker dies —
                # no reply, no cleanup, just a dead process for the
                # parent's supervision to notice
                os._exit(msg["code"])

            elif cmd == "stop":
                return

            else:  # pragma: no cover - protocol bug guard
                raise RuntimeError(f"unknown command {cmd!r}")


def _die_with_parent(parent_pid: int | None) -> None:
    """Have the kernel SIGKILL this worker the moment its parent dies
    (Linux ``PR_SET_PDEATHSIG``), so a parent killed without running its
    cleanup never leaves workers behind — and, once they are gone, the
    stdlib resource tracker unlinks the pool's shared-memory segments.
    The ``getppid`` check closes the race where the parent died before
    the request.  (The signal follows the *thread* that started this
    process, so a pool must be spawned from a thread that outlives it.)
    """
    if sys.platform.startswith("linux"):
        try:
            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        except (OSError, AttributeError):  # pragma: no cover - no libc prctl
            pass
    if parent_pid is not None and os.getppid() != parent_pid:
        os._exit(1)


def worker_main(worker_id: int, cfg: dict, conn, plane: dict) -> None:
    """Child-process entry point; never raises (errors go to the parent).

    ``cfg`` is the spawn-time configuration (shared-array specs plus the
    first run's ``program_factory``, which rides through the process
    start machinery — under ``fork`` it never crosses a pipe, so
    closures and locally defined classes work).  Later configurations
    arrive as ``configure`` commands instead.  ``plane`` carries the
    per-peer ring-buffer specs, the vote-segment spec, and the spawning
    parent's PID — pool-lifetime, so a respawned replacement re-attaches
    the same segments.
    """
    _die_with_parent(plane["parent_pid"])
    proc = _WorkerProcess(worker_id, conn, plane)
    try:
        num_channels = proc.build(cfg, cfg["program_factory"])
        send_msg(conn, {"ready": True, "num_channels": num_channels})
        proc.serve()
    except BaseException:
        try:
            send_msg(conn, {"error": traceback.format_exc()})
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        proc.close()
