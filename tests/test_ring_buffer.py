"""Data-plane unit coverage: the SPSC shared-memory ring that carries the
process backend's frames, and the vote segment that carries its barrier
votes.

Everything here runs the ring through its visible contract — cursors,
wraparound, exactly-full, oversized frames streamed in pieces — using
the two non-blocking primitives the worker's frame pump is built on,
``write_some`` and ``read_some``.  Two conditions only show up under
real concurrency: sustained producer/consumer stress with random frame
sizes across process boundaries, and a writer dying mid-frame (the
reader must see exactly the bytes that were written, never a fabricated
frame, and never block).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import struct
import threading
import time

import numpy as np
import pytest

from repro.runtime.parallel.shm import (
    DEFAULT_RING_CAPACITY,
    RingBuffer,
    VoteSegment,
)

_U64 = struct.Struct("<Q")


def _ctx():
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def _write_all(ring, data, deadline=60.0):
    """Push all of ``data`` through ``write_some``, yielding while full."""
    data = memoryview(data)
    stop = time.monotonic() + deadline
    while data:
        n = ring.write_some(data)
        data = data[n:]
        if not n:
            assert time.monotonic() < stop, "ring stayed full"
            time.sleep(0)


class _Reader:
    """Consumer side of a length-prefixed record stream over ``read_some``."""

    def __init__(self, ring):
        self.ring = ring
        self.buf = bytearray()

    def _fill(self, n, deadline):
        stop = time.monotonic() + deadline
        while len(self.buf) < n:
            chunk = self.ring.read_some()
            if chunk:
                self.buf += chunk
            else:
                assert time.monotonic() < stop, "writer stalled"
                time.sleep(0)

    def record(self, deadline=60.0):
        self._fill(8, deadline)
        (n,) = _U64.unpack_from(self.buf, 0)
        self._fill(8 + n, deadline)
        out = bytes(self.buf[8 : 8 + n])
        del self.buf[: 8 + n]
        return out


@pytest.fixture
def ring():
    r = RingBuffer.create(64)
    yield r
    r.close(unlink=True)


@pytest.fixture
def votes():
    v = VoteSegment.create(3)
    yield v
    v.close(unlink=True)


class TestBasics:
    def test_create_attach_roundtrip(self, ring):
        assert ring.write_some(b"hello") == 5
        other = RingBuffer.attach(ring.spec)
        assert other.read_some() == b"hello"
        assert ring.pending == 0  # the attached consumer moved the cursor
        other.close()

    def test_empty_reads_and_pending(self, ring):
        assert ring.read_some() == b""
        assert ring.pending == 0
        ring.write_some(b"abc")
        assert ring.pending == 3

    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="capacity"):
            RingBuffer.create(8)

    def test_default_capacity_sane(self):
        assert DEFAULT_RING_CAPACITY >= 1 << 16


class TestWraparound:
    def test_messages_straddling_the_boundary(self, ring):
        # 40-byte messages through a 64-byte ring: every other message
        # wraps, and each must come back intact
        for i in range(50):
            msg = bytes([i % 251]) * 40
            assert ring.write_some(msg) == 40
            assert ring.read_some() == msg

    def test_split_write_split_read(self, ring):
        ring.write_some(b"x" * 50)
        assert ring.read_some(50) == b"x" * 50
        # cursors now at 50; a 30-byte write wraps 16/14
        assert ring.write_some(b"ab" * 15) == 30
        assert ring.read_some() == b"ab" * 15

    def test_cursors_are_monotonic_not_modular(self, ring):
        # push enough traffic that the u64 cursors pass several multiples
        # of the capacity; offsets stay correct throughout
        payload = os.urandom(48)
        for _ in range(20):
            ring.write_some(payload)
            assert ring.read_some() == payload


class TestExactlyFull:
    def test_fill_to_capacity_then_refuse(self, ring):
        assert ring.write_some(b"a" * 64) == 64
        assert ring.write_some(b"b") == 0  # full is full, no wasted byte
        assert ring.pending == 64
        assert ring.read_some() == b"a" * 64
        assert ring.write_some(b"c" * 64) == 64  # usable again end-to-end

    def test_partial_write_when_almost_full(self, ring):
        ring.write_some(b"a" * 60)
        assert ring.write_some(b"b" * 10) == 4  # takes what fits
        got = ring.read_some()
        assert got == b"a" * 60 + b"b" * 4


class TestOversizedFrames:
    def test_frame_larger_than_ring_streams_through(self, ring):
        big = os.urandom(DEFAULT_RING_CAPACITY // 64)  # 256x the 64B ring
        out = []
        reader = threading.Thread(target=lambda: out.append(_Reader(ring).record()))
        reader.start()
        _write_all(ring, _U64.pack(len(big)) + big)  # chunks through the ring
        reader.join()
        assert out[0] == big


class TestVoteSlot:
    def test_write_read_peek(self, votes):
        votes.write_slot(1, 1, 42)
        assert votes.peek_slot(1) == (1, 42)
        assert votes.read_slot(1, 1) == 42

    def test_read_slot_waits_for_seq(self, votes):
        votes.write_slot(0, 1, 7)

        class Timeout(RuntimeError):
            pass

        stop = time.monotonic() + 0.05

        def check():
            if time.monotonic() > stop:
                raise Timeout

        # seq 2 not published yet: must not return the stale value
        with pytest.raises(Timeout):
            votes.read_slot(0, 2, check=check)
        votes.write_slot(0, 2, 9)
        assert votes.read_slot(0, 2) == 9

    def test_slots_independent_per_worker(self, votes):
        # every worker writes only its own slot; readers see each one
        # under its own sequence, and an attached view sees the same
        for w in range(3):
            votes.write_slot(w, 5 + w, 10 * w)
        other = VoteSegment.attach(votes.spec)
        try:
            assert [other.peek_slot(w) for w in range(3)] == [
                (5, 0), (6, 10), (7, 20),
            ]
            assert other.read_slot(2, 7) == 20
        finally:
            other.close()

    def test_check_callback_can_abort(self, votes):
        class Dead(RuntimeError):
            pass

        def check():
            raise Dead("peer died")

        with pytest.raises(Dead):
            votes.read_slot(0, 1, check=check)


def _producer_main(spec, seed, count):
    rng = np.random.default_rng(seed)
    ring = RingBuffer.attach(spec)
    try:
        for _ in range(count):
            size = int(rng.integers(0, 3000))  # 0..~6x capacity (512)
            payload = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
            _write_all(ring, _U64.pack(size) + payload)
    finally:
        ring.close()


def _dying_writer_main(spec):
    ring = RingBuffer.attach(spec)
    # start a frame the reader will wait on forever: claim 1000 bytes,
    # deliver only a fragment, then die the hard way
    ring.write_some(_U64.pack(1000) + b"partial")
    os._exit(7)


class TestConcurrency:
    def test_producer_consumer_stress_random_sizes(self):
        # a real second process hammers the ring with frames from empty
        # to several times the capacity; every byte must arrive in order
        ring = RingBuffer.create(512)
        seed, count = 1234, 200
        proc = _ctx().Process(
            target=_producer_main, args=(ring.spec, seed, count), daemon=True
        )
        proc.start()
        try:
            rng = np.random.default_rng(seed)
            reader = _Reader(ring)
            for _ in range(count):
                size = int(rng.integers(0, 3000))
                expect = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
                assert reader.record() == expect
            proc.join(timeout=30)
            assert proc.exitcode == 0
        finally:
            if proc.is_alive():  # pragma: no cover - failure path
                proc.terminate()
            ring.close(unlink=True)

    def test_reader_survives_writer_death_mid_frame(self):
        # the writer claims a 1000-byte frame, ships 7 bytes, and dies;
        # the reader gets exactly the bytes that were written — no
        # fabricated frame — and further reads return empty, not block
        ring = RingBuffer.create(64)
        proc = _ctx().Process(
            target=_dying_writer_main, args=(ring.spec,), daemon=True
        )
        proc.start()
        try:
            proc.join(timeout=10)
            assert proc.exitcode == 7
            assert ring.read_some() == _U64.pack(1000) + b"partial"
            assert ring.read_some() == b""
            assert ring.pending == 0
        finally:
            ring.close(unlink=True)
