"""Unit and lifecycle tests for the shared-memory transport backend.

The cross-backend *semantics* of shm live in the conformance suite
(`test_simmpi.py`); this file covers what is unique to the backend: the
SPSC ring protocol itself (copy-out delivery, wrap, refusal, the
producer-forked-first startup race, continuation records), the
persistent rank pool (reuse, poisoning on death, isolation of an aborted
job, shutdown hygiene), the ring as the one data channel and the control
channel's send discipline.
"""

import json
import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.runtime import shm
from repro.runtime.shm import (
    _CTRL_ABORT,
    _CTRL_RESULT,
    Ring,
    ShmTransport,
    pool_stats,
    shutdown_pools,
)
from repro.runtime.simmpi import SimMPIAborted, spmd_run
from repro.runtime.transport import FrameAssembler, pack_frame

_RING_HDR = 64


def _region(cap=4096):
    return memoryview(bytearray(_RING_HDR + cap))


def _collect(ring):
    got = []
    ring.poll(lambda tag, job, more, payload: got.append(
        (tag, job, more, payload)
    ))
    return got


def _counters(region):
    """The shared ``(head, tail)`` byte counters of a ring region."""
    return struct.unpack_from("<QQ", region, 0)


# ---------------------------------------------------------------------- #
# the ring protocol
# ---------------------------------------------------------------------- #


class TestRing:
    def test_small_record_roundtrip_is_bytes(self):
        region = _region()
        prod, cons = Ring(region), Ring(region)
        assert prod.try_write(7, 1, 0, (b"hello",), 5)
        [(tag, job, more, payload)] = _collect(cons)
        assert (tag, job, more) == (7, 1, 0)
        assert isinstance(payload, bytes) and payload == b"hello"

    def test_large_record_arrives_as_bytes_and_frees_its_slot(self):
        region = _region()
        prod, cons = Ring(region), Ring(region)
        blob = bytes(range(256)) * 8
        assert prod.try_write(1, 1, 0, (blob,), len(blob))
        [(_, _, _, payload)] = _collect(cons)
        assert isinstance(payload, bytes) and payload == blob
        # the record was copied out: its slot is free once poll returns
        head, tail = _counters(region)
        assert tail == head > 0

    def test_full_ring_refuses_until_polled(self):
        cap = 4096
        region = _region(cap)
        prod, cons = Ring(region), Ring(region)
        big = b"x" * prod.max_frame
        assert prod.try_write(1, 1, 0, (big,), len(big))
        assert prod.try_write(1, 1, 0, (big,), len(big))
        # two unpolled records fill the ring: a third write is refused
        assert not prod.try_write(1, 1, 0, (big,), len(big))
        assert [p for _, _, _, p in _collect(cons)] == [big, big]
        # one poll freed every slot it read
        assert prod.try_write(1, 1, 0, (big,), len(big))

    def test_records_wrap_via_sentinel(self):
        """Many differently-sized records cross the wrap boundary intact
        and in order (the producer never splits a record)."""
        cap = 4096
        region = _region(cap)
        prod, cons = Ring(region), Ring(region)
        rng = np.random.default_rng(0)
        delivered = []

        def take():
            for _, _, _, payload in _collect(cons):
                assert payload == payload[:1] * len(payload)
                delivered.append(payload[0])

        sent = 0
        for seq in range(200):
            n = int(rng.integers(1, 900))
            blob = bytes([seq % 256]) * n
            while not prod.try_write(3, 1, 0, (blob,), n):
                take()  # consumer keeps up, slots recycle
            sent += 1
        while len(delivered) < sent:
            before = len(delivered)
            take()
            assert len(delivered) > before, (
                "producer published records the consumer never saw"
            )
        assert delivered == [seq % 256 for seq in range(sent)]

    def test_refuses_oversized_frame(self):
        region = _region(4096)
        prod = Ring(region)
        assert not prod.try_write(1, 1, 0, (b"x" * 4096,), 4096)
        assert prod.max_frame < 4096 // 2

    def test_consumer_constructed_after_producer_wrote(self):
        """The startup race of a 1-core host: the producer rank is forked
        and publishes records *before* the consumer rank has constructed
        its Ring over the shared region.  The late consumer must still
        deliver everything — its cursor starts at the shared tail, never
        at the already-advanced head."""
        region = _region()
        prod = Ring(region)
        for seq in range(3):
            assert prod.try_write(5, 1, 0, (b"late-%d" % seq,), 6)
        cons = Ring(region)  # constructed after the writes
        got = _collect(cons)
        assert [t for t, _, _, _ in got] == [5, 5, 5]
        assert [p for _, _, _, p in got] == [b"late-0", b"late-1", b"late-2"]

    def test_counters_are_monotonic_across_reuse(self):
        """head/tail never reset: slots recycle by modulo position while
        the shared counters only grow (no cross-job reset coordination)."""
        region = _region(4096)
        prod, cons = Ring(region), Ring(region)
        for _ in range(50):
            assert prod.try_write(1, 1, 0, (b"y" * 100,), 100)
            _collect(cons)
        head, tail = _counters(region)
        assert head == tail  # fully drained
        assert head > 4096  # wrapped at least once, counters kept growing

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_sizes_and_polls_arrive_in_order_byte_exact(self, data):
        """Record sizes drawn from [0, max_frame], written and polled in a
        random interleaving through a 4 KiB ring: every record arrives
        once, in order, byte-exact, and a poll leaves tail == head."""
        region = _region(4096)
        prod, cons = Ring(region), Ring(region)
        sizes = data.draw(st.lists(
            st.integers(min_value=0, max_value=prod.max_frame),
            min_size=1, max_size=40,
        ))
        blobs = [bytes([seq % 251]) * n for seq, n in enumerate(sizes)]
        got = []

        def poll():
            got.extend(_collect(cons))
            head, tail = _counters(region)
            assert tail == head

        for blob in blobs:
            if not prod.try_write(2, 1, 0, (blob,), len(blob)):
                poll()  # a polled ring is empty and takes any max_frame
                assert prod.try_write(2, 1, 0, (blob,), len(blob))
            if data.draw(st.booleans()):
                poll()
        poll()
        assert [p for _, _, _, p in got] == blobs

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_frames_up_to_three_rings_arrive_once_in_order_byte_exact(
        self, data
    ):
        """Frame sizes drawn from [0, 3 x cap] cross a 4 KiB ring the way
        ``push_parts`` sends them — cut into continuation records, each
        part sliced, never joined — with polls of the receiving transport
        interleaved at random: every frame arrives once, in order,
        byte-exact, and every poll leaves tail == head."""
        region = _region(4096)
        prod = Ring(region)
        ctrl, parent = socket.socketpair()
        rx = ShmTransport(1, ctrl, {0: Ring(region)}, {})
        rx.begin_job(1)
        sizes = data.draw(st.lists(
            st.integers(min_value=0, max_value=3 * prod.cap),
            min_size=1, max_size=12,
        ))
        blobs = [
            ((np.arange(n) + seq) % 251).astype(np.uint8).tobytes()
            for seq, n in enumerate(sizes)
        ]

        def poll():
            rx._drain(0)
            head, tail = _counters(region)
            assert tail == head

        try:
            for seq, blob in enumerate(blobs):
                cut = data.draw(st.integers(0, len(blob)))
                parts = [blob[:cut], memoryview(blob)[cut:]]
                for rec, n, more in shm._records(
                    parts, len(blob), prod.max_frame
                ):
                    while not prod.try_write(seq, 1, more, rec, n):
                        poll()
                    if data.draw(st.booleans()):
                        poll()
            poll()
            assert list(rx._inbox[0]) == list(enumerate(blobs))
        finally:
            rx.close()
            parent.close()


# ---------------------------------------------------------------------- #
# pooled execution
# ---------------------------------------------------------------------- #


def _pool_prog(comm):
    comm.set_phase("pool")
    got = comm.allgather(np.arange(200, dtype=np.int64) + comm.rank, tag=3)
    return int(sum(int(a.sum()) for a in got))


def _big_result_prog(comm):
    """A 1 MiB result per rank: about five times the control socket's
    buffer, so shipping it waits on the socket more than once."""
    rng = np.random.default_rng(comm.rank)
    return rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()


def _big_frame_prog(comm):
    comm.set_phase("big")
    if comm.rank == 0:
        comm.send(np.arange(1 << 20, dtype=np.int64), 1, tag=9)  # 8 MiB
        return 0
    arr = comm.recv(0, tag=9, timeout=60.0)
    assert arr[-1] == (1 << 20) - 1
    return int(arr[0])


def _midsize_prog(comm):
    comm.set_phase("mid")
    got = comm.allgather(np.arange(400, dtype=np.int64) + comm.rank, tag=5)
    return int(sum(int(a.sum()) for a in got))


def _die_prog(comm):
    if comm.rank == 1:
        os._exit(13)
    comm.recv(1, timeout=30.0)


class TestShmPool:
    def test_pool_persists_across_runs(self):
        shutdown_pools()
        r1 = spmd_run(2, _pool_prog, transport="shm")
        assert pool_stats()[2][0] == 1
        setup = pool_stats()[2][1]
        r2 = spmd_run(2, _pool_prog, transport="shm")
        # same pool, one more job, no second fork
        assert pool_stats()[2] == (2, setup)
        assert r1 == r2

    def test_closure_falls_back_to_oneshot(self):
        shutdown_pools()
        salt = 17

        def prog(comm):  # closure: not picklable by reference
            return comm.rank + salt

        assert spmd_run(2, prog, transport="shm") == [17, 18]
        assert pool_stats() == {}  # the one-shot run never built a pool

    def test_worker_death_poisons_pool_then_rebuilds(self):
        from repro.runtime.simmpi import SimRankDied

        shutdown_pools()
        spmd_run(2, _pool_prog, transport="shm")
        with pytest.raises(SimRankDied, match="rank 1 process died"):
            spmd_run(2, _die_prog, transport="shm")
        # next run works on a fresh pool (job counter restarted)
        assert spmd_run(2, _pool_prog, transport="shm") == [
            2 * int(np.arange(200).sum()) + 200,
        ] * 2
        assert pool_stats()[2][0] == 1

    def test_shutdown_leaves_no_children(self):
        spmd_run(2, _pool_prog, transport="shm")
        shutdown_pools()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            left = [
                p for p in multiprocessing.active_children()
                if p.name.startswith("simmpi-shm-")
            ]
            if not left:
                break
            time.sleep(0.05)
        assert not left, [p.name for p in left]
        assert pool_stats() == {}

    def test_pool_runs_in_a_process_holding_many_files(self):
        """select(2) takes fds below 1024 only.  A child interpreter opens
        1100 more files (raising its own soft limit, up to the hard one, if
        it must), so its workers' control sockets are numbered past that:
        both of its pooled jobs must still succeed."""
        script = (
            "import json, os, resource\n"
            "from repro.runtime.shm import pool_stats\n"
            "from repro.runtime.simmpi import spmd_run\n"
            "from tests.test_shm import _pool_prog\n"
            "soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "want = 1100 + 256\n"
            "if hard != resource.RLIM_INFINITY and hard < want:\n"
            "    raise SystemExit('SKIP: hard RLIMIT_NOFILE %d' % hard)\n"
            "if soft != resource.RLIM_INFINITY and soft < want:\n"
            "    resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))\n"
            "held = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]\n"
            "runs = [spmd_run(2, _pool_prog, transport='shm') for _ in range(2)]\n"
            "print(json.dumps([runs, pool_stats()[2][0], max(held) >= 1024]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.pathsep.join([src, os.path.dirname(src)])  # repro, and tests
        run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
        if run.stderr.startswith("SKIP"):
            pytest.skip(run.stderr.strip())
        assert run.returncode == 0, run.stderr[-2000:]
        want = 2 * int(np.arange(200).sum()) + 200
        assert json.loads(run.stdout) == [[[want, want]] * 2, 2, True]

    def test_exception_in_job_keeps_pool_alive(self):
        shutdown_pools()
        spmd_run(2, _pool_prog, transport="shm")
        with pytest.raises(RuntimeError, match="rank 1 failed"):
            spmd_run(2, _raise_prog, transport="shm")
        # the failed job ran on the pool and did not poison it
        assert pool_stats()[2][0] == 2
        spmd_run(2, _pool_prog, transport="shm")
        assert pool_stats()[2][0] == 3


    def test_aborted_barrier_leaks_no_token_into_the_next_job(self):
        """Rank 0's barrier token of an aborted pooled job must not release
        the next job's barrier early: the ``job`` stamp drops it."""
        shutdown_pools()
        with pytest.raises(RuntimeError, match="rank 1 failed"):
            spmd_run(2, _raise_after_peer_barrier_prog, transport="shm")
        waited = spmd_run(2, _late_barrier_prog, transport="shm")[0]
        assert waited >= 0.15
        assert pool_stats()[2][0] == 2  # both jobs ran on one pool

    def test_aborted_frame_fragment_leaks_nothing_into_the_next_job(
        self, monkeypatch
    ):
        """Rank 0 is aborted between two continuation records of a frame
        into rank 1's 4 KiB ring: the next job on the same pool must see
        none of that fragment — its own multi-record frames arrive whole
        and exact."""
        monkeypatch.setattr(shm, "RING_BYTES", 4096)
        shutdown_pools()
        try:
            with pytest.raises(RuntimeError, match="rank 1 failed"):
                spmd_run(2, _fail_during_big_frame_prog, transport="shm")
            assert spmd_run(2, _midsize_pair_prog, transport="shm") == [
                None, int(np.arange(700).sum()),
            ]
            assert pool_stats()[2][0] == 2  # both jobs ran on one pool
        finally:
            shutdown_pools()  # do not leave a 4 KiB-ring pool behind

    def test_death_while_peer_blocks_on_its_full_ring(self, monkeypatch):
        """Rank 1 dies while rank 0 is blocked writing an 8 MiB frame into
        rank 1's 4 KiB ring: the parent sees the death, rank 0's blocked
        send is aborted, and the caller gets SimRankDied — never a hang.
        The next run gets a fresh pool."""
        from repro.runtime.simmpi import SimRankDied

        monkeypatch.setattr(shm, "RING_BYTES", 4096)
        shutdown_pools()
        try:
            t0 = time.monotonic()
            with pytest.raises(SimRankDied, match="rank 1 process died"):
                spmd_run(2, _die_during_big_frame_prog, transport="shm")
            assert time.monotonic() - t0 < 20.0
            assert spmd_run(2, _pool_prog, transport="shm") == [
                2 * int(np.arange(200).sum()) + 200,
            ] * 2
            assert pool_stats()[2][0] == 1
        finally:
            shutdown_pools()


def _raise_prog(comm):
    if comm.rank == 1:
        raise RuntimeError("job-level boom")
    comm.barrier()


def _raise_after_peer_barrier_prog(comm):
    if comm.rank == 1:
        time.sleep(0.1)  # rank 0 is in its barrier: its token is out
        raise RuntimeError("boom before the barrier")
    comm.barrier()


def _late_barrier_prog(comm):
    """Rank 0's barrier wait, with rank 1 arriving 0.2 s late."""
    if comm.rank == 1:
        time.sleep(0.2)
    t0 = time.monotonic()
    comm.barrier()
    return time.monotonic() - t0


def _fail_during_big_frame_prog(comm):
    if comm.rank == 1:
        time.sleep(0.2)  # rank 0 is blocked on the full ring, mid-frame
        raise RuntimeError("boom while a frame is half across")
    comm.send(np.arange(1 << 20, dtype=np.int64), 1, tag=9)


def _die_during_big_frame_prog(comm):
    if comm.rank == 1:
        time.sleep(0.2)  # rank 0 is blocked on the full ring, mid-frame
        os._exit(13)
    comm.send(np.arange(1 << 20, dtype=np.int64), 1, tag=9)


def _socket_count():
    fds = os.listdir("/proc/self/fd")
    links = []
    for fd in fds:
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:
            pass  # the listing's own descriptor, closed by now
    return sum(link.startswith("socket:") for link in links)


def _socket_count_prog(comm):
    return _socket_count()


def _midsize_pair_prog(comm):
    """One ~5.6 KiB frame (three records of a 4 KiB ring), rank 0 to 1."""
    if comm.rank == 0:
        comm.send(np.arange(700, dtype=np.int64), 1, tag=9)
        return None
    return int(comm.recv(0, tag=9, timeout=30.0).sum())


# ---------------------------------------------------------------------- #
# the ring: the one data channel
# ---------------------------------------------------------------------- #


class TestOneDataChannel:
    def test_ring_carries_small_frames(self):
        shutdown_pools()
        _, stats = spmd_run(
            2, _pool_prog, transport="shm", return_stats=True
        )
        wire = stats.wire_report()
        assert wire.get("ring_frames", 0) > 0
        assert not [k for k in wire if k.startswith("spill_")]

    def test_oversized_frame_crosses_as_continuation_records(self):
        """An 8 MiB frame exceeds half the 4 MiB ring: it crosses as
        continuation records and arrives bit-exact; every byte is copied
        out of the ring exactly once."""
        assert (1 << 23) > shm.RING_BYTES // 2
        shutdown_pools()
        res, stats = spmd_run(
            2, _big_frame_prog, transport="shm", return_stats=True
        )
        assert res == [0, 0]
        wire = stats.wire_report()
        assert wire["ring_frames"] == 1
        assert wire["ring_bytes"] >= 1 << 23
        assert wire["copied_bytes"] == wire["ring_bytes"]
        assert not [k for k in wire if k.startswith("spill_")]

    def test_tiny_ring_carries_midsize_frames(self, monkeypatch):
        """A 4 KiB ring has a ~2 KiB max_frame: the ~3.3 KiB exchange
        payloads cross it as continuation records, with both ranks
        sending at once into each other's full rings."""
        monkeypatch.setattr(shm, "RING_BYTES", 4096)
        shutdown_pools()
        try:
            res, stats = spmd_run(
                2, _midsize_prog, transport="shm", return_stats=True
            )
            assert res[0] == res[1]
            wire = stats.wire_report()
            assert wire["ring_frames"] > 0
            assert wire["copied_bytes"] == wire["ring_bytes"]
        finally:
            shutdown_pools()  # do not leave a 4 KiB-ring pool behind

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_each_worker_holds_one_socket(self):
        """No socket joins two rank processes: a worker holds the sockets
        it inherited from the caller plus exactly one, its control
        channel."""
        shutdown_pools()
        inherited = _socket_count()
        assert spmd_run(3, _socket_count_prog, transport="shm") == [
            inherited + 1
        ] * 3

    def test_wire_counters_name_the_backend_channel(self):
        progs = {"thread": "queue", "shm": "ring"}
        for backend, channel in progs.items():
            _, stats = spmd_run(
                2, _pool_prog, transport=backend, return_stats=True
            )
            wire = stats.wire_report()
            assert wire.get(f"{channel}_frames", 0) > 0, (backend, wire)


# ---------------------------------------------------------------------- #
# the control channel
# ---------------------------------------------------------------------- #


class TestSendDiscipline:
    def test_started_frame_is_finished_across_an_abort(self):
        """The abort lands while a result frame is half-written into the
        full control socket: the send loop must still complete it, because
        the control stream outlives the job and the next job's frames
        follow on the same stream."""
        ctrl, parent = socket.socketpair()
        parent.settimeout(20.0)
        transport = ShmTransport(0, ctrl, {}, {})
        body = bytes(range(256)) * (1 << 14)  # 4 MiB: no buffer holds it
        got = []

        def reader():
            while not transport._aborted:  # i.e. the frame is half-sent
                time.sleep(0.001)
            asm = FrameAssembler()
            while len(got) < 2:
                got.extend(asm.feed(parent.recv(1 << 16)))

        thread = threading.Thread(target=reader, daemon=True)
        try:
            # read by the drain of the first blocked send
            parent.sendall(pack_frame(_CTRL_ABORT, struct.pack("<Q", 0)))
            thread.start()
            transport.send_result(body)
            with pytest.raises(SimMPIAborted):
                transport.pull(0, 0.0)
            transport.send_result(b"next job")
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        finally:
            transport.close()
            parent.close()
        assert got == [(_CTRL_RESULT, body), (_CTRL_RESULT, b"next job")]


    def test_one_mib_result_arrives_intact(self):
        """Each rank's result is larger than the control socket holds: the
        worker waits for the socket to drain and finishes the frame."""
        got = spmd_run(2, _big_result_prog, transport="shm")
        for rank, blob in enumerate(got):
            want = np.random.default_rng(rank).integers(0, 256, 1 << 20, dtype=np.uint8)
            assert blob == want.tobytes()


class TestControlFrames:
    def test_abort_that_overtakes_its_job_is_applied(self):
        """A fast peer fails job 2 while this rank is still parked after
        job 1, so job 2's abort arrives before ``begin_job(2)``: the job
        must start aborted (not wait out its receive timeout), and job 3
        must not inherit the abort.  Once job 3 is aborted too, a frame
        already in its inbox is not handed up."""
        ctrl, parent = socket.socketpair()
        transport = ShmTransport(0, ctrl, {}, {})
        try:
            transport.begin_job(1)
            parent.sendall(pack_frame(_CTRL_ABORT, struct.pack("<Q", 2)))
            transport._drain(5.0)
            assert not transport._aborted  # job 1 is not the one cancelled
            transport.begin_job(2)
            with pytest.raises(SimMPIAborted):
                transport.push_parts(0, 1, [b"x"], 1)
            transport.begin_job(3)
            transport.push_parts(0, 1, [b"x"], 1)
            assert transport.pull(0, 0.0) == (1, b"x")
            transport.push_parts(0, 1, [b"y"], 1)
            parent.sendall(pack_frame(_CTRL_ABORT, struct.pack("<Q", 3)))
            transport._drain(5.0)
            with pytest.raises(SimMPIAborted):
                transport.pull(0, 0.0)
        finally:
            transport.close()
            parent.close()
