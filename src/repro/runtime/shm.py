"""The forked backend of SimMPI: rank processes over shared-memory rings.

This is the second backend behind the 3-op transport seam
(:mod:`repro.runtime.transport`): one forked OS process per rank, so
phases execute on real cores with no GIL serialization.  The data plane
runs through **shared-memory ring buffers** — one
single-producer/single-consumer ring per *ordered* rank pair, all carved
out of a single :class:`multiprocessing.shared_memory.SharedMemory`
segment.  Senders gather codec parts straight into the ring
(:func:`repro.runtime.codec.encode_parts`, no intermediate join);
receivers copy each record out as ``bytes`` when they read it and decode
that with :func:`repro.runtime.codec.decode`, so a received array is the
receiver's own, exactly as on the threaded wire.  Every rank pair is also
joined by a Unix socketpair — the **spill channel**.  It carries whatever
cannot ride the ring (a frame bigger than half the ring, or any frame
while the ring is full), so correctness never depends on ring capacity;
a further socketpair per rank is the control channel to the parent.
Socket messages are the typed codec frames of :mod:`repro.runtime.codec`
behind the 16-byte ``(tag, length)`` header of
:data:`~repro.runtime.transport.HEADER`, reassembled from partial reads by
:class:`~repro.runtime.transport.FrameAssembler`.

Ring layout (all offsets byte offsets into the pair's region)::

    0   head  u64   monotonic byte counter, written by the producer only
    8   tail  u64   monotonic byte counter, written by the consumer only
    64  data  ring_bytes bytes (RING_BYTES, 4 MiB)

``head % ring_bytes`` is the producer's write position.  A record is
``32-byte header [tag i64][job u64][seq u64][len u64]`` followed by the
frame payload padded to 8 bytes; records never wrap — when one would, the
producer writes an 8-byte wrap sentinel and continues at offset 0.  The
producer publishes ``head`` only after the whole record is in place; the
consumer copies every published record out and publishes ``tail`` in the
same :meth:`Ring.poll`, so a slot is free as soon as it has been read.

Frames carry a ``(job, seq)`` stamp: ``seq`` restores per-pair FIFO order
across the two physical channels (ring and spill socket), and ``job``
isolates pool runs from each other — stragglers of an aborted earlier run
are dropped, early frames of the next run are held.  A barrier is
ordinary frames (``SimComm.barrier`` is an allgather), so the stamps
isolate its tokens too.

Why sends never deadlock: sockets are non-blocking, and a sender that
finds the ring or the kernel buffer full drains its *own* receive side
into user-space inboxes while retrying (one send loop,
:meth:`ShmTransport._send_frame`).  In any cycle of blocked senders every
participant is therefore also draining, so some peer's send always
progresses — the forked backend keeps the threaded wire's
unbounded-buffer semantics.

The **rank pool** keeps the forked workers alive across ``spmd_run``
calls (keyed by world size): a job is a pickled ``(fn, args, kwargs)``
shipped over the framed control channel, amortizing fork+import cost over
rounds and repeated bench invocations.  Functions that cannot be pickled
(closures, test-local helpers) transparently run on a one-shot fork that
inherits the function — same workers, same transport, nothing pooled.
Every worker records traffic into its own
:class:`~repro.runtime.stats.TrafficStats` ledger and ships it to the
parent with its result, where the ledgers are merged — the accounting
rule (one ``len(frame)`` record per logical message, on the sender) is
the threaded backend's.  Worker death surfaces as
:class:`~repro.runtime.transport.SimRankDied` on peers and in the caller,
never a hang, and poisons the pool (it is torn down and rebuilt on next
use); pools shut down explicitly via :func:`shutdown_pools` and
automatically at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import pickle
import selectors
import socket
import struct
import time
from collections import deque
from multiprocessing import shared_memory
from time import perf_counter

from repro.perf import PERF
from repro.runtime.transport import (
    FrameAssembler,
    SimMPIAborted,
    SimRankDied,
    TransportEmpty,
    finish_spmd_run,
    pack_frame,
)

__all__ = [
    "Ring",
    "ShmTransport",
    "shm_spmd_run",
    "shutdown_pools",
    "RING_BYTES",
]

#: data bytes of each per-pair ring (a multiple of 8)
RING_BYTES = 4 << 20

#: bytes reserved at the start of each pair region for the head/tail line
_RING_HDR = 64

#: per-record header in the ring: tag, job, seq, payload length
_REC = struct.Struct("<qQQQ")

#: spill-frame prefix on the socket channel: job, seq
_SPILL = struct.Struct("<QQ")

_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")

#: wrap sentinel tag: "rest of the ring is dead space, continue at 0"
_WRAP = -(2**61)

# framed control-channel tags (parent <-> worker), disjoint from user tags
_CTRL_JOB = -(2**62) + 11
_CTRL_ABORT = -(2**62) + 12
_CTRL_RELEASE = -(2**62) + 13
_CTRL_RESULT = -(2**62) + 14

#: selector key for the parent control channel
_PARENT = -1

#: how long a sender courts a full ring before spilling to the socket
_RING_PATIENCE = 0.005

#: select slice of the parked loops (between jobs, release)
_POLL = 0.05


def _close_quietly(sock) -> None:
    try:
        sock.close()
    except OSError:
        pass


class Ring:
    """Single-producer/single-consumer byte pipe over one pair region.

    Each process constructs its own ``Ring`` over the shared region and
    uses exactly one role: the producer calls :meth:`try_write`, the
    consumer :meth:`poll`.  ``head`` and ``tail`` are monotonic byte
    counters in shared memory (position = counter modulo capacity), so no
    reset coordination is ever needed between jobs.
    """

    __slots__ = ("_mv", "_data", "cap", "_head", "_tail")

    def __init__(self, region_mv):
        self._mv = region_mv
        self._data = region_mv[_RING_HDR:]
        self.cap = len(region_mv) - _RING_HDR
        self._head = _U64.unpack_from(self._mv, 0)[0]  # producer cursor
        # the consumer resumes at the shared *tail*, never the head: the
        # producer may have been forked first and published records before
        # this side constructed its Ring, and those must still be read
        self._tail = _U64.unpack_from(self._mv, 8)[0]  # consumer cursor

    # ------------------------------------------------------------------ #
    # producer
    # ------------------------------------------------------------------ #

    @property
    def max_frame(self) -> int:
        """Largest payload the producer will put on the ring; anything
        bigger must spill (keeps any single frame from owning the ring)."""
        return self.cap // 2 - _REC.size

    def try_write(self, tag, job, seq, parts, total) -> bool:
        """Write one record if there is room *now*; never blocks."""
        padded = (total + 7) & ~7
        need = _REC.size + padded
        if need > self.cap:
            return False
        head = self._head
        tail = _U64.unpack_from(self._mv, 8)[0]
        pos = head % self.cap
        skip = self.cap - pos if pos + need > self.cap else 0
        if head + skip + need - tail > self.cap:
            return False
        data = self._data
        if skip:
            _I64.pack_into(data, pos, _WRAP)
            head += skip
            pos = 0
        _REC.pack_into(data, pos, tag, job, seq, total)
        off = pos + _REC.size
        for part in parts:
            n = part.nbytes if isinstance(part, memoryview) else len(part)
            data[off : off + n] = part
            off += n
        head += need
        self._head = head
        _U64.pack_into(self._mv, 0, head)  # publish after the write
        return True

    # ------------------------------------------------------------------ #
    # consumer
    # ------------------------------------------------------------------ #

    def poll(self, sink) -> None:
        """Copy every published record out as ``bytes``, hand it to
        ``sink(tag, job, seq, payload)``, and publish the tail past all of
        them, so every slot read here is free when this returns."""
        head = _U64.unpack_from(self._mv, 0)[0]
        tail = self._tail
        if tail == head:
            return
        data = self._data
        while tail < head:
            pos = tail % self.cap
            if _I64.unpack_from(data, pos)[0] == _WRAP:
                tail += self.cap - pos
                continue
            tag, job, seq, length = _REC.unpack_from(data, pos)
            start = pos + _REC.size
            payload = bytes(data[start : start + length])
            tail += _REC.size + ((length + 7) & ~7)
            sink(tag, job, seq, payload)
        self._tail = tail
        _U64.pack_into(self._mv, 8, tail)

    def release_views(self) -> None:
        """Drop this object's views of the segment (pre-close hygiene)."""
        self._data.release()
        self._mv.release()


class ShmTransport:
    """The forked backend's wire, one instance per rank process.

    Data frames go ring-first (shared memory) and spill to the Unix
    stream socket shared with the peer; ``ctrl`` is the framed channel to
    the parent (job dispatch, job-stamped abort and release, result).  All
    sockets are non-blocking, and every wait — a full ring, a full socket
    buffer, an empty inbox — drains this rank's *own* inbound side into
    per-source inboxes, so sends always make progress (see the module
    docstring).  ``(job, seq)`` stamps isolate
    pooled runs and restore per-pair FIFO order across the two channels.
    """

    def __init__(self, rank, size, peers, ctrl, rings_in, rings_out):
        self.rank = rank
        self.size = size
        #: physical-channel counters (frames/bytes per channel, copied
        #: bytes), folded into ``stats.wire`` by the worker at end of run
        self.wire = {}
        self._peers = dict(peers)  # rank -> socket shared with that peer
        self._ctrl = ctrl
        self._sel = selectors.DefaultSelector()
        for r, s in self._peers.items():
            s.setblocking(False)
            self._sel.register(s, selectors.EVENT_READ, r)
        ctrl.setblocking(False)
        self._sel.register(ctrl, selectors.EVENT_READ, _PARENT)
        self._asm = {r: FrameAssembler() for r in (*self._peers, _PARENT)}
        self._inbox = {r: deque() for r in self._peers}
        self._inbox[rank] = deque()  # self-sends loop back locally
        self._eof: set = set()
        self._aborted = False
        self._rings_in = dict(rings_in)  # src  -> Ring (consumer role)
        self._rings_out = dict(rings_out)  # dest -> Ring (producer role)
        self._job = 0
        self._out_seq = {r: 0 for r in self._rings_out}
        self._next_seq = {r: 0 for r in self._rings_in}
        self._held = {r: {} for r in self._rings_in}
        self._early = deque()  # frames stamped for a job we're not in yet
        self._jobs = deque()  # job payloads from the parent, undispatched
        self._parent_gone = False
        self._released_job = 0
        # an abort can overtake the start of its job (a fast peer failed
        # while this rank was still parked), so it is job-stamped like the
        # release and re-applied by begin_job
        self._aborted_job = 0
        self._sinks = {
            src: (lambda t, j, s, p, _src=src: self._sequence(_src, j, s, t, p))
            for src in self._rings_in
        }

    # ------------------------------------------------------------------ #
    # inbound: rings + sockets, merged in send order
    # ------------------------------------------------------------------ #

    def _drain(self, timeout: float) -> None:
        """Read whatever is available on any socket (waiting at most
        ``timeout``), then poll every inbound ring, completing messages
        into the per-source inboxes."""
        for key, _ in self._sel.select(timeout):
            src, sock = key.data, key.fileobj
            while True:
                try:
                    chunk = sock.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    chunk = b""
                if not chunk:
                    self._sel.unregister(sock)
                    if src == _PARENT:
                        self._parent_gone = True
                        self._aborted = True  # parent died: run is over
                    else:
                        self._eof.add(src)
                    break
                for tag, payload in self._asm[src].feed(chunk):
                    self._on_socket_frame(src, tag, payload)
        for src, ring in self._rings_in.items():
            ring.poll(self._sinks[src])

    def _on_socket_frame(self, src, tag, payload) -> None:
        """Route one reassembled socket frame: a parent control frame or a
        spilled (job/seq-prefixed) data frame."""
        if src == _PARENT:
            if tag == _CTRL_ABORT:
                job = _U64.unpack(payload)[0]
                self._aborted_job = max(self._aborted_job, job)
                if job == self._job:
                    self._aborted = True
            elif tag == _CTRL_RELEASE:
                job = _U64.unpack(payload)[0]
                if job > self._released_job:
                    self._released_job = job
            elif tag == _CTRL_JOB:
                self._jobs.append(payload)
        else:
            job, seq = _SPILL.unpack_from(payload, 0)
            self._sequence(src, job, seq, tag, payload[_SPILL.size :])

    def _sequence(self, src, job, seq, tag, payload) -> None:
        """Deliver ``seq`` in order within the current job; park frames of
        a future job; drop stragglers of a finished one."""
        if job != self._job:
            if job > self._job:
                self._early.append((job, src, seq, tag, payload))
            return
        nxt = self._next_seq
        if seq == nxt[src]:
            box = self._inbox[src]
            box.append((tag, payload))
            nxt[src] = seq + 1
            held = self._held[src]
            while nxt[src] in held:
                box.append(held.pop(nxt[src]))
                nxt[src] += 1
        else:
            self._held[src][seq] = (tag, payload)

    # ------------------------------------------------------------------ #
    # outbound: ring first, spill to the socket
    # ------------------------------------------------------------------ #

    def _send_frame(self, sock, frame) -> bool:
        """Write one whole :func:`pack_frame` frame to a non-blocking
        socket — the only socket send loop on the worker side (spill and
        result frames both come through here).  While the far buffer is
        full we keep draining our own inbound side so the global send
        graph cannot wedge.  A frame once started is always finished,
        even with an abort pending: pooled sockets outlive the job, and the
        stream must stay parseable for the next one — callers check the
        abort flag *before* the first byte.  Returns ``False`` when the far
        end has hung up (nobody is left to parse the stream)."""
        data = memoryview(frame)
        while data:
            try:
                sent = sock.send(data)
            except (BlockingIOError, InterruptedError):
                self._drain(0.002)
                continue
            except OSError:
                return False
            data = data[sent:]
        return True

    def push_parts(self, dest, tag, parts, total) -> None:
        """Scatter-gather send: write the codec parts straight into the
        destination ring, or spill the joined frame to the socket."""
        self._drain(0)
        if self._aborted:
            raise SimMPIAborted("run aborted")
        if dest == self.rank:
            self._inbox[dest].append((tag, b"".join(parts)))
            return
        if dest in self._eof:
            # like the threaded wire's send-to-a-dead-rank: the message is
            # void; the failure surfaces through the parent's abort
            return
        seq = self._out_seq[dest]
        self._out_seq[dest] = seq + 1
        wire = self.wire
        ring = self._rings_out[dest]
        t0 = perf_counter()
        if total <= ring.max_frame:
            deadline = t0 + _RING_PATIENCE
            while True:
                if ring.try_write(tag, self._job, seq, parts, total):
                    wire["ring_frames"] = wire.get("ring_frames", 0) + 1
                    wire["ring_bytes"] = wire.get("ring_bytes", 0) + total
                    # the consumer copies every record out when it reads it
                    wire["copied_bytes"] = wire.get("copied_bytes", 0) + total
                    PERF.add("transport.ring", perf_counter() - t0)
                    return
                # ring full (receiver busy or not yet polled): drain our own
                # inbound so the global send graph cannot wedge, then retry
                # briefly before falling through to the spill channel
                self._drain(0.001)
                if self._aborted:
                    raise SimMPIAborted("run aborted")
                if dest in self._eof:
                    return
                if perf_counter() >= deadline:
                    break
        frame = pack_frame(
            tag, _SPILL.pack(self._job, seq) + b"".join(parts)
        )
        if not self._send_frame(self._peers[dest], frame):
            self._eof.add(dest)
            return
        wire["spill_frames"] = wire.get("spill_frames", 0) + 1
        wire["spill_bytes"] = wire.get("spill_bytes", 0) + total
        wire["copied_bytes"] = wire.get("copied_bytes", 0) + total
        PERF.add("transport.spill", perf_counter() - t0)

    def pull(self, source, slice_s):
        box = self._inbox[source]
        if not box:
            self._drain(0)
            if not box:
                deadline = time.monotonic() + slice_s
                spin_until = time.monotonic() + 0.001
                while True:
                    now = time.monotonic()
                    if now >= deadline:
                        break
                    # short pure-poll phase for ring latency, then select
                    # with a tiny timeout so a 1-core host still schedules
                    # the producer
                    self._drain(
                        0 if now < spin_until else min(0.0005, deadline - now)
                    )
                    if box or self._aborted or source in self._eof:
                        break
        if box:
            return box.popleft()
        if self._aborted:
            raise SimMPIAborted("run aborted")
        if source in self._eof:
            raise SimRankDied(
                f"rank {source} terminated mid-run; receive on rank "
                f"{self.rank} is void"
            )
        raise TransportEmpty()

    def aborted(self) -> bool:
        return self._aborted

    # ------------------------------------------------------------------ #
    # run lifecycle (worker side)
    # ------------------------------------------------------------------ #

    def begin_job(self, job: int) -> None:
        """Reset per-run state and replay any frames — or the abort — that
        arrived early (a peer may start job N+1 while we are still
        releasing job N)."""
        self._job = job
        self._aborted = self._aborted_job == job
        self.wire.clear()
        for box in self._inbox.values():
            box.clear()
        for r in self._next_seq:
            self._next_seq[r] = 0
            self._held[r].clear()
        for r in self._out_seq:
            self._out_seq[r] = 0
        early, self._early = self._early, deque()
        for j, src, seq, tag, payload in early:
            self._sequence(src, j, seq, tag, payload)

    def wait_job(self):
        """Park between runs: keep draining (so peers finishing the last
        run can complete their sends) until the parent ships the next job
        payload, or hangs up — then return ``None``."""
        while True:
            if self._jobs:
                return self._jobs.popleft()
            if self._parent_gone:
                return None
            self._drain(_POLL)

    def send_result(self, frame: bytes) -> None:
        """Ship this run's result frame on the framed control channel (if
        the parent is gone there is nothing left to report to)."""
        self._send_frame(self._ctrl, pack_frame(_CTRL_RESULT, frame))

    def wait_release(self) -> None:
        """Hold sockets and rings live until the parent stamps this job
        released (it always does, abort or not) or hangs up: peers may
        still be receiving buffered frames, and an early close would turn
        their pending receives into spurious EOFs."""
        while self._released_job < self._job and not self._parent_gone:
            self._drain(_POLL)

    def close(self) -> None:
        try:
            self._sel.close()
        except OSError:
            pass
        for s in (*self._peers.values(), self._ctrl):
            _close_quietly(s)
        for ring in (*self._rings_in.values(), *self._rings_out.values()):
            ring.release_views()


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #


def _build_rings(buf, ring_bytes, rank, size):
    """Both ring maps of one rank over the pool's shared segment."""
    stride = _RING_HDR + ring_bytes
    mv = memoryview(buf)

    def region(i, j):
        idx = i * (size - 1) + (j if j < i else j - 1)
        return mv[idx * stride : (idx + 1) * stride]

    rings_out = {j: Ring(region(rank, j)) for j in range(size) if j != rank}
    rings_in = {i: Ring(region(i, rank)) for i in range(size) if i != rank}
    return rings_in, rings_out


def _run_one_job(transport, rank, size, job_id, fn, fargs, fkwargs):
    """One spmd run on a pooled (or one-shot) worker: fresh SimComm and
    ledger, result shipped framed, slot held until the job's release."""
    from repro.runtime.codec import encode as _encode
    from repro.runtime.simmpi import SimComm, _Shared

    transport.begin_job(job_id)
    shared = _Shared(size)  # process-local: traffic ledger + inert extras
    comm = SimComm(shared, rank, transport=transport)
    PERF.reset()  # fork copies the parent registry; report only our own
    try:
        kind, payload = "ok", fn(comm, *fargs, **fkwargs)
    except BaseException as exc:  # noqa: BLE001 - report, never hang peers
        kind, payload = "err", exc
    for k, v in transport.wire.items():
        shared.stats.wire[k] += v
    ledgers = (shared.stats.as_dict(), PERF.snapshot())
    try:
        frame = _encode((kind, payload) + ledgers)
    except Exception:
        # unpicklable result or exception: degrade to a repr that still
        # carries the rank outcome
        frame = _encode(
            ("err", RuntimeError(f"rank {rank} {kind} payload not "
                                 f"serializable: {payload!r}")) + ledgers
        )
    transport.send_result(frame)
    transport.wait_release()


def _fail_job(transport, rank, job_id, exc) -> None:
    """A job frame this worker could not even unpickle: report a typed
    error (the run fails, the pool survives)."""
    from repro.runtime.codec import encode as _encode
    from repro.runtime.stats import TrafficStats

    transport.begin_job(job_id)
    transport.send_result(
        _encode(
            ("err",
             RuntimeError(f"rank {rank} could not unpickle job: {exc!r}"),
             TrafficStats().as_dict(), {})
        )
    )
    transport.wait_release()


def _shm_worker_main(rank, size, segment, ring_bytes, pair_socks,
                     ctrl_pairs, oneshot):
    """Entry point of one rank process (fork start method).

    ``oneshot`` is ``None`` for a pooled worker (jobs arrive pickled over
    the control channel) or the inherited — never pickled — ``(fn, args,
    kwargs)`` of a one-shot run.
    """
    peers = {}
    for (i, j), (si, sj) in pair_socks.items():
        if i == rank:
            peers[j] = si
            _close_quietly(sj)
        elif j == rank:
            peers[i] = sj
            _close_quietly(si)
        else:
            _close_quietly(si)
            _close_quietly(sj)
    ctrl = None
    for r, (parent_end, child_end) in enumerate(ctrl_pairs):
        _close_quietly(parent_end)
        if r == rank:
            ctrl = child_end
        else:
            _close_quietly(child_end)

    rings_in, rings_out = _build_rings(segment.buf, ring_bytes, rank, size)
    transport = ShmTransport(rank, size, peers, ctrl, rings_in, rings_out)
    try:
        if oneshot is not None:
            fn, fargs, fkwargs = oneshot
            _run_one_job(transport, rank, size, 1, fn, fargs, fkwargs)
        else:
            while True:
                payload = transport.wait_job()
                if payload is None:
                    break
                job_id = _U64.unpack_from(payload, 0)[0]
                try:
                    fn, fargs, fkwargs = pickle.loads(payload[_U64.size:])
                except BaseException as exc:  # noqa: BLE001
                    _fail_job(transport, rank, job_id, exc)
                    continue
                _run_one_job(transport, rank, size, job_id, fn, fargs,
                             fkwargs)
    except BaseException:  # infra failure: make it visible, then die
        import traceback

        traceback.print_exc()
    finally:
        transport.close()
        import sys

        sys.stdout.flush()
        sys.stderr.flush()
        # leave without multiprocessing's exit path (finalizers, joining
        # threads a job left behind): the result is reported and every
        # channel is closed and flushed above, so nothing is left to wait for
        os._exit(0)


# ---------------------------------------------------------------------- #
# parent side: pool and run driver
# ---------------------------------------------------------------------- #


class ShmPool:
    """A set of forked rank workers plus their segment and sockets.

    One instance either lives in the pool registry (``oneshot=None``,
    reused run after run) or drives a single one-shot run.  ``broken``
    marks membership damage — any worker death — after which the pool is
    only good for :meth:`shutdown`.
    """

    def __init__(self, size, ring_bytes, oneshot=None):
        import multiprocessing

        self.size = size
        self.ring_bytes = ring_bytes
        self.job_counter = 0
        self.broken = False
        self.segment = None
        self.pair_socks = {}
        self.ctrl_pairs = []
        self.procs = []
        self.parent_ends = []
        t0 = perf_counter()
        ctx = multiprocessing.get_context("fork")
        try:
            stride = _RING_HDR + ring_bytes
            total = max(1, size * (size - 1)) * stride
            self.segment = shared_memory.SharedMemory(create=True, size=total)
            self.pair_socks.update(
                ((i, j), socket.socketpair())
                for i in range(size)
                for j in range(i + 1, size)
            )
            self.ctrl_pairs.extend(socket.socketpair() for _ in range(size))
            for r in range(size):
                p = ctx.Process(
                    target=_shm_worker_main,
                    args=(r, size, self.segment, ring_bytes,
                          self.pair_socks, self.ctrl_pairs, oneshot),
                    name=f"simmpi-shm-rank-{r}",
                    daemon=True,
                )
                p.start()
                self.procs.append(p)
            for si, sj in self.pair_socks.values():
                _close_quietly(si)
                _close_quietly(sj)
            for _, child_end in self.ctrl_pairs:
                _close_quietly(child_end)
            self.parent_ends = [pe for pe, _ in self.ctrl_pairs]
            for pe in self.parent_ends:
                pe.setblocking(False)
        except BaseException:
            self.shutdown()
            raise
        #: wall seconds to fork and wire the whole pool (cold setup); a
        #: warm run's setup cost is one pickled job frame instead
        self.setup_seconds = perf_counter() - t0

    def alive(self) -> bool:
        return not self.broken and all(p.is_alive() for p in self.procs)

    # -------------------------------------------------------------- #

    def _send_ctrl(self, pe, data) -> None:
        view = memoryview(data)
        while view:
            try:
                sent = pe.send(view)
            except (BlockingIOError, InterruptedError):
                time.sleep(0.0005)  # workers always drain; brief backoff
                continue
            view = view[sent:]

    def run_job(self, blob, return_stats=False):
        """Drive one spmd run: dispatch (pooled mode), collect per-rank
        result frames, stamp the job released, apply error precedence."""
        from repro.runtime.codec import decode as _decode
        from repro.runtime.stats import TrafficStats

        self.job_counter += 1
        job = self.job_counter
        size = self.size
        if blob is not None:
            frame = pack_frame(_CTRL_JOB, _U64.pack(job) + blob)
            for pe in self.parent_ends:
                try:
                    self._send_ctrl(pe, frame)
                except OSError:
                    pass  # dead worker: the select loop reports it
        results = [None] * size
        errors = [None] * size
        done = [False] * size
        deaths = []
        asm = [FrameAssembler() for _ in range(size)]
        stats = TrafficStats()
        stats.backend = "shm"
        abort_frame = pack_frame(_CTRL_ABORT, _U64.pack(job))

        def abort_all():
            for r, pe in enumerate(self.parent_ends):
                if not done[r]:
                    try:
                        self._send_ctrl(pe, abort_frame)
                    except OSError:
                        pass

        sel = selectors.DefaultSelector()
        for r, pe in enumerate(self.parent_ends):
            sel.register(pe, selectors.EVENT_READ, r)
        try:
            while not all(done):
                for key, _ in sel.select(_POLL):
                    r, sock_ = key.data, key.fileobj
                    while True:
                        try:
                            chunk = sock_.recv(1 << 16)
                        except (BlockingIOError, InterruptedError):
                            break
                        except OSError:
                            chunk = b""
                        if not chunk:
                            sel.unregister(sock_)
                            if not done[r]:
                                done[r] = True
                                self.broken = True
                                self.procs[r].join(timeout=1.0)
                                errors[r] = SimRankDied(
                                    f"rank {r} process died without "
                                    "reporting (exitcode "
                                    f"{self.procs[r].exitcode})"
                                )
                                deaths.append(errors[r])
                                abort_all()
                            break
                        for tag, rframe in asm[r].feed(chunk):
                            if tag != _CTRL_RESULT:
                                continue
                            kind, payload, st, perf = _decode(rframe)
                            done[r] = True
                            stats.merge_dict(st)
                            PERF.merge_snapshot(perf)
                            if kind == "ok":
                                results[r] = payload
                            else:
                                errors[r] = payload
                                if not isinstance(payload, SimMPIAborted):
                                    abort_all()
        except BaseException:
            self.broken = True  # interrupted mid-run: stream state unknown
            abort_all()
            raise
        finally:
            release = pack_frame(_CTRL_RELEASE, _U64.pack(job))
            for r, pe in enumerate(self.parent_ends):
                if errors[r] is not None and isinstance(
                    errors[r], SimRankDied
                ) and self.procs[r].exitcode is not None:
                    continue  # no one listening on a dead rank's channel
                try:
                    self._send_ctrl(pe, release)
                except OSError:
                    pass
            sel.close()
            if self.broken:
                self.shutdown()
        return finish_spmd_run(results, errors, deaths, stats, return_stats)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Tear the pool down: hang up (workers exit their job loop),
        reap every child, close every FD, unlink the segment."""
        self.broken = True
        for pe, ce in self.ctrl_pairs:
            _close_quietly(pe)
            _close_quietly(ce)
        for si, sj in self.pair_socks.values():
            _close_quietly(si)
            _close_quietly(sj)
        for p in self.procs:
            p.join(timeout=timeout)
        for p in self.procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5)
        if self.segment is not None:
            try:
                self.segment.close()
            except BufferError:
                pass
            try:
                self.segment.unlink()
            except (FileNotFoundError, OSError):
                pass
            self.segment = None


#: live pools, keyed by world size
_POOLS: dict = {}


def _get_pool(size: int, ring_bytes: int) -> ShmPool:
    pool = _POOLS.get(size)
    if pool is not None and (not pool.alive() or pool.ring_bytes != ring_bytes):
        pool.shutdown()
        _POOLS.pop(size, None)
        pool = None
    if pool is None:
        pool = ShmPool(size, ring_bytes)
        _POOLS[size] = pool
    return pool


def pool_stats() -> dict:
    """Observability snapshot: ``{size: (jobs_run, setup_seconds)}``."""
    return {
        size: (pool.job_counter, pool.setup_seconds)
        for size, pool in _POOLS.items()
    }


def shutdown_pools() -> None:
    """Explicitly stop every pooled worker and unlink their segments.
    Safe to call at any time; pools rebuild lazily on next use."""
    for pool in list(_POOLS.values()):
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


def shm_spmd_run(size, fn, args, kwargs, return_stats=False):
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` pooled rank processes
    over the shared-memory transport.

    Mirrors the threaded ``spmd_run`` contract: returns the per-rank
    result list (plus the merged :class:`TrafficStats` when
    ``return_stats``), re-raises the first primary rank failure as
    ``RuntimeError("rank N failed: ...")``, and re-raises a rank process
    death as :class:`SimRankDied` — typed and clean, never a hang (it also
    poisons the pool).  Per-worker perf spans are merged into the parent's
    :data:`repro.perf.PERF` so ``stats.kernel_perf`` keeps working.
    Picklable functions reuse the persistent pool; unpicklable ones run on
    a one-shot fork that inherits them.
    """
    try:
        blob = pickle.dumps(
            (fn, args, kwargs), protocol=pickle.HIGHEST_PROTOCOL
        )
        # anything pickled by reference into ``__main__`` may not resolve
        # in a pool worker forked before that name was defined (scripts,
        # REPLs): run those on a fresh fork that inherits the objects
        if b"__main__" in blob:
            blob = None
    except Exception:
        blob = None
    if blob is None:
        run = ShmPool(size, RING_BYTES, oneshot=(fn, args, kwargs))
        try:
            return run.run_job(None, return_stats=return_stats)
        finally:
            run.shutdown()
    pool = _get_pool(size, RING_BYTES)
    try:
        return pool.run_job(blob, return_stats=return_stats)
    finally:
        if pool.broken and _POOLS.get(size) is pool:
            del _POOLS[size]
