"""The forked backend of SimMPI: rank processes over shared-memory rings.

This is the second backend behind the 2-op transport seam
(:mod:`repro.runtime.transport`): one forked OS process per rank, so
phases execute on real cores with no GIL serialization.  The only data
path between ranks is **one shared-memory ring per ordered rank pair**
(a single-producer/single-consumer byte pipe; all rings are carved out of
one :class:`multiprocessing.shared_memory.SharedMemory` segment), as MPI
has one ordered channel per pair.  Senders gather codec parts straight
into the ring (:func:`repro.runtime.codec.encode_parts`, no join);
receivers copy each record out as ``bytes`` when they read it, so a
decoded array is the receiver's own, exactly as on the threaded wire.
A worker's one socket is its control channel to the parent, framed by
:data:`~repro.runtime.transport.HEADER` and
:class:`~repro.runtime.transport.FrameAssembler`.

Ring layout (all offsets byte offsets into the pair's region)::

    0   head  u64   monotonic byte counter, written by the producer only
    8   tail  u64   monotonic byte counter, written by the consumer only
    64  data  ring_bytes bytes (RING_BYTES, 4 MiB)

``head % ring_bytes`` is the producer's write position.  A record is
``32-byte header [tag i64][job u64][more u64][len u64]`` followed by the
payload padded to 8 bytes; records never wrap — when one would, the
producer writes an 8-byte wrap sentinel and continues at offset 0.  The
producer publishes ``head`` only after the whole record is in place; the
consumer copies every published record out and publishes ``tail`` in the
same :meth:`Ring.poll`, so a slot is free as soon as it has been read.

A frame larger than :attr:`Ring.max_frame` (half the ring minus a header)
goes out as consecutive **continuation records** — ``more`` set on all
but the last, the codec parts sliced across them — and the consumer
reassembles it per source.  ``job`` isolates pool runs: records of a
finished job are dropped, records of the next job are held until it
starts, and a frame half-reassembled when the job changes (its sender
was aborted between two records) is discarded.  Barrier tokens are
ordinary frames, so they are isolated too.

Why sends never deadlock: a sender that finds the ring full **blocks and
drains** — it polls its *own* inbound rings and the control channel into
user-space inboxes and retries, with no deadline.  In any cycle of
blocked senders every participant is also draining, so some send always
progresses: the threaded wire's unbounded-buffer semantics.  The only
other ways out are an abort (:class:`SimMPIAborted`) and the parent
hanging up.

The **rank pool** keeps the forked workers alive across ``spmd_run``
calls (keyed by world size): a job is a pickled ``(fn, args, kwargs)``
shipped over the framed control channel, amortizing fork+import cost over
rounds and repeated bench invocations.  Functions that cannot be pickled
(closures, test-local helpers) transparently run on a one-shot fork that
inherits the function — same workers, same transport, nothing pooled.
Every worker records traffic into its own
:class:`~repro.runtime.stats.TrafficStats` ledger and ships it to the
parent with its result, where the ledgers are merged under the threaded
backend's accounting rule.  A worker's death is seen by the parent, as
EOF on its control channel: the caller gets
:class:`~repro.runtime.transport.SimRankDied`, never a hang; every live
peer gets a ``_CTRL_ABORT`` that turns its blocked ``pull`` or
``push_parts`` into :class:`SimMPIAborted`; and the pool is poisoned
(torn down and rebuilt on next use).  Pools shut down explicitly via
:func:`shutdown_pools` and automatically at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import pickle
import selectors
import socket
import struct
import sys
import time
import traceback
from collections import deque
from functools import partial
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

#: per-record header in the ring: tag, job, more-follows flag, payload length
_REC = struct.Struct("<qQQQ")

_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")

#: wrap sentinel tag: "rest of the ring is dead space, continue at 0"
_WRAP = -(2**61)

# framed control-channel tags (parent <-> worker), disjoint from user tags
_CTRL_JOB = -(2**62) + 11
_CTRL_ABORT = -(2**62) + 12
_CTRL_RELEASE = -(2**62) + 13
_CTRL_RESULT = -(2**62) + 14

#: select slice of the parked loops (between jobs, release)
_POLL = 0.05


def _close_quietly(sock) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _recv_frames(sock, asm):
    """Read everything a non-blocking socket holds now, as ``(frames,
    hung_up)``: the framed messages it completed, and whether the far end
    has closed."""
    frames = []
    while True:
        try:
            chunk = sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return frames, False
        except OSError:
            chunk = b""
        if not chunk:
            return frames, True
        frames.extend(asm.feed(chunk))


def _send_all(sock, data, wait) -> None:
    """Write all of ``data`` to a non-blocking socket, calling ``wait()``
    while its buffer is full.  A frame once started is always finished,
    even with an abort pending: the control stream outlives the job and
    must stay parseable for the next one.  Raises ``OSError`` if the far
    end is gone."""
    view = memoryview(data)
    while view:
        try:
            view = view[sock.send(view):]
        except (BlockingIOError, InterruptedError):
            wait()


def _wait_writable(sock) -> None:
    """Wait at most ``_POLL`` for ``sock`` to take more bytes."""
    with selectors.DefaultSelector() as sel:
        sel.register(sock, selectors.EVENT_WRITE)
        sel.select(_POLL)


def _records(parts, total, limit):
    """Cut one frame's scatter-gather ``parts`` into ring records of at
    most ``limit`` payload bytes, slicing the parts instead of joining
    them: yields ``(record_parts, nbytes, more)``, with ``more`` true on
    every record but the last."""
    if total <= limit:
        yield parts, total, False
        return
    rec, n = [], 0
    for part in parts:
        view = memoryview(part)
        while view.nbytes:
            take = min(limit - n, view.nbytes)
            rec.append(view[:take])
            view = view[take:]
            n += take
            if n == limit or n == total:
                total -= n
                yield rec, n, total > 0
                rec, n = [], 0


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
        """Largest payload of one record; a bigger frame is cut into
        continuation records (keeps any single record from owning the
        ring)."""
        return self.cap // 2 - _REC.size

    def try_write(self, tag, job, more, parts, total) -> bool:
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
        _REC.pack_into(data, pos, tag, job, more, total)
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
        ``sink(tag, job, more, payload)``, and publish the tail past all
        of them, so every slot read here is free when this returns."""
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
            tag, job, more, length = _REC.unpack_from(data, pos)
            start = pos + _REC.size
            payload = bytes(data[start : start + length])
            tail += _REC.size + ((length + 7) & ~7)
            sink(tag, job, more, payload)
        self._tail = tail
        _U64.pack_into(self._mv, 8, tail)


class ShmTransport:
    """The forked backend's wire, one instance per rank process.

    Data frames cross the shared-memory rings and nothing else; ``ctrl``
    is the framed socket to the parent (job dispatch, job-stamped abort
    and release, result).  Every wait — a full ring, a full control
    socket, an empty inbox — drains this rank's *own* inbound rings and
    the control channel into per-source inboxes, so sends always make
    progress (see the module docstring).
    """

    def __init__(self, rank, ctrl, rings_in, rings_out):
        self.rank = rank
        #: ring counters (frames, bytes, copied bytes), folded into
        #: ``stats.wire`` by the worker at end of run
        self.wire = {}
        self._ctrl = ctrl
        ctrl.setblocking(False)
        # select(2), not epoll: epoll rounds a timeout up to whole
        # milliseconds, which turned pull's 0.5 ms slices into 1.1 ms sleeps.
        # select takes fds below FD_SETSIZE (1024) only: a control socket
        # numbered past it (a parent holding many files) parks in poll(2)
        small = ctrl.fileno() < 1024
        self._sel = (selectors.SelectSelector if small else selectors.PollSelector)()
        self._sel.register(ctrl, selectors.EVENT_READ)
        self._asm = FrameAssembler()
        self._rings_in = dict(rings_in)  # src  -> Ring (consumer role)
        self._rings_out = dict(rings_out)  # dest -> Ring (producer role)
        self._inbox = {r: deque() for r in (*self._rings_in, rank)}
        self._partial = {}  # src -> records of a frame still arriving
        self._aborted = False
        self._job = 0
        self._early = deque()  # records stamped for a job we're not in yet
        self._jobs = deque()  # job payloads from the parent, undispatched
        self._parent_gone = False
        self._released_job = 0
        # an abort can overtake the start of its job (a fast peer failed
        # while this rank was still parked), so it is job-stamped like the
        # release and re-applied by begin_job
        self._aborted_job = 0
        self._sinks = {src: partial(self._on_record, src) for src in self._rings_in}

    # ------------------------------------------------------------------ #
    # inbound: the control channel and the rings
    # ------------------------------------------------------------------ #

    def _drain(self, timeout: float) -> None:
        """Read whatever the parent sent (waiting at most ``timeout``),
        then poll every inbound ring, completing frames into the
        per-source inboxes.  The wait also ends when the control socket
        can take more bytes, while :meth:`send_result` asks for that."""
        if any(ev & selectors.EVENT_READ for _, ev in self._sel.select(timeout)):
            frames, hung_up = _recv_frames(self._ctrl, self._asm)
            for tag, payload in frames:
                self._on_ctrl_frame(tag, payload)
            if hung_up:  # the parent died: the run is over
                self._sel.unregister(self._ctrl)
                self._parent_gone = self._aborted = True
        for src, ring in self._rings_in.items():
            ring.poll(self._sinks[src])

    def _on_ctrl_frame(self, tag, payload) -> None:
        if tag == _CTRL_ABORT:
            job = _U64.unpack(payload)[0]
            self._aborted_job = max(self._aborted_job, job)
            if job == self._job:
                self._aborted = True
        elif tag == _CTRL_RELEASE:
            self._released_job = max(self._released_job, _U64.unpack(payload)[0])
        elif tag == _CTRL_JOB:
            self._jobs.append(payload)

    def _on_record(self, src, tag, job, more, payload) -> None:
        """Reassemble one ring record into ``src``'s inbox: records of a
        later job wait in ``_early``, records of a finished one are
        dropped, and ``more`` continues the frame in the next record."""
        if job != self._job:
            if job > self._job:
                self._early.append((src, tag, job, more, payload))
            return
        if more:
            self._partial.setdefault(src, []).append(payload)
            return
        head = self._partial.pop(src, None)
        if head:
            head.append(payload)
            payload = b"".join(head)
        self._inbox[src].append((tag, payload))

    # ------------------------------------------------------------------ #
    # the seam
    # ------------------------------------------------------------------ #

    def push_parts(self, dest, tag, parts, total) -> None:
        """Scatter-gather send: write the codec parts straight into the
        destination ring — as continuation records when the frame is over
        ``max_frame`` — blocking on a full ring, draining, until the
        consumer frees a slot or the run is aborted."""
        self._drain(0)
        if self._aborted:
            raise SimMPIAborted("run aborted")
        if dest == self.rank:
            self._inbox[dest].append((tag, b"".join(parts)))
            return
        ring = self._rings_out[dest]
        t0 = perf_counter()
        for rec, n, more in _records(parts, total, ring.max_frame):
            while not ring.try_write(tag, self._job, more, rec, n):
                # ring full (receiver busy or not yet polled): drain our own
                # inbound so the global send graph cannot wedge, then retry
                self._drain(0.001)
                if self._aborted:
                    raise SimMPIAborted("run aborted")
        wire = self.wire
        wire["ring_frames"] = wire.get("ring_frames", 0) + 1
        wire["ring_bytes"] = wire.get("ring_bytes", 0) + total
        # the consumer copies every record out when it reads it
        wire["copied_bytes"] = wire.get("copied_bytes", 0) + total
        PERF.add("transport.ring", perf_counter() - t0)

    def pull(self, source, slice_s):
        box = self._inbox[source]
        start = now = time.monotonic()
        while not (box or self._aborted):
            # short pure-poll phase for ring latency, then select with a
            # tiny timeout so a 1-core host still schedules the producer
            self._drain(
                0 if now < start + 0.001 else min(0.0005, start + slice_s - now)
            )
            now = time.monotonic()
            if now >= start + slice_s:
                break
        if self._aborted:
            raise SimMPIAborted("run aborted")
        if box:
            return box.popleft()
        raise TransportEmpty()

    # ------------------------------------------------------------------ #
    # run lifecycle (worker side)
    # ------------------------------------------------------------------ #

    def begin_job(self, job: int) -> None:
        """Reset per-run state and replay any records — or the abort —
        that arrived early (a peer may start job N+1 while we are still
        releasing job N).  A frame half-reassembled in the old job is
        discarded: its sender was aborted between two records."""
        self._job = job
        self._aborted = self._aborted_job == job
        self.wire.clear()
        for box in self._inbox.values():
            box.clear()
        self._partial.clear()
        early, self._early = self._early, deque()
        for record in early:
            self._on_record(*record)

    def wait_job(self):
        """Park between runs: keep draining (so peers finishing the last
        run can complete their sends) until the parent ships the next job
        payload, or hangs up — then return ``None``."""
        while not self._jobs and not self._parent_gone:
            self._drain(_POLL)
        return self._jobs.popleft() if self._jobs else None

    def send_result(self, frame: bytes) -> None:
        """Ship this run's result frame on the control channel — the only
        socket write a worker makes.  While the parent's buffer is full it
        waits for the socket to take more bytes, draining our own inbound
        side meanwhile, so no peer blocks on us."""
        self._sel.modify(self._ctrl, selectors.EVENT_READ | selectors.EVENT_WRITE)
        try:
            _send_all(self._ctrl, pack_frame(_CTRL_RESULT, frame),
                      partial(self._drain, 0.002))
        except OSError:
            pass  # the parent is gone: nobody left to report to
        finally:
            if not self._parent_gone:  # else _drain unregistered it
                self._sel.modify(self._ctrl, selectors.EVENT_READ)

    def wait_release(self) -> None:
        """Keep draining the rings until the parent stamps this job
        released (it always does, abort or not) or hangs up: peers may
        still be writing to this rank, and a full ring nobody reads would
        block them."""
        while self._released_job < self._job and not self._parent_gone:
            self._drain(_POLL)

    def close(self) -> None:
        try:
            self._sel.close()
        except OSError:
            pass
        _close_quietly(self._ctrl)


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


def _raise(comm, exc):
    """Stand-in job of a frame the worker could not unpickle: the run
    fails with a typed error, the pool survives."""
    raise exc


def _shm_worker_main(rank, size, segment, ring_bytes, ctrl_pairs, oneshot):
    """Entry point of one rank process (fork start method).

    ``oneshot`` is ``None`` for a pooled worker (jobs arrive pickled over
    the control channel) or the inherited — never pickled — ``(fn, args,
    kwargs)`` of a one-shot run.
    """
    ctrl = None
    for r, (parent_end, child_end) in enumerate(ctrl_pairs):
        _close_quietly(parent_end)
        if r == rank:
            ctrl = child_end
        else:
            _close_quietly(child_end)

    rings_in, rings_out = _build_rings(segment.buf, ring_bytes, rank, size)
    transport = ShmTransport(rank, ctrl, rings_in, rings_out)
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
                    fn, fargs, fkwargs = _raise, (RuntimeError(
                        f"rank {rank} could not unpickle job: {exc!r}"),), {}
                _run_one_job(transport, rank, size, job_id, fn, fargs,
                             fkwargs)
    except BaseException:  # infra failure: make it visible, then die
        traceback.print_exc()
    finally:
        transport.close()
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
    """A set of forked rank workers plus their segment and control sockets.

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
        self.ctrl_pairs = []
        self.procs = []
        self.parent_ends = []
        t0 = perf_counter()
        ctx = multiprocessing.get_context("fork")
        try:
            stride = _RING_HDR + ring_bytes
            total = max(1, size * (size - 1)) * stride
            self.segment = shared_memory.SharedMemory(create=True, size=total)
            self.ctrl_pairs.extend(socket.socketpair() for _ in range(size))
            for r in range(size):
                p = ctx.Process(
                    target=_shm_worker_main,
                    args=(r, size, self.segment, ring_bytes,
                          self.ctrl_pairs, oneshot),
                    name=f"simmpi-shm-rank-{r}",
                    daemon=True,
                )
                p.start()
                self.procs.append(p)
            for pe, child_end in self.ctrl_pairs:
                _close_quietly(child_end)
                pe.setblocking(False)
            self.parent_ends = [pe for pe, _ in self.ctrl_pairs]
        except BaseException:
            self.shutdown()
            raise
        #: wall seconds to fork and wire the whole pool (cold setup); a
        #: warm run's setup cost is one pickled job frame instead
        self.setup_seconds = perf_counter() - t0

    def alive(self) -> bool:
        return not self.broken and all(p.is_alive() for p in self.procs)

    def _send_ctrl(self, pe, data) -> None:
        # workers always drain their control channel: wait until it takes
        # more bytes (a dead worker's socket reports ready, then raises)
        _send_all(pe, data, partial(_wait_writable, pe))

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
                    r = key.data
                    frames, hung_up = _recv_frames(key.fileobj, asm[r])
                    for tag, rframe in frames:
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
                    if hung_up:
                        sel.unregister(key.fileobj)
                        if not done[r]:
                            # the one place a death is seen: fail the run
                            # and abort every live peer
                            done[r] = True
                            self.broken = True
                            self.procs[r].join(timeout=1.0)
                            errors[r] = SimRankDied(
                                f"rank {r} process died without reporting "
                                f"(exitcode {self.procs[r].exitcode})"
                            )
                            deaths.append(errors[r])
                            abort_all()
        except BaseException:
            self.broken = True  # interrupted mid-run: stream state unknown
            abort_all()
            raise
        finally:
            release = pack_frame(_CTRL_RELEASE, _U64.pack(job))
            for pe in self.parent_ends:
                try:
                    self._send_ctrl(pe, release)
                except OSError:
                    pass  # a dead rank's channel: nobody to release
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
    Safe to call at any time; pools rebuild lazily on next use.

    Newest first: a pool's workers inherit the parent's control ends of
    every pool forked before it, so an older pool's workers see their
    hang-up only once the younger pools' workers are gone."""
    for pool in reversed(list(_POOLS.values())):
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
