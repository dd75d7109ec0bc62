"""In-process message-passing runtime with an mpi4py-flavoured API.

``spmd_run(p, fn, ...)`` launches ``p`` ranks, each running ``fn(comm,
...)`` on its own thread; ranks communicate only through their
:class:`SimComm`, which provides blocking point-to-point ``send``/``recv``
(tag-matched, per-pair FIFO order) and the collectives PARED uses
(``bcast``, ``gather``, ``allgather``, ``iallgather``, ``allreduce``,
``barrier`` — every one built from ``send``/``recv``).  Payloads travel
as typed frames of :mod:`repro.runtime.codec` — raw numpy buffers plus a
small tag header, with pickle retained as the fallback leaf for arbitrary
objects — and the frame size is recorded per phase in a shared
:class:`~repro.runtime.stats.TrafficStats` (the accounting rule is
unchanged: one record of ``len(frame)`` bytes per logical message).
Encode, decode and receive-wait time land in :data:`repro.perf.PERF`
under ``codec.encode.<phase>``, ``codec.decode.<phase>`` and
``simmpi.wait.<phase>``, so round profiles show the data-plane cost.

Transports: the wire behind ``send``/``recv`` is pluggable
(:mod:`repro.runtime.transport`).  The default backend runs one *thread*
per rank over in-process queues — deterministic, cheap, and the substrate
for fault injection and crash recovery.  ``spmd_run(...,
transport="shm")`` (or ``REPRO_TRANSPORT=shm``) runs one forked *process*
per rank instead (:mod:`repro.runtime.shm`), so phases execute on real
cores with no GIL serialization; frames cross through one shared-memory
ring per ordered rank pair — the same typed codec bytes as the queues —
and per-worker traffic ledgers are merged at the end of the run, so
accounting is identical on both backends.

Error containment: an exception on any rank cancels the run and is re-raised
in the caller (with the originating rank), instead of deadlocking the other
ranks; their pending ``recv`` calls raise :class:`SimMPIAborted`.

Fault injection: ``spmd_run(..., faults=FaultPlan(...))`` perturbs the wire
(reorder, delay, duplication, rank crash) while the communicator keeps its
exactly-once in-order delivery guarantee — see :mod:`repro.runtime.faults`.
The perturbation is a decorator over the transport seam
(:class:`~repro.runtime.faults.FaultyTransport`); ``SimComm`` keeps only
the plan's semantics — the crash clock, ticking once per ``send`` /
``recv`` call (a barrier's token frames included), and the receive
patience.  There is one message path either way: with ``faults=None``
(the default) no decorator is constructed, so fault support costs
nothing when disabled.

Crash survival: ``spmd_run(..., recover=True)`` converts a rank dying of
:class:`SimRankCrashed` or :class:`FaultToleranceExhausted` into a
:class:`~repro.runtime.recovery.MembershipChange` on a shared ledger
instead of aborting the run.  Surviving ranks observe the change as a
:class:`~repro.runtime.recovery.PeerCrashed` raised from their next
blocked receive — a barrier's included — and sends to dead ranks are
silently dropped; a barrier after ``acknowledge_membership()`` runs over
the survivors.  The application decides what recovery means (see
:mod:`repro.pared.system`); the runtime only guarantees clean, typed
detection.  With ``recover=False`` (the default) behaviour is exactly the
original fail-stop semantics.
"""

from __future__ import annotations

import queue
import threading
import time
from time import perf_counter

from repro.perf import PERF
from repro.runtime.codec import (
    decode as _decode,
    encode_parts as _encode_parts,
    parts_nbytes as _parts_nbytes,
)
from repro.runtime.faults import (
    FaultLog,
    FaultPlan,
    FaultToleranceExhausted,
    FaultyTransport,
    SimRankCrashed,
    patient_recv,
)
from repro.runtime.recovery import MembershipChange, PeerCrashed
from repro.runtime.stats import TrafficStats
from repro.runtime.shm import shm_spmd_run
from repro.runtime.transport import (  # noqa: F401  (re-exported API)
    SimMPIAborted,
    SimMPITimeout,
    SimRankDied,
    ThreadTransport,
    TransportEmpty,
    finish_spmd_run,
    resolve_backend,
)

_DEFAULT_TIMEOUT = 120.0

#: tag of a barrier's token frames (the other collectives use -1, -2, -4
#: and -5)
BARRIER_TAG = -3


class _Shared:
    """State shared by all ranks of one spmd_run."""

    def __init__(self, size: int, faults: FaultPlan = None, recover: bool = False):
        self.size = size
        # one FIFO per ordered pair keeps per-pair ordering MPI-like
        self.queues = {
            (s, d): queue.Queue() for s in range(size) for d in range(size)
        }
        self.stats = TrafficStats()
        self.abort = threading.Event()
        self.faults = faults
        self.fault_log = FaultLog() if faults is not None else None
        if faults is not None:
            self.stats.fault_log = self.fault_log
        # crash-survival ledger (inert unless recover=True)
        self.recover = recover
        self.dead: set = set()
        self.epoch = 0
        self.membership_events: list = []
        self.membership_lock = threading.Lock()

    def mark_dead(self, rank: int, cause: str, op: int = -1) -> None:
        """Record a rank's death on the membership ledger (idempotent)."""
        with self.membership_lock:
            if rank in self.dead:
                return
            self.dead.add(rank)
            self.epoch += 1
            self.membership_events.append(
                MembershipChange(rank=rank, epoch=self.epoch, cause=cause, op=op)
            )
        if self.fault_log is not None:
            self.fault_log.record("dead", rank, seq=op)

    def events_after(self, epoch: int) -> list:
        with self.membership_lock:
            return [e for e in self.membership_events if e.epoch > epoch]


class Request:
    """Handle of a posted :meth:`SimComm.iallgather`.

    ``sent_bytes`` is the total frame bytes the operation already put on
    the wire when it was posted — the hook per-round traffic accounting
    reads without re-encoding."""

    __slots__ = ("_fn", "_done", "_value", "sent_bytes")

    def __init__(self, fn, sent_bytes: int = 0):
        self._fn = fn
        self._done = False
        self._value = None
        self.sent_bytes = sent_bytes

    def wait(self, timeout: float = _DEFAULT_TIMEOUT):
        """Complete the operation and return its result.  A wait that
        times out may be retried: the operation resumes where it stopped."""
        if not self._done:
            self._value = self._fn(timeout)
            self._done = True
        return self._value


class SimComm:
    """Per-rank communicator handle."""

    def __init__(self, shared: _Shared, rank: int, transport):
        self._shared = shared
        self.rank = rank
        self.size = shared.size
        # the wire itself: the two operations of repro.runtime.transport
        self._transport = transport
        self.phase = "default"
        # out-of-order tag buffer per source
        self._stash = {}
        self._recover = shared.recover
        self._ack_epoch = 0
        self._faults = shared.faults
        # the plan's crash clock: communication ops so far (-1: no plan)
        self._ops = 0 if self._faults is not None else -1

    @property
    def fault_plan(self) -> FaultPlan:
        """The active :class:`FaultPlan`, or ``None``."""
        return self._faults

    @property
    def fault_log(self) -> FaultLog:
        """Shared log of injected fault events (``None`` without a plan)."""
        return self._shared.fault_log

    # ------------------------------------------------------------------ #
    # membership (active only with spmd_run(..., recover=True))
    # ------------------------------------------------------------------ #

    @property
    def recovery_enabled(self) -> bool:
        """True when this run converts rank deaths into membership events."""
        return self._recover

    def _membership_check(self) -> None:
        """Raise :class:`PeerCrashed` if the ledger moved past the epoch
        this rank acknowledged — called from every blocking receive so a
        survivor can never block forever on a dead peer."""
        if self._recover and self._shared.epoch > self._ack_epoch:
            raise PeerCrashed(self._shared.events_after(self._ack_epoch))

    def acknowledge_membership(self) -> list:
        """Accept the current membership epoch; returns the events newly
        acknowledged.  Receives stop raising :class:`PeerCrashed` until the
        next death."""
        events = self._shared.events_after(self._ack_epoch)
        if events:
            self._ack_epoch = events[-1].epoch
        return events

    @property
    def ack_epoch(self) -> int:
        return self._ack_epoch

    def live_ranks(self) -> list:
        """Sorted ranks still in the computation."""
        return [r for r in range(self.size) if r not in self._shared.dead]

    def dead_ranks(self) -> list:
        return sorted(self._shared.dead)

    def clear_stash(self, source: int) -> None:
        """Discard stashed (delivered but unconsumed) messages from
        ``source`` — recovery flushes pre-crash traffic this way."""
        self._stash.pop(source, None)

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #

    def set_phase(self, phase: str) -> None:
        """Label subsequent traffic with the given phase (P0..P3 in PARED)."""
        self.phase = phase

    @property
    def stats(self) -> TrafficStats:
        return self._shared.stats

    # ------------------------------------------------------------------ #
    # point to point
    # ------------------------------------------------------------------ #

    def send(self, obj, dest: int, tag: int = 0) -> int:
        """Send a picklable object to ``dest`` (non-blocking, buffered).
        Returns the frame length in bytes (0 for a dropped send to a dead
        rank) — the same number the traffic ledger recorded.  On an
        aborted run the transport raises :class:`SimMPIAborted` and the
        message is not recorded."""
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid dest {dest}")
        if self._recover and dest in self._shared.dead:
            # a send to a departed rank is a no-op, like writing to a
            # connection the transport already tore down
            return 0
        if self._faults is not None:
            self._count_op()
        tick = perf_counter()
        parts = _encode_parts(obj)
        n = _parts_nbytes(parts)
        PERF.add("codec.encode." + self.phase, perf_counter() - tick)
        self._transport.push_parts(dest, tag, parts, n)
        # the ledger records the *logical* message exactly once, at its
        # exact frame length (the parts concatenate to the very bytes
        # ``encode`` would produce) — whatever the wire below did with it
        self._shared.stats.record(self.rank, dest, n, self.phase)
        return n

    def _decode_timed(self, payload):
        tick = perf_counter()
        obj = _decode(payload)
        PERF.add("codec.decode." + self.phase, perf_counter() - tick)
        return obj

    def _count_op(self) -> None:
        """Advance the plan's crash clock; dies when the plan says so."""
        plan = self._faults
        self._ops += 1
        if plan.crash_rank == self.rank and self._ops >= plan.crash_at_op:
            self._shared.fault_log.record("crash", self.rank, seq=self._ops)
            raise SimRankCrashed(
                f"rank {self.rank} crashed (injected fault) at "
                f"communication op {self._ops}"
            )

    def recv(self, source: int, tag: int = 0, timeout: float = None):
        """Blocking receive of the next message from ``source`` with ``tag``
        (out-of-order tags are stashed).

        Under a :class:`FaultPlan`, a receive with no explicit ``timeout``
        has the plan's patience: ``recv_timeout`` per attempt, and with
        ``max_retries`` the retry/backoff schedule that ends in
        :class:`FaultToleranceExhausted` (a documented error, never a
        hang).  An explicit ``timeout`` is one attempt — the caller manages
        its own retries (:func:`repro.runtime.faults.recv_with_retry`)."""
        if not (0 <= source < self.size):
            raise ValueError(f"invalid source {source}")
        plan = self._faults
        patient = False
        if plan is not None:
            self._count_op()
            if timeout is None:
                timeout, patient = plan.recv_timeout, plan.max_retries > 0
        if timeout is None:
            timeout = _DEFAULT_TIMEOUT
        if not patient:
            return self._recv_within(source, tag, timeout)
        return patient_recv(
            lambda t: self._recv_within(source, tag, t),
            self.rank, source, tag, timeout,
            plan.max_retries, plan.backoff, self._shared.fault_log,
        )

    def _recv_within(self, source: int, tag: int, timeout: float):
        """The receive loop: pull until ``tag`` arrives or ``timeout``
        seconds from now have passed, stashing every other tag."""
        stash = self._stash.setdefault(source, {})
        if stash.get(tag):
            return self._decode_timed(stash[tag].pop(0))
        tick = perf_counter()
        remaining = max(timeout, 0.0)
        deadline = time.monotonic() + remaining
        while True:
            try:
                got_tag, payload = self._transport.pull(
                    source, min(0.05, remaining)
                )
            except TransportEmpty:
                # only raise PeerCrashed when actually stuck: available
                # messages are always drained first, so ranks whose answer
                # already arrived make progress through a membership change
                self._membership_check()
            else:
                if got_tag == tag:
                    PERF.add("simmpi.wait." + self.phase, perf_counter() - tick)
                    return self._decode_timed(payload)
                stash.setdefault(got_tag, []).append(payload)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SimMPITimeout(
                    f"rank {self.rank} timed out receiving from {source} tag {tag}"
                )

    # ------------------------------------------------------------------ #
    # collectives (built on point-to-point so they are accounted)
    # ------------------------------------------------------------------ #

    def bcast(self, obj, root: int = 0, tag: int = -1, ranks=None):
        """Broadcast from ``root``.  ``ranks`` restricts the collective to a
        subgroup (e.g. the live ranks after a crash); ``None`` is the full
        communicator."""
        if self.rank == root:
            for dst in range(self.size) if ranks is None else ranks:
                if dst != root:
                    self.send(obj, dst, tag)
            return obj
        return self.recv(root, tag)

    def gather(self, obj, root: int = 0, tag: int = -2, ranks=None):
        """Gather to ``root``.  With ``ranks`` the result list is aligned
        with (and only covers) the subgroup, in the given order."""
        if self.rank == root:
            return [
                obj if src == root else self.recv(src, tag)
                for src in (range(self.size) if ranks is None else ranks)
            ]
        self.send(obj, root, tag)
        return None

    def allgather(self, obj, tag: int = -4, ranks=None):
        """Allgather by direct pairwise exchange — no root rank in the
        pattern, unlike the historical gather+bcast funnel.

        Power-of-two group sizes use *recursive doubling*: ``log2(k)``
        rounds, each rank swapping everything it holds with its partner
        across one address bit.  Other sizes use a *ring*: ``k - 1`` steps
        forwarding one block to the clockwise neighbor.  Both deliver the
        result list aligned with the group order (``ranks`` order, or rank
        order for the full communicator), identical to the old path.
        Blocks travel as ``(position, block)`` pairs, so ``None`` is a
        legal payload.  Sends buffer without blocking, so the symmetric
        send-then-receive step cannot deadlock on either transport.
        """
        group = list(range(self.size)) if ranks is None else list(ranks)
        k = len(group)
        if k == 1:
            return [obj]
        me = group.index(self.rank)
        blocks = [None] * k
        blocks[me] = obj
        if k & (k - 1) == 0:
            dim = 1
            while dim < k:
                # this rank holds exactly the blocks of its low-bit subcube
                partner = group[me ^ dim]
                self.send(
                    [(pos, blocks[pos]) for pos in (me ^ m for m in range(dim))],
                    partner,
                    tag,
                )
                for pos, blk in self.recv(partner, tag):
                    blocks[pos] = blk
                dim <<= 1
        else:
            right = group[(me + 1) % k]
            left = group[(me - 1) % k]
            self.send((me, obj), right, tag)
            for step in range(k - 1):
                pos, blk = self.recv(left, tag)
                blocks[pos] = blk
                if step < k - 2:
                    self.send((pos, blk), right, tag)
        return blocks

    def iallgather(self, obj, tag: int = -4, ranks=None) -> "Request":
        """Nonblocking allgather.  This rank's block goes out to every
        other group member immediately (simulated sends buffer without
        blocking), and the returned :class:`Request` performs the ``k - 1``
        receives on ``wait()`` — so local work scheduled between post and
        wait genuinely overlaps the peers' sends on the forked backend.
        ``wait(timeout=...)`` budgets the timeout across the receives and
        raises :class:`SimMPITimeout` like a blocking ``recv`` would;
        ``req.sent_bytes`` is the total frame bytes posted."""
        group = list(range(self.size)) if ranks is None else list(ranks)
        k = len(group)
        me = group.index(self.rank)
        nbytes = 0
        for step in range(1, k):
            nbytes += self.send((me, obj), group[(me + step) % k], tag)

        # the request's progress lives outside ``complete``: a wait that
        # timed out keeps the blocks it consumed and a retry resumes at the
        # first peer still owed, instead of re-receiving from one whose
        # block is gone (or stealing its next round's frame)
        blocks = [None] * k
        blocks[me] = obj
        owed = [group[(me - step) % k] for step in range(1, k)]

        def complete(timeout):
            remaining = timeout if timeout is not None else _DEFAULT_TIMEOUT
            while owed:
                tick = perf_counter()
                pos, blk = self.recv(owed[0], tag, timeout=max(remaining, 0.001))
                remaining -= perf_counter() - tick
                blocks[pos] = blk
                del owed[0]
            return blocks

        return Request(complete, sent_bytes=nbytes)

    def allreduce(self, obj, op=None, tag: int = -5, ranks=None):
        """Reduce with ``op`` (binary callable, default ``+``), result on
        every rank: a pairwise allgather of the operands, then each rank
        folds them locally in group order.  The fold order is identical
        everywhere (and identical to the old root-funneled reduce), so
        floating-point results stay bitwise replica-identical."""
        data = self.allgather(obj, tag=tag, ranks=ranks)
        acc = data[0]
        for item in data[1:]:
            acc = (acc + item) if op is None else op(acc, item)
        return acc

    def barrier(self) -> None:
        """Rendezvous of the live ranks: an allgather of ``None`` tokens,
        whose frames are ordinary messages — aborted, dropped, accounted
        and turned into :class:`PeerCrashed` like any other."""
        self.allgather(None, tag=BARRIER_TAG, ranks=self.live_ranks())


def spmd_run(
    size: int,
    fn,
    *args,
    return_stats: bool = False,
    faults: FaultPlan = None,
    recover: bool = False,
    transport: str = None,
    **kwargs,
):
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` ranks.

    Returns the list of per-rank return values (plus the
    :class:`TrafficStats` if ``return_stats``).  The first rank exception is
    re-raised with its rank attached.

    ``transport`` selects the wire backend: ``"thread"`` (the default —
    one thread per rank, in-process queues) or ``"shm"`` (one forked
    process per rank, for real multi-core wall-clock: pooled workers
    exchanging frames through shared-memory rings; see
    :mod:`repro.runtime.shm`).  When omitted, the
    ``REPRO_TRANSPORT`` environment variable decides.  Fault
    injection and ``recover=True`` are thread-backend features: an
    environment preference for the shm backend falls back to threads,
    while an explicit ``transport="shm"`` with either active raises.  On
    the shm backend a rank process death surfaces as
    :class:`~repro.runtime.transport.SimRankDied`, never a hang.

    ``faults`` activates the deterministic fault-injection wire of
    :mod:`repro.runtime.faults`; injected events land on
    ``stats.fault_log``.  An injected crash re-raises as
    :class:`~repro.runtime.faults.SimRankCrashed` with the rank and op in
    the message.

    ``recover=True`` switches rank death from fail-stop to membership
    change: a rank dying of :class:`SimRankCrashed` or
    :class:`FaultToleranceExhausted` is marked dead on the shared ledger
    (its slot in the result list stays ``None``), surviving ranks see
    :class:`~repro.runtime.recovery.PeerCrashed` on their next receive, and
    the run's :class:`MembershipChange` events are attached to the stats as
    ``stats.membership_events``.  Only if *every* rank dies is the first
    death re-raised.
    """
    if size < 1:
        raise ValueError("need at least one rank")
    backend = resolve_backend(transport, faults=faults, recover=recover)
    if backend == "shm":
        return shm_spmd_run(size, fn, args, kwargs, return_stats=return_stats)
    shared = _Shared(size, faults=faults, recover=recover)
    shared.stats.backend = "thread"
    results = [None] * size
    errors = [None] * size
    deaths = (SimRankCrashed, FaultToleranceExhausted)

    def runner(rank: int):
        transport = ThreadTransport(shared, rank)
        if faults is not None:
            transport = FaultyTransport(transport, faults, shared.fault_log, rank)
        comm = SimComm(shared, rank, transport)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except deaths as exc:
            errors[rank] = exc
            if shared.recover:
                cause = "crash" if isinstance(exc, SimRankCrashed) else "timeout"
                shared.mark_dead(rank, cause, op=comm._ops)
            else:
                shared.abort.set()
        except BaseException as exc:  # noqa: BLE001 - must not deadlock peers
            errors[rank] = exc
            shared.abort.set()

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}")
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    shared.stats.membership_events = list(shared.membership_events)
    died = []
    if recover:
        # rank deaths were absorbed into membership events — unless every
        # rank died, in which case the first death is the run's outcome;
        # anything else (an unhandled PeerCrashed included) is a failure
        if len(shared.dead) == size:
            died = [e for e in errors if isinstance(e, deaths)]
        errors = [None if isinstance(e, deaths) else e for e in errors]
    return finish_spmd_run(results, errors, died, shared.stats, return_stats)
