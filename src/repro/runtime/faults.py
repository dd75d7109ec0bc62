"""Deterministic fault injection for the simulated runtime.

The algorithms under study are defined by their communication structure, so
the natural way to harden them is to perturb the *wire* while demanding the
application-visible behaviour stay exactly-once, in-order — the guarantee a
production transport (MPI over a lossy fabric, TCP) provides.  A seeded
:class:`FaultPlan` describes, per ordered rank pair, which messages are

* **reordered** — held on the wire just long enough for the next message on
  the same channel to overtake it;
* **delayed** — held long enough to trip the receiver's patience, forcing
  the retry/backoff path;
* **duplicated** — enqueued twice, exercising receiver-side dedup;

plus an optional **rank crash** after a fixed number of communication
operations, which must surface as a clean :class:`SimRankCrashed`
diagnostic in the caller, never a hang.

Decisions are drawn from one :class:`random.Random` stream per ordered
``(src, dst)`` channel, seeded by ``(plan.seed, src, dst)`` and indexed by
the channel's send sequence.  Because only the sending rank's thread draws
from its own channels, the set of injected faults is a pure function of the
plan — independent of thread scheduling — so every failing schedule can be
replayed from its seed.

Injection is a *decorator over the transport seam*
(:class:`FaultyTransport`, the two operations of
:mod:`repro.runtime.transport`): ``spmd_run`` wraps each rank's transport
in one iff a plan is present.  Its ``push_parts`` prepends a fixed ``(seq,
not_before)`` header part to the frame and pushes it once or twice through
the wrapped transport; its ``pull`` strips the header, resequences by
``seq``, drops duplicates and honours ``not_before`` (the injected network
latency) before handing ``(tag, payload)`` up.  It touches nothing but the
seam, and :class:`~repro.runtime.simmpi.SimComm` nothing of it: with
``plan=None`` no decorator is constructed and the wire format is the
original — fault injection is strictly zero-overhead when disabled.

Every injected event is appended to a shared :class:`FaultLog` so tests can
assert that a plan actually perturbed the wire (a chaos run that injected
nothing proves nothing).
"""

from __future__ import annotations

import random
import struct
import threading
import time
from dataclasses import dataclass

from repro.runtime.transport import SimRankCrashed, TransportEmpty

#: seconds a "reordered" message is held — long enough for the receiver's
#: 50 ms poll to observe the inversion, short enough never to trip a
#: default timeout
_REORDER_HOLD = 0.12

#: the header part a :class:`FaultyTransport` prepends to every frame:
#: channel sequence number (int64) + monotonic ``not_before`` (float64)
_ENVELOPE = struct.Struct("<qd")


class FaultToleranceExhausted(TimeoutError):
    """A receive timed out and every configured retry was used up.

    Subclasses :class:`TimeoutError` so callers treating timeouts generically
    keep working; the message documents rank, peer, tag
    and the attempt schedule, which is the "documented error" a degraded run
    must end in.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of which faults to inject.

    Attributes
    ----------
    seed:
        Root seed; all per-channel decision streams derive from it.
    reorder_rate:
        Probability a message is held back just long enough for the next
        message on its ``(src, dst)`` channel to overtake it on the wire.
    duplicate_rate:
        Probability a message is delivered twice (same sequence number; the
        receiver must dedupe).
    delay_rate:
        Probability a message's delivery is delayed by :attr:`delay`
        seconds (the injected latency that trips the receive-timeout path).
    delay:
        Injected latency in seconds for delayed messages.  Pick it larger
        than :attr:`recv_timeout` to force at least one retry.
    crash_rank:
        If not ``None``, this rank raises :class:`SimRankCrashed` when its
        communication-operation counter (sends + receives, a barrier's
        token frames included) reaches :attr:`crash_at_op`.
    crash_at_op:
        Operation count at which :attr:`crash_rank` dies.
    recv_timeout:
        Per-attempt receive patience in seconds (``None`` keeps the
        runtime default).  The total patience of a receive is the sum of
        the per-attempt timeouts across retries.
    max_retries:
        How many times a timed-out receive is retried before raising
        :class:`FaultToleranceExhausted`.
    backoff:
        Multiplier applied to the attempt timeout after each retry.
    """

    seed: int = 0
    reorder_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay: float = 0.3
    crash_rank: int | None = None
    crash_at_op: int = 0
    recv_timeout: float | None = None
    max_retries: int = 0
    backoff: float = 2.0

    def channel_rng(self, src: int, dst: int) -> random.Random:
        """Decision stream for the ordered channel ``src -> dst``."""
        return random.Random(f"faultplan:{self.seed}:{src}:{dst}")


class FaultLog:
    """Thread-safe record of every injected fault event.

    Entries are ``(kind, src, dst, seq, attempt)`` with ``kind`` one of
    ``reorder``, ``duplicate``, ``delay``, ``retry``, ``crash``, ``dead``
    (fields are -1 where they do not apply).  ``seq`` is always a wire
    sequence number (or the op counter for ``crash``/``dead``); a retry's
    attempt index is recorded under its own ``attempt`` field rather than
    overloading ``seq``.  Tests assert on :meth:`count` to prove a plan
    actually exercised the wire.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: list = []

    def record(
        self, kind: str, src: int, dst: int = -1, seq: int = -1, attempt: int = -1
    ) -> None:
        with self._lock:
            self.events.append((kind, src, dst, seq, attempt))

    def count(self, kind: str) -> int:
        with self._lock:
            return sum(1 for e in self.events if e[0] == kind)

    def kinds(self) -> dict:
        """``{kind: count}`` summary."""
        with self._lock:
            out: dict = {}
            for e in self.events:
                out[e[0]] = out.get(e[0], 0) + 1
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)


class FaultyTransport:
    """The plan's wire perturbations, as a decorator over the 2-op seam.

    ``inner`` is any transport; ``log`` the run's :class:`FaultLog`.
    Physical frames (what ``inner`` pushes, duplicates and the 16-byte
    header included) are the wrapped transport's to count; the *logical*
    message is recorded exactly once, above the seam.  An aborted run is
    the wrapped transport's to report: both operations call it before
    they log an event or hand a held frame up.
    """

    def __init__(self, inner, plan: FaultPlan, log: FaultLog, rank: int):
        self._inner = inner
        self._plan = plan
        self._log = log
        self._rank = rank
        self._out_seq = {}  # dst -> next sequence number to send
        self._rng = {}  # dst -> per-channel decision stream
        self._next_seq = {}  # src -> next sequence number to deliver
        self._held = {}  # src -> {seq: (tag, not_before, payload)}

    def push_parts(self, dest: int, tag: int, parts, total: int) -> None:
        plan, log = self._plan, self._log
        seq = self._out_seq.get(dest, 0)
        rng = self._rng.get(dest)
        if rng is None:
            rng = self._rng[dest] = plan.channel_rng(self._rank, dest)
        # one draw per knob, always, so decision streams stay aligned
        # across plans that differ only in rates
        u_dup, u_reorder, u_delay = rng.random(), rng.random(), rng.random()
        not_before, hold = 0.0, None
        if plan.delay_rate and u_delay < plan.delay_rate:
            not_before, hold = time.monotonic() + plan.delay, "delay"
        elif plan.reorder_rate and u_reorder < plan.reorder_rate:
            # held just long enough for the channel's next message to
            # overtake it on the wire
            not_before, hold = time.monotonic() + _REORDER_HOLD, "reorder"
        framed = [_ENVELOPE.pack(seq, not_before), *parts]
        total += _ENVELOPE.size
        # the wrapped push comes first: on an aborted run it raises
        # before the message takes a sequence number or logs an event
        self._inner.push_parts(dest, tag, framed, total)
        self._out_seq[dest] = seq + 1
        if hold:
            log.record(hold, self._rank, dest, seq)
        if plan.duplicate_rate and u_dup < plan.duplicate_rate:
            self._inner.push_parts(dest, tag, framed, total)
            log.record("duplicate", self._rank, dest, seq)

    def pull(self, source: int, slice_s: float):
        """The next in-sequence ``(tag, payload)`` whose injected latency
        has elapsed.  The wrapped ``pull`` runs first on every pass — with
        no wait when a held frame is due — so an aborted run raises before
        a held frame is handed up.  An empty inner wire with nothing due
        raises ``TransportEmpty`` straight through: the caller owns the
        deadline and simply pulls again."""
        held = self._held.setdefault(source, {})
        deadline = time.monotonic() + slice_s
        while True:
            nxt = self._next_seq.get(source, 0)
            entry = held.get(nxt)
            now = time.monotonic()
            due = entry is not None and entry[1] <= now
            wake = deadline if entry is None else min(deadline, entry[1])
            try:
                tag, frame = self._inner.pull(
                    source, 0.0 if due else max(wake - now, 0.0)
                )
            except TransportEmpty:
                if not due:
                    raise
            else:
                seq, not_before = _ENVELOPE.unpack_from(frame)
                if seq >= nxt and seq not in held:  # else a duplicate: drop
                    held[seq] = (tag, not_before, frame[_ENVELOPE.size :])
            if due:
                del held[nxt]
                self._next_seq[source] = nxt + 1
                return entry[0], entry[2]


def patient_recv(attempt, rank, source, tag, timeout, retries, backoff, log):
    """The one retry schedule: call ``attempt(timeout)`` up to ``retries +
    1`` times, multiplying the per-attempt timeout by ``backoff`` and
    logging a ``retry`` event after each :class:`TimeoutError`; when the
    budget is spent raise :class:`FaultToleranceExhausted` naming the full
    attempt schedule.  ``timeout=None`` means the runtime default patience
    per attempt."""
    attempt_timeout = timeout
    for i in range(retries + 1):
        try:
            return attempt(attempt_timeout)
        except FaultToleranceExhausted:
            raise  # the attempt already ran a schedule of its own
        except TimeoutError:
            if i == retries:
                raise FaultToleranceExhausted(
                    f"rank {rank} gave up receiving from rank {source} "
                    f"tag {tag} after {retries + 1} attempts "
                    f"(attempt timeouts: {attempt_schedule(timeout, retries, backoff)})"
                )
            if log is not None:
                log.record("retry", rank, source, attempt=i)
            if attempt_timeout is not None:
                attempt_timeout *= backoff


def recv_with_retry(
    comm,
    source: int,
    tag: int = 0,
    timeout: float = None,
    retries: int = None,
    backoff: float = None,
):
    """Receive with the PARED-side timeout/retry/backoff discipline.

    On a plain (fault-free) communicator this is exactly one ``recv`` with
    the default patience — zero behavioural change.  Under an active
    :class:`FaultPlan` the per-attempt timeout, retry budget and backoff
    default to the plan's values, so the distributed phases (P2 weight
    gather, P3 tree payloads) survive injected delivery delays by retrying
    instead of dying on the first timeout.

    Raises :class:`FaultToleranceExhausted` when the budget is spent —
    even a budget of zero retries, unlike a bare ``comm.recv()``, whose
    unretried timeout stays a plain ``SimMPITimeout``.
    """
    plan = getattr(comm, "fault_plan", None)
    if timeout is None:
        timeout = plan.recv_timeout if plan is not None else None
    if retries is None:
        retries = plan.max_retries if plan is not None else 0
    if backoff is None:
        backoff = plan.backoff if plan is not None else 2.0
    return patient_recv(
        lambda t: comm.recv(source, tag, timeout=t), comm.rank, source, tag,
        timeout, retries, backoff, getattr(comm, "fault_log", None),
    )


def attempt_schedule(timeout, retries: int, backoff: float) -> str:
    """Human-readable full schedule of per-attempt timeouts, first to last
    — what an exhausted receive actually waited, not just the final
    backed-off value."""
    if timeout is None:
        return f"{retries + 1} x default patience"
    return ", ".join(f"{timeout * backoff ** i:g}s" for i in range(retries + 1))
