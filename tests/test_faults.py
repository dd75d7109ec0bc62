"""Unit tests of the deterministic fault-injection layer.

Covers the wire semantics (exactly-once, in-order delivery under reorder /
duplication / delay), decision determinism (pinned event logs), the
decorator's conformance to the bare transport seam, the zero-overhead
guarantee of the disabled path, crash diagnostics and error precedence,
and the PARED-side retry helper.
"""

import time
from collections import deque

import numpy as np
import pytest

from repro.core.pnr import PNR
from repro.mesh.adapt import AdaptiveMesh
from repro.pared.system import ParedConfig, run_pared
from repro.runtime import (
    FaultLog,
    FaultPlan,
    FaultToleranceExhausted,
    SimMPITimeout,
    SimRankCrashed,
    recv_with_retry,
    spmd_run,
)
from repro.runtime.faults import _REORDER_HOLD, FaultyTransport
from repro.runtime.simmpi import SimComm, _Shared
from repro.runtime.transport import SimMPIAborted, TransportEmpty

#: decision events are a pure function of the plan; 'retry' events depend on
#: wall-clock scheduling and are excluded from determinism comparisons
_DECISIONS = ("reorder", "duplicate", "delay")

CHAOS = FaultPlan(
    seed=11,
    reorder_rate=0.4,
    duplicate_rate=0.4,
    delay_rate=0.15,
    delay=0.25,
    recv_timeout=0.2,
    max_retries=5,
)


def _pingpong(comm):
    """Rank 0 streams tagged messages to every other rank; receivers return
    them in program order."""
    got = []
    if comm.rank == 0:
        for i in range(12):
            for dst in range(1, comm.size):
                comm.send((i, "x" * i), dst, tag=i % 3)
    else:
        for i in range(12):
            got.append(comm.recv(0, tag=i % 3))
    comm.barrier()
    return got


def _marker(amesh, rnd):
    cents = amesh.leaf_centroids()
    d = np.linalg.norm(cents - 0.5, axis=1)
    order = np.argsort(d)[: max(1, amesh.n_leaves // 8)]
    return amesh.leaf_ids()[order], []


def _pared_cfg(faults=None, audit=False, p=3, rounds=2):
    return ParedConfig(
        p=p,
        make_mesh=lambda: AdaptiveMesh.unit_square(4),
        marker=_marker,
        rounds=rounds,
        pnr=PNR(seed=1),
        faults=faults,
        audit=audit,
    )


class TestWireSemantics:
    def test_exactly_once_in_order_under_chaos(self):
        results, stats = spmd_run(3, _pingpong, return_stats=True, faults=CHAOS)
        for rank in (1, 2):
            assert [m[0] for m in results[rank]] == list(range(12))
        kinds = stats.fault_log.kinds()
        assert kinds.get("reorder", 0) > 0
        assert kinds.get("duplicate", 0) > 0
        assert kinds.get("delay", 0) > 0

    def test_results_match_fault_free_run(self):
        faulty = spmd_run(3, _pingpong, faults=CHAOS)
        clean = spmd_run(3, _pingpong)
        assert faulty == clean

    def test_decision_stream_is_deterministic(self):
        _, s1 = spmd_run(3, _pingpong, return_stats=True, faults=CHAOS)
        _, s2 = spmd_run(3, _pingpong, return_stats=True, faults=CHAOS)
        d1 = sorted(e for e in s1.fault_log.events if e[0] in _DECISIONS)
        d2 = sorted(e for e in s2.fault_log.events if e[0] in _DECISIONS)
        assert d1 == d2 and d1

    def test_different_seeds_differ(self):
        _, s1 = spmd_run(3, _pingpong, return_stats=True, faults=CHAOS)
        other = FaultPlan(
            seed=CHAOS.seed + 1,
            reorder_rate=CHAOS.reorder_rate,
            duplicate_rate=CHAOS.duplicate_rate,
            delay_rate=CHAOS.delay_rate,
            delay=CHAOS.delay,
            recv_timeout=CHAOS.recv_timeout,
            max_retries=CHAOS.max_retries,
        )
        _, s2 = spmd_run(3, _pingpong, return_stats=True, faults=other)
        d1 = sorted(e for e in s1.fault_log.events if e[0] in _DECISIONS)
        d2 = sorted(e for e in s2.fault_log.events if e[0] in _DECISIONS)
        assert d1 != d2


#: the four plan shapes of the pinned logs: no ``recv_timeout``, so no
#: (wall-clock dependent) ``retry`` event can occur
_PIN_PLANS = {
    "reorder": dict(reorder_rate=0.4),
    "duplicate": dict(duplicate_rate=0.4),
    "delay": dict(delay_rate=0.15, delay=0.25),
    "combined": dict(
        reorder_rate=0.4, duplicate_rate=0.4, delay_rate=0.15, delay=0.25
    ),
}

#: the complete ``FaultLog.events`` of ``spmd_run(3, _pingpong)`` per (plan,
#: seed), as ``(data, tokens)``.  One token per event; kind initial (r/d/l =
#: reorder/duplicate/delay), and ``attempt`` is -1 throughout.
#:
#: ``data`` — rank 0's twelve messages (source 0, channel seq < 12) in log
#: order, captured at the commit *before* injection became a decorator over
#: the transport seam (PR 21's parent, where ``SimComm._send_faulty`` wrote
#: envelopes into the queues itself): destination, ``.``, channel seq.
#:
#: ``tokens`` — the closing barrier's token frames (an allgather over a
#: ring of three: each rank sends two to its right neighbour), captured
#: when the barrier became one: source, destination, ``.``, channel seq,
#: grouped by source.  Each sender logs its own channels in program order;
#: the senders interleave by schedule, so only per-source order is pinned.
_PINNED = {
    ("reorder", 3): (
        "r1.1 r2.1 r1.3 r1.4 r2.4 r2.5 r1.6 r1.7 r2.8 r1.10 r1.11 r2.11",
        "r20.0",
    ),
    ("reorder", 11): (
        "r2.0 r1.1 r1.2 r2.2 r2.3 r2.4 r1.5 r2.7 r1.8 r2.8 r1.9 r2.9 r2.10 r2.11",
        "r01.12 r20.0 r20.1",
    ),
    ("reorder", 29): (
        "r1.0 r2.0 r1.1 r2.1 r2.2 r2.3 r1.5 r1.6 r1.7 r2.8 r1.11 r2.11",
        "r20.0 r20.1",
    ),
    ("duplicate", 3): (
        "d1.0 d1.1 d2.3 d2.4 d1.7 d1.9 d1.10 d1.11",
        "d01.12 d01.13 d12.1 d20.0",
    ),
    ("duplicate", 11): ("d2.1 d1.2 d1.3 d2.4 d2.7 d1.8 d1.11 d2.11", ""),
    ("duplicate", 29): (
        "d1.1 d2.2 d2.3 d2.4 d2.5 d1.6 d2.7 d1.8 d1.10 d2.10 d2.11",
        "d01.12 d12.1",
    ),
    ("delay", 3): ("l2.1 l2.4 l2.5 l2.7 l1.8 l2.8", ""),
    ("delay", 11): ("l2.6 l1.8 l1.9", ""),
    ("delay", 29): ("l1.0 l2.0 l2.6 l1.8 l2.9", "l20.1"),
    ("combined", 3): (
        "d1.0 r1.1 d1.1 l2.1 r1.3 d2.3 r1.4 l2.4 d2.4 l2.5 r1.6 r1.7 d1.7 l2.7 l1.8 l2.8 d1.9 r1.10 d1.10 r1.11 d1.11 r2.11",
        "d01.12 d01.13 d12.1 r20.0 d20.0",
    ),
    ("combined", 11): (
        "r2.0 r1.1 d2.1 r1.2 d1.2 r2.2 d1.3 r2.3 r2.4 d2.4 r1.5 l2.6 r2.7 d2.7 l1.8 d1.8 r2.8 l1.9 r2.9 r2.10 d1.11 r2.11 d2.11",
        "r01.12 r20.0 r20.1",
    ),
    ("combined", 29): (
        "l1.0 l2.0 r1.1 d1.1 r2.1 r2.2 d2.2 r2.3 d2.3 d2.4 r1.5 d2.5 r1.6 d1.6 l2.6 r1.7 d2.7 l1.8 d1.8 r2.8 l2.9 d1.10 d2.10 r1.11 r2.11 d2.11",
        "d01.12 d12.1 r20.0 l20.1",
    ),
}

_KINDS = {"r": "reorder", "d": "duplicate", "l": "delay"}


def _expand(tokens: str, sourced: bool = False) -> list:
    """Events of a pin string; without ``sourced`` the source is rank 0."""
    events = []
    for t in tokens.split():
        src, t = (int(t[1]), t[0] + t[2:]) if sourced else (0, t)
        events.append((_KINDS[t[0]], src, int(t[1]), int(t[3:]), -1))
    return events


class TestPinnedLogs:
    """Same data-message faults, event for event, as the pre-decorator
    implementation, plus the barrier's token frames."""

    @pytest.mark.parametrize("shape,seed", sorted(_PINNED))
    def test_event_log_matches_parent(self, shape, seed):
        plan = FaultPlan(seed=seed, **_PIN_PLANS[shape])
        results, stats = spmd_run(3, _pingpong, return_stats=True, faults=plan)
        data, tokens = _PINNED[(shape, seed)]
        events = stats.fault_log.events
        is_data = [e[1] == 0 and e[3] < 12 for e in events]
        assert [e for e, d in zip(events, is_data) if d] == _expand(data)
        barrier = [e for e, d in zip(events, is_data) if not d]
        # a stable sort by source keeps each sender's program order
        assert sorted(barrier, key=lambda e: e[1]) == _expand(tokens, True)
        assert results == spmd_run(3, _pingpong)
        # physical frames are what the decorator really pushed: one per
        # message plus one per duplicate, each 16 header bytes longer than
        # the logical frame the ledger recorded (once) above the seam; the
        # barrier adds two token messages per rank
        wire = stats.wire_report()
        assert stats.total_messages == 24 + 6
        assert wire["queue_frames"] == 30 + stats.fault_log.count("duplicate")
        assert wire["queue_bytes"] > stats.total_bytes


class _FakeWire:
    """A 20-line in-memory implementation of the two seam operations —
    no ``_Shared``, no queues, no threads.  ``pull`` on an empty channel
    sleeps out its slice like a real wire would, and both operations
    raise first once ``aborted`` is set."""

    def __init__(self, rank, channels):
        self.rank, self.channels, self.aborted = rank, channels, False

    def push_parts(self, dest, tag, parts, total):
        if self.aborted:
            raise SimMPIAborted("run aborted")
        frame = b"".join(parts)
        assert len(frame) == total
        self.channels.setdefault((self.rank, dest), deque()).append((tag, frame))

    def pull(self, source, slice_s):
        if self.aborted:
            raise SimMPIAborted("run aborted")
        box = self.channels.get((source, self.rank))
        if not box:
            time.sleep(slice_s)
            raise TransportEmpty()
        return box.popleft()


class TestSeamConformance:
    """``FaultyTransport`` needs nothing but the two operations."""

    def test_exactly_once_fifo_holds_and_dedup_over_a_fake_seam(self):
        plan = FaultPlan(
            seed=7, reorder_rate=0.4, duplicate_rate=0.5, delay_rate=0.2,
            delay=0.2,
        )
        log, channels = FaultLog(), {}
        tx = FaultyTransport(_FakeWire(0, channels), plan, log, 0)
        rx = FaultyTransport(_FakeWire(1, channels), plan, log, 1)
        n = 20
        pushed_at = []
        for i in range(n):
            pushed_at.append(time.monotonic())
            tx.push_parts(1, i % 3, [b"msg", bytes([i])], 4)
        kinds = log.kinds()
        assert min(kinds.get(k, 0) for k in _DECISIONS) > 0
        # physical frames: duplicates included, header on every one
        wire = channels[(0, 1)]
        assert len(wire) == n + kinds["duplicate"]
        assert all(len(frame) == 4 + 16 for _, frame in wire)

        got, got_at = [], []
        give_up = time.monotonic() + 10.0
        while len(got) < n and time.monotonic() < give_up:
            try:
                got.append(rx.pull(0, 0.02))
                got_at.append(time.monotonic())
            except TransportEmpty:
                pass
        # exactly once, per-pair FIFO, tags and payloads intact
        assert got == [(i % 3, b"msg" + bytes([i])) for i in range(n)]
        # duplicates were consumed and dropped, never delivered
        with pytest.raises(TransportEmpty):
            rx.pull(0, 0.0)
        assert not wire
        # holds honoured: nothing is handed up before its injected latency
        hold = {"delay": plan.delay, "reorder": _REORDER_HOLD}
        for kind, _, _, seq, _ in log.events:
            if kind in hold:
                assert got_at[seq] - pushed_at[seq] >= hold[kind]
        # the seam is two operations: no abort query and no barrier to
        # pass through (SimComm's barrier is token messages)
        assert not hasattr(rx, "aborted")
        assert not hasattr(rx, "barrier")

    def test_aborted_run_logs_nothing_and_hands_up_no_held_frame(self):
        """An abort reaches the decorator only through the wrapped
        operations: a send on an aborted run draws no event, and a frame
        the decorator already holds — due or not — is never handed up."""
        plan = FaultPlan(seed=1, delay_rate=1.0, delay=0.0)
        log, channels = FaultLog(), {}
        wires = [_FakeWire(0, channels), _FakeWire(1, channels)]
        tx = FaultyTransport(wires[0], plan, log, 0)
        rx = FaultyTransport(wires[1], plan, log, 1)
        tx.push_parts(1, 5, [b"held"], 4)
        tx.push_parts(1, 5, [b"next"], 4)
        assert log.count("delay") == 2
        # seq 1 arrives first, so it is in the decorator's hold (and due)
        # once seq 0 has been handed up
        channels[(0, 1)].rotate(1)
        assert rx.pull(0, 0.0) == (5, b"held")
        assert not channels[(0, 1)]
        for wire in wires:
            wire.aborted = True
        with pytest.raises(SimMPIAborted):
            rx.pull(0, 0.0)  # seq 1 is held and due, but the run is over
        with pytest.raises(SimMPIAborted):
            tx.push_parts(1, 5, [b"late"], 4)
        assert log.count("delay") == 2

    def test_aborted_send_is_not_recorded(self):
        """``SimComm.send`` records the message after the wire took it: a
        send the transport refuses as aborted never reaches the ledger."""
        shared = _Shared(2)
        wire = _FakeWire(0, {})
        comm = SimComm(shared, 0, wire)
        assert comm.send("kept", 1) > 0
        wire.aborted = True
        with pytest.raises(SimMPIAborted):
            comm.send("dropped", 1)
        assert shared.stats.total_messages == 1


class TestZeroOverhead:
    def test_no_fault_plan_accounting_identical(self):
        """A PARED run with fault support disabled and one with an inert
        plan produce byte-identical traffic accounting and histories."""
        h_off, s_off = run_pared(_pared_cfg(faults=None))
        h_inert, s_inert = run_pared(_pared_cfg(faults=FaultPlan(seed=0)))
        assert s_off.phase_report() == s_inert.phase_report()
        assert dict(s_off.by_pair) == dict(s_inert.by_pair)
        for a, b in zip(h_off[0], h_inert[0]):
            assert np.array_equal(a["owner"], b["owner"])
            assert a["cut"] == b["cut"]
            assert a["elements_moved"] == b["elements_moved"]

    def test_disabled_plan_has_no_log(self):
        _, stats = run_pared(_pared_cfg(faults=None))
        assert stats.fault_log is None


class TestCrash:
    def test_crash_is_clean_and_typed(self):
        with pytest.raises(SimRankCrashed, match=r"rank 1.*injected fault"):
            run_pared(_pared_cfg(faults=FaultPlan(crash_rank=1, crash_at_op=9)))

    def test_crash_does_not_hang_peers(self):
        import time

        t0 = time.monotonic()
        with pytest.raises(SimRankCrashed):
            spmd_run(
                4, _pingpong, faults=FaultPlan(crash_rank=2, crash_at_op=3)
            )
        assert time.monotonic() - t0 < 30.0


class TestErrorPrecedence:
    """The thread backend's end-of-run precedence, now the shared
    ``finish_spmd_run`` (pinned at the parent, where ``spmd_run`` restated
    it)."""

    CRASH_1 = FaultPlan(crash_rank=1, crash_at_op=1)

    def test_lowest_rank_primary_beats_injected_crash(self):
        def fn(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match=r"rank 0 failed: ValueError") as ei:
            spmd_run(2, fn, faults=self.CRASH_1)
        assert not isinstance(ei.value, SimRankCrashed)
        assert isinstance(ei.value.__cause__, ValueError)

    def test_injected_crash_alone_surfaces_bare(self):
        # op 1 is the send of rank 1's barrier token
        with pytest.raises(SimRankCrashed, match="communication op 1") as ei:
            spmd_run(2, lambda comm: comm.barrier(), faults=self.CRASH_1)
        assert type(ei.value) is SimRankCrashed
        assert ei.value.__cause__ is None


class TestRetry:
    #: a patience with no retry budgeted — the two entry points differ here
    #: and only here (pinned at the parent)
    NO_RETRY = FaultPlan(recv_timeout=0.05)

    @staticmethod
    def _starved(receive):
        def fn(comm):
            if comm.rank == 0:
                try:
                    receive(comm)
                except TimeoutError as exc:
                    return type(exc), str(exc)
            return None

        return fn

    def test_bare_recv_without_retry_budget_is_plain_timeout(self):
        kind, msg = spmd_run(
            2, self._starved(lambda c: c.recv(1, tag=9)), faults=self.NO_RETRY
        )[0]
        assert kind is SimMPITimeout
        assert msg == "rank 0 timed out receiving from 1 tag 9"

    def test_helper_without_retry_budget_is_exhaustion(self):
        kind, msg = spmd_run(
            2,
            self._starved(lambda c: recv_with_retry(c, 1, tag=9)),
            faults=self.NO_RETRY,
        )[0]
        assert kind is FaultToleranceExhausted
        assert msg == (
            "rank 0 gave up receiving from rank 1 tag 9 after 1 attempts "
            "(attempt timeouts: 0.05s)"
        )

    def test_only_exhaustion_is_a_rank_death_under_recover(self):
        """``recover=True`` absorbs :class:`FaultToleranceExhausted` into a
        membership change; a plain timeout stays a run failure."""

        def bare(comm):
            if comm.rank == 0:
                comm.recv(1, tag=9)

        def helper(comm):
            if comm.rank == 0:
                recv_with_retry(comm, 1, tag=9)
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 0 failed: SimMPITimeout"):
            spmd_run(2, bare, faults=self.NO_RETRY, recover=True)
        results, stats = spmd_run(
            2, helper, faults=self.NO_RETRY, recover=True, return_stats=True
        )
        assert results == [None, 1]
        assert [(e.rank, e.cause) for e in stats.membership_events] == [
            (0, "timeout")
        ]

    def test_plain_comm_single_attempt(self):
        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(TimeoutError):
                    recv_with_retry(comm, 1, tag=99, timeout=0.1)
            return True

        assert spmd_run(2, fn) == [True, True]

    def test_exhaustion_is_documented_error(self):
        plan = FaultPlan(seed=0, recv_timeout=0.06, max_retries=2)

        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(FaultToleranceExhausted, match="gave up"):
                    comm.recv(1, tag=99)
            return True

        assert spmd_run(2, fn, faults=plan) == [True, True]

    def test_retry_recovers_delayed_message(self):
        plan = FaultPlan(
            seed=2, delay_rate=1.0, delay=0.3, recv_timeout=0.1, max_retries=5
        )

        def fn(comm):
            if comm.rank == 0:
                comm.send("late", 1, tag=5)
                return None
            return comm.recv(0, tag=5)

        results, stats = spmd_run(2, fn, return_stats=True, faults=plan)
        assert results[1] == "late"
        assert stats.fault_log.count("retry") >= 1
