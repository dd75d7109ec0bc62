"""Transport conformance suite for the simulated message-passing runtime.

Every semantic case runs on *both* backends — ``thread`` (in-process
queues) and ``shm`` (forked ranks over shared-memory rings) — through the
``backend`` fixture, and the traffic-ledger cases assert byte-for-byte
identical accounting across them.  A new
transport earns its place by passing this file unchanged.
"""

import os
import time

import numpy as np
import pytest

from repro.runtime.simmpi import (
    SimMPIAborted,
    SimMPITimeout,
    SimRankDied,
    spmd_run,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.stats import TrafficStats
from repro.runtime.transport import BACKENDS, resolve_backend

#: the backends whose ranks are OS processes (can die, can pool)
FORKED_BACKENDS = tuple(b for b in BACKENDS if b != "thread")


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Both transport backends; every conformance case runs on each."""
    return request.param


def run(backend, size, fn, **kwargs):
    return spmd_run(size, fn, transport=backend, **kwargs)


class TestPointToPoint:
    def test_send_recv(self, backend):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, 1)
                return None
            return comm.recv(0)

        res = run(backend, 2, prog)
        assert res[1] == {"x": 1}

    def test_tag_matching_out_of_order(self, backend):
        def prog(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag=1)
                comm.send("second", 1, tag=2)
                return None
            b = comm.recv(0, tag=2)  # arrives second, requested first
            a = comm.recv(0, tag=1)
            return (a, b)

        res = run(backend, 2, prog)
        assert res[1] == ("first", "second")

    def test_per_source_tag_fifo(self, backend):
        """Messages with the same (source, tag) arrive in send order, and
        order holds independently per tag stream."""

        def prog(comm):
            if comm.rank == 0:
                for k in range(20):
                    comm.send(("a", k), 1, tag=0)
                    comm.send(("b", k), 1, tag=7)
                return None
            b_stream = [comm.recv(0, tag=7) for _ in range(20)]
            a_stream = [comm.recv(0, tag=0) for _ in range(20)]
            return a_stream, b_stream

        a_stream, b_stream = run(backend, 2, prog)[1]
        assert a_stream == [("a", k) for k in range(20)]
        assert b_stream == [("b", k) for k in range(20)]

    def test_interleaved_sources(self, backend):
        """Receives from distinct sources are independent: draining one
        source never loses or reorders another's messages."""

        def prog(comm):
            if comm.rank < 2:
                for k in range(10):
                    comm.send((comm.rank, k), 2, tag=3)
                return None
            from_1 = [comm.recv(1, tag=3) for _ in range(10)]
            from_0 = [comm.recv(0, tag=3) for _ in range(10)]
            return from_0, from_1

        from_0, from_1 = run(backend, 3, prog)[2]
        assert from_0 == [(0, k) for k in range(10)]
        assert from_1 == [(1, k) for k in range(10)]

    def test_numpy_payload(self, backend):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(100), 1)
                return None
            return comm.recv(0)

        res = run(backend, 2, prog)
        assert np.array_equal(res[1], np.arange(100))

    def test_received_arrays_are_private_and_writable(self, backend):
        """mpi4py's receive contract: the receiver owns what it got.  Rank 1
        writes into a 32 KiB and a 64-byte array, keeps the large one while
        5 MiB more — over the 4 MiB shm ring, so its old slot is reused —
        crosses the same pair, then reads its own writes back."""
        fill = 160  # 160 frames of 32 KiB: 5 MiB

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4096, dtype=np.int64), 1, tag=1)
                comm.send(np.arange(8, dtype=np.int64), 1, tag=1)
                for k in range(fill):
                    comm.send(np.full(4096, k, dtype=np.int64), 1, tag=2)
                return None
            big = comm.recv(0, tag=1)
            small = comm.recv(0, tag=1)
            big[:] = -1
            small[:] = -2
            streamed = [int(comm.recv(0, tag=2)[-1]) for _ in range(fill)]
            return (
                streamed == list(range(fill)),
                bool((big == -1).all()),
                bool((small == -2).all()),
            )

        assert run(backend, 2, prog)[1] == (True, True, True)

    def test_large_payload_exceeds_socket_buffer(self, backend):
        """Multi-megabyte frames force partial reads (and, on the forked
        backend, continuation records through a ring the sender blocks
        on) — reassembly must be exact."""
        big = np.arange(1_000_000, dtype=np.int64)  # ~8 MB on the wire

        def prog(comm):
            if comm.rank == 0:
                comm.send(big, 1, tag=4)
                return None
            got = comm.recv(0, tag=4)
            return int(got[0]), int(got[-1]), got.shape[0]

        res = run(backend, 2, prog)
        assert res[1] == (0, 999_999, 1_000_000)

    def test_send_to_self(self, backend):
        def prog(comm):
            comm.send(("loop", comm.rank), comm.rank, tag=9)
            return comm.recv(comm.rank, tag=9)

        assert run(backend, 2, prog) == [("loop", 0), ("loop", 1)]

    def test_invalid_dest(self, backend):
        def prog(comm):
            comm.send(1, 99)

        with pytest.raises(RuntimeError):
            run(backend, 2, prog)


class TestCollectives:
    def test_allgather(self, backend):
        def prog(comm):
            return comm.allgather(comm.rank**2)

        assert run(backend, 4, prog) == [[0, 1, 4, 9]] * 4

    def test_allgather_rank_subset(self, backend):
        def prog(comm):
            group = [0, 2]
            if comm.rank in group:
                return comm.allgather(comm.rank + 1, ranks=group)
            return "outside"

        res = run(backend, 3, prog)
        assert res[0] == res[2] == [1, 3]
        assert res[1] == "outside"

    def test_allreduce_default_sum(self, backend):
        def prog(comm):
            return comm.allreduce(comm.rank + 1)

        assert run(backend, 4, prog) == [10] * 4

    def test_allreduce_custom_op(self, backend):
        def prog(comm):
            return comm.allreduce(comm.rank, op=max)

        assert run(backend, 5, prog) == [4] * 5

    def test_barrier(self, backend):
        def prog(comm):
            if comm.rank == 0:
                time.sleep(0.05)
            comm.barrier()
            return True

        assert run(backend, 3, prog) == [True, True, True]

    def test_barrier_repeated(self, backend):
        """Successive barriers must not confuse generations."""

        def prog(comm):
            for k in range(5):
                if comm.rank == k % comm.size:
                    time.sleep(0.01)
                comm.barrier()
            return True

        assert run(backend, 3, prog) == [True] * 3

    def test_single_rank(self, backend):
        def prog(comm):
            assert comm.allgather(5) == [5]
            comm.barrier()
            return "ok"

        assert run(backend, 1, prog) == ["ok"]


class TestPairwiseCollectives:
    """The `allgather` — a direct exchange, one frame per ordered pair —
    and the `allreduce` over it: the same result as a root-funneled
    exchange, the same ``ranks=`` semantics, and one bare frame per pair
    on the exactly-once ledger."""

    @pytest.mark.parametrize("size", (1, 2, 3, 4, 5, 8))
    def test_allgather_parity_with_root_funneled(self, backend, size):
        """Direct-exchange result == every block sent to rank 0 and the
        gathered list sent back to every rank, written as plain send/recv
        loops."""

        def prog(comm):
            obj = (comm.rank, "x" * comm.rank)
            direct = comm.allgather(obj, tag=60)
            if comm.rank == 0:
                funneled = [obj] + [
                    comm.recv(src, tag=61) for src in range(1, comm.size)
                ]
                for dst in range(1, comm.size):
                    comm.send(funneled, dst, tag=62)
            else:
                comm.send(obj, 0, tag=61)
                funneled = comm.recv(0, tag=62)
            return direct == funneled

        assert all(run(backend, size, prog))

    def test_allgather_ledger_one_bare_frame_per_pair(self, backend):
        """Each member sends exactly ``k - 1`` frames, each the length of
        its bare payload's encoding, and ``by_pair`` holds one frame per
        ordered pair."""
        from repro.runtime.codec import encode

        k = 4

        def payload(rank):
            return np.arange(10 * (rank + 1))

        def prog(comm):
            comm.set_phase(f"r{comm.rank}")
            return len(comm.allgather(payload(comm.rank), tag=72))

        res, stats = run(backend, k, prog, return_stats=True)
        assert res == [k] * k
        assert stats.phase_report() == {
            f"r{r}": (k - 1, (k - 1) * len(encode(payload(r)))) for r in range(k)
        }
        assert dict(stats.by_pair) == {
            (s, d): 1 for s in range(k) for d in range(k) if s != d
        }

    def test_allgather_none_payload(self, backend):
        """``None`` is a legal contribution (dkl ranks with no proposal
        send exactly that) — it must come back as a block, not be
        mistaken for a hole in the exchange."""

        def prog(comm):
            obj = None if comm.rank % 2 == 0 else comm.rank
            return comm.allgather(obj)

        assert run(backend, 4, prog) == [[None, 1, None, 3]] * 4

    def test_allreduce_bitwise_parity_with_gather_fold(self, backend):
        """The pairwise allreduce folds the gathered blocks in group
        order on every rank — bit-identical floats to the old
        root-funneled fold (which used the same order)."""

        def prog(comm):
            x = 0.1 * (comm.rank + 1) ** 3
            folded = comm.allreduce(x, tag=63)
            blocks = comm.allgather(x, tag=64)
            acc = blocks[0]
            for item in blocks[1:]:
                acc = acc + item
            return folded == acc  # bitwise: same fold order

        assert all(run(backend, 5, prog))

    def test_allreduce_rank_subset(self, backend):
        def prog(comm):
            group = [1, 2, 3]
            if comm.rank in group:
                return comm.allreduce(comm.rank, op=max, ranks=group)
            return "outside"

        assert run(backend, 4, prog) == ["outside", 3, 3, 3]

    def test_ledger_exactly_once_under_faults(self):
        """Reordering and duplicate delivery must not change the sender-
        side ledger: one record of the frame length per logical message,
        whatever the wire does (thread backend — fault injection lives
        there)."""

        def prog(comm):
            comm.set_phase("A")
            comm.allgather(np.arange(30) + comm.rank, tag=68)
            comm.set_phase("B")
            comm.allreduce(float(comm.rank), tag=69)
            return comm.allgather(comm.rank, tag=70)

        plan = FaultPlan(
            seed=5, reorder_rate=0.4, duplicate_rate=0.4,
            recv_timeout=2.0, max_retries=3,
        )
        res_c, clean = run("thread", 4, prog, return_stats=True)
        res_f, faulty = run(
            "thread", 4, prog, return_stats=True, faults=plan
        )
        assert res_c == res_f == [list(range(4))] * 4
        assert clean.phase_report() == faulty.phase_report()
        assert dict(clean.by_pair) == dict(faulty.by_pair)


class TestTimeouts:
    """``recv(timeout=...)`` semantics must be uniform across backends:
    same exception type (:class:`SimMPITimeout`, a :class:`TimeoutError`),
    same message shape."""

    @staticmethod
    def _timeout_prog(comm):
        if comm.rank == 1:
            try:
                comm.recv(0, tag=6, timeout=0.2)
            except Exception as exc:  # noqa: BLE001 - capturing for assert
                return type(exc).__name__, isinstance(exc, TimeoutError), str(exc)
            return "no exception"
        # keep rank 0 alive past rank 1's patience so the timeout is a
        # missing *message*, not a vanished peer
        time.sleep(0.5)
        return None

    def test_timeout_type_and_message(self, backend):
        res = run(backend, 2, self._timeout_prog)
        name, is_timeout, msg = res[1]
        assert name == "SimMPITimeout"
        assert is_timeout
        assert msg == "rank 1 timed out receiving from 0 tag 6"

    def test_timeout_identical_across_backends(self):
        captured = {b: run(b, 2, self._timeout_prog)[1] for b in BACKENDS}
        for b in BACKENDS[1:]:
            assert captured[b] == captured["thread"], b

    def test_timeout_is_a_deadline_under_other_traffic(self, backend):
        """A peer that keeps delivering *other* tags must not postpone the
        timeout: it is a deadline fixed when ``recv`` is entered, not a
        count of empty polls — and what arrived meanwhile stays stashed."""
        n = 120

        def prog(comm):
            if comm.rank == 0:
                for i in range(n):
                    comm.send(i, 1, tag=1)
                    time.sleep(0.01)
                return None
            t0 = time.monotonic()
            with pytest.raises(SimMPITimeout, match="from 0 tag 99"):
                comm.recv(0, tag=99, timeout=0.3)
            elapsed = time.monotonic() - t0
            return elapsed, [comm.recv(0, tag=1) for _ in range(n)]

        elapsed, streamed = run(backend, 2, prog)[1]
        assert 0.3 <= elapsed < 0.6
        assert streamed == list(range(n))

    def test_uncaught_timeout_propagates(self, backend):
        def prog(comm):
            if comm.rank == 1:
                comm.recv(0, timeout=0.2)
            else:
                time.sleep(0.5)

        with pytest.raises(RuntimeError, match="timed out"):
            run(backend, 2, prog)


class TestErrorsAndStats:
    def test_exception_propagates_with_rank(self, backend):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 2"):
            run(backend, 4, prog)

    def test_peer_recv_does_not_hang(self, backend):
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("dead")
            comm.recv(0, timeout=30.0)

        with pytest.raises(RuntimeError, match="rank 0"):
            run(backend, 2, prog)

    def test_traffic_accounting(self, backend):
        def prog(comm):
            comm.set_phase("A")
            comm.allgather(comm.rank)
            comm.set_phase("B")
            if comm.rank == 0:
                comm.send("x", 1)
            elif comm.rank == 1:
                comm.recv(0)

        _, stats = run(backend, 2, prog, return_stats=True)
        rep = stats.phase_report()
        assert rep["B"][0] == 1
        assert rep["A"][0] == 2  # pairwise allgather at p=2: one send per rank
        assert stats.total_bytes > 0
        assert stats.total_messages == 3
        # the backend that actually ran, not the one configured
        assert stats.backend == backend

    def test_needs_at_least_one_rank(self, backend):
        with pytest.raises(ValueError):
            run(backend, 0, lambda comm: None)


class TestLedgerConformance:
    """The exactly-once accounting rule — one record of ``len(frame)``
    bytes per logical message, recorded on the sender — must produce
    *identical* ledgers on every backend: same per-phase message and byte
    counts, same per-pair counts.  Byte-count assertions and fault hooks
    written against one backend then hold on all of them."""

    @staticmethod
    def _traffic_prog(comm):
        comm.set_phase("P1")
        comm.allgather(np.arange(50) + comm.rank, tag=11)
        comm.set_phase("P2")
        if comm.rank != 0:
            comm.send({"v_ids": np.arange(10), "v_wts": np.ones(10)}, 0, tag=20)
        else:
            for src in range(1, comm.size):
                comm.recv(src, tag=20)
        comm.set_phase("P3")
        if comm.rank == 0:
            payload = np.arange(comm.size)
            for dst in range(1, comm.size):
                comm.send(payload, dst, tag=30)
        else:
            payload = comm.recv(0, tag=30)
        # a barrier's token frames are logical messages, on every backend
        comm.barrier()
        return int(payload.sum())

    def test_ledger_identical_across_backends(self):
        runs = {
            b: run(b, 3, self._traffic_prog, return_stats=True)
            for b in BACKENDS
        }
        res_t, stats_t = runs["thread"]
        assert stats_t.backend == "thread"
        for b in BACKENDS[1:]:
            res_b, stats_b = runs[b]
            assert stats_b.backend == b
            assert res_b == res_t, b
            assert stats_b.total_messages == stats_t.total_messages, b
            assert stats_b.total_bytes == stats_t.total_bytes, b
            assert stats_b.phase_report() == stats_t.phase_report(), b
            assert dict(stats_b.by_pair) == dict(stats_t.by_pair), b

    def test_recorded_bytes_equal_frame_length(self, backend):
        from repro.runtime.codec import encode

        payload = {"e_keys": np.arange(100, dtype=np.int64), "w": 2.5}

        def prog(comm):
            comm.set_phase("P2")
            if comm.rank == 0:
                comm.send(payload, 1, tag=20)
            else:
                comm.recv(0, tag=20)

        _, stats = run(backend, 2, prog, return_stats=True)
        assert stats.total_messages == 1
        assert stats.total_bytes == len(encode(payload))


@pytest.fixture(params=FORKED_BACKENDS)
def forked_backend(request):
    """The backends whose ranks are separate OS processes."""
    return request.param


class TestForkedBackendsOnly:
    """Behaviour only a forked backend (shm) can exhibit."""

    def test_rank_process_death_is_clean(self, forked_backend):
        """A rank's OS process dying mid-run surfaces as a typed
        :class:`SimRankDied` in the caller — never a hang."""

        def prog(comm):
            if comm.rank == 1:
                os._exit(13)
            comm.recv(1, timeout=30.0)

        t0 = time.monotonic()
        with pytest.raises(SimRankDied, match="rank 1 process died"):
            run(forked_backend, 3, prog)
        assert time.monotonic() - t0 < 20.0

    def test_rank_death_is_simmpiaborted_family(self):
        assert issubclass(SimRankDied, SimMPIAborted)

    def test_survivor_sees_clean_error(self, forked_backend):
        """The peer blocked on the dead rank gets a SimMPIAborted-family
        error from its receive, not a timeout or a hang."""

        def prog(comm):
            if comm.rank == 1:
                os._exit(5)
            try:
                comm.recv(1, timeout=30.0)
            except SimMPIAborted as exc:
                return type(exc).__name__, str(exc)
            return "no error"

        with pytest.raises(SimRankDied):
            run(forked_backend, 2, prog)

    def test_results_cross_process_boundary(self, forked_backend):
        """Rank return values (arbitrary picklable objects) survive the
        trip back to the parent."""

        def prog(comm):
            return {"rank": comm.rank, "arr": np.full(3, comm.rank)}

        res = run(forked_backend, 3, prog)
        for r, item in enumerate(res):
            assert item["rank"] == r
            assert np.array_equal(item["arr"], np.full(3, r))

    def test_perf_spans_merge_to_parent(self, forked_backend):
        from repro.perf import PERF

        def prog(comm):
            comm.set_phase("P9")
            comm.allgather(np.arange(10))
            return True

        PERF.reset()
        run(forked_backend, 2, prog)
        snap = PERF.snapshot()
        assert any(name == "codec.encode.P9" for name in snap)

    def test_no_surviving_children_after_failure(self, forked_backend):
        """Teardown must reap every rank process even when the run raises
        — a raising rank, not a clean return — and leave no FDs behind.
        Pool workers are expected survivors for shm; everything else must
        be joined by the time spmd_run re-raises."""
        import multiprocessing

        def prog(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            comm.recv(0, timeout=30.0)

        with pytest.raises(RuntimeError, match="rank 0"):
            run(forked_backend, 3, prog)
        # parked shm pool workers are *expected* survivors (that is the
        # point of the pool); retire them so the assertion below only
        # sees what teardown actually failed to reap
        from repro.runtime.shm import shutdown_pools

        shutdown_pools()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            stragglers = [
                p for p in multiprocessing.active_children()
                if p.name.startswith("simmpi-")
            ]
            if not stragglers:
                break
            time.sleep(0.05)
        assert not stragglers, [p.name for p in stragglers]

    def test_children_and_fds_reaped_when_setup_raises(self, monkeypatch):
        """A failure *mid-setup* (here: the third fork refused) must not
        leak the ranks that did start, nor their sockets, nor the ring
        segment: the teardown path reaps children, closes every pair/ctrl
        FD and unlinks the segment before the error leaves spmd_run."""
        import gc
        import multiprocessing
        from multiprocessing.context import ForkProcess

        gc.collect()
        fds_before = len(os.listdir("/proc/self/fd"))
        segments_before = set(os.listdir("/dev/shm"))
        real_start = ForkProcess.start
        calls = {"n": 0}

        def flaky_start(proc):
            if proc.name.startswith("simmpi-shm-rank-"):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise OSError("fork refused")
            return real_start(proc)

        monkeypatch.setattr(ForkProcess, "start", flaky_start)
        with pytest.raises(OSError, match="fork refused"):
            run("shm", 3, lambda comm: None)
        monkeypatch.undo()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            stragglers = [
                p for p in multiprocessing.active_children()
                if p.name.startswith("simmpi-shm-rank-")
            ]
            if not stragglers:
                break
            time.sleep(0.05)
        assert not stragglers, [p.name for p in stragglers]
        gc.collect()
        fds_after = len(os.listdir("/proc/self/fd"))
        assert fds_after <= fds_before + 2, (
            f"fd leak across failed setup: {fds_before} -> {fds_after}"
        )
        assert set(os.listdir("/dev/shm")) <= segments_before


class TestBackendSelection:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "shm")
        assert resolve_backend("thread") == "thread"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "shm")
        assert resolve_backend(None) == "shm"
        monkeypatch.delenv("REPRO_TRANSPORT")
        assert resolve_backend(None) == "thread"

    def test_unknown_backend_rejected(self, monkeypatch):
        """Exactly BACKENDS is settable; the folded ``process`` name fails
        loudly on every route instead of mapping to shm."""
        assert BACKENDS == ("thread", "shm")
        for name in ("carrier-pigeon", "process"):
            with pytest.raises(ValueError, match=f"unknown transport '{name}'"):
                resolve_backend(name)
        with pytest.raises(ValueError, match="unknown transport 'process'"):
            spmd_run(2, lambda comm: None, transport="process")
        monkeypatch.setenv("REPRO_TRANSPORT", "process")
        with pytest.raises(ValueError, match="REPRO_TRANSPORT"):
            spmd_run(2, lambda comm: None)

    def test_faults_force_thread_from_env(self, monkeypatch):
        from repro.runtime.faults import FaultPlan

        monkeypatch.setenv("REPRO_TRANSPORT", "shm")
        assert resolve_backend(None, faults=FaultPlan(seed=0)) == "thread"
        assert resolve_backend(None, recover=True) == "thread"

    def test_explicit_shm_with_faults_raises(self):
        from repro.runtime.faults import FaultPlan

        with pytest.raises(ValueError, match="thread backend only"):
            resolve_backend("shm", faults=FaultPlan(seed=0))
        with pytest.raises(ValueError, match="thread backend only"):
            spmd_run(2, lambda comm: None, recover=True, transport="shm")

    def test_env_fallback_warns_once(self, monkeypatch):
        """The quiet env-shm -> thread fallback announces itself with a
        one-shot RuntimeWarning so a CI leg can see its runs were not on
        the backend it configured."""
        import warnings as warnings_mod

        import repro.runtime.transport as transport
        from repro.runtime.faults import FaultPlan

        monkeypatch.setenv("REPRO_TRANSPORT", "shm")
        monkeypatch.setattr(transport, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="falls back to transport='thread'"):
            assert resolve_backend(None, faults=FaultPlan(seed=0)) == "thread"
        # latched: the second fallback is silent
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert resolve_backend(None, recover=True) == "thread"

    def test_env_value_case_insensitive_and_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "Shm")
        assert resolve_backend(None) == "shm"
        monkeypatch.setenv("REPRO_TRANSPORT", "smh")
        with pytest.raises(ValueError, match="REPRO_TRANSPORT"):
            resolve_backend(None)


class TestStatsObjects:
    def test_traffic_stats_merge_dict(self):
        a, b = TrafficStats(), TrafficStats()
        a.record(0, 1, 100, "P1")
        b.record(1, 0, 50, "P1")
        b.record(1, 2, 70, "P2")
        a.merge_dict(b.as_dict())
        assert a.total_messages == 3
        assert a.bytes["P1"] == 150 and a.bytes["P2"] == 70
        assert a.by_pair[(1, 0)] == 1 and a.by_pair[(1, 2)] == 1
