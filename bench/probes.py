"""Outside probes (P) and the stats harvest (S) of the traced run.

Probes time one public function of a layer on the replay's final state, or
one runtime primitive on the workload's own ``(p, transport)``; each reports
the median of ``REPS`` repetitions.  The harvest reads the ``stats`` object
one real call returned: rank-summed inclusive spans, as the program reports
them today, and message/byte counts, which repeat exactly.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from bench.harness import median
from repro.graph.contract import contract
from repro.graph.csr import WeightedGraph
from repro.graph.matching import heavy_edge_matching
from repro.partition import _klnative
from repro.partition.kl import KLConfig, kl_refine
from repro.runtime.simmpi import spmd_run

#: repetitions behind every probe median
REPS = 21


def _median_seconds(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times)


def graph_probes(graph, seed: int) -> dict:
    """One level of the multilevel hierarchy on the final coarse graph:
    heavy-edge matching, contraction, and the CSR build from an edge list."""
    n = graph.n_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    upper = src < graph.adjncy
    edges = np.column_stack([src[upper], graph.adjncy[upper]])
    weights = graph.ewts[upper]
    match = heavy_edge_matching(graph, seed=seed)
    return {
        "graph.hem_s": _median_seconds(
            lambda: heavy_edge_matching(graph, seed=seed)
        ),
        "graph.contract_s": _median_seconds(lambda: contract(graph, match)),
        "graph.from_edges_s": _median_seconds(
            lambda: WeightedGraph.from_edges(n, edges, weights, graph.vwts)
        ),
    }


def kl_probe(graph, owner, parts: int, pnr) -> float:
    """Two Equation-1 KL passes on the final graph from the final owner,
    configured as ``multilevel_repartition`` configures its refinement."""
    if parts < 2:
        return 0.0
    cfg = KLConfig(
        alpha=pnr.alpha, beta=pnr.beta, balance_tol=pnr.balance_tol,
        max_passes=2, window=16, balance_mode="deadband",
    )
    return _median_seconds(
        lambda: kl_refine(graph, owner, parts, home=owner, config=cfg)
    )


def native_kl() -> float:
    """1 when the compiled KL pass is loaded, 0 on the pure-Python path."""
    return 1.0 if _klnative.load() is not None else 0.0


# ---------------------------------------------------------------------- #
# runtime primitives on the workload's (p, transport)
# ---------------------------------------------------------------------- #


def _noop_rank(comm):
    return comm.rank


def _primitives_rank(comm, reps):
    """Per-repetition seconds, measured on rank 0: 1 KiB and 1 MiB round
    trips between ranks 0 and 1, a 1 KiB allgather, a barrier."""
    out = {}
    for label, n in (("rtt_1k", 128), ("rtt_1m", 128 << 10)):
        payload = np.arange(n, dtype=np.int64)
        times = []
        comm.barrier()
        for i in range(reps):
            t0 = perf_counter()
            if comm.rank == 0:
                comm.send(payload, 1, tag=100 + i)
                comm.recv(1, tag=200 + i, timeout=60.0)
            elif comm.rank == 1:
                got = comm.recv(0, tag=100 + i, timeout=60.0)
                comm.send(int(got[0]), 0, tag=200 + i)
            times.append(perf_counter() - t0)
        out[label] = times
    payload = np.arange(128, dtype=np.int64)
    times = []
    comm.barrier()
    for i in range(reps):
        t0 = perf_counter()
        comm.allgather(payload, tag=300 + i)
        times.append(perf_counter() - t0)
    out["allgather_1k"] = times
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        comm.barrier()
        times.append(perf_counter() - t0)
    out["barrier"] = times
    return out if comm.rank == 0 else None


_TRANSPORT_ZERO = dict.fromkeys(
    ("runtime.dispatch_ms", "runtime.rtt_1k_us", "runtime.rtt_1m_us",
     "runtime.allgather_1k_us", "runtime.barrier_us"), 0.0
)


def transport_probes(p: int, transport) -> dict:
    """All zero for a workload that sends no messages (p = 1, the ladder)."""
    if transport is None or p < 2:
        return dict(_TRANSPORT_ZERO)
    dispatch = []
    for _ in range(REPS):
        t0 = perf_counter()
        spmd_run(p, _noop_rank, transport=transport)
        dispatch.append(perf_counter() - t0)
    prims = spmd_run(p, _primitives_rank, REPS, transport=transport)[0]
    return {
        "runtime.dispatch_ms": median(dispatch) * 1e3,
        "runtime.rtt_1k_us": median(prims["rtt_1k"]) * 1e6,
        "runtime.rtt_1m_us": median(prims["rtt_1m"]) * 1e6,
        "runtime.allgather_1k_us": median(prims["allgather_1k"]) * 1e6,
        "runtime.barrier_us": median(prims["barrier"]) * 1e6,
    }


# ---------------------------------------------------------------------- #
# the stats of one real call
# ---------------------------------------------------------------------- #

def stats_metrics(stats, rounds: int, scale: float) -> dict:
    """``scale`` calibrates the call's seconds; counts are left as they
    are.  An empty ``TrafficStats`` (the ladder has no runtime) reads 0
    throughout."""
    perf = stats.kernel_perf or {}
    phases = stats.phase_report()
    wire = stats.wire_report()

    def seconds(name):
        return float(perf.get(name, (0, 0.0))[1]) * scale

    def phase_bytes(name):
        return float(phases.get(name, (0, 0))[1])

    return {
        "partition.dkl_propose_ranksum_s": seconds("dkl.propose"),
        "partition.dkl_exchange_ranksum_s": seconds("dkl.exchange"),
        "partition.dkl_resolve_ranksum_s": seconds("dkl.resolve"),
        "pared.P0_ranksum_s": seconds("pared.P0"),
        "pared.P1_ranksum_s": seconds("pared.P1"),
        "pared.P2_ranksum_s": seconds("pared.P2"),
        "pared.P3_ranksum_s": seconds("pared.P3"),
        "pared.repartition_serial_s": seconds("pared.repartition.serial"),
        "runtime.wait_ranksum_s": scale * float(
            sum(v[1] for k, v in perf.items() if k.startswith("simmpi.wait"))
        ),
        "runtime.msgs_per_round": stats.total_messages / rounds,
        "runtime.bytes_per_round": stats.total_bytes / rounds,
        "runtime.P0_bytes": phase_bytes("P0"),
        "runtime.P2_bytes": phase_bytes("P2"),
        "runtime.P3_bytes": phase_bytes("P3"),
        "runtime.dkl_bytes": phase_bytes("dkl"),
        "runtime.ring_frames": float(wire.get("ring_frames", 0)),
        "runtime.spill_frames": float(wire.get("spill_frames", 0)),
        "runtime.copied_bytes": float(wire.get("copied_bytes", 0)),
    }
