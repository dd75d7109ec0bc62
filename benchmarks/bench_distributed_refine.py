"""Distributed refinement bench: where `dkl` beats the coordinator round.

The question this bench answers is the tentpole claim of the distributed
refinement work: with `--partitioner dkl` the repartitioning stage runs on
every rank (neighbor halo exchange in P2, tournament refinement in P3)
instead of serializing on the coordinator — so the *coordinator-phase
share* of round wall time must drop to zero while the final edge cut stays
within 10% of the coordinator-serial KL reference (`pnr`).

The measured quantity is the fraction of total round-phase seconds
(`pared.P0..P3` + audit, summed over all ranks) spent inside the
`pared.repartition.serial` span — the coordinator's merge + graph build +
KL refinement, which exists only on the `pnr` path.  For `dkl` the span
never opens: the coordinator's whole job is the O(p) scalar imbalance
check, and the refinement cost appears as `dkl.propose`/`dkl.resolve`/
`dkl.rebalance` spans spread across every rank.

Two modes:

* **pytest** (reduced scale, 4608-element coarse mesh, p=8), part of CI's
  ``--benchmark-disable`` evidence step: asserts the contract (coordinator
  share identically zero for `dkl` and nonzero for `pnr`, `dkl` cut within
  10% of `pnr`, per-round proposal bytes on the ledger) and writes the
  crossover table over p to ``results/distributed_refine.txt``.  It gates
  no timing: a p=8 threaded round on a 2-core runner mostly measures
  interpreter contention (docs/performance.md); the repo benchmark's
  parent-vs-change run of ``peak2d_p2_shm_dkl`` is the timing authority.
  Two sibling tests cover the wire and wall-time claims: the packed
  proposal frame must encode smaller than the old codec-dict format, and
  on runners with >= 4 cores the shm-backend `dkl` round must beat `pnr`
  on wall time (skipped with a ``::notice`` elsewhere).

* **script** (nightly smoke)::

      PYTHONPATH=src python benchmarks/bench_distributed_refine.py \
          --paper-scale --json results/distributed_refine.json

  runs the paper-scale mesh (135k coarse elements at p=16), prints the
  pnr/dkl crossover table and *asserts* the same criteria.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core import PNR
from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction
from repro.mesh import AdaptiveMesh
from repro.pared import ParedConfig, run_pared
from repro.runtime.envflags import effective_cpu_count

#: 48x48 unit square -> 2*48*48 = 4608 coarse triangles (CI gate);
#: 260x260 -> 135,200 coarse triangles (the paper's Section 6 scale)
_N = {"reduced": 48, "paper": 260}
_P = {"reduced": 8, "paper": 16}
_ROUNDS = 2
_CUT_TOL = 1.10  # dkl final cut must stay within 10% of coordinator KL

_ROUND_PHASES = ("pared.P0", "pared.P1", "pared.P2", "pared.P3", "pared.audit")


def _cfg(
    p: int, n: int, rounds: int, partitioner: str, transport=None
) -> ParedConfig:
    prob = CornerLaplace2D()

    def marker(amesh, rnd):
        ind = interpolation_error_indicator(amesh, prob.exact)
        return mark_top_fraction(amesh, ind, 0.15), []

    return ParedConfig(
        p=p,
        make_mesh=lambda: AdaptiveMesh.unit_square(n),
        marker=marker,
        rounds=rounds,
        pnr=PNR(seed=4),
        imbalance_trigger=0.05,
        partitioner=partitioner,
        transport=transport,
    )


def coordinator_share(perf: dict) -> float:
    """Seconds inside `pared.repartition.serial` as a fraction of all
    round-phase seconds — the serial-bottleneck share this work removes."""
    total = sum(secs for name, (_, secs) in perf.items() if name in _ROUND_PHASES)
    serial = perf.get("pared.repartition.serial", (0, 0.0))[1]
    return serial / total if total else 0.0


def measure(p: int, n: int, rounds: int, partitioner: str):
    """One timed ``run_pared``: its table row, histories and stats."""
    t0 = time.perf_counter()
    histories, stats = run_pared(_cfg(p, n, rounds, partitioner))
    seconds = time.perf_counter() - t0
    row = {
        "partitioner": partitioner,
        "p": p,
        "n_elements": 2 * n * n,
        "seconds": round(seconds, 3),
        "cut": int(histories[0][-1]["cut"]),
        "coord_share": round(coordinator_share(stats.kernel_perf or {}), 4),
    }
    return row, histories, stats


def crossover_rows(p_list, n: int, rounds: int) -> list:
    """pnr/dkl pairs over p: the coordinator-share column is nonzero on
    every pnr row and structurally zero on every dkl row.  (Summed over
    ranks the *share* need not grow with p on a serialized host — the
    denominator counts all ranks' phase seconds — but the serial span is
    the one term that cannot shrink as ranks become real cores.)"""
    return [
        measure(p, n, rounds, name)[0] for p in p_list for name in ("pnr", "dkl")
    ]


def crossover_table(rows) -> str:
    """The deterministic columns on plain lines, then the wall-clock ones
    (seconds and the coordinator share, a ratio of seconds) on ``#`` lines,
    which CI's rerun diff of ``results/`` ignores."""
    hdr = f"{'partitioner':<12} {'p':>3} {'elements':>9} {'cut':>6}"
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r['partitioner']:<12} {r['p']:>3} {r['n_elements']:>9} "
            f"{r['cut']:>6}"
        )
    lines.append(
        f"# {'partitioner':<12} {'p':>3} {'seconds':>8} {'coord-share':>12}"
    )
    for r in rows:
        lines.append(
            f"# {r['partitioner']:<12} {r['p']:>3} {r['seconds']:>8.3f} "
            f"{r['coord_share']:>12.4f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# pytest mode: the reduced-scale contract (no timing gate)
# ---------------------------------------------------------------------- #


def test_dkl_round_reduced(benchmark, write_result):
    n, p = _N["reduced"], _P["reduced"]
    dkl, histories, stats = benchmark.pedantic(
        lambda: measure(p, n, _ROUNDS, "dkl"), rounds=1, iterations=1
    )

    # correctness guard: the bench must never go fast by being wrong
    hist = histories[0]
    assert hist[0]["leaves"] >= 2 * n * n
    for other in histories[1:]:
        for a, b in zip(hist, other):
            assert a["leaves"] == b["leaves"] and a["cut"] == b["cut"]
            assert np.array_equal(a["owner"], b["owner"])

    # the refinement ran distributed: tournament spans present on the
    # perf snapshot (including the proposal exchange), the
    # coordinator-serial span never opened, and the refinement traffic is
    # attributed to its own phase label
    perf = stats.kernel_perf or {}
    assert "dkl.propose" in perf and "dkl.resolve" in perf
    assert "dkl.exchange" in perf
    assert "pared.repartition.serial" not in perf
    assert "dkl" in stats.phase_report()

    # acceptance: the coordinator-phase share is identically zero where
    # pnr's is not, at p>=8, with the final cut within 10% of the
    # coordinator-serial KL reference
    pnr = measure(p, n, _ROUNDS, "pnr")[0]
    assert pnr["coord_share"] > 0.0, "pnr must exercise the serial span"
    assert dkl["coord_share"] == 0.0
    assert dkl["cut"] <= _CUT_TOL * pnr["cut"], (
        f"dkl cut {dkl['cut']} vs pnr {pnr['cut']}"
    )

    # the crossover table over p
    rows = crossover_rows((2, 4), n, _ROUNDS) + [pnr, dkl]
    write_result("distributed_refine", crossover_table(rows))


def test_proposal_bytes_shrink_vs_codec_dict(write_result):
    """The packed struct-of-arrays frame must beat the dict-of-arrays the
    exchange used to ship, on real first-round proposals at bench scale —
    and the live run must account those bytes per round."""
    import numpy as np

    from repro.partition.distributed import (
        DKLConfig,
        PartView,
        _PartState,
        pack_proposal_frame,
    )
    from repro.runtime.codec import encode

    # bench-scale grid, striped start: every part has boundary moves
    side = _N["reduced"]
    p = _P["reduced"]
    nv = side * side
    ii, jj = np.divmod(np.arange(nv), side)
    edges = []
    right = np.flatnonzero(jj < side - 1)
    down = np.flatnonzero(ii < side - 1)
    edges = np.concatenate(
        [
            np.column_stack([right, right + 1]),
            np.column_stack([down, down + side]),
        ]
    )
    from repro.graph.csr import WeightedGraph

    g = WeightedGraph.from_edges(nv, edges)
    # seeded random start: scattered parts, so every part has plenty of
    # strictly positive boundary moves to propose
    assign = np.random.default_rng(0).integers(0, p, size=nv).astype(np.int64)
    cfg = DKLConfig()
    mean = g.vwts.sum() / p
    band = max(cfg.balance_tol * mean, 0.5 * float(g.vwts.max()))
    loads = np.bincount(assign, weights=g.vwts, minlength=p)
    locked = np.zeros(nv, dtype=bool)
    packed_total = 0
    dict_total = 0
    for part in range(p):
        view = PartView.from_graph(g, part, assign)
        # the first round's real frame: regular rows, escape offer attached
        prop = _PartState(view, assign, p).propose(
            assign, assign, loads, list(range(p)), cfg,
            mean + band, mean - band, locked, escape=True,
        )
        if prop is None:
            continue
        packed_total += len(encode(pack_proposal_frame(prop)))
        # the dict the exchange used to ship carried no escape offer
        dict_total += len(
            encode({k: prop[k] for k in prop if k not in ("n_reg", "esc")})
        )
    assert packed_total > 0, "striped start must yield proposals"
    assert packed_total < dict_total, (
        f"packed frame {packed_total}B must shrink vs dict {dict_total}B"
    )
    write_result(
        "dkl_proposal_bytes",
        f"first-round proposal bytes at p={p}, {2 * side * side} elements:\n"
        f"codec dict {dict_total:>9}\n"
        f"packed     {packed_total:>9}  "
        f"({packed_total / dict_total:.2%} of dict)",
    )


def test_dkl_beats_pnr_wall_time_multicore(write_result):
    """The wall-time claim (ROADMAP: 'the structural claim is gated but
    the wall-time win is still undemonstrated on 1-core runners'): with
    >= 4 real cores and one OS process per rank, removing the
    coordinator-serial span must show up as lower end-to-end wall time
    for dkl than pnr."""
    ncpu = effective_cpu_count()
    if ncpu < 4:
        print(
            f"::notice title=dkl wall-time leg skipped::runner reports "
            f"{ncpu} usable core(s) (<4); the dkl-vs-pnr wall-time comparison "
            f"needs truly parallel ranks and was not gated on this run"
        )
        import pytest

        pytest.skip(f"wall-time leg needs >=4 cores, have {ncpu}")
    n, p = _N["reduced"], 4
    seconds = {}
    for name in ("pnr", "dkl"):
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            run_pared(_cfg(p, n, _ROUNDS, name, transport="shm"))
            samples.append(time.perf_counter() - t0)
        seconds[name] = sorted(samples)[1]  # median of 3
    # a "#" line: CI's rerun diff of results/ ignores wall times
    write_result(
        "dkl_wall_time",
        f"# shm-backend wall time at p={p} ({ncpu} cores): "
        f"pnr {seconds['pnr']:.3f}s, dkl {seconds['dkl']:.3f}s",
    )
    assert seconds["dkl"] < seconds["pnr"], (
        f"dkl {seconds['dkl']:.3f}s must beat pnr {seconds['pnr']:.3f}s "
        f"on a {ncpu}-core runner"
    )


# ---------------------------------------------------------------------- #
# script mode: the paper-scale nightly smoke
# ---------------------------------------------------------------------- #


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paper-scale", action="store_true",
                    help="run the 135k-element scale (the nightly smoke)")
    ap.add_argument("--p", type=int, nargs="+", default=None,
                    help="processor counts for the crossover table")
    ap.add_argument("--json", metavar="PATH",
                    help="write the rows as a JSON artifact")
    args = ap.parse_args(argv)

    scale = "paper" if args.paper_scale else "reduced"
    n = _N[scale]
    p_gate = _P[scale]
    p_list = args.p or sorted({2, max(2, p_gate // 2), p_gate})
    rows = crossover_rows(p_list, n, _ROUNDS)

    print()
    print(crossover_table(rows))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"[written to {args.json}]")

    by = {(r["partitioner"], r["p"]): r for r in rows}
    pnr, dkl = by[("pnr", p_gate)], by[("dkl", p_gate)]
    print(
        f"\ncoordinator share at p={p_gate}: pnr {pnr['coord_share']:.4f} "
        f"-> dkl {dkl['coord_share']:.4f}; cut {pnr['cut']} -> {dkl['cut']}"
    )
    if not dkl["coord_share"] < pnr["coord_share"]:
        print("FAIL: dkl must reduce the coordinator-phase share",
              file=sys.stderr)
        return 1
    if dkl["cut"] > _CUT_TOL * pnr["cut"]:
        print(f"FAIL: dkl cut {dkl['cut']} above {_CUT_TOL}x pnr {pnr['cut']}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
