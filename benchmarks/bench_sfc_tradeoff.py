"""The partitioner tradeoff bench: PNR vs Multilevel-KL vs SFC.

One repartition *round* — the per-adaptation cost the coordinator pays — on
the coarse dual graph of a unit-square mesh, with vertex weights bumped in
a corner region to simulate local refinement.  For every strategy in the
registry it reports **wall time**, **edge cut**, **migration volume**
(weight moved off its previous part) and **imbalance** at three scales:

====================  =========  ==============================
scale                 elements   mesh
====================  =========  ==============================
reduced (CI)          8,192      ``unit_square(64)``
paper                 135,200    ``unit_square(260)`` ≈ 135,371
million               1,008,200  ``unit_square(710)``
====================  =========  ==============================

The expected shape (and the acceptance criterion of the SFC work): SFC is
≥10x faster than scratch Multilevel-KL at equal ``p`` on the paper-scale
graph, at a worse cut; PNR sits between them on time with the best
cut/migration combination.  At the million scale only SFC runs by default
(a scratch multilevel pass there is minutes of wall clock; pass ``--full``
to include the graph-based strategies anyway — nothing is dropped
silently, the table says so).

Two modes:

* **pytest** (reduced scale): one round per strategy, asserting a valid
  assignment within the imbalance bound and sfc >= 10x faster than mlkl
  (timed side by side in one process).  CI runs it with
  ``--benchmark-disable``; without the flag pytest-benchmark also times
  each round.

* **script** (nightly smoke)::

      PYTHONPATH=src python benchmarks/bench_sfc_tradeoff.py \
          --paper-scale --json results/sfc_tradeoff.json

  runs the paper scale (plus ``--million``), prints the tradeoff table,
  writes the JSON artifact and *asserts* the ≥10x speedup.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core import PNR
from repro.graph.csr import WeightedGraph
from repro.mesh import AdaptiveMesh, coarse_dual_graph, coarse_root_centroids
from repro.partition import (
    graph_cut,
    graph_imbalance,
    make_repartitioner,
    validate_assignment,
)

SCALES = {"reduced": 64, "paper": 260, "million": 710}
METHODS = ("pnr", "mlkl", "sfc")
_P = {"reduced": 8, "paper": 16, "million": 16}


def build_fixture(n: int):
    """Coarse dual graph + root centroids of an ``n x n`` unit square."""
    amesh = AdaptiveMesh.unit_square(n)
    graph = coarse_dual_graph(amesh.mesh)
    coords = coarse_root_centroids(amesh.mesh)
    return graph, coords


def perturb_weights(graph: WeightedGraph, coords: np.ndarray) -> WeightedGraph:
    """The post-adaptation graph: same topology, 4x weight where the
    corner box refined (the Section 6 load pattern)."""
    vwts = graph.vwts.copy()
    corner = (coords[:, 0] < 0.35) & (coords[:, 1] < 0.35)
    vwts[corner] *= 4.0
    return WeightedGraph(graph.xadj, graph.adjncy, graph.ewts, vwts)


def one_round(name: str, graph0, graph1, coords, p: int) -> dict:
    """Initial partition on ``graph0`` (untimed), then the timed
    repartition of ``graph1`` — the steady-state per-round cost."""
    strat = make_repartitioner(name, PNR())
    a0 = strat.initial(graph0, p, coords=coords)
    t0 = time.perf_counter()
    a1 = strat.repartition(graph1, p, a0, coords=coords)
    seconds = time.perf_counter() - t0
    validate_assignment(graph1, a1, p)
    return {
        "method": name,
        "p": p,
        "n": graph1.n_vertices,
        "seconds": seconds,
        "cut": float(graph_cut(graph1, a1)),
        "migration": float(graph1.vwts[np.asarray(a0) != np.asarray(a1)].sum()),
        "imbalance": float(graph_imbalance(graph1, a1, p)),
    }


# ---------------------------------------------------------------------- #
# pytest mode: the reduced-scale CI assertions
# ---------------------------------------------------------------------- #


def _reduced_fixture():
    graph0, coords = build_fixture(SCALES["reduced"])
    return graph0, perturb_weights(graph0, coords), coords


def _bench_round(benchmark, name):
    graph0, graph1, coords = _reduced_fixture()
    p = _P["reduced"]
    strat = make_repartitioner(name, PNR())
    a0 = strat.initial(graph0, p, coords=coords)

    a1 = benchmark.pedantic(
        lambda: strat.repartition(graph1, p, a0, coords=coords),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    # correctness guard: the bench must never go fast by being wrong
    validate_assignment(graph1, a1, p)
    assert graph_imbalance(graph1, a1, p) < 0.35


def test_round_reduced_pnr(benchmark):
    _bench_round(benchmark, "pnr")


def test_round_reduced_mlkl(benchmark):
    _bench_round(benchmark, "mlkl")


def test_round_reduced_sfc(benchmark):
    graph0, graph1, coords = _reduced_fixture()
    p = _P["reduced"]
    _bench_round(benchmark, "sfc")
    # the tradeoff holds already at reduced scale: the sfc re-split beats a
    # scratch multilevel pass by a wide margin
    rows = {m: one_round(m, graph0, graph1, coords, p) for m in ("mlkl", "sfc")}
    assert rows["sfc"]["seconds"] * 10 < rows["mlkl"]["seconds"]


# ---------------------------------------------------------------------- #
# script mode: the paper-scale / million-scale smoke
# ---------------------------------------------------------------------- #


def tradeoff_table(rows) -> str:
    hdr = f"{'scale':<9} {'method':<6} {'n':>9} {'p':>3} {'seconds':>9} {'cut':>10} {'migration':>11} {'imbal':>7}"
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r['scale']:<9} {r['method']:<6} {r['n']:>9} {r['p']:>3} "
            f"{r['seconds']:>9.3f} {r['cut']:>10.0f} {r['migration']:>11.0f} "
            f"{r['imbalance']:>7.3f}"
        )
    return "\n".join(lines)


def run_scale(scale: str, methods, rows: list) -> None:
    n = SCALES[scale]
    graph0, coords = build_fixture(n)
    graph1 = perturb_weights(graph0, coords)
    for name in methods:
        r = one_round(name, graph0, graph1, coords, _P[scale])
        r["scale"] = scale
        rows.append(r)
        print(f"  {scale}/{name}: {r['seconds']:.3f}s  cut={r['cut']:.0f}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paper-scale", action="store_true",
                    help="run the 135k-element scale (the nightly smoke)")
    ap.add_argument("--million", action="store_true",
                    help="also run the 10^6-element scale")
    ap.add_argument("--full", action="store_true",
                    help="run the graph-based strategies at the million "
                         "scale too (minutes of wall clock)")
    ap.add_argument("--json", metavar="PATH",
                    help="write the rows as a JSON artifact")
    args = ap.parse_args(argv)

    rows: list = []
    run_scale("reduced", METHODS, rows)
    if args.paper_scale:
        run_scale("paper", METHODS, rows)
    if args.million:
        run_scale("million", METHODS if args.full else ("sfc",), rows)
        if not args.full:
            print("  million/pnr, million/mlkl skipped (pass --full to run)")

    print()
    print(tradeoff_table(rows))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"[written to {args.json}]")

    # the acceptance criterion, asserted at the largest gated scale
    gate = "paper" if args.paper_scale else "reduced"
    by = {(r["scale"], r["method"]): r for r in rows}
    sfc, mlkl = by[(gate, "sfc")], by[(gate, "mlkl")]
    speedup = mlkl["seconds"] / max(sfc["seconds"], 1e-12)
    print(f"\nsfc vs mlkl at {gate} scale: {speedup:.0f}x faster")
    if speedup < 10:
        print("FAIL: sfc must be >= 10x faster than mlkl", file=sys.stderr)
        return 1
    if sfc["imbalance"] > 0.10:
        print("FAIL: sfc imbalance above tolerance", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
