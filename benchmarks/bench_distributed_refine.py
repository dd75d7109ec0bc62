"""Tournament refinement bench: `dkl`'s cut against `pnr`'s.

Every strategy repartitions the same merged weight graph on every rank, so
what tells `--partitioner dkl` (the propose / resolve / rebalance
tournament) from `pnr` (the Equation-1 V-cycle) is the partition: the
final edge cut of a `dkl` run must stay within 10% of `pnr`'s.

Two modes:

* **pytest** (reduced scale, 4608-element coarse mesh, p=8), part of CI's
  ``--benchmark-disable`` evidence step: asserts the contract (every rank
  holds the same owner map, the tournament's spans are on the perf
  snapshot, `dkl` cut within 10% of `pnr`) and writes the table over p to
  ``results/distributed_refine.txt``.  It gates no timing: a p=8 threaded
  round on a 2-core runner mostly measures interpreter contention
  (docs/performance.md); the repo benchmark's parent-vs-change run of
  ``peak2d_p2_shm_dkl`` is the timing authority.

* **script** (nightly smoke)::

      PYTHONPATH=src python benchmarks/bench_distributed_refine.py \
          --paper-scale --json results/distributed_refine.json

  runs the paper-scale mesh (135k coarse elements at p=16), prints the
  pnr/dkl table and *asserts* the same cut criterion.
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

#: 48x48 unit square -> 2*48*48 = 4608 coarse triangles (CI gate);
#: 260x260 -> 135,200 coarse triangles (the paper's Section 6 scale)
_N = {"reduced": 48, "paper": 260}
_P = {"reduced": 8, "paper": 16}
_ROUNDS = 2
_CUT_TOL = 1.10  # dkl final cut must stay within 10% of pnr's


def _cfg(p: int, n: int, rounds: int, partitioner: str) -> ParedConfig:
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
    )


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
    }
    return row, histories, stats


def crossover_rows(p_list, n: int, rounds: int) -> list:
    """pnr/dkl pairs over p."""
    return [
        measure(p, n, rounds, name)[0] for p in p_list for name in ("pnr", "dkl")
    ]


def crossover_table(rows) -> str:
    """The deterministic columns on plain lines, then the wall-clock one on
    ``#`` lines, which CI's rerun diff of ``results/`` ignores."""
    hdr = f"{'partitioner':<12} {'p':>3} {'elements':>9} {'cut':>6}"
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r['partitioner']:<12} {r['p']:>3} {r['n_elements']:>9} "
            f"{r['cut']:>6}"
        )
    lines.append(f"# {'partitioner':<12} {'p':>3} {'seconds':>8}")
    for r in rows:
        lines.append(
            f"# {r['partitioner']:<12} {r['p']:>3} {r['seconds']:>8.3f}"
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

    # the tournament ran: its spans are on the perf snapshot
    perf = stats.kernel_perf or {}
    assert "dkl.propose" in perf and "dkl.resolve" in perf

    # acceptance: the final cut within 10% of pnr's
    pnr = measure(p, n, _ROUNDS, "pnr")[0]
    assert dkl["cut"] <= _CUT_TOL * pnr["cut"], (
        f"dkl cut {dkl['cut']} vs pnr {pnr['cut']}"
    )

    # the table over p
    rows = crossover_rows((2, 4), n, _ROUNDS) + [pnr, dkl]
    write_result("distributed_refine", crossover_table(rows))


# ---------------------------------------------------------------------- #
# script mode: the paper-scale nightly smoke
# ---------------------------------------------------------------------- #


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paper-scale", action="store_true",
                    help="run the 135k-element scale (the nightly smoke)")
    ap.add_argument("--p", type=int, nargs="+", default=None,
                    help="processor counts for the table")
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
    print(f"\ncut at p={p_gate}: pnr {pnr['cut']} -> dkl {dkl['cut']}")
    if dkl["cut"] > _CUT_TOL * pnr["cut"]:
        print(f"FAIL: dkl cut {dkl['cut']} above {_CUT_TOL}x pnr {pnr['cut']}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
