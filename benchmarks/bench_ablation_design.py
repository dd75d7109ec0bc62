"""A2 — ablation: PNR's design choices and alternative repartitioners.

On one Figure 5-style round (balanced current partition, small refinement,
repartition), compare:

* **PNR** (inherit coarsest assignment + constrained matching) — the paper;
* **PNR/repartition-coarsest** — modification (a) disabled: the coarsest
  graph is re-partitioned from scratch; expected to migrate much more;
* **PNR/free-matching** — contraction may mix subsets; the inherited
  coarse assignment blurs and migration grows;
* **scratch-remap** — multilevel from scratch + Biswas–Oliker relabel [5];
* **diffusion** — Hu–Blake flow baseline [8]; balances with modest
  migration but no global cut optimization.
"""

from __future__ import annotations

from bench_ablation_alpha_beta import _setup
from repro.core import PNR, diffusion_repartition
from repro.experiments import format_table
from repro.mesh import coarse_dual_graph
from repro.partition import (
    graph_cut,
    graph_imbalance,
    graph_migration,
    make_repartitioner,
)


def run_design_ablation(p: int):
    amesh, current = _setup(p)
    graph = coarse_dual_graph(amesh.mesh)
    n = amesh.n_leaves

    variants = {
        "PNR": PNR(seed=9).repartition(amesh, p, current),
        "PNR/repart-coarsest": PNR(seed=9, repartition_coarsest=True).repartition(
            amesh, p, current
        ),
        "PNR/free-matching": PNR(seed=9, constrain_matching=False).repartition(
            amesh, p, current
        ),
        "scratch-remap": make_repartitioner("mlkl", pnr=PNR(seed=9)).repartition(
            graph, p, current
        ),
        "diffusion": diffusion_repartition(graph, p, current),
    }
    rows = [
        (
            name,
            graph_cut(graph, a),
            graph_migration(graph, current, a) / n,
            graph_imbalance(graph, a, p),
        )
        for name, a in variants.items()
    ]
    return rows


def test_ablation_design(benchmark, write_result):
    p = 8
    rows = benchmark.pedantic(run_design_ablation, args=(p,), rounds=1, iterations=1)
    write_result(
        "ablation_design",
        format_table(
            ["variant", "cut", "moved frac", "imbalance"],
            rows,
            title=f"A2: PNR design ablation, p={p}",
        ),
    )
    by = {r[0]: r for r in rows}
    # the paper's design choices minimize migration among global methods
    assert by["PNR"][2] <= by["PNR/repart-coarsest"][2] + 1e-9, (
        "inheriting the coarsest assignment should migrate less than "
        "repartitioning it"
    )
    assert by["PNR"][2] < by["scratch-remap"][2] + 1e-9
    # every variant must deliver a usable balance
    for name, cut, mig, imb in rows:
        assert imb < 0.6, f"{name} failed to rebalance (imb={imb:.2f})"
    benchmark.extra_info["rows"] = [(r[0], float(r[1]), float(r[2]), float(r[3])) for r in rows]
