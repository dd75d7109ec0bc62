"""A1 — ablation: the α / β trade-off of Equation 1.

Sweep α (migration penalty) at the paper's β = 0.8, and β (balance
penalty) at the paper's α = 0.1, on one Figure 5-style repartitioning
round.  Expected shape:

* α = 0 reduces PNR to plain partitioning — larger migration, best cut;
  increasing α monotonically (in trend) trades cut for migration until the
  partition freezes;
* too-small β fails to rebalance; β ≈ 0.8 reaches the balance envelope;
  larger β buys nothing further.
"""

from __future__ import annotations

from conftest import paper_scale
from repro.core import PNR
from repro.experiments import format_table, ladder_pairs, pnr_stepper
from repro.mesh import coarse_dual_graph
from repro.partition import graph_cut, graph_imbalance, graph_migration


def _setup(p: int, final_fraction: float = 0.05):
    """A Figure 5-like state: the mesh has been partitioned by a PNR chain
    (so the corner region is spread over several subsets, as it would be in
    a live run), then receives one more concentrated refinement that has
    *not* been repartitioned yet."""
    from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction

    pnr = pnr_stepper(seed=9)
    current = None
    for _, _, amesh in ladder_pairs(
        dim=2, n_measure=2, n=(28 if not paper_scale() else 40)
    ):
        _, current = pnr(amesh, p, current)
    ind = interpolation_error_indicator(amesh, CornerLaplace2D().exact)
    amesh.refine(mark_top_fraction(amesh, ind, final_fraction))
    return amesh, current


def run_sweep(p: int):
    amesh, current = _setup(p)
    graph = coarse_dual_graph(amesh.mesh)
    n = amesh.n_leaves
    rows = []
    for alpha in (0.0, 0.01, 0.1, 1.0, 10.0):
        pnr = PNR(alpha=alpha, beta=0.8, seed=9)
        new = pnr.repartition(amesh, p, current)
        rows.append(
            ("alpha", alpha, graph_cut(graph, new),
             graph_migration(graph, current, new) / n,
             graph_imbalance(graph, new, p))
        )
    for beta in (0.0, 0.05, 0.8, 3.2):
        pnr = PNR(alpha=0.1, beta=beta, seed=9)
        new = pnr.repartition(amesh, p, current)
        rows.append(
            ("beta", beta, graph_cut(graph, new),
             graph_migration(graph, current, new) / n,
             graph_imbalance(graph, new, p))
        )
    return rows, graph_imbalance(graph, current, p)


def test_ablation_alpha_beta(benchmark, write_result):
    p = 8
    (rows, imb0) = benchmark.pedantic(run_sweep, args=(p,), rounds=1, iterations=1)
    write_result(
        "ablation_alpha_beta",
        format_table(
            ["swept", "value", "cut", "moved frac", "imbalance"],
            rows,
            title=f"A1: alpha/beta sweep, p={p} (imbalance before repartition: {imb0:.3f})",
        ),
    )
    alpha_rows = [r for r in rows if r[0] == "alpha"]
    # monotone trend: the largest alpha migrates no more than the smallest
    assert alpha_rows[-1][3] <= alpha_rows[0][3] + 1e-9
    # alpha in the paper's range keeps migration small while balancing
    mid = [r for r in alpha_rows if r[1] == 0.1][0]
    assert mid[3] < 0.25 and mid[4] < 0.4
    beta_rows = [r for r in rows if r[0] == "beta"]
    b0 = [r for r in beta_rows if r[1] == 0.0][0]
    b8 = [r for r in beta_rows if r[1] == 0.8][0]
    assert b8[4] <= b0[4] + 1e-9, "beta=0.8 should balance at least as well as beta=0"
    benchmark.extra_info["rows"] = [tuple(map(float, r[1:])) for r in rows]
