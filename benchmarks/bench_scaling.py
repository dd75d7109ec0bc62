"""E-extra — scaling study: PNR's cost and migration vs mesh size and p.

Section 4's requirement: "the graph repartitioning must have a low cost
relative to the solution time".  This bench measures, across a ladder of
mesh sizes and processor counts, (a) PNR repartitioning wall time, (b) the
migration fraction, and (c) the time relative to one sparse Poisson solve
on the same mesh — the quantity that has to stay small for the method to be
usable.
"""

from __future__ import annotations

import time

from conftest import paper_scale
from repro.core import PNR
from repro.experiments import format_table
from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction, solve_poisson
from repro.mesh import AdaptiveMesh, coarse_dual_graph
from repro.partition import graph_migration


def run_scaling(sizes, plist):
    prob = CornerLaplace2D()
    rows = []
    for n in sizes:
        amesh = AdaptiveMesh.unit_square(n)
        for _ in range(2):
            ind = interpolation_error_indicator(amesh, prob.exact)
            amesh.refine(mark_top_fraction(amesh, ind, 0.2))
        t0 = time.perf_counter()
        solve_poisson(amesh, g=prob.dirichlet)
        t_solve = time.perf_counter() - t0
        for p in plist:
            pnr = PNR(seed=0)
            current = pnr.initial_partition(amesh, p)
            ind = interpolation_error_indicator(amesh, prob.exact)
            amesh_leaves_before = amesh.n_leaves
            amesh.refine(mark_top_fraction(amesh, ind, 0.03))
            t0 = time.perf_counter()
            new = pnr.repartition(amesh, p, current)
            t_rep = time.perf_counter() - t0
            g = coarse_dual_graph(amesh.mesh)
            moved = graph_migration(g, current, new)
            rows.append(
                (
                    amesh.n_leaves, p,
                    round(t_rep * 1e3, 1),
                    round(t_solve * 1e3, 1),
                    round(t_rep / t_solve, 2),
                    round(moved / amesh.n_leaves, 4),
                )
            )
    return rows


def test_scaling(benchmark, write_result):
    sizes = [12, 20] if not paper_scale() else [20, 40, 79]
    plist = [4, 8] if not paper_scale() else [8, 32]
    rows = benchmark.pedantic(run_scaling, args=(sizes, plist), rounds=1, iterations=1)
    # wall times go on "#" lines, which CI's rerun diff of results/ ignores
    walls = format_table(
        ["leaves", "p", "repartition ms", "solve ms", "rep/solve"],
        [r[:5] for r in rows],
        title="wall times (host-dependent):",
    )
    write_result(
        "scaling",
        format_table(
            ["leaves", "p", "moved frac"],
            [(r[0], r[1], r[5]) for r in rows],
            title="Scaling: PNR repartition cost vs one Poisson solve",
        )
        + "\n"
        + "\n".join("# " + line for line in walls.splitlines()),
    )
    for leaves, p, t_rep, t_solve, ratio, frac in rows:
        # a ratio of two wall times: measured 0.14-1.1x one direct sparse
        # solve on 2 vCPUs with the compiled core; the bound dates from a
        # pure-Python KL path (7-16x) the package no longer has
        assert ratio < 25, f"repartitioning disproportionately slow: {ratio}x solve"
        assert frac < 0.3
    # near-linear complexity: doubling the mesh must not quadruple the
    # repartition time (per processor count)
    for p in plist:
        times = [r[2] for r in rows if r[1] == p]
        sizes_p = [r[0] for r in rows if r[1] == p]
        if len(times) >= 2:
            growth = times[-1] / max(times[0], 1e-9)
            size_growth = sizes_p[-1] / sizes_p[0]
            assert growth < 3.0 * size_growth, (
                f"p={p}: time grew {growth:.1f}x for {size_growth:.1f}x mesh"
            )
    benchmark.extra_info["rows"] = rows
