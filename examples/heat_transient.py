#!/usr/bin/env python
"""Transient heat flow on an adaptive mesh with PNR load balancing.

Integrates the heat equation with backward Euler while the mesh adapts to
the moving solution front, carrying the discrete solution across each
adaptation (exact P1 transfer over bisection meshes) and rebalancing with
PNR whenever the imbalance trigger fires — the paper's full use case in one
script.

Run:  python examples/heat_transient.py
"""

import numpy as np

from repro.core import PNR
from repro.experiments import format_table
from repro.fem import interpolation_error_indicator, mark_over_threshold, mark_under_threshold
from repro.fem.timestepping import HeatEquationSolver
from repro.mesh import AdaptiveMesh, coarse_dual_graph
from repro.partition import graph_imbalance, graph_migration

P = 4
STEPS = 12
DT = 0.01
TRIGGER = 0.08

# a hot spot that drifts across the square with the ambient flow
def hot_spot(t):
    cx, cy = -0.5 + 1.2 * t, -0.5 + 1.2 * t
    return lambda p: np.exp(-30 * ((p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2))


amesh = AdaptiveMesh.unit_square(12)
solver = HeatEquationSolver(amesh, source=lambda p, t: 8.0 * hot_spot(t)(p))
pnr = PNR(seed=1)
coarse = pnr.initial_partition(amesh, P)

u = solver.initial_condition(lambda p: np.zeros(len(p)))
rows, moved_frac = [], []
for k in range(STEPS):
    t = (k + 1) * DT
    u = solver.step(u, t, DT)

    # adapt to the *discrete* solution's spatial variation via the frozen
    # source profile (the quantity that moves), then transfer u
    ind = interpolation_error_indicator(amesh, hot_spot(t))
    refine = mark_over_threshold(amesh, ind, 2e-3)
    coarsen = mark_under_threshold(amesh, ind, 2e-4)
    if refine.size:
        amesh.refine(refine)
    if coarsen.size:
        amesh.coarsen(coarsen)
    u = solver.transfer(u)

    graph = coarse_dual_graph(amesh.mesh)
    triggered = graph_imbalance(graph, coarse, P) > TRIGGER
    new = pnr.repartition(amesh, P, coarse) if triggered else coarse
    moved = graph_migration(graph, coarse, new)
    coarse = new
    rows.append(
        (k, f"{t:.2f}", amesh.n_leaves, f"{np.abs(u).max():.3f}",
         "yes" if triggered else "-", moved,
         f"{graph_imbalance(graph, coarse, P):.3f}")
    )
    moved_frac.append(moved / amesh.n_leaves)

print(
    format_table(
        ["step", "t", "leaves", "max|u|", "rebalanced", "moved", "imbalance"],
        rows,
        title=f"Heat equation with adaptive mesh + PNR (p={P})",
    )
)
print(
    f"\n{sum(r[4] == 'yes' for r in rows)}/{STEPS} rounds rebalanced, "
    f"mean movement {np.mean(moved_frac):.1%} of the mesh"
)
