#!/usr/bin/env python
"""Section 6 end-to-end: solve Laplace's equation adaptively and compare
partitioners on the adapted meshes.

Reproduces the paper's static workload at example scale: the corner-
singular harmonic problem is solved with P1 finite elements on a mesh that
is refined wherever the L∞ error indicator is large; after each refinement
the adapted mesh is partitioned with Multilevel-KL (on the fine dual graph)
and with PNR (on the weighted coarse dual graph), and their shared-vertex
quality is tabulated — a miniature Figure 3.

Run:  python examples/adaptive_laplace.py
"""

import numpy as np

from repro.experiments import format_table, mlkl_stepper, pnr_stepper
from repro.fem import (
    CornerLaplace2D,
    fem_solution_error,
    interpolation_error_indicator,
    mark_top_fraction,
    solve_poisson,
)
from repro.mesh import AdaptiveMesh, shared_vertex_count

P = 8
LEVELS = 4

problem = CornerLaplace2D()
amesh = AdaptiveMesh.unit_square(16)
mlkl = mlkl_stepper(seed=1)
pnr = pnr_stepper(seed=0, alpha=0.1, beta=0.8)
coarse = None  # PNR's carry-over: the current assignment of coarse trees
rows = []

for level in range(LEVELS + 1):
    # solve the PDE on the current mesh and report the true error
    u = solve_poisson(amesh, f=None, g=problem.dirichlet)
    err = fem_solution_error(amesh, u, problem.exact)

    # partition the adapted mesh both ways: Multilevel-KL from scratch,
    # PNR from where the trees are now
    fine_ml, _ = mlkl(amesh, P, None)
    sv_ml = shared_vertex_count(amesh.mesh, fine_ml)
    fine_pnr, coarse = pnr(amesh, P, coarse)
    sv_pnr = shared_vertex_count(amesh.mesh, fine_pnr)

    rows.append((level, amesh.n_leaves, f"{err['linf']:.2e}", sv_ml, sv_pnr))

    if level < LEVELS:
        ind = interpolation_error_indicator(amesh, problem.exact)
        amesh.refine(mark_top_fraction(amesh, ind, 0.2))

print(
    format_table(
        ["level", "elements", "Linf error", f"MLKL sharedV (p={P})", f"PNR sharedV (p={P})"],
        rows,
        title="Adaptive Laplace: FEM error and partition quality per refinement level",
    )
)
ratios = np.array([r[4] / r[3] for r in rows if r[3]])
print(f"\nPNR/MLKL shared-vertex ratio: mean {ratios.mean():.2f} (paper: ~1.0)")
