"""P1 finite-element substrate: assembly, boundary conditions, solving and
error estimation for the paper's two model problems.

PARED's purpose is the parallel adaptive solution of PDEs; the experiments
drive adaptation from the solution of Laplace's equation on ``(-1,1)^2`` /
``(-1,1)^3`` with a corner-concentrated harmonic solution (Section 6) and
Poisson's equation with a moving-peak solution (Section 10).  This package
implements linear simplicial elements, vectorized assembly, Dirichlet
conditions, sparse solves, and the L∞ / gradient-jump error indicators that
mark elements for refinement or coarsening.
"""

from repro.fem.p1 import stiffness_matrix, mass_matrix, load_vector, gradients
from repro.fem.bc import apply_dirichlet
from repro.fem.solve import solve_poisson, fem_solution_error
from repro.fem.estimate import (
    interpolation_error_indicator,
    gradient_jump_indicator,
    mark_over_threshold,
    mark_top_fraction,
    mark_under_threshold,
)
from repro.fem.problems import CornerLaplace2D, CornerLaplace3D, MovingPeakPoisson2D

__all__ = [
    "stiffness_matrix",
    "mass_matrix",
    "load_vector",
    "gradients",
    "apply_dirichlet",
    "solve_poisson",
    "fem_solution_error",
    "interpolation_error_indicator",
    "gradient_jump_indicator",
    "mark_over_threshold",
    "mark_top_fraction",
    "mark_under_threshold",
    "CornerLaplace2D",
    "CornerLaplace3D",
    "MovingPeakPoisson2D",
]
