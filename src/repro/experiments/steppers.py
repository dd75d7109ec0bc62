"""The repartitioning methods the paper's tables compare, as steppers.

A stepper is ``method(amesh, p, state) -> (fine_assignment, state)``: called
once after every adaptation of ``amesh``, with ``state=None`` the first time
and its own returned carry-over after — the convention of
:class:`~repro.experiments.transient.TransientRunner`, which
:func:`~repro.experiments.laplace.run_repartition_protocol` and
:func:`~repro.experiments.laplace.run_quality_ladder` share.

The scratch methods draw their ``k``-th partition (``k = 0, 1, ...``) with
``seed + k``.
"""

from __future__ import annotations

from repro.core.pnr import PNR
from repro.experiments.tracking import AssignmentTracker
from repro.mesh.dualgraph import fine_dual_graph
from repro.partition.multilevel import multilevel_partition
from repro.partition.permute import (
    apply_permutation,
    minimize_migration_permutation,
)
from repro.partition.spectral import recursive_spectral_bisection


def pnr_stepper(seed: int = 0, alpha: float = 0.1, beta: float = 0.8):
    """PNR on the coarse dual graph ``G``; the state is the current
    assignment of coarse trees."""
    pnr = PNR(alpha=alpha, beta=beta, seed=seed)

    def step(amesh, p, coarse):
        if coarse is None:
            coarse = pnr.initial_partition(amesh, p)
        else:
            coarse = pnr.repartition(amesh, p, coarse)
        return pnr.induced_fine(amesh, coarse), coarse

    return step


def _scratch_stepper(partition):
    """Fresh ``partition(graph, p, k)`` of the fine dual graph each step;
    the state is the step count ``k``."""

    def step(amesh, p, k):
        k = k or 0
        graph, _ = fine_dual_graph(amesh.mesh)
        return partition(graph, p, k), k + 1

    return step


def rsb_stepper(seed: int = 0):
    """Recursive spectral bisection from scratch (Figures 4, 7, 8)."""
    return _scratch_stepper(
        lambda graph, p, k: recursive_spectral_bisection(
            graph, p, seed=seed + k, refine=True
        )
    )


def mlkl_stepper(seed: int = 0):
    """Multilevel-KL from scratch (Figure 3, and Figure 4's "similar
    results" claim)."""
    return _scratch_stepper(
        lambda graph, p, k: multilevel_partition(graph, p, seed=seed + k)
    )


def rsb_perm_stepper(seed: int = 0):
    """RSB followed by the Biswas–Oliker subset permutation [5] against
    where the elements currently are (Figure 8's middle series)."""
    rsb = rsb_stepper(seed)

    def step(amesh, p, state):
        tracker, k = state or (None, None)
        fine, k = rsb(amesh, p, k)
        if tracker is None:
            tracker = AssignmentTracker(amesh)
        else:
            perm = minimize_migration_permutation(tracker.inherited(), fine, p)
            fine = apply_permutation(fine, perm)
        tracker.stamp(fine)
        return fine, (tracker, k)

    return step
