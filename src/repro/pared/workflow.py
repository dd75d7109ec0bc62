"""The complete PARED workflow with a *real* distributed solve.

:func:`repro.pared.system.run_pared` drives adaptation from an
exact-solution indicator (deterministic, the experiment benches' need).
:func:`run_workflow` runs the same round engine the way the paper describes
it for production use, by swapping in a different *mark* stage:

1. **solve** the PDE with the distributed CG solver (halo exchange at
   shared vertices — the cost the partition quality controls);
2. **estimate** the error from the discrete solution itself
   (gradient-jump indicator, computed per owned element);
3. **mark** the worst fraction of each rank's own elements.

Adaptation with cross-rank propagation, the weight protocol, repartitioning
and tree migration (P0–P3), auditing, spans and the per-round record are the
engine's; the solve's traffic lands under phase ``solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.fem.estimate import gradient_jump_indicator
from repro.pared.solver import DistributedPoissonSolver
from repro.pared.system import ParedConfig, _run_rounds
from repro.perf import PERF


@dataclass
class WorkflowConfig(ParedConfig):
    """Configuration of the solve-driven PARED loop: every engine option of
    :class:`~repro.pared.system.ParedConfig` (inherited, so the two can
    never drift apart — ``faults``, ``audit``, ``recover``, ``transport``,
    ``partitioner``, ... mean exactly what they mean there) plus the solve.
    ``marker`` stays ``None``: the solve-driven mark stage stands in.
    """

    marker: Optional[Callable] = None
    rounds: int = 3
    problem: object = None  # required: .source (or None) and .dirichlet(points)
    refine_fraction: float = 0.15
    cg_rtol: float = 1e-8


@dataclass
class _SolveMark:
    """Mark stage of the solve-driven loop (see the module docstring); the
    record gains ``cg_iterations`` and ``eta_max``."""

    problem: object
    refine_fraction: float
    cg_rtol: float

    def __call__(self, dmesh, rnd):
        comm, amesh = dmesh.comm, dmesh.amesh
        comm.set_phase("solve")
        with PERF.span("pared.solve"):
            u, iters = DistributedPoissonSolver(dmesh).solve(
                f=getattr(self.problem, "source", None),
                g=self.problem.dirichlet,
                rtol=self.cg_rtol,
            )
        comm.set_phase("P0")
        eta = gradient_jump_indicator(amesh, u)
        owned_mask = dmesh.leaf_owners() == comm.rank
        # each rank marks the worst of *its* elements (local decision, as
        # in a real system); the global refinement emerges from the union
        k = max(1, int(round(self.refine_fraction * int(owned_mask.sum()))))
        order = np.argsort(np.where(owned_mask, eta, -np.inf))[::-1][:k]
        extras = {"cg_iterations": iters, "eta_max": float(eta.max())}
        return amesh.leaf_ids()[order], [], extras


def run_workflow(cfg: WorkflowConfig):
    """Run the solve→estimate→adapt→repartition loop on ``cfg.p`` ranks;
    returns ``(histories, traffic_stats)`` like
    :func:`~repro.pared.system.run_pared`, each record carrying
    ``cg_iterations`` and ``eta_max`` as well."""
    if cfg.problem is None:
        raise ValueError("WorkflowConfig.problem is required")
    mark = _SolveMark(cfg.problem, cfg.refine_fraction, cfg.cg_rtol)
    return _run_rounds(cfg, mark)
