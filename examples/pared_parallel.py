#!/usr/bin/env python
"""PARED in action: the parallel adapt/repartition/migrate loop of Figure 2
over the simulated message-passing runtime.

Four ranks share an adaptively refined mesh (one refinement tree per coarse
element).  Each round: ranks refine their owned marked leaves (P0, with
cross-boundary propagation requests), recompute the coarse dual graph's
weights for owned trees (P1), and send the deltas to every peer (P2).  Every
rank then merges them into its own ``G`` and repartitions it with PNR — the
same decision on every rank, with no coordinator — and the ranks migrate
the trees that changed owner (P3).  The script
prints the per-round metrics and the per-phase traffic accounting.

Run:  python examples/pared_parallel.py
"""

from repro.core import PNR
from repro.experiments import format_table
from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction
from repro.mesh import AdaptiveMesh
from repro.pared import ParedConfig, run_pared

P = 4
ROUNDS = 5
problem = CornerLaplace2D()


def marker(amesh, rnd):
    """Refine the worst 15 % of leaves by L∞ indicator; no coarsening in
    this monotone workload."""
    ind = interpolation_error_indicator(amesh, problem.exact)
    return mark_top_fraction(amesh, ind, 0.15), []


cfg = ParedConfig(
    p=P,
    make_mesh=lambda: AdaptiveMesh.unit_square(12),
    marker=marker,
    rounds=ROUNDS,
    pnr=PNR(alpha=0.1, beta=0.8, seed=2),
    imbalance_trigger=0.05,
)
histories, stats = run_pared(cfg)

rows = [
    (
        rec["round"], rec["leaves"], rec["cut"], rec["shared_vertices"],
        rec["elements_moved"], rec["trees_moved"],
        f"{rec['imbalance_before']:.3f}",
    )
    for rec in histories[0]
]
print(
    format_table(
        ["round", "leaves", "cut", "sharedV", "elems moved", "trees moved", "imb before"],
        rows,
        title=f"PARED rounds on {P} ranks",
    )
)

print("\nTraffic by phase (messages, payload bytes):")
for phase, (msgs, nbytes) in stats.phase_report().items():
    print(f"  {phase}: {msgs:5d} messages, {nbytes:8d} bytes")

loads = [h[-1]["local_load"] for h in histories]
print(f"\nfinal per-rank loads: {loads} (leaves: {histories[0][-1]['leaves']})")
