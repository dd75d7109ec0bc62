"""Multilevel-KL graph partitioning [Hendrickson & Leland 1993;
Karypis & Kumar 1995] — the "standard" partitioner of the paper — and the
repartitioning variant PNR runs on the coarse dual graph ``G``.

Three phases (Section 3.1), written once:

1. **Contraction** — a series ``G_0, G_1, …, G_k`` built by collapsing
   heavy-edge matchings until the graph is small (or stops shrinking):
   one compiled call, ``_klnative.coarsen``.
2. **Coarsest assignment** — greedy graph growing or the projected home,
   whichever rule the caller names,
3. **Projection & improvement** — then walk back up, projecting the
   assignment through each contraction map and refining every level with
   KL: 2 and 3 are one compiled call, ``_klnative.refine``.

The per-level numpy/Python V-cycle these calls replaced (``build_hierarchy``
+ ``v_cycle``, with the Python greedy growing) is their oracle in
``tests/_kl_oracle.py``.

Two configurations of that one V-cycle (:func:`_v_cycle`):

* :func:`multilevel_partition` — partition from scratch: free contraction,
  greedy graph growing on ``G_k``, and per level a rebalancing sweep
  followed by a pure cut sweep.
* :func:`multilevel_repartition` — Section 9's migration-aware variant,
  *the standard scheme with two modifications*: (a) ``G_k`` is **not**
  partitioned from scratch — it inherits the current assignment through
  the contraction maps (matching is constrained to same-subset pairs so the
  inherited assignment is well defined); (b) the KL refinement on the way
  back up uses the gain of Equation 1 (``C_cut + α·C_migrate +
  β·C_balance``), with the *home* assignment — the pre-repartition Π^t —
  projected through the hierarchy.  Both modifications are individually
  switchable for the design ablations (A2 in DESIGN.md):
  ``repartition_coarsest=True`` turns the scheme into a scratch-remap-like
  method; ``constrain_matching=False`` lets contraction mix subsets (the
  inherited coarse assignment is then taken from the heavier constituent).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.partition import _klnative, kl
from repro.partition.kl import KLConfig
from repro.partition.metrics import validate_assignment

#: a level that keeps more than this share of its vertices is not built:
#: contraction stalled (e.g. star graphs, tiny subsets)
MIN_SHRINK = 0.95
#: hard cap on the number of contraction levels
MAX_LEVELS = 40


def coarsen_target(p: int) -> int:
    """Stop contracting below this many vertices."""
    return max(100, 4 * p)


def _v_cycle(graph, p, seed, home, constrain, grow, cfgs, rebalance_above=0.0):
    """The V-cycle in two compiled calls: every level built, then the
    coarsest assigned — greedy growing seeded ``seed`` if ``grow``, else
    the projected home — and every level projected and refined."""
    levels = _klnative.coarsen(
        graph, coarsen_target(p), seed, home, constrain, MAX_LEVELS, MIN_SHRINK
    )
    return _klnative.refine(
        levels, p, cfgs, rebalance_above, kl.IN_BAND_TAIL, int(seed) if grow else None
    )


def multilevel_partition(
    graph: WeightedGraph, p: int, seed: int = 0, balance_tol: float = 0.03
) -> np.ndarray:
    """Partition ``graph`` into ``p`` subsets with the multilevel-KL scheme."""
    if p == 1:
        # what the V-cycle returns too: growing gives all zeros, and KL
        # finds no boundary to move
        return np.zeros(graph.n_vertices, dtype=np.int64)
    # Two alternating refinement modes per level, Metis-style: a balancing
    # sweep with a dominant quadratic term (the paper's β = 0.8 makes
    # balance gains dwarf cut gains, which is how ε < 0.01 is reached even
    # with heavy vertices), then a pure cut sweep under the hard envelope.
    rebalance_cfg = KLConfig(balance_tol=balance_tol, max_passes=3, beta=0.8, window=16)
    cut_cfg = KLConfig(balance_tol=balance_tol, max_passes=6, beta=0.0)

    # greedy growing on the coarsest graph; per level the rebalancing sweep
    # while the imbalance exceeds balance_tol, then the cut sweep
    return _v_cycle(
        graph, p, seed, None, True, True, [rebalance_cfg, cut_cfg], balance_tol
    )


def multilevel_repartition(graph: WeightedGraph, p: int, current, pnr) -> np.ndarray:
    """Repartition ``graph`` starting from ``current`` with PNR's multilevel
    KL.  Returns the new assignment Π̂^t.

    ``pnr`` is the Equation-1 parameter object
    (:class:`repro.core.pnr.PNR`): ``alpha`` penalizes migration from
    ``current`` (the home partition), ``beta`` the quadratic imbalance,
    ``repartition_coarsest`` / ``constrain_matching`` are the ablation
    switches.
    """
    current = validate_assignment(graph, current, p)
    cfg = KLConfig(
        alpha=pnr.alpha,
        beta=pnr.beta,
        balance_tol=pnr.balance_tol,
        max_passes=8,
        window=16,
        balance_mode="deadband",
    )

    # The coarsest graph keeps its projected home, or is grown afresh under
    # the repartition_coarsest ablation.  Monotone-or-rollback: the
    # repartitioner hill-climbs from ``current``, so identity is always a
    # candidate.  KL optimizes the deadband form of the balance term; under
    # the literal quadratic Equation 1 an in-band rebalance can still score
    # worse than doing nothing, in which case doing nothing is what we
    # return (the compiled ``refine`` applies that guard, with ``cfg``'s
    # alpha and beta).
    return _v_cycle(
        graph, p, pnr.seed, current, pnr.constrain_matching,
        pnr.repartition_coarsest, [cfg],
    )
