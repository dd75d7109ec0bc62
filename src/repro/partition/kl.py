"""p-way Kernighan–Lin refinement with pluggable repartitioning gains.

This single engine hosts both of the paper's KL variants:

* the *standard* multiprocessor KL used inside Multilevel-KL, whose gain
  measures the change in cut size while a hard envelope maintains balance
  (``alpha = 0``, no ``home``);
* PNR's *repartitioning* KL (Section 9), whose gain reflects the full
  objective of Equation 1,

  ``C_repartition(Π^t, Π̂^t, α, β) = C_cut(Π̂) + α·C_migrate(Π, Π̂) + β·C_balance(Π̂)``

  obtained by passing ``alpha``, ``beta`` and the current assignment as
  ``home``.

Implementation notes
--------------------
The engine is compiled (``_klcore.c: kl_refine``, wrapped by
:mod:`repro.partition._klnative`); its numpy/Python oracle lives in
``tests/_kl_oracle.py``.  The paper maintains a square table of
per-subset-pair priority queues of moves, popping the best head.  We keep
one global heap of candidate moves with *stamped invalidation* over flat
array state:

* per-vertex connectivity lives in a flat ``(n·p,)`` array filled once
  per pass — ``static_gain`` is two O(1) array reads (external minus
  internal degree);
* moving a vertex updates only its neighborhood's connectivity, through
  one ``xadj`` slice;
* every heap entry carries a per-(vertex, destination) *generation stamp*.
  Refreshing a candidate bumps the stamp and pushes one new entry; stale
  entries are discarded O(1) on pop.  This keeps the live heap O(boundary)
  — the old engine re-pushed every destination of every neighbor on every
  move and paid a gain recomputation per stale pop;
* the boundary is seeded from an external-degree mask.

The weight-dependent balance gain (which shifts with every move — the
"rebuilding priority queues" cost the paper notes) is added at pop time,
and a small look-ahead window re-ranks the top candidates by their *full*
gain so balance-driven moves surface even when their static gain is
modest.

Each pass performs KL hill-climbing with rollback: moves are applied even
when individually negative, cumulative gain is tracked, and at pass end the
suffix after the best prefix is undone.  Passes repeat while they improve
the composite objective.

Only *boundary* vertices (those with an edge into another subset) are
candidates, as in the paper ("n, the number of boundary elements in a
subdomain").  Moving a vertex can promote its neighbors to the boundary;
they are inserted on the fly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.partition import _klnative
from repro.partition.metrics import validate_assignment
from repro.perf import PERF

#: Non-improving moves a pass may run past its best prefix while every
#: subset weight is inside the balance band (``KLConfig.stall_limit`` bounds
#: the tail otherwise).  Measured: 16 fails the Section 8 migration bound,
#: a short tail out of band too lets the imbalance run away.
IN_BAND_TAIL = 32


@dataclass
class KLConfig:
    """Tuning knobs of the KL engine.

    Attributes
    ----------
    alpha:
        Weight of the migration term (Equation 1); requires ``home``.
    beta:
        Weight of the quadratic balance term.
    balance_tol:
        Hard envelope ε: a move into subset ``j`` is admissible only if it
        leaves ``W_j ≤ (1+ε)·W̄`` *or* strictly reduces the pairwise maximum
        (so rebalancing from a badly unbalanced start is always possible).
    max_passes:
        Upper bound on KL passes.
    window:
        Look-ahead width when re-ranking heap candidates by full gain.
    min_gain:
        A pass must improve the objective by more than this to continue.
    stall_limit:
        A pass ends after this many consecutive moves without a new best
        prefix — or after :data:`IN_BAND_TAIL` of them once every subset
        weight lies inside the balance band ``[W̄ − band, W̄ + band]`` —
        and 0 disables both bounds.  KL's hill-climbing tail — applying
        every remaining boundary move just to roll it back — is where
        converged passes spend their time; bounding the stall keeps a no-op
        pass O(stall_limit) instead of O(boundary · degree), and a balanced
        pass O(IN_BAND_TAIL).  Out of band the long tail stays: that is
        where a rebalancing pass climbs through a cut-raising valley.
    balance_mode:
        ``"quadratic"`` — the literal ``Σ(W_i − W̄)²`` of Equation 1;
        ``"deadband"`` — quadratic on the *excess outside* the
        ``(1±balance_tol)·W̄`` envelope, zero inside it.  The deadband form
        expresses the same constraint ("balanced within ε") without paying
        migration for micro-balancing churn between already-balanced
        subsets, which matters when ``alpha > 0``.
    """

    alpha: float = 0.0
    beta: float = 0.0
    balance_tol: float = 0.05
    max_passes: int = 10
    window: int = 8
    min_gain: float = 1e-9
    stall_limit: int = 256
    balance_mode: str = "quadratic"


def kl_refine(
    graph: WeightedGraph,
    assignment,
    p: int,
    home=None,
    config: KLConfig = None,
) -> np.ndarray:
    """Refine ``assignment`` in place-semantics-free fashion (a copy is
    returned) using p-way KL with the configured gain function.

    Parameters
    ----------
    graph:
        The (possibly contracted) dual graph.
    assignment:
        Current subset per vertex — the starting point of hill climbing.
    p:
        Number of subsets.
    home:
        The pre-repartitioning assignment ``Π^t`` used by the migration term
        (``None`` disables it regardless of ``alpha``).
    config:
        :class:`KLConfig`; defaults to the standard cut+hard-balance KL.
    """
    cfg = config or KLConfig()
    assign = validate_assignment(graph, assignment, p)
    if home is not None:
        home = validate_assignment(graph, home, p)
    with PERF.span("kl.refine"):
        return _klnative.kl_refine(graph, assign, p, home, cfg, IN_BAND_TAIL)
