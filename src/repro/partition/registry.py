"""Named repartitioner registry — the one door to repartitioning ``G``.

Everything that repartitions the coarse dual graph — the PARED round engine
(:mod:`repro.pared.protocols`), crash recovery, the mesh-level
:meth:`PNR.repartition <repro.core.pnr.PNR.repartition>` and the CLI — makes
a strategy here by name (``pnr`` / ``mlkl`` / ``sfc`` / ``dkl``, described
on the classes below) and calls it.  A strategy is a small stateful object
built from the whole Equation-1 parameter object
(:class:`repro.core.pnr.PNR`) with two operations on the graph:

``initial(graph, p, coords=...)``
    First partition of the run (no current assignment).
``repartition(graph, p, current, coords=...)``
    Round repartition starting from ``current``.

``coords`` carries the coarse-element centroids — only the geometric
``sfc`` strategy reads them; the graph-based strategies ignore the
argument, so callers can always pass what they have.

It also owns what a PARED round needs to know about it, so nothing outside
this module tests a strategy *name*:

``halo``
    Which weight protocol the round runs: ``False`` — every rank's deltas
    to every rank, each of which calls ``repartition`` on its own ``G``;
    ``True`` — neighbor-to-neighbor halo slices, then ``refine_spmd`` on
    every rank.
``monotone``
    Whether the monotone-or-rollback audit applies (a property of the
    Equation-1 V-cycle; the other strategies optimize other objectives).
``refine_spmd(comm, view, owner, loads, wmax, live)``
    Halo strategies only: the SPMD form of ``repartition``.
"""

from __future__ import annotations

import numpy as np

from repro.partition.distributed import DKLConfig, dkl_refine_comm, dkl_refine_serial
from repro.partition.multilevel import multilevel_partition, multilevel_repartition
from repro.partition.permute import apply_permutation, minimize_migration_permutation
from repro.partition.sfc import SFCPartitioner

__all__ = ["PARTITIONERS", "available_partitioners", "make_repartitioner"]


class _Strategy:
    """What the strategies share: the parameter object, the protocol family
    defaults, and the bootstrap — ``multilevel_partition`` at its own
    default tolerance, which the golden PARED metrics pin."""

    halo = False
    monotone = False
    honours_ablations = False

    def __init__(self, pnr, curve):
        if not self.honours_ablations and (
            pnr.repartition_coarsest or not pnr.constrain_matching
        ):
            raise ValueError(
                f"the {self.name!r} strategy cannot honour {pnr}: only 'pnr' "
                "runs the V-cycle its ablation switches configure"
            )
        self.pnr, self.curve = pnr, curve

    def initial(self, graph, p, coords=None):
        return multilevel_partition(graph, p, seed=self.pnr.seed)


class PNRRepartitioner(_Strategy):
    """The paper's method (the default): migration-aware multilevel KL under
    the Equation-1 gain — best cut *and* small migration, O(E) refinement
    per round.  The only strategy that honours ``PNR``'s ablation switches;
    the others raise on a non-default one rather than drop it."""

    name = "pnr"
    monotone = True
    honours_ablations = True

    def repartition(self, graph, p, current, coords=None):
        return multilevel_repartition(graph, p, current, self.pnr)


class MLKLRepartitioner(_Strategy):
    """Scratch Multilevel-KL per round, label-aligned to the previous
    assignment with the Biswas–Oliker subset permutation — the fair
    (permuted) migration column of Figure 4."""

    name = "mlkl"

    def initial(self, graph, p, coords=None):
        return multilevel_partition(
            graph, p, seed=self.pnr.seed,
            balance_tol=max(self.pnr.balance_tol, 0.03),
        )

    def repartition(self, graph, p, current, coords=None):
        fresh = self.initial(graph, p)
        perm = minimize_migration_permutation(
            np.asarray(current), fresh, p, weights=graph.vwts
        )
        return apply_permutation(fresh, perm)


class SFCRepartitioner(_Strategy):
    """Morton/Hilbert space-filling-curve splitting of centroids under the
    live weights (:mod:`repro.partition.sfc`) — the cheap high-throughput
    baseline.  The curve order is fitted on first use and reused while the
    element set is unchanged (the coarse roots of ``M^0`` are static), so
    every repartition is an O(n) re-split and consecutive rounds migrate
    only the elements the cut points slid across."""

    name = "sfc"
    _state = None

    def initial(self, graph, p, coords=None):
        if coords is None:
            raise ValueError("the sfc partitioner needs element centroids (coords=)")
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape[0] != graph.n_vertices:
            raise ValueError("coords must have one row per graph vertex")
        if self._state is None or self._state.order.shape[0] != coords.shape[0]:
            self._state = SFCPartitioner(curve=self.curve).fit(coords)
        return self._state.partition(graph.vwts, p)

    def repartition(self, graph, p, current, coords=None):
        return self.initial(graph, p, coords)


class DKLRepartitioner(_Strategy):
    """Distributed boundary refinement: the propose / tie-break resolve /
    bounded rebalance tournament of :mod:`repro.partition.distributed`
    under the Equation-1 gain, from a single thread (``repartition``, the
    reference engine) or SPMD over the halo exchange with no coordinator in
    the loop (``refine_spmd``) — bit-identical."""

    name = "dkl"
    halo = True

    def _config(self) -> DKLConfig:
        pnr = self.pnr
        return DKLConfig(
            alpha=pnr.alpha, beta=pnr.beta, seed=pnr.seed,
            balance_tol=pnr.balance_tol,
        )

    def repartition(self, graph, p, current, coords=None):
        return dkl_refine_serial(graph, p, current, self._config())

    def refine_spmd(self, comm, view, owner, loads, wmax, live):
        return dkl_refine_comm(comm, view, owner, loads, wmax, live, self._config())


#: name -> strategy class; the CLI's ``--partitioner`` choices come from here
PARTITIONERS = {
    cls.name: cls
    for cls in (PNRRepartitioner, MLKLRepartitioner, SFCRepartitioner,
                DKLRepartitioner)
}


def available_partitioners() -> tuple:
    """Registered strategy names, stable order (pnr first: the default)."""
    return tuple(PARTITIONERS)


def make_repartitioner(name: str, pnr, curve: str = "morton"):
    """Instantiate a registry strategy from the Equation-1 parameter object
    ``pnr`` (a :class:`repro.core.pnr.PNR`, carried whole); ``curve``
    configures ``sfc``."""
    if name not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {name!r} "
            f"(expected one of {available_partitioners()})"
        )
    return PARTITIONERS[name](pnr, curve)
