"""Reusable invariant checkers for PNR and the PARED pipeline.

These are the properties every repartitioning round must preserve, stated
as executable checks that raise :class:`InvariantViolation` with context.
They back the fault-injection property suites (a run under a seeded
:class:`~repro.runtime.faults.FaultPlan` must still satisfy all of them)
and are cheap enough to thread into the PARED loop itself via
``ParedConfig(audit=True)``.

See ``docs/testing.md`` for how to add a new invariant.
"""

from repro.testing.bruteforce import (
    brute_force_cross_root_edges,
    brute_force_leaf_counts,
)
from repro.testing.invariants import (
    InvariantViolation,
    check_dual_graph_weights,
    check_history_agreement,
    check_leaf_adjacency,
    check_migration_conservation,
    check_monotone_refinement,
    check_partition_validity,
    check_recovery_partition,
    check_replica_agreement,
)

__all__ = [
    "InvariantViolation",
    "check_partition_validity",
    "check_migration_conservation",
    "check_dual_graph_weights",
    "check_leaf_adjacency",
    "check_monotone_refinement",
    "check_replica_agreement",
    "check_recovery_partition",
    "check_history_agreement",
    "brute_force_leaf_counts",
    "brute_force_cross_root_edges",
]
