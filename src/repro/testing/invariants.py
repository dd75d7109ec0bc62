"""Executable invariants of a PNR/PARED repartitioning round.

Each checker raises :class:`InvariantViolation` (an ``AssertionError``
subclass, so plain ``pytest`` reporting works) with enough context to
replay the failure.  Checkers take plain data — owner arrays, meshes,
graphs — so they run identically inside a rank function, in a property
test, or in a post-mortem.
"""

from __future__ import annotations

import numpy as np

from repro.partition.metrics import repartition_cost
from repro.testing.bruteforce import (
    brute_force_cross_root_edges,
    brute_force_leaf_counts,
)


class InvariantViolation(AssertionError):
    """A PNR/PARED invariant failed; the message names which and where."""


def _fail(name: str, detail: str):
    raise InvariantViolation(f"invariant '{name}' violated: {detail}")


def check_partition_validity(owner, size: int, n_roots: int = None) -> None:
    """Every coarse element (hence every leaf of its tree) is owned by
    exactly one existing rank: the owner map is a total function into
    ``range(size)``."""
    owner = np.asarray(owner)
    if n_roots is not None and owner.shape[0] != n_roots:
        _fail(
            "partition-validity",
            f"owner covers {owner.shape[0]} roots, mesh has {n_roots}",
        )
    if owner.ndim != 1:
        _fail("partition-validity", f"owner must be 1-D, got shape {owner.shape}")
    if not np.issubdtype(owner.dtype, np.integer):
        _fail("partition-validity", f"owner dtype {owner.dtype} is not integral")
    if owner.size and (owner.min() < 0 or owner.max() >= size):
        bad = np.nonzero((owner < 0) | (owner >= size))[0]
        _fail(
            "partition-validity",
            f"roots {bad[:10].tolist()} assigned to ranks outside 0..{size - 1}",
        )


def check_migration_conservation(
    leaves_before, leaves_after, owned_after_by_rank=None
) -> None:
    """A repartition/migration step moves elements, it never creates or
    destroys them: the leaf multiset is preserved, and (when the per-rank
    owned sets are supplied) those sets are disjoint and tile the mesh."""
    before = np.sort(np.asarray(leaves_before))
    after = np.sort(np.asarray(leaves_after))
    if before.shape != after.shape or not np.array_equal(before, after):
        _fail(
            "migration-conservation",
            f"leaf multiset changed across migration: "
            f"{before.shape[0]} leaves before, {after.shape[0]} after",
        )
    if owned_after_by_rank is not None:
        combined: list = []
        for rank_leaves in owned_after_by_rank:
            combined.extend(int(e) for e in rank_leaves)
        if len(combined) != len(set(combined)):
            _fail(
                "migration-conservation",
                "some leaf is owned by more than one rank",
            )
        if set(combined) != set(int(e) for e in after):
            missing = set(int(e) for e in after) - set(combined)
            _fail(
                "migration-conservation",
                f"{len(missing)} leaves owned by no rank, e.g. "
                f"{sorted(missing)[:10]}",
            )


def check_leaf_adjacency(mesh) -> None:
    """The incrementally stitched array adjacency of a 2-D mesh equals a
    from-scratch recount of the leaf mesh (3-D meshes keep dictionaries
    and have no such array; they pass trivially)."""
    if mesh.dim == 2:
        try:
            mesh.check_adjacency()
        except AssertionError as exc:
            _fail("leaf-adjacency", str(exc))


def check_dual_graph_weights(mesh, graph) -> None:
    """The coarse dual graph's weights mirror the forest: vertex weights are
    leaf counts per tree, edge weights are fine-adjacency counts across
    tree boundaries — verified against independent brute-force recounts."""
    expected_v = brute_force_leaf_counts(mesh.forest)
    if graph.n_vertices != expected_v.shape[0]:
        _fail(
            "dual-graph-weights",
            f"graph has {graph.n_vertices} vertices, forest {expected_v.shape[0]} roots",
        )
    got_v = np.asarray(graph.vwts)
    if not np.allclose(got_v, expected_v):
        bad = np.nonzero(~np.isclose(got_v, expected_v))[0]
        _fail(
            "dual-graph-weights",
            f"vertex weights differ from leaf counts at roots "
            f"{bad[:10].tolist()}: {got_v[bad[:10]].tolist()} vs "
            f"{expected_v[bad[:10]].tolist()}",
        )
    expected_e = brute_force_cross_root_edges(mesh)
    got_e = {}
    for a in range(graph.n_vertices):
        lo, hi = graph.xadj[a], graph.xadj[a + 1]
        for idx in range(lo, hi):
            b = int(graph.adjncy[idx])
            if a < b:
                got_e[(a, b)] = float(graph.ewts[idx])
    if set(got_e) != set(expected_e):
        _fail(
            "dual-graph-weights",
            f"edge sets differ: graph-only {sorted(set(got_e) - set(expected_e))[:5]}, "
            f"bruteforce-only {sorted(set(expected_e) - set(got_e))[:5]}",
        )
    for key, count in expected_e.items():
        if not np.isclose(got_e[key], count):
            _fail(
                "dual-graph-weights",
                f"edge {key} weighs {got_e[key]}, brute-force counts {count}",
            )


def check_halo_weights(mesh, view, owner, rank: int) -> None:
    """A rank's ``dkl`` halo view — assembled purely from P2 neighbor
    messages plus the proposal payloads of roots it won — matches a
    brute-force recount of the incident set of the roots it now owns:
    exact vertex weights on owned roots (zero elsewhere) and the exact
    weighted edge set with at least one owned endpoint."""
    owner = np.asarray(owner, dtype=np.int64)
    n = owner.shape[0]
    expected_v = brute_force_leaf_counts(mesh.forest)
    if view.n != n or expected_v.shape[0] != n:
        _fail(
            "halo-weights",
            f"view covers {view.n} roots, owner {n}, forest "
            f"{expected_v.shape[0]}",
        )
    mine = owner == rank
    want_v = np.where(mine, expected_v, 0.0)
    if not np.allclose(view.vwts, want_v):
        bad = np.nonzero(~np.isclose(view.vwts, want_v))[0]
        _fail(
            "halo-weights",
            f"rank {rank} vertex weights differ at roots "
            f"{bad[:10].tolist()}: {view.vwts[bad[:10]].tolist()} vs "
            f"{want_v[bad[:10]].tolist()}",
        )
    expected_e = {
        key: w
        for key, w in brute_force_cross_root_edges(mesh).items()
        if mine[key[0]] or mine[key[1]]
    }
    got_e = {
        (int(k) // n, int(k) % n): float(w)
        for k, w in zip(view.e_keys, view.e_wts)
    }
    if set(got_e) != set(expected_e):
        _fail(
            "halo-weights",
            f"rank {rank} incident edge sets differ: view-only "
            f"{sorted(set(got_e) - set(expected_e))[:5]}, bruteforce-only "
            f"{sorted(set(expected_e) - set(got_e))[:5]}",
        )
    for key, count in expected_e.items():
        if not np.isclose(got_e[key], count):
            _fail(
                "halo-weights",
                f"rank {rank} edge {key} weighs {got_e[key]}, "
                f"brute-force counts {count}",
            )


def check_monotone_refinement(graph, p: int, old, new, alpha: float, beta: float) -> None:
    """Monotone-or-rollback: a repartitioner that starts from the current
    assignment may never return something scoring worse than identity under
    the Equation-1 objective it optimizes."""
    c_new = repartition_cost(graph, old, new, p, alpha, beta).total
    c_id = repartition_cost(graph, old, old, p, alpha, beta).total
    if c_new > c_id + 1e-9:
        _fail(
            "monotone-refinement",
            f"repartition scored {c_new:.6g}, identity scores {c_id:.6g} "
            f"(alpha={alpha}, beta={beta}, p={p})",
        )


def check_replica_agreement(comm, owner, tag: int = 90, ranks=None) -> None:
    """All ranks hold the same ownership map — the replicated-state
    invariant the message protocol must maintain.  Collective: every rank
    of the communicator (or of ``ranks``, e.g. the survivors after a crash)
    must call it."""
    import hashlib

    owner = np.ascontiguousarray(np.asarray(owner, dtype=np.int64))
    digest = hashlib.sha1(owner.tobytes()).hexdigest()
    digests = comm.allgather(digest, tag=tag, ranks=ranks)
    if len(set(digests)) != 1:
        _fail(
            "replica-agreement",
            f"ownership maps diverged across ranks: digests {digests}",
        )


def check_recovery_partition(owner, live, n_roots: int = None) -> None:
    """After crash recovery the owner map must be a total
    function onto the *surviving* ranks: a valid ``p-1`` (or smaller)
    partition with no root stranded on a dead rank."""
    live_set = {int(r) for r in live}
    if not live_set:
        _fail("recovery-partition", "no live ranks")
    owner = np.asarray(owner)
    check_partition_validity(owner, max(live_set) + 1, n_roots)
    stranded = np.nonzero(~np.isin(owner, sorted(live_set)))[0]
    if stranded.size:
        _fail(
            "recovery-partition",
            f"roots {stranded[:10].tolist()} still owned by dead ranks "
            f"(live = {sorted(live_set)})",
        )


#: per-round record fields run_pared promises to be replica-identical
_REPLICA_FIELDS = (
    "round",
    "leaves",
    "cut",
    "shared_vertices",
    "elements_moved",
    "trees_moved",
    "imbalance_before",
    "p_live",
)


def check_history_agreement(histories) -> None:
    """Every surviving rank recorded the same per-round replica metrics —
    the contract ``run_pared`` documents.  ``None`` entries (ranks that
    died mid-run) are skipped; ``local_load`` is per-rank by design and
    exempt."""
    alive = [(r, h) for r, h in enumerate(histories) if h is not None]
    if len(alive) < 2:
        return
    r0, ref = alive[0]
    for r, h in alive[1:]:
        if len(h) != len(ref):
            _fail(
                "history-agreement",
                f"rank {r} recorded {len(h)} rounds, rank {r0} {len(ref)}",
            )
        for a, b in zip(ref, h):
            for key in _REPLICA_FIELDS:
                if a.get(key) != b.get(key):
                    _fail(
                        "history-agreement",
                        f"round {a.get('round')}: field '{key}' differs — "
                        f"rank {r0} has {a.get(key)!r}, rank {r} has "
                        f"{b.get(key)!r}",
                    )
            for key in ("owner", "old_owner"):
                if key in a and not np.array_equal(a[key], b[key]):
                    _fail(
                        "history-agreement",
                        f"round {a.get('round')}: '{key}' arrays differ "
                        f"between rank {r0} and rank {r}",
                    )
