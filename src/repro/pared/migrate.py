"""Tree migration (the tail of phase P3, Figure 2).

Every rank computes the same new assignment of coarse roots to ranks, so
each one turns the difference into the same *directives*: ``(root, src,
dst)`` triples.  Each source rank packages the refinement trees of every
directed root — all descendants migrate with them — into **one
struct-of-arrays frame per destination** (MPI-style message coalescing; the
typed codec ships the arrays as raw buffers).  Receivers acknowledge by
adopting ownership; since the mesh structure is replicated, the payload
stands in for the element/vertex records PARED would transfer, and its
encoded size is what the traffic statistics count.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.forest import LEAF
from repro.partition.registry import make_repartitioner
from repro.runtime.recovery import compact_owner, expand_owner


def migration_directives(old_owner: np.ndarray, new_owner: np.ndarray) -> list:
    """``(root, src, dst)`` for every root whose owner changes.

    Computed vectorized; the public return type stays a list of plain-int
    tuples."""
    old_owner = np.asarray(old_owner)
    new_owner = np.asarray(new_owner)
    moved = np.nonzero(old_owner != new_owner)[0]
    return list(
        zip(moved.tolist(), old_owner[moved].tolist(), new_owner[moved].tolist())
    )


def _tree_payload(mesh, root: int) -> dict:
    """Per-root reference payload (stack walk): every node of the subtree
    with its connectivity, plus the leaf list.  The wire uses
    :func:`pack_tree_payloads`; this stays as the readable specification the
    regression tests compare against."""
    forest = mesh.forest
    nodes = []
    stack = [root]
    while stack:
        e = stack.pop()
        nodes.append((e, mesh.cell(e)))
        kids = forest.children(e)
        if kids is not None:
            stack.extend(kids)
    return {
        "root": root,
        "nodes": nodes,
        "leaves": forest.subtree_leaves(root),
    }


def pack_tree_payloads(mesh, roots) -> dict:
    """All migrating trees of one ``(src, dst)`` channel as one packed
    frame of flat arrays.

    A tree's node set is exactly the elements whose ``root_array`` entry is
    the tree's root (nodes are only ever created by splitting an element of
    the same tree), so batch extraction is a single :func:`numpy.isin` over
    the forest — no per-root walks.  Nodes are grouped by root;
    ``node_offsets[i]:node_offsets[i+1]`` delimits tree ``roots[i]`` (and
    ``leaf_offsets`` likewise for the active leaves).
    """
    forest = mesh.forest

    roots = np.unique(np.asarray(list(roots), dtype=np.int64))
    root_of = forest.root_array
    nodes = np.nonzero(np.isin(root_of, roots))[0].astype(np.int64)
    tree = root_of[nodes]
    order = np.argsort(tree, kind="stable")
    nodes = nodes[order]
    tree = tree[order]
    node_offsets = np.empty(roots.size + 1, dtype=np.int64)
    node_offsets[:-1] = np.searchsorted(tree, roots)
    node_offsets[-1] = nodes.size
    status = forest.status_array[nodes].astype(np.uint8, copy=True)
    leaf_mask = status == LEAF
    leaf_offsets = np.empty(roots.size + 1, dtype=np.int64)
    leaf_offsets[:-1] = np.searchsorted(tree[leaf_mask], roots)
    leaf_offsets[-1] = int(leaf_mask.sum())
    return {
        "roots": roots,
        "node_offsets": node_offsets,
        "nodes": nodes,
        "cells": mesh.cells[nodes],
        "status": status,
        "parent": forest.parent_array[nodes],
        "depth": forest.depth_array[nodes],
        "leaves": nodes[leaf_mask],
        "leaf_offsets": leaf_offsets,
    }


def unpack_tree_payloads(payload: dict) -> list:
    """Splice a packed frame back into per-root payloads (the shape
    :func:`_tree_payload` produces, with nodes in ascending id order)."""
    out = []
    nodes = payload["nodes"]
    cells = payload["cells"]
    leaves = payload["leaves"]
    no = payload["node_offsets"]
    lo = payload["leaf_offsets"]
    for i, root in enumerate(payload["roots"]):
        sl = slice(no[i], no[i + 1])
        out.append(
            {
                "root": int(root),
                "nodes": [
                    (int(e), tuple(c)) for e, c in zip(nodes[sl], cells[sl].tolist())
                ],
                "leaves": leaves[lo[i] : lo[i + 1]].tolist(),
            }
        )
    return out


def execute_migration(comm, dmesh, new_owner: np.ndarray) -> dict:
    """Carry out phase P3's moves on every rank.

    Every live rank passes the same ``new_owner`` — each computed it from
    the same inputs — so no message carries the decision: each source rank
    sends the tree payloads it owes, aggregated per destination; each
    destination receives them.  Every rank then installs the new ownership
    map.

    The exchange is *sparse*: every rank holds both the old and the new
    owner map, so the exact send/recv sets follow from the directives and
    empty channels cost nothing — O(moves) messages instead of O(p²), and
    none at all when nothing moves: then the call returns before any pass
    over the forest and leaves the owner map (and the caches keyed on it)
    as it is.

    During crash recovery a directive's source may be a dead rank; the
    destination then reconstructs the tree payload from its own mesh
    replica instead of receiving it (the replicated structure *is* the
    checkpoint of the mesh data).

    Returns accounting: trees moved, leaf elements moved, and how many
    trees this rank sent/received/reconstructed.
    """
    live = dmesh.live
    old_owner = np.asarray(dmesh.owner)
    new_owner = np.asarray(new_owner, dtype=np.int64)
    moved = np.flatnonzero(old_owner != new_owner)
    if not moved.size:
        return {"trees_moved": 0, "elements_moved": 0, "sent_here": 0,
                "received_here": 0, "reconstructed_here": 0}
    mesh = dmesh.amesh.mesh

    # group directives per (src, dst) channel — one packed frame each
    src = old_owner[moved]
    dst = new_owner[moved]
    chan_key = src * comm.size + dst
    order = np.argsort(chan_key, kind="stable")
    key_sorted = chan_key[order]
    roots_sorted = moved[order]
    uniq, starts = np.unique(key_sorted, return_index=True)
    bounds = np.append(starts, key_sorted.size)
    channels = {
        (int(k) // comm.size, int(k) % comm.size): roots_sorted[a:b]
        for k, a, b in zip(uniq, starts, bounds[1:])
    }

    live_set = set(live)
    send_dsts = sorted(d for (s, d) in channels if s == comm.rank and d in live_set)
    recv_srcs = sorted(s for (s, d) in channels if d == comm.rank and s in live_set)

    sent = received = reconstructed = 0
    for d in send_dsts:
        payload = pack_tree_payloads(mesh, channels[(comm.rank, d)])
        comm.send(payload, d, tag=31)
        sent += int(payload["roots"].shape[0])
    for s in recv_srcs:
        payload = comm.recv(s, tag=31)
        received += int(payload["roots"].shape[0])
    recon_roots = moved[
        ~np.isin(src, np.fromiter(live_set, dtype=np.int64, count=len(live_set)))
        & (dst == comm.rank)
    ]
    if recon_roots.size:
        # the owner died with the trees it owed; the replica stands in
        pack_tree_payloads(mesh, recon_roots)
        reconstructed = int(recon_roots.size)

    dmesh.owner = new_owner.copy()

    leaf_counts = mesh.forest.leaf_counts_by_root()
    moved_elements = int(leaf_counts[moved].sum())
    return {
        "trees_moved": int(moved.size),
        "elements_moved": moved_elements,
        "sent_here": sent,
        "received_here": received,
        "reconstructed_here": reconstructed,
    }


def plan_recovery_assignment(graph, owner: np.ndarray, live, pnr) -> np.ndarray:
    """Re-assign the coarse roots of dead ranks to survivors.

    Orphaned roots are first adopted greedily — each goes to the live rank
    with the strongest edge affinity (fine-adjacency weight to roots that
    rank already holds), ties broken toward the lighter rank, then the
    lower one, so the result is deterministic.  The provisional map is then
    handed to the registry's ``pnr`` strategy (built from ``pnr``, the run's
    Equation-1 parameter object) in the compacted live-rank space
    (partition labels must be dense), which rebalances under the Equation-1
    objective; its monotone-or-rollback guarantee means the final map is
    never worse than the greedy adoption.

    Returns a full owner map whose values are all live ranks.
    """
    live = sorted(int(r) for r in live)
    lookup = {r: i for i, r in enumerate(live)}
    owner = np.asarray(owner, dtype=np.int64)
    n = owner.shape[0]
    adopted = owner.copy()
    orphans = [a for a in range(n) if int(owner[a]) not in lookup]
    loads = np.zeros(len(live))
    for a in range(n):
        if int(adopted[a]) in lookup:
            loads[lookup[int(adopted[a])]] += graph.vwts[a]
    for a in orphans:
        affinity = np.zeros(len(live))
        for idx in range(graph.xadj[a], graph.xadj[a + 1]):
            b = int(graph.adjncy[idx])
            o = int(adopted[b])
            if o in lookup:
                affinity[lookup[o]] += graph.ewts[idx]
        best = min(
            range(len(live)),
            key=lambda i: (-affinity[i], loads[i], live[i]),
        )
        adopted[a] = live[best]
        loads[best] += graph.vwts[a]
    compact = make_repartitioner("pnr", pnr=pnr).repartition(
        graph, len(live), compact_owner(adopted, live)
    )
    return expand_owner(compact, live)
