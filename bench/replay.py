"""The traced run's serial replay: the same rounds the program ran, redone
in this process one layer call at a time with a span around each.

It touches no program code.  ``run_pared`` replicates the mesh on every rank
and applies the union of all ranks' marks with the serial kernel (parallel
refinement equals serial refinement), so replaying a run serially means:
mark, refine and coarsen the whole mesh once, build the per-rank weight
reports, repartition when the measured imbalance exceeds the trigger, pack
what would migrate.  The replay must reproduce the real run's leaf counts and
cuts round for round, and its owner arrays too — a replay that drifts from
the program is a bug in the benchmark, not a result.

Not replayed: the coordinator's assembly of ``G`` from P2 deltas (private to
``repro.pared.system``; its time shows in ``pared.repartition_serial_s``) and
everything that only exists between processes (waiting, the wire) — those
come from the real call's ``stats`` and from the transport probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mesh.dualgraph import (
    coarse_dual_graph,
    coarse_root_centroids,
    leaf_assignment_from_roots,
)
from repro.mesh.metrics import cut_size, shared_vertex_count
from repro.pared.migrate import (
    migration_directives,
    pack_tree_payloads,
    unpack_tree_payloads,
)
from repro.pared.weights import (
    diff_weight_report,
    full_weight_report,
    split_report_by_owner,
)
from repro.partition.registry import make_repartitioner
from repro.runtime.codec import decode, encode


@dataclass
class Replay:
    """What a replay did, for the comparison with the program and for the
    probes that reuse its final state."""

    leaves: list = field(default_factory=list)  # per round
    cuts: list = field(default_factory=list)
    owners: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    graph: object = None  # final coarse dual graph
    owner: object = None  # final assignment
    parts: int = 1


def _new_counts() -> dict:
    return dict.fromkeys(
        ("bisections", "merges", "marked_refine", "marked_coarsen",
         "repartitions", "moved_trees", "moved_elements", "codec_bytes"), 0
    )


def _ship(rec, rnd, payload, counts) -> object:
    """Encode and decode one payload the way the wire would."""
    with rec.span("runtime.codec_encode", rnd):
        frame = encode(payload)
    counts["codec_bytes"] += len(frame)
    with rec.span("runtime.codec_decode", rnd):
        return decode(frame)


def replay_pared(workload, rec) -> Replay:
    cfg = workload.cfg
    p = cfg.p
    dkl = cfg.partitioner in ("dkl", "dkl-ml")
    out = Replay(parts=p)
    counts = out.counts = _new_counts()
    with rec.span("replay"):
        with rec.span("mesh.build"):
            amesh = cfg.make_mesh()
        mesh = amesh.mesh
        n_roots = amesh.n_roots
        repart = make_repartitioner(
            cfg.partitioner, pnr=cfg.pnr, curve=cfg.sfc_curve
        )
        coords = coarse_root_centroids(mesh)
        with rec.span("mesh.dual_graph"):
            graph = coarse_dual_graph(mesh)
        with rec.span("partition.initial"):
            owner = np.asarray(
                repart.initial(graph, p, coords=coords), dtype=np.int64
            )
        prev_full = [None] * p
        for rnd in range(cfg.rounds):
            with rec.span("round", rnd):
                # ---- P0 ------------------------------------------------
                with rec.span("fem.mark", rnd):
                    refine_ids, coarsen_ids = cfg.marker(amesh, rnd)
                with rec.span("pared.own_marks", rnd):
                    refine_ids = np.intersect1d(
                        np.asarray(refine_ids, dtype=np.int64), amesh.leaf_ids()
                    )
                counts["marked_refine"] += int(refine_ids.size)
                with rec.span("mesh.refine", rnd):
                    counts["bisections"] += len(amesh.refine(refine_ids.tolist()))
                with rec.span("pared.own_marks", rnd):
                    coarsen_ids = np.intersect1d(
                        np.asarray(coarsen_ids, dtype=np.int64), amesh.leaf_ids()
                    )
                counts["marked_coarsen"] += int(coarsen_ids.size)
                with rec.span("mesh.coarsen", rnd):
                    counts["merges"] += len(amesh.coarsen(coarsen_ids.tolist()))
                # ---- P1 / P2 -------------------------------------------
                with rec.span("mesh.dual_graph", rnd):
                    graph = coarse_dual_graph(mesh)
                travelling = []
                with rec.span("pared.weights", rnd):
                    for r in range(p):
                        full = full_weight_report(graph, owner, r)
                        if dkl:
                            travelling.extend(
                                split_report_by_owner(
                                    full, owner, n_roots, r
                                ).values()
                            )
                        else:
                            delta = diff_weight_report(full, prev_full[r])
                            prev_full[r] = full
                            if r != cfg.coordinator:
                                travelling.append(delta)
                for payload in travelling:
                    _ship(rec, rnd, payload, counts)
                # ---- P3 ------------------------------------------------
                loads = np.bincount(owner, weights=graph.vwts, minlength=p)
                mean = loads.sum() / p
                imbalance = float(loads.max() / mean - 1.0) if mean else 0.0
                old = owner
                if imbalance > cfg.imbalance_trigger:
                    counts["repartitions"] += 1
                    with rec.span("partition.repartition", rnd):
                        owner = np.asarray(
                            repart.repartition(graph, p, old, coords=coords),
                            dtype=np.int64,
                        )
                with rec.span("pared.directives", rnd):
                    directives = migration_directives(old, owner)
                channels = {}
                for root, src, dst in directives:
                    channels.setdefault((src, dst), []).append(root)
                moved = np.fromiter(
                    (d[0] for d in directives), dtype=np.int64,
                    count=len(directives),
                )
                counts["moved_trees"] += int(moved.size)
                counts["moved_elements"] += int(
                    mesh.forest.leaf_counts_by_root()[moved].sum()
                )
                for roots in channels.values():
                    with rec.span("pared.pack", rnd):
                        payload = pack_tree_payloads(mesh, roots)
                    received = _ship(rec, rnd, payload, counts)
                    with rec.span("pared.unpack", rnd):
                        unpack_tree_payloads(received)
                # ---- end-of-round metrics -------------------------------
                with rec.span("mesh.history_metrics", rnd):
                    fine = leaf_assignment_from_roots(mesh, owner)
                    cut = cut_size(mesh, fine)
                    shared_vertex_count(mesh, fine)
                out.leaves.append(amesh.n_leaves)
                out.cuts.append(cut)
                out.owners.append(owner.copy())
    out.graph = graph
    out.owner = owner
    return out


def compare_with_pared(replay: Replay, out) -> list:
    """Problems, if the replay is not the run the program made."""
    histories, _ = out
    problems = []
    for rnd, h in enumerate(histories[0]):
        if replay.leaves[rnd] != h["leaves"]:
            problems.append(
                f"replay round {rnd}: {replay.leaves[rnd]} leaves, "
                f"program {h['leaves']}"
            )
        elif replay.cuts[rnd] != h["cut"] or not np.array_equal(
            replay.owners[rnd], h["owner"]
        ):
            problems.append(f"replay round {rnd}: partition differs")
    return problems


def replay_ladder(workload, rec) -> Replay:
    out = Replay(parts=workload.k)
    out.counts = _new_counts()
    with rec.span("replay"):
        repart = make_repartitioner(workload.partitioner, pnr=workload.pnr)
        with rec.span("partition.initial", 0):
            owner = repart.initial(
                workload.graphs[0], workload.k, coords=workload.coords
            )
        out.owners.append(np.asarray(owner))
        for rung, graph in enumerate(workload.graphs[1:], start=1):
            out.counts["repartitions"] += 1
            with rec.span("partition.repartition", rung):
                owner = repart.repartition(
                    graph, workload.k, owner, coords=workload.coords
                )
            out.owners.append(np.asarray(owner))
    out.graph = workload.graphs[-1]
    out.owner = np.asarray(owner, dtype=np.int64)
    return out


def compare_with_ladder(replay: Replay, out) -> list:
    if len(replay.owners) != len(out) or not all(
        np.array_equal(a, b) for a, b in zip(replay.owners, out)
    ):
        return ["replay ladder: partitions differ from the program's"]
    return []
