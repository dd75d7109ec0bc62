"""The four workloads: seeded input generation, the timed call, its
correctness check and the partition-quality numbers read from its result.

Everything the program receives — mesh factory, marker, config — is built
here from ``--seed``; the program never sees the seed's meaning.  The mesh
factories and markers are module-level functions (bound with
``functools.partial``) so that a ``run_pared`` job pickles by reference and
the shm backend keeps its persistent rank pool; a closure would quietly
demote every call to a one-shot fork.

Sizes are chosen so that one call takes 0.3-0.8 s on the 2-vCPU sandbox and a
20-second run holds well over 21 samples (see ``bench/README.md``).  The
smoke-scale instances the tests build are a fixture of ``bench/tests``, not a
switch of the command.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from bench import harness
from repro.core import PNR
from repro.experiments.transient import adapt_step
from repro.fem import (
    CornerLaplace2D,
    CornerLaplace3D,
    MovingPeakPoisson2D,
    interpolation_error_indicator,
    mark_over_threshold,
    mark_top_fraction,
    mark_under_threshold,
)
from repro.geometry.unstructured import delaunay_square_mesh
from repro.mesh import AdaptiveMesh
from repro.mesh.dualgraph import coarse_dual_graph, coarse_root_centroids
from repro.mesh.mesh2d import TriMesh
from repro.pared import ParedConfig, run_pared
from repro.partition.metrics import graph_cut, graph_imbalance, graph_migration
from repro.partition.registry import make_repartitioner
from repro.runtime.shm import pool_stats, shutdown_pools
from repro.runtime.simmpi import spmd_run

_CORNER_2D = CornerLaplace2D()
_CORNER_3D = CornerLaplace3D()

#: Section 10's absolute tolerances (paper scale)
PEAK_REFINE_TOL = 2e-3
PEAK_COARSEN_TOL = 2e-4
#: Section 6's growth profile: the top 15 % of leaves each round
CORNER_FRACTION = 0.15


# ---------------------------------------------------------------------- #
# module-level pieces of the generated inputs (picklable by reference)
# ---------------------------------------------------------------------- #


def corner_mesh(verts, tris) -> AdaptiveMesh:
    return AdaptiveMesh(TriMesh(verts, tris))


def corner_marker(amesh, rnd):
    ind = interpolation_error_indicator(amesh, _CORNER_2D.exact)
    return mark_top_fraction(amesh, ind, CORNER_FRACTION), []


def peak_mesh(verts, tris, t_start) -> AdaptiveMesh:
    """Section 10's start mesh: three warm-up adaptations at the first
    peak position, so round 0 already coarsens as well as refines."""
    amesh = AdaptiveMesh(TriMesh(verts, tris))
    for _ in range(3):
        adapt_step(amesh, t_start, PEAK_REFINE_TOL, PEAK_COARSEN_TOL)
    return amesh


def peak_marker(t_start, dt, amesh, rnd):
    prob = MovingPeakPoisson2D(t_start + dt * (rnd + 1))
    ind = interpolation_error_indicator(amesh, prob.exact)
    return (
        mark_over_threshold(amesh, ind, PEAK_REFINE_TOL),
        mark_under_threshold(amesh, ind, PEAK_COARSEN_TOL),
    )


def rank_spin(p: int, transport: str) -> float:
    """The calibration spin on all ranks of a ``(p, transport)`` at once,
    in the processes (or threads) a ``run_pared`` call there uses; the mean
    over ranks."""
    times = spmd_run(p, harness.spin_rank, transport=transport)
    return sum(times) / len(times)


# ---------------------------------------------------------------------- #
# PARED workloads
# ---------------------------------------------------------------------- #


class ParedWorkload:
    """``run_pared`` on a generated 2-D problem.

    ``problem`` is ``"corner"`` (refine-only, corner singularity) or
    ``"peak"`` (moving peak, refine and coarsen)."""

    def __init__(self, name, *, problem, n, rounds, p, transport, partitioner,
                 imbalance_trigger=0.05):
        self.name = name
        self.problem = problem
        self.n = n
        self.rounds = rounds
        self.p = p
        self.transport = transport
        self.partitioner = partitioner
        self.imbalance_trigger = imbalance_trigger
        self.cfg = None
        self._jobs_before = 0

    # ---- inputs ------------------------------------------------------ #

    def generate(self, seed: int) -> None:
        verts, tris = delaunay_square_mesh(self.n, seed=seed)
        if self.problem == "corner":
            make_mesh = partial(corner_mesh, verts, tris)
            marker = corner_marker
        else:
            # the seed shifts where on its diagonal trajectory the peak
            # starts; the step keeps Section 10's 100-steps-per-unit pace
            # scaled to the round count
            t_start = -0.5 + float(np.random.default_rng(seed).uniform(0, 0.1))
            make_mesh = partial(peak_mesh, verts, tris, t_start)
            marker = partial(peak_marker, t_start, 1.0 / 12)
        self.cfg = ParedConfig(
            p=self.p,
            make_mesh=make_mesh,
            marker=marker,
            rounds=self.rounds,
            pnr=PNR(seed=seed),
            imbalance_trigger=self.imbalance_trigger,
            transport=self.transport,
            partitioner=self.partitioner,
        )

    @property
    def pnr(self) -> PNR:
        return self.cfg.pnr

    def config(self, **overrides) -> ParedConfig:
        """The generated config with some fields replaced (the launch
        probe's ``rounds=0``, the speed-up leg's ``p=1``)."""
        return replace(self.cfg, **overrides)

    # ---- the timed call and its check -------------------------------- #

    def call(self):
        if self.transport == "shm":
            self._jobs_before = pool_stats().get(self.p, (0, 0.0))[0]
        return run_pared(self.cfg)

    @staticmethod
    def digest(out) -> tuple:
        """What must repeat exactly from call to call."""
        histories, _ = out
        return tuple(
            (h["leaves"], h["cut"], h["shared_vertices"], h["elements_moved"],
             h["trees_moved"], h["owner"].tobytes())
            for h in histories[0]
        )

    def check(self, out, reference) -> list:
        histories, stats = out
        problems = []
        if any(h is None or len(h) != self.rounds for h in histories):
            return ["a rank returned no or a short history"]
        first = histories[0]
        for r, other in enumerate(histories[1:], start=1):
            for a, b in zip(first, other):
                if (a["leaves"], a["cut"]) != (b["leaves"], b["cut"]) or not (
                    np.array_equal(a["owner"], b["owner"])
                ):
                    problems.append(
                        f"rank {r} history differs in round {a['round']}"
                    )
                    break
        for rnd in range(self.rounds):
            load = sum(h[rnd]["local_load"] for h in histories)
            if load != first[rnd]["leaves"]:
                problems.append(
                    f"round {rnd}: loads sum to {load}, "
                    f"mesh has {first[rnd]['leaves']} leaves"
                )
        if reference is not None and self.digest(out) != reference:
            problems.append("result differs from the warm-up call's")
        if stats.backend != self.transport:
            problems.append(
                f"ran on {stats.backend!r}, asked for {self.transport!r}"
            )
        if self.transport == "shm":
            jobs = pool_stats().get(self.p, (0, 0.0))[0]
            if jobs != self._jobs_before + 1:
                problems.append(
                    "the persistent shm pool did not take the job "
                    f"(pool jobs {self._jobs_before} -> {jobs})"
                )
        return problems

    def quality(self, out) -> dict:
        histories, _ = out
        first = histories[0]
        last = first[-1]
        loads = [h[-1]["local_load"] for h in histories]
        mean = sum(loads) / len(loads)
        return {
            "cut_final": float(last["cut"]),
            "leaves_final": float(last["leaves"]),
            "migrated_frac": sum(h["elements_moved"] for h in first)
            / sum(h["leaves"] for h in first),
            "imbalance_final": max(loads) / mean - 1.0,
        }

    # ---- calibration and teardown ------------------------------------ #

    def spin(self) -> float:
        return rank_spin(self.p, self.transport)

    def teardown(self) -> None:
        shutdown_pools()


# ---------------------------------------------------------------------- #
# the serial 3-D ladder
# ---------------------------------------------------------------------- #


class LadderWorkload:
    """Library use without a runtime: partition the coarse dual graph of a
    3-D mesh, then repartition it after each rung of a refinement ladder
    (the shape of the paper's Figures 4 and 5 and of ``repro repartition``).
    The ladder is built in set-up; the timed call touches only
    ``partition`` / ``graph`` / ``core``."""

    p = 1  # rank processes the call starts: none beyond this one
    transport = None

    def __init__(self, name, *, n, rungs, k, partitioner="pnr"):
        self.name = name
        self.n = n
        self.rungs = rungs
        self.k = k
        self.partitioner = partitioner
        self.graphs = None
        self.coords = None
        self.pnr = None

    def generate(self, seed: int) -> None:
        fraction = 0.10 * (1.0 + float(np.random.default_rng(seed).uniform(-0.1, 0.1)))
        amesh = AdaptiveMesh.unit_cube(self.n)
        self.coords = coarse_root_centroids(amesh.mesh)
        self.graphs = [coarse_dual_graph(amesh.mesh)]
        for _ in range(self.rungs - 1):
            ind = interpolation_error_indicator(amesh, _CORNER_3D.exact)
            amesh.refine(mark_top_fraction(amesh, ind, fraction))
            self.graphs.append(coarse_dual_graph(amesh.mesh))
        self.pnr = PNR(seed=seed)

    def call(self):
        repart = make_repartitioner(self.partitioner, pnr=self.pnr)
        owners = [repart.initial(self.graphs[0], self.k, coords=self.coords)]
        for graph in self.graphs[1:]:
            owners.append(
                repart.repartition(graph, self.k, owners[-1], coords=self.coords)
            )
        return owners

    @staticmethod
    def digest(out) -> tuple:
        return tuple(np.asarray(o).tobytes() for o in out)

    def check(self, out, reference) -> list:
        problems = []
        n_roots = self.graphs[0].n_vertices
        for rung, owner in enumerate(out):
            owner = np.asarray(owner)
            if owner.shape != (n_roots,):
                problems.append(f"rung {rung}: owner has shape {owner.shape}")
            elif owner.min() < 0 or owner.max() >= self.k:
                problems.append(f"rung {rung}: part id out of range")
            elif np.unique(owner).size != self.k:
                problems.append(f"rung {rung}: an empty part")
        if reference is not None and self.digest(out) != reference:
            problems.append("result differs from the warm-up call's")
        return problems

    def quality(self, out) -> dict:
        moved = sum(
            graph_migration(g, old, new)
            for g, old, new in zip(self.graphs[1:], out[:-1], out[1:])
        )
        total = sum(g.total_vweight for g in self.graphs[1:])
        final = self.graphs[-1]
        return {
            "cut_final": float(graph_cut(final, out[-1])),
            "leaves_final": float(final.total_vweight),
            "migrated_frac": float(moved / total),
            "imbalance_final": float(graph_imbalance(final, out[-1], self.k)),
        }

    def spin(self) -> float:
        return harness.spin()

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# the declared workloads at full scale
# ---------------------------------------------------------------------- #


def make_workloads() -> dict:
    """Fresh full-scale instances, keyed by the names in BENCHMARK.json."""
    corner = dict(problem="corner", n=40, rounds=5)
    return {
        w.name: w
        for w in (
            ParedWorkload("corner2d_p1_thread", p=1, transport="thread",
                          partitioner="pnr", **corner),
            ParedWorkload("corner2d_p2_shm_pnr", p=2, transport="shm",
                          partitioner="pnr", **corner),
            ParedWorkload("peak2d_p2_shm_dkl", problem="peak", n=24, rounds=6,
                          p=2, transport="shm", partitioner="dkl"),
            LadderWorkload("ladder3d_k16_pnr", n=12, rungs=4, k=16),
        )
    }
