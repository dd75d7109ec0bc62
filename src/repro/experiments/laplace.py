"""Section 6 workloads: adaptive refinement ladders for the corner-singular
Laplace problems.

The paper starts from quasi-uniform meshes of 12,498 triangles / 9,540 tets
and refines where the L∞ error exceeds a tolerance, eight levels in 2-D and
five in 3-D, growing to 135,371 / 70,185 elements.  ``laplace_ladder``
reproduces that protocol: at each level it marks every leaf whose
interpolation-error indicator exceeds ``tol`` and bisects, yielding the mesh
after each level.

Reduced scale (default): a 28×28 / 7³ initial grid with the same marking
rule; ``REPRO_PAPER_SCALE=1`` or ``paper_scale=True`` switches to a 79×79
grid (12,482 triangles ≈ the paper's 12,498) and a 12³ grid (10,368 tets ≈
9,540).
"""

from __future__ import annotations

import numpy as np

from repro.runtime.envflags import env_bool

from repro.experiments.tracking import AssignmentTracker
from repro.fem.estimate import (
    interpolation_error_indicator,
    mark_over_threshold,
    mark_top_fraction,
)
from repro.fem.problems import CornerLaplace2D, CornerLaplace3D
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.metrics import cut_size, shared_vertex_count
from repro.partition.permute import (
    apply_permutation,
    minimize_migration_permutation,
)


def default_scale() -> bool:
    """True when the environment requests paper-scale meshes
    (``REPRO_PAPER_SCALE``, parsed by :func:`repro.runtime.envflags
    .env_bool` — ``False``/``no``/``0``/empty all read as false)."""
    return env_bool("REPRO_PAPER_SCALE", default=False)


# dim -> (initial mesh, problem, {paper scale?: (grid n, ladder levels)})
_SCALES = {
    2: (AdaptiveMesh.unit_square, CornerLaplace2D, {False: (28, 6), True: (79, 8)}),
    3: (AdaptiveMesh.unit_cube, CornerLaplace3D, {False: (7, 4), True: (12, 5)}),
}


def _ladder_start(dim, paper_scale, n):
    """``(amesh, problem, paper_scale, levels)``: a ladder's initial mesh and
    problem, the resolved scale and its default number of levels."""
    if dim not in _SCALES:
        raise ValueError("dim must be 2 or 3")
    if paper_scale is None:
        paper_scale = default_scale()
    make_mesh, problem, sizes = _SCALES[dim]
    default_n, levels = sizes[bool(paper_scale)]
    return make_mesh(default_n if n is None else n), problem(), paper_scale, levels


def laplace_ladder(
    dim: int = 2,
    paper_scale: bool = None,
    levels: int = None,
    n: int = None,
    tol: float = None,
    fraction: float = 0.2,
):
    """Generator of the Section 6 refinement ladder.

    Yields ``(level, amesh)`` with ``level = 0`` for the initial mesh, then
    after each refinement level.  The mesh object is reused (snapshot
    metrics before advancing).

    Marking: by default the top ``fraction`` of leaves by interpolation-
    error indicator is marked each level — this reproduces the *growth
    profile* of the paper's ladder (12,498 → 135,371 over 8 levels ≈ 1.35×
    per level including conformality propagation) independent of the
    absolute error scale, which depends on the initial grid resolution.
    Passing ``tol`` switches to the paper's literal rule (mark every leaf
    whose L∞ indicator exceeds ``tol``; the ladder then terminates when the
    error criterion is met).
    """
    amesh, problem, _, default_levels = _ladder_start(dim, paper_scale, n)
    if levels is None:
        levels = default_levels

    yield 0, amesh
    for level in range(1, levels + 1):
        ind = interpolation_error_indicator(amesh, problem.exact)
        if tol is not None:
            marked = mark_over_threshold(amesh, ind, tol)
        else:
            marked = mark_top_fraction(amesh, ind, fraction)
        if marked.size == 0:
            break
        amesh.refine(marked)
        yield level, amesh


def quality_headers(plist) -> list:
    """Column headers of Figure 3's :func:`run_quality_ladder` rows."""
    cols = [f"{name} p={p}" for name in ("MLKL", "PNR") for p in plist]
    return ["level", "elems"] + cols


def run_quality_ladder(baseline, method, plist, **ladder_kw):
    """The Figure 3 protocol: after every level of :func:`laplace_ladder`,
    partition the adapted mesh for each ``p`` with the scratch ``baseline``
    and with the incremental ``method`` (steppers, see
    :mod:`repro.experiments.steppers`) and count shared vertices.

    Rows: ``(level, elems, *baseline_sv, *method_sv)`` in ``plist`` order.
    ``method`` carries one state per ``p`` across levels; ``baseline`` is
    restarted at every level, so it draws the same seed each time.
    """
    states = {p: None for p in plist}
    rows = []
    for level, amesh in laplace_ladder(**ladder_kw):
        base_sv, method_sv = [], []
        for p in plist:
            fine, _ = baseline(amesh, p, None)
            base_sv.append(shared_vertex_count(amesh.mesh, fine))
            fine, states[p] = method(amesh, p, states[p])
            method_sv.append(shared_vertex_count(amesh.mesh, fine))
        rows.append((level, amesh.n_leaves, *base_sv, *method_sv))
    return rows


def ladder_pairs(
    dim: int = 2,
    paper_scale: bool = None,
    n_measure: int = None,
    growth_fraction: float = 0.2,
    growth_rounds: int = 3,
    small_fraction: float = 0.03,
    n: int = None,
):
    """The Figure 4/5 protocol: a series of meshes of (roughly doubling)
    increasing size; at each size, a *small* refinement between two
    partitioning rounds (the paper's pairs, e.g. 5094 → 5269).

    Yields ``("before", size_index, amesh)`` — caller partitions
    ``M^{t-1}`` — then, after a small corner-concentrated refinement,
    ``("after", size_index, amesh)`` — caller repartitions ``M^t`` and
    measures cut/migration.  Between measurements the mesh grows by
    ``growth_rounds`` top-``growth_fraction`` refinements (≈ doubling, as in
    Figure 4's size ladder); a ``("grow", size_index, amesh)`` event follows
    each growth round so incremental methods can repartition after *every*
    adaptation, as the paper does ("after each refinement, a new partition
    of the adapted mesh was computed").
    """
    amesh, problem, paper_scale, _ = _ladder_start(dim, paper_scale, n)
    if n_measure is None:
        n_measure = 5 if paper_scale else 3

    def grow(fraction):
        ind = interpolation_error_indicator(amesh, problem.exact)
        amesh.refine(mark_top_fraction(amesh, ind, fraction))

    for size_index in range(n_measure):
        yield "before", size_index, amesh
        grow(small_fraction)
        yield "after", size_index, amesh
        if size_index != n_measure - 1:
            for _ in range(growth_rounds):
                grow(growth_fraction)
                yield "grow", size_index, amesh


REPARTITION_HEADERS = [
    "size#", "p", "elem t-1", "cut t-1", "elem t", "cut t",
    "C_mig raw", "C_mig perm",
]


def run_repartition_protocol(method, plist, **ladder_kw):
    """The Figure 4/5 protocol: for each ``p``, step ``method`` (a stepper,
    see :mod:`repro.experiments.steppers`) over :func:`ladder_pairs`,
    repartitioning after every adaptation, and at each measured pair record
    the cut before/after and the migration needed to adopt the new
    partition — raw, and after the Biswas–Oliker subset permutation [5].
    Migration is counted at the *element* level against an
    :class:`~repro.experiments.tracking.AssignmentTracker`, so methods that
    cut through refinement trees are accounted fairly.

    Rows (:data:`REPARTITION_HEADERS`), ordered by (size, p) like the
    paper's tables.
    """
    rows = []
    for p in plist:
        state = tracker = before = None
        for phase, k, amesh in ladder_pairs(**ladder_kw):
            fine, state = method(amesh, p, state)
            fine = np.asarray(fine)
            if phase == "after":
                inherited = tracker.inherited()
                perm = minimize_migration_permutation(inherited, fine, p)
                rows.append(
                    (
                        k, p, *before, amesh.n_leaves, cut_size(amesh.mesh, fine),
                        int(np.count_nonzero(inherited != fine)),
                        int(np.count_nonzero(
                            inherited != apply_permutation(fine, perm)
                        )),
                    )
                )
                continue
            # "before" and "grow": the distribution the next round starts from
            if tracker is None:
                tracker = AssignmentTracker(amesh)
            tracker.stamp(fine)
            if phase == "before":
                before = (amesh.n_leaves, cut_size(amesh.mesh, fine))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows
