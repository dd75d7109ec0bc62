"""Rivara longest-edge bisection of triangles (2-D), with conformality
propagation [Rivara 1989], a wave at a time.

``refine2d`` bisects each selected triangle once.  A triangle may only be
bisected together with its neighbor across the longest edge (a *terminal
pair*), or alone if that edge is on the boundary.  When the neighbor's
longest edge differs, the neighbor is refined first — the classic LEPP
(longest-edge propagation path) iteration.  LEPP paths follow strictly
increasing edge lengths, so they are simple and finite.

Each wave walks every still-leaf target along
:meth:`~repro.mesh.mesh2d.TriMesh.lepp_next` to the terminal element of its
path, then bisects the *union* of terminal pairs as one array batch; waves
repeat until no target is a leaf (a handful per call: a target needs one
wave per element on its path).  A wave is a function of the *set* of
remaining targets, and children and midpoints are numbered in ascending
parent / edge-key order, so element and vertex ids — not only the refined
geometry — are independent of the order, multiplicity and redundancy of
``targets`` (the property PARED relies on for its parallel refinement; see
:mod:`repro.pared.distmesh`).

The waves run in one compiled call (:mod:`repro.mesh._meshnative`) when
the C kernel is available; the numpy loop below is its reference and
finishes whatever the compiled call left — all of it without a compiler
or under ``REPRO_KL_NATIVE=0``.  Because a wave depends only on the
remaining leaf targets, that hand-over is exact.
"""

from __future__ import annotations

import numpy as np

from repro.mesh._meshnative import refine_waves
from repro.mesh.base import id_array, sorted_unique
from repro.mesh.forest import LEAF
from repro.mesh.mesh2d import TriMesh


class PropagationLimitError(RuntimeError):
    """Raised if longest-edge propagation fails to terminate (should never
    happen on a valid conformal triangulation; acts as a corruption guard)."""


def refine2d(mesh: TriMesh, targets, max_steps_factor: int = 1000) -> list:
    """Bisect each leaf triangle in ``targets`` once (propagating as needed
    to keep the mesh conformal).

    Parameters
    ----------
    mesh:
        The nested triangle mesh.
    targets:
        Iterable of leaf element ids to refine, in any order.  Ids that are
        not (or stop being) leaves are skipped.
    max_steps_factor:
        Safety cap on the total number of path steps walked per call, as a
        multiple of the initial leaf count.

    Returns
    -------
    list of int
        Ids of every element bisected by this call (targets and propagated
        neighbors), wave by wave, ascending within a wave.
    """
    targets = sorted_unique(id_array(targets))
    limit = max(1000, max_steps_factor * max(mesh.n_leaves, 1))
    bisected: list = []
    # the compiled waves, then the numpy waves from where they stopped
    steps = refine_waves(mesh, targets, limit, bisected)
    while True:
        # re-read per wave: a batch may regrow the forest storage
        cur = targets = targets[mesh.forest.status_array[targets] == LEAF]
        if not cur.size:
            return bisected
        ready = []
        while cur.size:
            steps += cur.size
            if steps > limit:
                raise PropagationLimitError(
                    f"2-D propagation exceeded {limit} steps; mesh corrupt?"
                )
            nb, terminal = mesh.lepp_next(cur)
            ready += [cur[terminal], nb[terminal]]
            cur = sorted_unique(nb[~terminal])
        ready = sorted_unique(np.concatenate(ready))
        ready = ready[ready >= 0]  # boundary terminals have no partner
        mesh.bisect_many(ready)
        bisected += ready.tolist()
