"""Rivara longest-edge bisection of triangles (2-D), with conformality
propagation [Rivara 1989], a wave at a time.

``refine2d`` bisects each selected triangle once.  A triangle may only be
bisected together with its neighbor across the longest edge (a *terminal
pair*), or alone if that edge is on the boundary.  When the neighbor's
longest edge differs, the neighbor is refined first — the classic LEPP
(longest-edge propagation path) iteration.  LEPP paths follow strictly
increasing edge lengths, so they are simple and finite.

Each wave walks every still-leaf target along its path — from a triangle
to the leaf across its longest edge, each triangle at most once per wave —
to the terminal pair that ends it, then bisects the *union* of terminal
pairs as one batch; waves repeat until no target is a leaf (a handful per
call: a target needs one wave per element on its path).  A wave is a
function of the *set* of remaining targets, and children and midpoints are
numbered in ascending parent / edge-key order, so element and vertex ids —
not only the refined geometry — are independent of the order,
multiplicity and redundancy of ``targets`` (the property PARED relies on
for its parallel refinement; see :mod:`repro.pared.distmesh`).

The waves run in one compiled call (:mod:`repro.mesh._meshnative`), the
same as :func:`~repro.mesh.rivara3d.refine3d`'s; the numpy wave loop it
replaced is its oracle in ``tests/_mesh_oracle.py``.
"""

from __future__ import annotations

from repro.mesh._meshnative import MAX_STEPS_FACTOR, refine_waves
from repro.mesh.base import PropagationLimitError
from repro.mesh.mesh2d import TriMesh

__all__ = ["PropagationLimitError", "refine2d"]


def refine2d(mesh: TriMesh, targets, max_steps_factor: int = MAX_STEPS_FACTOR) -> list:
    """Bisect each leaf triangle in ``targets`` once (propagating as needed
    to keep the mesh conformal).

    Parameters
    ----------
    mesh:
        The nested triangle mesh.
    targets:
        Iterable of element ids to refine, in any order.  Ids that are not
        (or stop being) leaves are skipped; an id outside ``[0,
        n_elements)`` raises ``ValueError`` before anything is written.
    max_steps_factor:
        Safety cap on the total number of path steps walked per call, as a
        multiple of the initial leaf count (at least ``TriMesh.MIN_STEPS``).

    Returns
    -------
    list of int
        Ids of every element bisected by this call (targets and propagated
        neighbors), wave by wave, ascending within a wave.
    """
    return refine_waves(mesh, targets, max_steps_factor)
