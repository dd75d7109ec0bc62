"""Rivara longest-edge bisection of tetrahedra (3-D) [Rivara 1992], a wave
at a time.

A tetrahedron is bisected by inserting the triangle between the midpoint of
its longest edge and the two vertices not on that edge.  Conformality in 3-D
requires the *entire star* of the bisection edge — every active tet
containing it — to be bisected at the same midpoint simultaneously.  A star
whose members all have that edge as their longest is *terminal*; otherwise
its non-conforming members (whose longest edge is longer) must be refined
first, by their own longest edges.  Termination is not proven in general for
3-D longest-edge bisection but holds in practice; a step limit converts a
hypothetical non-terminating propagation into an exception.

Each wave walks from every still-leaf target: a walker's star is found by
walking ``_nbr`` around its longest edge, a terminal star is kept whole, and
a non-terminal one sends walkers on from its non-conforming members (each
tet walks at most once per wave).  Then the *union* of terminal stars is
bisected as one batch; waves repeat until no target is a leaf.  A wave is a
function of the *set* of remaining targets, and children and midpoints are
numbered in ascending parent / edge-key order, so element and vertex ids
are independent of the order, multiplicity and redundancy of ``targets`` —
the property PARED's parallel refinement relies on (see
:mod:`repro.pared.distmesh`).

The waves run in one compiled call (:mod:`repro.mesh._meshnative`); the
Python wave loop it replaced is its oracle in ``tests/_mesh_oracle.py``.
"""

from __future__ import annotations

from repro.mesh._meshnative import MAX_STEPS_FACTOR, refine_waves
from repro.mesh.base import PropagationLimitError
from repro.mesh.mesh3d import TetMesh

__all__ = ["PropagationLimitError", "refine3d"]


def refine3d(mesh: TetMesh, targets, max_steps_factor: int = MAX_STEPS_FACTOR) -> list:
    """Bisect each leaf tet in ``targets`` once, propagating star bisections
    to keep the mesh conformal.  Ids that are not (or stop being) leaves
    are skipped; an id outside ``[0, n_elements)`` raises ``ValueError``
    before anything is written.  ``max_steps_factor`` caps the walkers
    stepped per call, as a multiple of the initial leaf count (at least
    ``TetMesh.MIN_STEPS``).  Returns the ids of all bisected tets, wave by
    wave, ascending within a wave."""
    return refine_waves(mesh, targets, max_steps_factor)
