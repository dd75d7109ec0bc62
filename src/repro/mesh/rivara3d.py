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

import numpy as np

from repro.mesh._meshnative import refine_waves, walk3d
from repro.mesh.base import PropagationLimitError, element_ids, sorted_unique
from repro.mesh.forest import LEAF
from repro.mesh.mesh3d import TetMesh

__all__ = ["PropagationLimitError", "refine3d", "star_walk"]


#: default cap on the walkers stepped per call, per initial leaf
MAX_STEPS_FACTOR = 1000


def _step_limit(mesh: TetMesh, max_steps_factor: int) -> int:
    return max(2000, max_steps_factor * max(mesh.n_leaves, 1))


def refine3d(mesh: TetMesh, targets, max_steps_factor: int = MAX_STEPS_FACTOR) -> list:
    """Bisect each leaf tet in ``targets`` once, propagating star bisections
    to keep the mesh conformal.  Ids that are not (or stop being) leaves
    are skipped; an id outside ``[0, n_elements)`` raises ``ValueError``
    before anything is written.  ``max_steps_factor`` caps the walkers
    stepped per call, as a multiple of the initial leaf count.  Returns the
    ids of all bisected tets, wave by wave, ascending within a wave."""
    targets = sorted_unique(element_ids(mesh, targets))
    return refine_waves(mesh, targets, _step_limit(mesh, max_steps_factor))


def star_walk(mesh: TetMesh, targets) -> np.ndarray:
    """The tets the first wave of ``refine3d(mesh, targets)`` walks, sorted,
    read-only (PARED's refine requests); raises
    :class:`~repro.mesh.base.PropagationLimitError` where ``refine3d``
    would."""
    targets = sorted_unique(element_ids(mesh, targets))
    targets = targets[mesh.forest.status_array[targets] == LEAF]
    return walk3d(mesh, targets, _step_limit(mesh, MAX_STEPS_FACTOR))
