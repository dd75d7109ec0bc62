"""Rivara longest-edge bisection with conformality propagation, a wave at a
time: triangles [Rivara 1989] and tetrahedra [Rivara 1992].

A simplex is bisected at the midpoint of its longest edge.  In 2-D a
triangle is bisected together with its neighbour across that edge (a
*terminal pair*), or alone if the edge is on the boundary; when the
neighbour's longest edge differs, the neighbour is refined first — the
LEPP (longest-edge propagation path) iteration, whose paths follow strictly
increasing edge lengths and so are simple and finite.  In 3-D the *entire
star* of the edge — every leaf tet containing it — is bisected at once; a
star whose members all have that edge as their longest is terminal,
otherwise its non-conforming members are refined first, by their own
longest edges.  Termination is not proven in general for 3-D longest-edge
bisection but holds in practice.

Each wave walks from every still-leaf target (each element at most once per
wave) to the terminal pairs or stars that end its path, then bisects their
*union* as one batch; waves repeat until no target is a leaf.  A wave is a
function of the *set* of remaining targets, and children and midpoints are
numbered in ascending parent / edge-key order, so element and vertex ids —
not only the refined geometry — are independent of the order, multiplicity
and redundancy of the targets (the property PARED's parallel refinement
relies on; see :mod:`repro.pared.distmesh`).

The waves of both dimensions run in one compiled call
(:mod:`repro.mesh._meshnative`); the numpy 2-D and Python 3-D wave loops it
replaced are its oracle in ``tests/_mesh_oracle.py``.
"""

from __future__ import annotations

from repro.mesh._meshnative import MAX_STEPS_FACTOR, refine_waves
from repro.mesh.base import PropagationLimitError

__all__ = ["PropagationLimitError", "refine"]


def refine(mesh, targets, max_steps_factor: int = MAX_STEPS_FACTOR) -> list:
    """Bisect each leaf of ``mesh`` (a :class:`~repro.mesh.mesh2d.TriMesh`
    or :class:`~repro.mesh.mesh3d.TetMesh`) in ``targets`` once, propagating
    as needed to keep the mesh conformal.

    Parameters
    ----------
    mesh:
        The nested triangle or tetrahedron mesh.
    targets:
        Iterable of element ids to refine, in any order.  Ids that are not
        (or stop being) leaves are skipped; an id outside ``[0,
        n_elements)`` raises ``ValueError`` before anything is written.
    max_steps_factor:
        Safety cap on the path steps (2-D) or walkers (3-D) stepped per
        call, as a multiple of the initial leaf count (at least the mesh's
        ``MIN_STEPS``).  Past it the call raises
        :class:`PropagationLimitError` after the waves applied before it.

    Returns
    -------
    list of int
        Ids of every element bisected by this call (targets and propagated
        neighbours), wave by wave, ascending within a wave.
    """
    return refine_waves(mesh, targets, max_steps_factor)
