"""Rivara longest-edge bisection of tetrahedra (3-D) [Rivara 1992].

A tetrahedron is bisected by inserting the triangle between the midpoint of
its longest edge and the two vertices not on that edge.  Conformality in 3-D
requires the *entire star* of the bisection edge — every active tet
containing it — to be bisected at the same midpoint simultaneously.  When
some tet of the star has a different (longer) longest edge, that tet is
refined first by its own longest edge; the propagation repeats until the
star is uniform.  Termination is not proven in general for 3-D longest-edge
bisection but holds in practice; a step guard converts a hypothetical
non-terminating propagation into an exception.
"""

from __future__ import annotations

from repro.mesh.base import PropagationLimitError, element_ids
from repro.mesh.mesh3d import TetMesh


def _bisect_tet(mesh: TetMesh, eid: int, a: int, b: int, m: int) -> tuple:
    """Bisect tet ``eid`` across edge ``(a, b)`` at midpoint vertex ``m``.
    The two off-edge vertices keep their relative order, so the bisection is
    deterministic given the (sorted) edge."""
    cell = mesh.cell(eid)
    others = [v for v in cell if v != a and v != b]
    c, d = others
    return mesh._new_children(eid, (a, m, c, d), (m, b, c, d))


def refine3d(mesh: TetMesh, targets, max_steps_factor: int = 1000) -> list:
    """Bisect each leaf tet in ``targets`` once, propagating star bisections
    to keep the mesh conformal.  Returns the ids of all bisected tets.  An
    id outside ``[0, n_elements)`` raises ``ValueError`` before anything is
    written."""
    targets = element_ids(mesh, targets).tolist()
    bisected: list = []
    limit = max(2000, max_steps_factor * max(mesh.n_leaves, 1))
    steps = 0
    forest = mesh.forest
    for t in targets:
        if not forest.is_leaf(t):
            continue
        stack = [t]
        while stack:
            steps += 1
            if steps > limit:
                raise PropagationLimitError(
                    f"3-D propagation exceeded {limit} steps; "
                    "longest-edge cycle or corrupt mesh"
                )
            top = stack[-1]
            if not forest.is_leaf(top):
                stack.pop()
                continue
            a, b = mesh.longest_edge(top)
            star = mesh.edge_star(a, b)
            nonconf = [s for s in star if mesh.longest_edge(s) != (a, b)]
            if nonconf:
                # Refine the offending tets (by their own longest edges)
                # before the star of (a, b) can be bisected.
                stack.extend(nonconf)
            else:
                m = mesh.midpoint(a, b)
                for s in star:
                    _bisect_tet(mesh, s, a, b, m)
                    bisected.append(s)
                stack.pop()
    return bisected
