"""Nested coarsening: replace all children of a refined element by their
parent (Section 2 of the paper).

Coarsening is only applied where it keeps the mesh conformal.  The unit of
coarsening is the *bisection group*: the set of parents whose bisections
introduced the same midpoint vertex ``m`` (in 2-D, the pair of triangles
sharing the bisected edge; in 3-D, the whole edge star).  A group may be
merged iff

* every parent's two children are active leaves, all marked for coarsening,
  and
* no *other* active leaf uses the midpoint vertex ``m`` (which would leave a
  hanging node).

Elements are never destroyed: merged children become ``INACTIVE`` in the
forest and are reactivated verbatim if the region is refined again.  ``M^0``
is the coarsest mesh the system can represent (roots have no parents).

The implementation is dimension-generic and works on whole arrays: it
relies only on the forest, the stored connectivity and the ``_merge_many``
hook of the mesh.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.base import id_array, sorted_unique
from repro.mesh.forest import LEAF


def coarsen(mesh, marked) -> list:
    """Coarsen the mesh where all conditions hold.

    Parameters
    ----------
    mesh:
        A :class:`~repro.mesh.mesh2d.TriMesh` or
        :class:`~repro.mesh.mesh3d.TetMesh`.
    marked:
        Iterable of leaf element ids the caller wants removed (e.g. leaves
        whose error indicator is small).  Only complete bisection groups
        whose children are all marked are merged.

    Returns
    -------
    list of int
        The parents that were merged (now active leaves), ascending.
    """
    forest = mesh.forest
    status = forest.status_array
    marked = id_array(marked)
    if not marked.size:
        return []
    is_marked = np.zeros(len(forest), dtype=bool)
    is_marked[marked[status[marked] == LEAF]] = True

    # Candidate parents: both children are marked leaves.
    parents = sorted_unique(forest.parent_array[is_marked.nonzero()[0]])
    parents = parents[parents >= 0]
    parents = parents[
        is_marked[forest.child0_array[parents]]
        & is_marked[forest.child1_array[parents]]
    ]
    if not parents.size:
        return []

    # Bisection midpoint of each candidate: the one vertex of a child that
    # the parent does not have.
    kid = mesh.cells[forest.child0_array[parents]]
    extra = (kid[:, :, None] != mesh.cells[parents][:, None, :]).all(axis=2)
    mids = kid[extra]

    # A group merges iff its children are the only active users of its
    # midpoint: every child uses it, so counting leaf incidences suffices.
    users = np.bincount(mesh.leaf_cells().ravel(), minlength=mesh.n_verts)
    group = np.bincount(mids, minlength=mesh.n_verts)
    parents = parents[users[mids] == 2 * group[mids]]
    mesh._merge_many(parents)
    return parents.tolist()
