"""The numpy oracle of the compiled 2-D mesh kernel
(``src/repro/mesh/_meshcore.c``).

This is the numpy wave loop of :func:`repro.mesh.rivara2d.refine2d` and
the numpy split and stitch of :class:`~repro.mesh.mesh2d.TriMesh`, moved
here verbatim when the compiler became a requirement.  :class:`OracleTriMesh`
is a :class:`~repro.mesh.mesh2d.TriMesh` whose stitch — at construction, in
every refinement batch and in every coarsening — is the numpy one, and
:func:`refine2d` runs the numpy waves on it; ``tests/test_mesh_native.py``
requires the compiled kernel to leave every array of a ``TriMesh`` id for id
as these leave an ``OracleTriMesh``.

Change the kernel and its oracle together, never one alone.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.base import PropagationLimitError, id_array, sorted_unique
from repro.mesh.forest import LEAF
from repro.mesh.mesh2d import _NEXT, _PREV, TriMesh

_LOCAL = np.arange(3)


class OracleTriMesh(TriMesh):
    """A :class:`~repro.mesh.mesh2d.TriMesh` on the numpy split and stitch."""

    def _stitch(self, born: np.ndarray, died: np.ndarray) -> None:
        self._stitch_py(born, died)

    def _stitch_py(self, born: np.ndarray, died: np.ndarray) -> None:
        """The reference stitch: pairs equal packed keys by one sort.  Works
        on flat *slots* ``3 * element + local index``."""
        nbr = self._nbr.data
        flat = nbr.reshape(-1)
        dslot = (3 * died[:, None] + _LOCAL).ravel()
        surv = flat[dslot]
        keep = (surv >= 0) & (self.forest.status_array[surv] == LEAF)
        surv, dslot = surv[keep], dslot[keep]
        back = (nbr[surv] == (dslot // 3)[:, None]).argmax(axis=1)
        slot = np.concatenate([(3 * born[:, None] + _LOCAL).ravel(), 3 * surv + back])
        keys = self._ekey.data.reshape(-1)[slot]
        flat[slot] = -1
        order = np.argsort(keys)  # equal keys pair up whatever their order
        keys = keys[order]
        same = np.nonzero(keys[1:] == keys[:-1])[0]
        lo, hi = slot[order[same]], slot[order[same + 1]]
        flat[lo] = hi // 3
        flat[hi] = lo // 3

    def _split_many(self, parents: np.ndarray, kids: np.ndarray) -> tuple:
        """Bisect ascending leaves ``parents`` in one batch: forest split,
        geometry ``kids[j] = (cell0, cell1)`` for the freshly created
        children (reactivated children keep theirs), one stitch.  Returns
        the child id arrays."""
        c0, c1, created = self.forest.split_many(parents)
        if created.any():
            fresh = kids[created].reshape(-1, 3)
            first = self._cells.extend(fresh)
            assert first == c0[created][0], "forest and cell ids must stay in lockstep"
            self._grow_adjacency(fresh)
        self._stitch(np.concatenate([c0, c1]), parents)
        return c0, c1

    def bisect_many(self, parents: np.ndarray) -> tuple:
        """Bisect ascending leaves ``parents`` across their longest edges
        (both elements of a terminal pair must be in the batch).  Returns
        the child id arrays."""
        i = self._le.data[parents]
        base = 3 * parents
        cells = self._cells.data.reshape(-1)
        apex, a, b = cells[base + i], cells[base + _NEXT[i]], cells[base + _PREV[i]]
        keys = self._ekey.data.reshape(-1)[base + i]
        ukeys = sorted_unique(keys)
        m = self.midpoints(ukeys)[np.searchsorted(ukeys, keys)]
        # (a, m, apex) and (m, b, apex) inherit the parent's orientation
        kids = np.empty((parents.shape[0], 2, 3), dtype=np.int64)
        kids[:, 0, 0] = a
        kids[:, 0, 1] = kids[:, 1, 0] = m
        kids[:, 1, 1] = b
        kids[:, :, 2] = apex[:, None]
        return self._split_many(parents, kids)

    def _new_children(self, parent: int, cell0, cell1) -> tuple:
        c0, c1 = self._split_many(np.array([parent]), np.array([[cell0, cell1]]))
        return int(c0[0]), int(c1[0])


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
    steps = 0
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
