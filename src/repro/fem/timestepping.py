"""Implicit time stepping for transient problems on adaptive meshes.

The paper's transient experiment (Section 10) freezes time and re-solves
Poisson's equation each step.  Real PARED workloads integrate a PDE in
time; this module provides the standard backward-Euler discretization of
the heat equation

    ``u_t − Δu = f(x, t)``,  ``u = g`` on the boundary,

with mass/stiffness assembly per step and **nodal transfer across mesh
adaptation**: after refinement/coarsening the previous solution is
interpolated onto the new leaf mesh (exactly representable for bisection
meshes, because every new vertex is an edge midpoint — P1 interpolation is
just the midpoint average, and coarsening restricts by dropping midpoints).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.fem.bc import apply_dirichlet
from repro.fem.p1 import load_vector, mass_matrix, stiffness_matrix


def transfer_nodal(mesh, u_old: np.ndarray, used=None) -> np.ndarray:
    """Carry a nodal vector to the current mesh: every vertex its mesh did
    not use gets the P1 interpolant.

    Every vertex of a nested bisection mesh is either original or the
    midpoint of a (recursively midpointed) edge; midpoint values are the
    averages of their edge endpoints, which *is* the P1 interpolant.  The
    mesh keeps its midpoint memo forever, in creation order, so transfer is
    a single sweep over it.  ``used`` marks the vertices ``u_old``'s mesh
    used (default: all ``len(u_old)`` of them); a midpoint it did not use —
    one created since, or one that coarsening retired and a refinement
    brought back under the same id — is interpolated.  Coarsening needs
    nothing: old vertices keep their ids.
    """
    mesh = getattr(mesh, "mesh", mesh)
    u = np.zeros(mesh.n_verts)
    n_old = u_old.shape[0]
    u[:n_old] = u_old
    stale = np.ones(mesh.n_verts, dtype=bool)
    stale[:n_old] = False if used is None else ~np.asarray(used, dtype=bool)
    memo = mesh._midpoint
    # creation order: a midpoint's endpoints are filled before it
    pick = np.flatnonzero(stale[memo.values_array])
    for key, vid in zip(memo.keys_array[pick].tolist(), memo.values_array[pick].tolist()):
        u[vid] = 0.5 * (u[key >> 32] + u[key & 0xFFFFFFFF])
    return u


class HeatEquationSolver:
    """Backward-Euler integrator for ``u_t − Δu = f`` on an adaptive mesh.

    Parameters
    ----------
    amesh:
        The adaptive mesh (may be adapted between steps; call
        :meth:`transfer` afterwards).
    source:
        ``f(points, t)`` or ``None``.
    dirichlet:
        ``g(points, t)`` boundary data (``None`` = homogeneous).
    """

    def __init__(self, amesh, source=None, dirichlet=None):
        self.amesh = amesh
        self.source = source
        self.dirichlet = dirichlet
        #: the vertices the mesh of the last step's solution used (``None``:
        #: all, as for an initial condition)
        self._used = None

    def initial_condition(self, u0) -> np.ndarray:
        """Nodal interpolation of ``u0(points)`` on the current mesh."""
        mesh = getattr(self.amesh, "mesh", self.amesh)
        self._used = None
        return np.asarray(u0(mesh.verts))

    def transfer(self, u_old: np.ndarray) -> np.ndarray:
        """Carry the last solution across a mesh adaptation (vertices its
        mesh did not use, which :meth:`step` pinned to 0, are interpolated)."""
        return transfer_nodal(self.amesh, u_old, self._used)

    def step(self, u_old: np.ndarray, t_new: float, dt: float) -> np.ndarray:
        """One backward-Euler step: ``(M + dt·A) u = M u_old + dt·b(t_new)``."""
        mesh = getattr(self.amesh, "mesh", self.amesh)
        verts = mesh.verts
        cells = mesh.leaf_cells()
        if u_old.shape[0] != verts.shape[0]:
            raise ValueError(
                "solution vector out of date; call transfer() after adapting"
            )
        M = mass_matrix(verts, cells)
        A = stiffness_matrix(verts, cells)
        lhs = (M + dt * A).tocsr()
        rhs = M @ u_old
        if self.source is not None:
            rhs = rhs + dt * load_vector(verts, cells, lambda p: self.source(p, t_new))
        bnodes = mesh.boundary_vertices()
        bvals = (
            np.zeros(bnodes.shape[0])
            if self.dirichlet is None
            else np.asarray(self.dirichlet(verts[bnodes], t_new))
        )
        lhs, rhs = apply_dirichlet(lhs, rhs, bnodes, bvals)
        used = np.zeros(verts.shape[0], dtype=bool)
        used[np.unique(cells.ravel())] = True
        self._used = used
        unused = np.nonzero(~used)[0]
        if unused.size:
            lhs, rhs = apply_dirichlet(lhs, rhs, unused, np.zeros(unused.size))
        return spla.spsolve(lhs.tocsc(), rhs)
