"""Error indicators and marking strategies for mesh adaptation.

Two indicators:

* :func:`interpolation_error_indicator` — the L∞ interpolation error of a
  *known* solution on each leaf element, sampled at edge midpoints and the
  centroid.  The paper adapts "using the L∞ norm" against the analytical
  solution of its model problems; this indicator is deterministic and cheap,
  which keeps the experiment ladders reproducible.
* :func:`gradient_jump_indicator` — the classic a-posteriori indicator from
  the FE solution itself: the jump of the normal gradient across facets,
  aggregated per element.  Used when no exact solution is available.

Marking helpers convert indicator arrays into leaf-id sets for
``AdaptiveMesh.refine`` / ``coarsen``.
"""

from __future__ import annotations

import inspect
import itertools

import numpy as np

from repro.fem import problems
from repro.fem.p1 import gradients
from repro.perf import PERF


class _IndicatorStore:
    """One problem function's samples on one mesh: its nodal values by
    vertex id, the indicator by element id, and which element ids hold a
    value.  Kept in the mesh's ``_indicator_store`` slot, so it lives and
    dies with the mesh; it holds its problem instance strongly, so the
    identity it is keyed on cannot be reused."""

    __slots__ = ("owner", "func", "nodal", "values", "valid")

    def __init__(self, owner, func):
        self.owner = owner
        self.func = func
        self.nodal = np.empty(0)
        self.values = np.empty(0)
        self.valid = np.zeros(0, dtype=bool)


def _memoizable(exact) -> bool:
    """``exact`` is a bound method of a :mod:`repro.fem.problems` instance.
    Those instances are values (read-only fields) and their functions are
    elementwise, so a sample never changes and does not depend on the
    other points of its call."""
    return inspect.ismethod(exact) and type(exact.__self__).__module__ == problems.__name__


def _grown(a: np.ndarray, n: int, fill) -> np.ndarray:
    """``a`` extended with ``fill`` to at least ``n`` entries (capacity
    doubles, so a growing mesh copies amortized O(1) per entry)."""
    if a.shape[0] >= n:
        return a
    out = np.full(max(n, 2 * a.shape[0]), fill, dtype=a.dtype)
    out[: a.shape[0]] = a
    return out


def interpolation_error_indicator(mesh, exact) -> np.ndarray:
    """Per-leaf L∞ interpolation error of ``exact`` by the P1 interpolant.

    Samples the error at all edge midpoints and the centroid of each leaf
    element (where the linear interpolation error of a smooth function
    peaks).  Returns an array aligned with ``mesh.leaf_ids()``.

    A leaf's value depends only on its own vertices, and element ids,
    cells and vertex coordinates are never changed or reused.  So when
    ``exact`` is a bound method of a :mod:`repro.fem.problems` instance,
    the mesh keeps its values: the next call with the same instance and
    method samples only the vertices and leaves added since (a
    reactivated leaf keeps its old value).  Any other callable, or
    another instance, samples every leaf and replaces what the mesh kept.
    ``PERF`` counts the leaves sampled (``fem.indicator.sampled``) next to
    the leaves returned (``fem.indicator.leaves``).
    """
    mesh = getattr(mesh, "mesh", mesh)
    owner = getattr(exact, "__self__", None)
    func = getattr(exact, "__func__", None)
    store = mesh._indicator_store
    if store is None or store.owner is not owner or store.func is not func:
        store = _IndicatorStore(owner, func)
        mesh._indicator_store = store if _memoizable(exact) else None
    seen = store.nodal.shape[0]
    if seen < mesh.n_verts:
        nodal = np.asarray(exact(mesh.verts[seen:]))
        store.nodal = np.concatenate([store.nodal, nodal])
    ids = mesh.leaf_ids()
    store.values = _grown(store.values, mesh.n_elements, 0.0)
    store.valid = _grown(store.valid, mesh.n_elements, False)
    fresh = ids[~store.valid[ids]]
    if fresh.size:
        cells = mesh.cells.take(fresh, axis=0)  # 3x faster than cells[fresh]
        store.values[fresh] = _sample(mesh.verts, store.nodal, cells, exact)
        store.valid[fresh] = True
    PERF.add("fem.indicator.sampled", 0.0, calls=int(fresh.size))
    PERF.add("fem.indicator.leaves", 0.0, calls=int(ids.size))
    return store.values[ids]


def _sample(verts, uv, cells, exact) -> np.ndarray:
    """The indicator of the elements ``cells`` given the nodal values
    ``uv``, in one array pass.

    Each vertex slot is gathered once, and ``exact`` is called once on
    every sample point at once.  The arithmetic is the per-edge loop's:
    midpoints are ``0.5 * (a + b)`` over slot pairs ``i < j``, the centroid
    is the left-to-right slot sum divided by ``npc`` (what
    ``.mean(axis=1)`` computes), so the result is bit-identical to
    sampling one edge at a time.
    """
    n, npc = cells.shape
    dim = verts.shape[1]
    slots = [np.ascontiguousarray(cells[:, i]) for i in range(npc)]
    columns = [np.ascontiguousarray(verts[:, d]) for d in range(dim)] + [uv]
    # rows[r][i]: coordinate r (r == dim: the nodal value) of vertex slot i
    rows = [[col.take(s) for s in slots] for col in columns]
    pairs = list(itertools.combinations(range(npc), 2))
    m = len(pairs)
    # samples[:dim] are the points (edge midpoints, then the centroid),
    # samples[dim] their interpolants
    samples = np.empty((dim + 1, m + 1, n))
    for row, out in zip(rows, samples):
        for k, (i, j) in enumerate(pairs):
            np.add(row[i], row[j], out=out[k])
            out[k] *= 0.5
        np.add(row[0], row[1], out=out[m])
        for i in range(2, npc):
            out[m] += row[i]
        out[m] /= npc
    pts = samples[:dim].reshape(dim, -1).T  # coordinate columns contiguous
    err = samples[dim]
    np.subtract(np.asarray(exact(pts)).reshape(m + 1, n), err, out=err)
    np.abs(err, out=err)
    return err.max(axis=0)


def gradient_jump_indicator(mesh, u: np.ndarray) -> np.ndarray:
    """Per-leaf gradient-jump indicator ``η_e = Σ_facets h_f |[∂u/∂n]|``.

    ``u`` is a nodal FE solution.  Facet measure is approximated by the
    element measure^((dim-1)/dim); the indicator is used for *marking*, so
    only its relative size matters.
    """
    mesh = getattr(mesh, "mesh", mesh)
    verts = mesh.verts
    cells = mesh.leaf_cells()
    grads, measures = gradients(verts, cells)
    # constant per-element gradient of u
    ue = np.asarray(u)[cells]  # (ne, npc)
    gu = np.einsum("eid,ei->ed", grads, ue)  # (ne, dim)
    pairs = mesh.leaf_adjacency_pairs()
    jump = np.linalg.norm(gu[pairs[:, 0]] - gu[pairs[:, 1]], axis=1)
    dim = verts.shape[1]
    hface = 0.5 * (
        measures[pairs[:, 0]] ** ((dim - 1) / dim)
        + measures[pairs[:, 1]] ** ((dim - 1) / dim)
    )
    eta = np.zeros(cells.shape[0])
    np.add.at(eta, pairs[:, 0], hface * jump)
    np.add.at(eta, pairs[:, 1], hface * jump)
    return eta


def mark_over_threshold(mesh, indicator: np.ndarray, tol: float) -> np.ndarray:
    """Leaf ids whose indicator exceeds ``tol`` (refinement set R̃)."""
    mesh = getattr(mesh, "mesh", mesh)
    return mesh.leaf_ids()[np.asarray(indicator) > tol]


def mark_under_threshold(mesh, indicator: np.ndarray, tol: float) -> np.ndarray:
    """Leaf ids whose indicator is below ``tol`` (coarsening set C̃)."""
    mesh = getattr(mesh, "mesh", mesh)
    return mesh.leaf_ids()[np.asarray(indicator) < tol]


def mark_top_fraction(mesh, indicator: np.ndarray, fraction: float) -> np.ndarray:
    """Leaf ids of the top ``fraction`` of the indicator distribution."""
    mesh = getattr(mesh, "mesh", mesh)
    indicator = np.asarray(indicator)
    k = max(1, int(round(fraction * indicator.shape[0])))
    order = np.argsort(indicator)[::-1][:k]
    return mesh.leaf_ids()[order]
