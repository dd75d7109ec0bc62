"""Frozen pre-vectorization kernels, kept verbatim as the parity yardstick.

These are the original pure-Python per-element implementations of the
multilevel kernels (dict-based KL connectivity, sequential heavy-edge
matching, loop-based contraction id assignment) that
``src/repro/partition/kl.py`` / ``src/repro/graph/matching.py`` /
``src/repro/graph/contract.py`` replaced with flat-array equivalents.
``tests/test_kernel_parity.py`` runs both sides on seeded generator graphs
and asserts the vectorized kernels are objective-parity (cut + migration +
balance no worse) with these references.

The second half is the per-element 2-D mesh kernel (``RefTriMesh`` with its
dict-of-sets edge map, ``refine2d_reference``, ``coarsen_reference``) that
the array adjacency and wave-batched ``refine2d`` / ``coarsen`` replaced;
``tests/test_mesh_kernel_equivalence.py`` requires identical leaf geometry
from both sides.

Do not "improve" this file: its value is being exactly the old behavior.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict

import numpy as np

from repro.geometry.primitives import tri_areas
from repro.graph.csr import WeightedGraph
from repro.mesh.base import SimplexMesh
from repro.partition.kl import KLConfig
from repro.partition.metrics import graph_cut, validate_assignment


# --------------------------------------------------------------------- #
# reference KL (dict connectivity, duplicate-entry heap)
# --------------------------------------------------------------------- #


class _RefKLState:
    __slots__ = (
        "graph", "p", "assign", "home", "cfg", "weights", "mean", "maxcap",
        "band", "xadj", "adjncy", "ewts", "vwts",
    )

    def __init__(self, graph, p, assign, home, cfg):
        self.graph = graph
        self.p = p
        self.assign = assign
        self.home = home
        self.cfg = cfg
        self.vwts = graph.vwts
        self.weights = np.bincount(assign, weights=graph.vwts, minlength=p)
        self.mean = self.weights.sum() / p
        wmax = float(self.vwts.max()) if self.vwts.size else 0.0
        self.band = max(cfg.balance_tol * self.mean, 0.5 * wmax)
        self.maxcap = self.mean + self.band
        self.xadj = graph.xadj
        self.adjncy = graph.adjncy
        self.ewts = graph.ewts

    def conn(self, v: int):
        out = {}
        lo, hi = self.xadj[v], self.xadj[v + 1]
        assign = self.assign
        for idx in range(lo, hi):
            s = assign[self.adjncy[idx]]
            out[s] = out.get(s, 0.0) + self.ewts[idx]
        return out

    def static_gain(self, v: int, j: int, conn=None) -> float:
        i = self.assign[v]
        if conn is None:
            conn = self.conn(v)
        g = conn.get(j, 0.0) - conn.get(i, 0.0)
        if self.home is not None and self.cfg.alpha:
            w = self.vwts[v]
            h = self.home[v]
            dmig = (1.0 if j != h else 0.0) - (1.0 if i != h else 0.0)
            g -= self.cfg.alpha * w * dmig
        return float(g)

    def _phi(self, W: float) -> float:
        if self.cfg.balance_mode == "deadband":
            cap = self.maxcap
            floor = self.mean - self.band
            over = W - cap
            under = floor - W
            out = 0.0
            if over > 0:
                out += over * over
            if under > 0:
                out += under * under
            return out
        d = W - self.mean
        return d * d

    def balance_gain(self, v: int, j: int) -> float:
        if not self.cfg.beta:
            return 0.0
        i = self.assign[v]
        w = self.vwts[v]
        Wi, Wj = self.weights[i], self.weights[j]
        before = self._phi(Wi) + self._phi(Wj)
        after = self._phi(Wi - w) + self._phi(Wj + w)
        return self.cfg.beta * (before - after)

    def objective(self) -> float:
        obj = graph_cut(self.graph, self.assign)
        if self.home is not None and self.cfg.alpha:
            moved = self.assign != self.home
            obj += self.cfg.alpha * float(self.vwts[moved].sum())
        if self.cfg.beta:
            obj += self.cfg.beta * float(sum(self._phi(W) for W in self.weights))
        return float(obj)

    def admissible(self, v: int, j: int) -> bool:
        i = self.assign[v]
        w = self.vwts[v]
        wj_after = self.weights[j] + w
        return wj_after <= self.maxcap or wj_after <= self.weights[i]

    def apply(self, v: int, j: int) -> int:
        i = int(self.assign[v])
        w = self.vwts[v]
        self.assign[v] = j
        self.weights[i] -= w
        self.weights[j] += w
        return i


def _ref_push_vertex(state, heap, locked, v: int, counter) -> None:
    if locked[v]:
        return
    conn = state.conn(v)
    i = state.assign[v]
    dests = set(conn)
    if state.cfg.beta:
        dests.add(int(np.argmin(state.weights)))
    for j in dests:
        if j == i:
            continue
        g = state.static_gain(v, j, conn)
        heapq.heappush(heap, (-g, next(counter), int(v), int(j), g))


def _ref_kl_pass(state) -> float:
    graph = state.graph
    n = graph.n_vertices
    assign = state.assign
    locked = np.zeros(n, dtype=bool)
    counter = itertools.count()
    heap: list = []

    src = np.repeat(np.arange(n), np.diff(state.xadj))
    cross = assign[src] != assign[state.adjncy]
    boundary = np.unique(src[cross])
    if state.cfg.beta:
        over = np.nonzero(state.weights > state.maxcap)[0]
        if over.size:
            extra = np.nonzero(np.isin(assign, over))[0]
            boundary = np.union1d(boundary, extra)
    for v in boundary:
        _ref_push_vertex(state, heap, locked, int(v), counter)

    moves: list = []
    cum = 0.0
    best_cum = 0.0
    best_len = 0

    while heap:
        window: list = []
        while heap and len(window) < state.cfg.window:
            negg, _, v, j, g_stored = heapq.heappop(heap)
            if locked[v]:
                continue
            g_now = state.static_gain(v, j)
            if abs(g_now - g_stored) > 1e-12:
                heapq.heappush(heap, (-g_now, next(counter), v, j, g_now))
                continue
            if not state.admissible(v, j):
                continue
            window.append((g_now + state.balance_gain(v, j), v, j, g_now))
        if not window:
            break
        window.sort(key=lambda t: -t[0])
        full, v, j, g_stat = window[0]
        for w_full, wv, wj, wg in window[1:]:
            heapq.heappush(heap, (-wg, next(counter), wv, wj, wg))

        i = state.apply(v, j)
        locked[v] = True
        moves.append((v, i))
        cum += full
        if cum > best_cum + state.cfg.min_gain:
            best_cum = cum
            best_len = len(moves)

        lo, hi = state.xadj[v], state.xadj[v + 1]
        for idx in range(lo, hi):
            u = int(state.adjncy[idx])
            if not locked[u]:
                _ref_push_vertex(state, heap, locked, u, counter)

    for v, i in reversed(moves[best_len:]):
        state.apply(v, int(i))
    return best_cum


def kl_refine_reference(graph, assignment, p, home=None, config=None):
    """The original heap+dict KL engine (pre-vectorization), verbatim."""
    cfg = config or KLConfig()
    assign = validate_assignment(graph, assignment, p).copy()
    if home is not None:
        home = validate_assignment(graph, home, p)
    state = _RefKLState(graph, p, assign, home, cfg)
    best = state.assign.copy()
    best_obj = state.objective()
    for _ in range(cfg.max_passes):
        improved = _ref_kl_pass(state)
        obj = state.objective()
        if obj < best_obj - cfg.min_gain:
            best_obj = obj
            best[:] = state.assign
        if improved <= cfg.min_gain:
            break
    if state.objective() > best_obj + cfg.min_gain:
        return best
    return state.assign


# --------------------------------------------------------------------- #
# reference matchings (sequential seeded-permutation greedy)
# --------------------------------------------------------------------- #


def heavy_edge_matching_reference(graph, seed=0, constraint=None):
    n = graph.n_vertices
    match = np.full(n, -1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    xadj, adjncy, ewts = graph.xadj, graph.adjncy, graph.ewts
    if constraint is not None:
        constraint = np.asarray(constraint)
    for v in order:
        if match[v] != -1:
            continue
        lo, hi = xadj[v], xadj[v + 1]
        best = -1
        best_w = -np.inf
        for idx in range(lo, hi):
            u = adjncy[idx]
            if match[u] != -1:
                continue
            if constraint is not None and constraint[u] != constraint[v]:
                continue
            w = ewts[idx]
            if w > best_w:
                best_w = w
                best = u
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return match


def random_matching_reference(graph, seed=0, constraint=None):
    n = graph.n_vertices
    match = np.full(n, -1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    xadj, adjncy = graph.xadj, graph.adjncy
    if constraint is not None:
        constraint = np.asarray(constraint)
    for v in order:
        if match[v] != -1:
            continue
        nbrs = adjncy[xadj[v] : xadj[v + 1]]
        cands = [u for u in nbrs if match[u] == -1]
        if constraint is not None:
            cands = [u for u in cands if constraint[u] == constraint[v]]
        if cands:
            u = cands[rng.integers(len(cands))]
            match[v] = u
            match[u] = v
        else:
            match[v] = v
    return match


# --------------------------------------------------------------------- #
# reference contraction (per-vertex coarse-id loop)
# --------------------------------------------------------------------- #


def contract_reference(graph, match):
    n = graph.n_vertices
    match = np.asarray(match, dtype=np.int64)
    if match.shape[0] != n:
        raise ValueError("match must have one entry per vertex")
    cmap = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for v in range(n):
        if cmap[v] != -1:
            continue
        u = match[v]
        cmap[v] = nxt
        if u != v:
            cmap[u] = nxt
        nxt += 1
    nc = nxt

    cvwts = np.zeros(nc)
    np.add.at(cvwts, cmap, graph.vwts)

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    cu = cmap[src]
    cv = cmap[graph.adjncy]
    keep = cu != cv
    keep &= cu < cv
    edges = np.column_stack([cu[keep], cv[keep]])
    wts = graph.ewts[keep]
    coarse = WeightedGraph.from_edges(nc, edges, wts, cvwts)
    return coarse, cmap


# --------------------------------------------------------------------- #
# reference 2-D mesh kernel (dict-of-sets adjacency, per-element stack
# propagation, per-leaf coarsening sweep) — what the batched
# ``TriMesh`` / ``refine2d`` / ``coarsen`` replaced; the yardstick of
# tests/test_mesh_kernel_equivalence.py
# --------------------------------------------------------------------- #


class RefTriMesh(SimplexMesh):
    """The pre-batching ``TriMesh``: a ``pair_key -> set of leaf ids``
    dictionary updated one element at a time."""

    dim = 2
    nodes_per_cell = 3

    def _rebuild_adjacency(self) -> None:
        super()._rebuild_adjacency()
        #: pair_key(edge) -> set of active leaf triangle ids
        self._edge_elems: dict = {}
        for eid in self.forest.leaves().tolist():
            self._on_activate(eid)

    # -- facet adjacency -------------------------------------------------- #

    @staticmethod
    def _edges_of(cell) -> tuple:
        v0, v1, v2 = cell
        return (
            (v1 << 32 | v2) if v1 < v2 else (v2 << 32 | v1),
            (v2 << 32 | v0) if v2 < v0 else (v0 << 32 | v2),
            (v0 << 32 | v1) if v0 < v1 else (v1 << 32 | v0),
        )

    def _on_activate(self, eid: int) -> None:
        for key in self._edges_of(self.cell(eid)):
            s = self._edge_elems.get(key)
            if s is None:
                self._edge_elems[key] = {eid}
            else:
                s.add(eid)

    def _on_deactivate(self, eid: int) -> None:
        for key in self._edges_of(self.cell(eid)):
            s = self._edge_elems[key]
            s.discard(eid)
            if not s:
                del self._edge_elems[key]

    def edge_elements(self, a: int, b: int) -> frozenset:
        """Active leaf triangles containing edge ``(a, b)`` (possibly empty)."""
        key = (a << 32 | b) if a < b else (b << 32 | a)
        return frozenset(self._edge_elems.get(key, ()))

    def neighbor_across(self, eid: int, a: int, b: int):
        """The other active leaf across edge ``(a, b)``, or ``None`` if the
        edge is on the boundary."""
        key = (a << 32 | b) if a < b else (b << 32 | a)
        s = self._edge_elems.get(key)
        if s is None:
            return None
        for other in s:
            if other != eid:
                return other
        return None

    # -- geometry --------------------------------------------------------- #

    def _compute_longest_edge(self, eid: int) -> tuple:
        v0, v1, v2 = self.cell(eid)
        pts = self.verts
        pairs = ((v1, v2), (v2, v0), (v0, v1))
        best = None
        best_len = -1.0
        for p, q in pairs:
            d = pts[p] - pts[q]
            ln = float(d[0] * d[0] + d[1] * d[1])
            key = (p, q) if p < q else (q, p)
            if ln > best_len * (1.0 + 1e-12):
                best, best_len = key, ln
            elif ln >= best_len * (1.0 - 1e-12) and key < best:
                # exact/near tie: take the smallest vertex pair so that the
                # two triangles sharing this edge agree on "longest"
                best = key
        return best

    # -- validation -------------------------------------------------------- #

    def _leaf_facets_with_counts(self):
        cells = self.leaf_cells()
        if cells.shape[0] == 0:
            return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
        edges = np.concatenate(
            [cells[:, [1, 2]], cells[:, [2, 0]], cells[:, [0, 1]]], axis=0
        )
        edges.sort(axis=1)
        facets, counts = np.unique(edges, axis=0, return_counts=True)
        return facets, counts

    def leaf_areas(self) -> np.ndarray:
        return tri_areas(self.verts, self.leaf_cells())


def _ref_bisect_tri(mesh, eid: int, a: int, b: int, m: int) -> tuple:
    """Bisect triangle ``eid`` across edge ``(a, b)`` at midpoint vertex
    ``m``.  Child ordering preserves the parent's orientation."""
    cell = mesh.cell(eid)
    # Rotate so the cell reads (a', b', c) with {a', b'} == {a, b}: child
    # triangles (a', m, c) and (m, b', c) then inherit the orientation.
    for i in range(3):
        if cell[i] != a and cell[i] != b:
            c = cell[i]
            a2 = cell[(i + 1) % 3]
            b2 = cell[(i + 2) % 3]
            break
    else:  # pragma: no cover - guarded by caller
        raise AssertionError("bisection edge not part of the triangle")
    return mesh._new_children(eid, (a2, m, c), (m, b2, c))


def refine2d_reference(mesh, targets, max_steps_factor: int = 1000) -> list:
    """Bisect each leaf triangle in ``targets`` once (propagating as needed
    to keep the mesh conformal).

    Parameters
    ----------
    mesh:
        The nested triangle mesh.
    targets:
        Iterable of leaf element ids to refine.  Ids that stop being leaves
        while earlier targets propagate are skipped (they were already
        bisected).
    max_steps_factor:
        Safety cap on propagation steps per call, as a multiple of the
        initial leaf count.

    Returns
    -------
    list of int
        Ids of every element bisected by this call (targets and propagated
        neighbors).
    """
    bisected: list = []
    limit = max(1000, max_steps_factor * max(mesh.n_leaves, 1))
    steps = 0
    forest = mesh.forest
    for t in targets:
        t = int(t)
        if not forest.is_leaf(t):
            continue
        stack = [t]
        while stack:
            steps += 1
            if steps > limit:
                raise RuntimeError(
                    f"2-D propagation exceeded {limit} steps; mesh corrupt?"
                )
            top = stack[-1]
            if not forest.is_leaf(top):
                stack.pop()
                continue
            a, b = mesh.longest_edge(top)
            nb = mesh.neighbor_across(top, a, b)
            if nb is None or mesh.longest_edge(nb) == (a, b):
                m = mesh.midpoint(a, b)
                _ref_bisect_tri(mesh, top, a, b, m)
                bisected.append(top)
                if nb is not None:
                    _ref_bisect_tri(mesh, nb, a, b, m)
                    bisected.append(nb)
                stack.pop()
            else:
                stack.append(nb)
    return bisected


def _ref_bisection_midpoint(mesh, parent: int) -> int:
    """The midpoint vertex introduced when ``parent`` was bisected: the one
    vertex of a child that the parent does not have."""
    c0, _ = mesh.forest.children(parent)
    pcell = set(mesh.cell(parent))
    for v in mesh.cell(c0):
        if v not in pcell:
            return v
    raise AssertionError("child has no vertex outside its parent")


def coarsen_reference(mesh, marked) -> list:
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
        The parents that were merged (now active leaves).
    """
    forest = mesh.forest
    marked = {int(e) for e in marked if forest.is_leaf(int(e))}
    if not marked:
        return []

    # Candidate parents: both children are marked leaves.
    parents = {}
    for leaf in marked:
        p = forest.parent(leaf)
        if p < 0 or p in parents:
            continue
        kids = forest.children(p)
        c0, c1 = kids
        if (
            c0 in marked
            and c1 in marked
            and forest.is_leaf(c0)
            and forest.is_leaf(c1)
        ):
            parents[p] = _ref_bisection_midpoint(mesh, p)

    if not parents:
        return []

    # Group candidates by their bisection midpoint.
    groups = defaultdict(list)
    for p, m in parents.items():
        groups[m].append(p)

    # For each candidate midpoint, collect all active leaves that use it
    # (one sweep over the leaf mesh).
    wanted = set(groups)
    users = defaultdict(set)
    cells = mesh.leaf_cells()
    for leaf, cell in zip(mesh.leaf_ids(), cells):
        for v in cell:
            v = int(v)
            if v in wanted:
                users[v].add(int(leaf))

    merged = []
    for m, ps in groups.items():
        children = set()
        for p in ps:
            c0, c1 = forest.children(p)
            children.add(c0)
            children.add(c1)
        if users[m] <= children:
            # Every active user of the midpoint disappears with the merge.
            for p in ps:
                mesh._merge_children(p)
                merged.append(p)
    return merged
