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

The last section is the ``dkl`` round engine as it stood before the
persistent part state (from-scratch ``_conn_matrix`` / ``_score_moves`` /
``_propose_rebalance``, the escape offer in a second exchange, per-batch
view absorption); ``tests/test_dkl_equivalence.py`` requires the engine in
``src/repro/partition/distributed.py`` to reproduce it bit for bit.

The end is the per-edge interpolation error indicator (one gather and one
``exact`` call per edge, then the centroid) that the single-pass
``fem/estimate.py::interpolation_error_indicator`` replaced;
``tests/test_estimate.py`` requires identical bytes from both.

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
from repro.partition.distributed import (
    DKLConfig,
    PartView,
    _phi,
    edge_keys,
)
from repro.partition.kl import KLConfig
from repro.partition.metrics import graph_cut, validate_assignment
from repro.perf import PERF


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


# --------------------------------------------------------------------- #
# reference dkl engine (from-scratch scoring, two-exchange round loop)
# --------------------------------------------------------------------- #
#
# The distributed-refinement round as it stood before the persistent part
# state: every part-round rebuilds the part's directed edge list and whole
# connectivity matrix from its view (``_conn_matrix``), scores the full
# members x p gain matrix (``_score_moves``), the escape offer travels in a
# second exchange, and every accepted batch is absorbed into the view at
# once.  ``tests/test_dkl_equivalence.py`` requires the engine in
# ``src/repro/partition/distributed.py`` to reproduce this one bit for bit:
# assignment, trace (moves, escapes, rebalances, rollbacks, gains,
# priorities) and pruned views.


def _conn_matrix(view: PartView, assign, p: int):
    """Members of the part, their (n_members, p) part-connectivity matrix,
    and the directed incident-edge arrays with per-member CSR offsets."""
    mine = np.flatnonzero(np.asarray(assign) == view.part)
    src, dst, w = view.directed(assign)
    li = np.searchsorted(mine, src)
    conn = np.bincount(
        li * p + np.asarray(assign)[dst], weights=w, minlength=mine.size * p
    ).reshape(mine.size, p)
    off = np.empty(mine.size + 1, dtype=np.int64)
    off[:-1] = np.searchsorted(src, mine)
    off[-1] = src.size
    return mine, conn, (src, dst, w, off)


def _pack_proposal(part, v, dst, prio, static, vw, rows, adj):
    """Flatten the chosen rows into the wire proposal: struct-of-arrays
    plus each mover's incident neighbor list (CSR), so any rank can lock
    the neighbors and the winning part can absorb the root sight unseen."""
    _, adst, aw, off = adj
    starts = off[rows]
    lens = off[rows + 1] - starts
    total = int(lens.sum())
    e_off = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lens, out=e_off[1:])
    idx = np.repeat(starts, lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(e_off[:-1], lens)
    )
    return {
        "part": int(part),
        "v": v,
        "dst": dst,
        "prio": prio,
        "static": static,
        "vw": vw,
        "e_off": e_off,
        "adj": adst[idx],
        "adj_w": aw[idx],
    }


def pack_proposal_frame_reference(prop):
    """Pack one part's proposal into a struct-of-arrays frame
    ``(head, ints, floats)`` for the wire: the codec serializes three
    contiguous buffers instead of a dict of nine objects, and the integer
    payload rides as int32 whenever every id fits (the common case — root
    ids are bounded by the mesh size), which halves the index half of the
    frame.  ``None`` (no proposal) packs to empty arrays.

    Layout: ``head = [part, n, m, int_width]`` (int64; ``int_width`` is 4
    or 8), ``ints = v ++ dst ++ e_off(n+1) ++ adj`` at the declared width,
    ``floats = prio ++ static ++ vw ++ adj_w`` (always float64 — the
    priorities feed the deterministic tournament, so they must travel
    bit-exact).
    """
    if prop is None:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    v = np.asarray(prop["v"], dtype=np.int64)
    adj = np.asarray(prop["adj"], dtype=np.int64)
    ints = np.concatenate(
        [v, np.asarray(prop["dst"], dtype=np.int64),
         np.asarray(prop["e_off"], dtype=np.int64), adj]
    )
    info = np.iinfo(np.int32)
    if ints.size == 0 or (
        int(ints.min()) >= info.min and int(ints.max()) <= info.max
    ):
        ints = ints.astype(np.int32)
        width = 4
    else:
        width = 8  # ids beyond int32: ship verbatim (exactness first)
    head = np.array([prop["part"], v.size, adj.size, width], dtype=np.int64)
    floats = np.concatenate(
        [np.asarray(prop["prio"], dtype=np.float64),
         np.asarray(prop["static"], dtype=np.float64),
         np.asarray(prop["vw"], dtype=np.float64),
         np.asarray(prop["adj_w"], dtype=np.float64)]
    )
    return head, ints, floats



def _score_moves(
    view: PartView, assign, home, loads, live, cfg: DKLConfig, maxcap, floor,
    locked,
):
    """Evaluate this part's full Equation-1 gain matrix once and return the
    scoring context (best destination and gain per member), or ``None`` for
    an empty part.  Both the regular and the escape proposal of a round are
    read off the same context — the expensive :func:`_conn_matrix` pass and
    gain evaluation happen once, and the escape candidate can be extracted
    *while the regular proposals are still on the wire* (the escape round
    only ever runs when the regular round accepted nothing, so the state the
    context was scored against is still current)."""
    p = loads.size
    i = view.part
    mine, conn, adj = _conn_matrix(view, assign, p)
    if mine.size == 0:
        return None
    vw = view.vwts[mine]
    cols = np.arange(p)
    moved_now = (i != home[mine]).astype(np.float64)
    moved_if = (cols[None, :] != home[mine, None]).astype(np.float64)
    bal = (
        _phi(loads[i], maxcap, floor)
        + _phi(loads[None, :], maxcap, floor)
        - _phi(loads[i] - vw[:, None], maxcap, floor)
        - _phi(loads[None, :] + vw[:, None], maxcap, floor)
    )
    gain = (
        conn
        - conn[:, i][:, None]
        - cfg.alpha * vw[:, None] * (moved_if - moved_now[:, None])
        + cfg.beta * bal
    )
    gain[:, i] = -np.inf
    dead = np.ones(p, dtype=bool)
    dead[live] = False
    gain[:, dead] = -np.inf
    gain[conn <= 0.0] = -np.inf  # boundary moves only
    gain[locked[mine], :] = -np.inf  # a vertex moves once per pass
    best = np.argmax(gain, axis=1)
    bg = gain[np.arange(mine.size), best]
    return {
        "part": i,
        "mine": mine,
        "conn": conn,
        "adj": adj,
        "vw": vw,
        "moved_now": moved_now,
        "moved_if": moved_if,
        "best": best,
        "bg": bg,
    }


def _proposal_from(ctx, cfg: DKLConfig, escape=False):
    """Extract a wire proposal from a :func:`_score_moves` context: the
    best strictly-positive move per unlocked boundary root, or ``None``.
    ``prio`` is the full gain at round-start loads (the tournament key);
    ``static`` is the cut+migration component — the balance term is
    recomputed against live loads at accept time.

    With ``escape=True`` the sign requirement is dropped and only the
    single best candidate is proposed: the hill-climbing offer made when
    no positive move exists anywhere (the tournament accepts exactly one).
    """
    if ctx is None:
        return None
    i, mine, conn = ctx["part"], ctx["mine"], ctx["conn"]
    vw, best, bg = ctx["vw"], ctx["best"], ctx["bg"]
    if escape:
        top = int(np.argmax(bg))
        rows = np.array([top], dtype=np.int64) if np.isfinite(bg[top]) else \
            np.empty(0, dtype=np.int64)
    else:
        rows = np.flatnonzero(bg > 0.0)
    if rows.size == 0:
        return None
    static = (
        conn[rows, best[rows]]
        - conn[rows, i]
        - cfg.alpha * vw[rows]
        * (ctx["moved_if"][rows, best[rows]] - ctx["moved_now"][rows])
    )
    return _pack_proposal(
        i, mine[rows], best[rows], bg[rows], static, vw[rows], rows, ctx["adj"]
    )


def _propose_moves(
    view: PartView, assign, home, loads, live, cfg: DKLConfig, maxcap, floor,
    locked, escape=False,
):
    """Score-and-extract in one call (the non-overlapped convenience form
    of :func:`_score_moves` + :func:`_proposal_from`)."""
    ctx = _score_moves(
        view, assign, home, loads, live, cfg, maxcap, floor, locked
    )
    return _proposal_from(ctx, cfg, escape=escape)


def _propose_rebalance(view, assign, home, loads, live, cfg, locked, maxcap):
    """Donations from an overweight part: candidates ordered by least cut
    damage toward the lightest underweight live parts (teleports allowed),
    cumulative weight just covering the excess, at most ``rebalance_cap``."""
    i = view.part
    if loads[i] <= maxcap:
        return None
    p = loads.size
    mine, conn, adj = _conn_matrix(view, assign, p)
    if mine.size == 0:
        return None
    # any strictly lighter live part may receive: weight *diffuses* along
    # part boundaries toward the light end over successive rounds instead
    # of teleporting straight to the global minimum and leaving islands
    under = [r for r in live if r != i and loads[r] < loads[i]]
    if not under:
        return None
    under = np.asarray(under, dtype=np.int64)
    # lightest-first, id-stable: argmax below prefers the max-connectivity
    # target, and on all-zero rows (no lighter neighbor — the teleport
    # fallback) the lightest lighter part
    under = under[np.lexsort((under, loads[under]))]
    vw = view.vwts[mine]
    sub = conn[:, under]
    jidx = np.argmax(sub, axis=1)
    j = under[jidx]
    cj = sub[np.arange(mine.size), jidx]
    moved_now = (i != home[mine]).astype(np.float64)
    moved_if = (j != home[mine]).astype(np.float64)
    static = cj - conn[:, i] - cfg.alpha * vw * (moved_if - moved_now)
    cand = np.flatnonzero(~locked[mine])
    if cand.size == 0:
        return None
    order = np.lexsort((mine[cand], -static[cand]))
    cand = cand[order]
    excess = float(loads[i] - maxcap)
    take = int(np.searchsorted(np.cumsum(vw[cand]), excess) + 1)
    cand = cand[: min(take, cfg.rebalance_cap)]
    return _pack_proposal(
        i, mine[cand], j[cand], static[cand], static[cand], vw[cand], cand, adj
    )


def _resolve(
    props,
    assign,
    loads,
    counts,
    locked,
    maxcap,
    floor,
    home,
    cfg: DKLConfig,
    rnd: int,
    rebalance: bool,
    escape: bool = False,
):
    """Replay the deterministic tournament — identical on every rank given
    the same allgathered ``props``.  Mutates ``assign``/``loads``/
    ``counts``/``locked`` in place; returns the accepted move records.
    ``escape`` accepts exactly one admissible candidate regardless of the
    sign of its gain — the hill-climbing step; the pass-end rollback
    guarantees a bad escape can never survive into the result.

    Candidates are visited in ``(-prio, seeded part rotation, vertex id)``
    order.  A vertex moves at most once per round (``locked``), but its
    neighbors are *not* locked: when an earlier acceptance touched the
    neighborhood, the candidate's gain is recomputed exactly from the edge
    list its proposal carries — so a coherent front can cascade through a
    single round with no stale-gain accounting, instead of advancing one
    independent set per round."""
    props = [q for q in props if q is not None and q["v"].size]
    if not props:
        return []
    p = loads.size
    v = np.concatenate([q["v"] for q in props])
    dst = np.concatenate([q["dst"] for q in props])
    prio = np.concatenate([q["prio"] for q in props])
    static = np.concatenate([q["static"] for q in props])
    vw = np.concatenate([q["vw"] for q in props])
    part = np.concatenate(
        [np.full(q["v"].size, q["part"], dtype=np.int64) for q in props]
    )
    adj = np.concatenate([q["adj"] for q in props])
    adj_w = np.concatenate([q["adj_w"] for q in props])
    widths = np.concatenate([np.diff(q["e_off"]) for q in props])
    starts = np.zeros(widths.size, dtype=np.int64)
    np.cumsum(widths[:-1], out=starts[1:])
    tie = (part + cfg.seed + rnd) % p
    order = np.lexsort((v, tie, -prio))

    accepted = []
    for k in order:
        vid = int(v[k])
        if locked[vid]:
            continue
        i, j = int(assign[vid]), int(dst[k])
        if counts[i] <= 1:
            continue  # never empty a live part
        s, e = int(starts[k]), int(starts[k] + widths[k])
        nbrs = adj[s:e]
        w = float(vw[k])
        if locked[nbrs].any():
            # the neighborhood changed this round: redo the cut+migration
            # component against the live assignment (exact, O(deg))
            nasg = assign[nbrs]
            ws = adj_w[s:e]
            st = float(ws[nasg == j].sum()) - float(ws[nasg == i].sum())
            if cfg.alpha:
                h = int(home[vid])
                st -= cfg.alpha * w * (float(j != h) - float(i != h))
        else:
            st = float(static[k])
        after = loads[j] + w
        bal = (
            _phi(loads[i], maxcap, floor)
            + _phi(loads[j], maxcap, floor)
            - _phi(loads[i] - w, maxcap, floor)
            - _phi(after, maxcap, floor)
        )
        g = st + cfg.beta * float(bal)
        if rebalance:
            if loads[i] <= maxcap:
                continue  # donor already back inside the envelope
            if after > maxcap and after > loads[i] - w:
                continue  # would just relocate the peak
        else:
            if after > maxcap and after > loads[i]:
                continue  # KL balance envelope
            if g <= 0.0 and not escape:
                continue
        assign[vid] = j
        loads[i] -= w
        loads[j] += w
        counts[i] -= 1
        counts[j] += 1
        locked[vid] = True
        accepted.append(
            {
                "v": vid,
                "src": i,
                "dst": j,
                "vw": w,
                "gain": g,
                "prio": float(prio[k]),
                "adj": nbrs.copy(),
                "adj_w": adj_w[s:e].copy(),
            }
        )
        if escape:
            break  # exactly one hill-climbing move per escape round
    return accepted


def _absorb_accepted(views, accepted) -> None:
    """Fold the winners into the local views: the destination part learns
    each adopted root's weight and incident edges from the proposal
    payload (no extra messages needed)."""
    for part, view in views.items():
        recs = [r for r in accepted if r["dst"] == part]
        if not recs:
            continue
        v_ids = np.array([r["v"] for r in recs], dtype=np.int64)
        v_wts = np.array([r["vw"] for r in recs], dtype=np.float64)
        keys = []
        wts = []
        for r in recs:
            a = np.minimum(r["adj"], r["v"])
            b = np.maximum(r["adj"], r["v"])
            keys.append(edge_keys(a, b, view.n))
            wts.append(r["adj_w"])
        view.absorb(
            v_ids,
            v_wts,
            np.concatenate(keys) if keys else np.empty(0, np.int64),
            np.concatenate(wts) if wts else np.empty(0, np.float64),
        )


class _Ready:
    """Already-completed exchange handle — the serial drivers' rank loop
    has the full proposal set the moment it is built, but presents the
    same post/``wait`` surface as the SPMD iallgather so :func:`_refine_loop`
    is written once."""

    __slots__ = ("_props",)

    def __init__(self, props):
        self._props = props

    def wait(self):
        return self._props


def _refine_loop(
    n_roots, p, views, assign, home, loads, live, cfg, wmax, exchange,
    my_parts, trace=None,
):
    live = sorted(int(r) for r in live)
    mean = float(loads[live].sum()) / len(live) if live else 0.0
    # vertex-granularity balance band, same rule as the KL engine: the
    # envelope can never be tighter than half the heaviest root
    band = max(cfg.balance_tol * mean, 0.5 * float(wmax))
    maxcap = mean + band
    floor = mean - band
    counts = np.bincount(assign, minlength=p).astype(np.int64)
    locked = np.zeros(n_roots, dtype=bool)
    grnd = 0

    for pss in range(cfg.max_passes):
        locked[:] = False
        # cumulative exact objective delta of this pass and its move log —
        # every rank replays the same accepts, so rollback is in lockstep
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        log = []
        escapes = 0
        for rnd in range(cfg.max_rounds):
            with PERF.span("dkl.propose"):
                ctxs = {
                    part: _score_moves(
                        views[part], assign, home, loads, live, cfg, maxcap,
                        floor, locked,
                    )
                    for part in my_parts
                }
                local = {
                    part: _proposal_from(ctxs[part], cfg)
                    for part in my_parts
                }
            pending = exchange(local, grnd)
            # overlap window: while the proposal frames are in flight,
            # prestage the escape offer from the same scoring context.  An
            # escape round only runs when the regular round accepted
            # nothing — assignment, loads and locks unchanged since the
            # context was scored — so this is bit-identical to recomputing
            # it after the resolve, minus a full _conn_matrix pass
            with PERF.span("dkl.propose"):
                esc_local = {
                    part: _proposal_from(ctxs[part], cfg, escape=True)
                    for part in my_parts
                }
            props = pending.wait()
            with PERF.span("dkl.resolve"):
                moved = _resolve(
                    props, assign, loads, counts, locked, maxcap, floor,
                    home, cfg, grnd, rebalance=False,
                )
            _absorb_accepted(views, moved)

            esc = []
            if not moved and escapes < cfg.escape_cap:
                escapes += 1
                # no positive move anywhere: offer each part's single
                # least-damaging move and accept the best one — KL's
                # hill-climb across objective ridges, batch edition
                props = exchange(esc_local, grnd).wait()
                with PERF.span("dkl.resolve"):
                    esc = _resolve(
                        props, assign, loads, counts, locked, maxcap, floor,
                        home, cfg, grnd, rebalance=False, escape=True,
                    )
                _absorb_accepted(views, esc)

            rb = []
            if np.any(loads[live] > maxcap):
                with PERF.span("dkl.rebalance"):
                    local = {
                        part: _propose_rebalance(
                            views[part], assign, home, loads, live, cfg,
                            locked, maxcap,
                        )
                        for part in my_parts
                    }
                props = exchange(local, grnd).wait()
                with PERF.span("dkl.rebalance"):
                    rb = _resolve(
                        props, assign, loads, counts, locked, maxcap, floor,
                        home, cfg, grnd, rebalance=True,
                    )
                _absorb_accepted(views, rb)

            # accepted gains are exact objective deltas: track the best
            # prefix at single-move granularity, in application order
            for m in moved + esc + rb:
                cum += m["gain"]
                log.append((m["v"], m["src"], m["dst"], m["vw"]))
                if cum > best_cum + cfg.min_gain:
                    best_cum = cum
                    best_len = len(log)
            if trace is not None:
                trace.append(
                    {
                        "round": grnd,
                        "pass": pss,
                        "moves": moved,
                        "escape": esc,
                        "rebalance": rb,
                    }
                )
            grnd += 1
            if not moved and not esc and not rb:
                break
            if len(log) - best_len >= cfg.stall:
                break  # the tail would be rolled back anyway

        # roll back the suffix after the best prefix (lockstep: same log
        # on every rank) — the views keep their superset knowledge and
        # the final prune restores the exact incident set
        undone = []
        for v, src, dst, w in reversed(log[best_len:]):
            assign[v] = src
            loads[dst] -= w
            loads[src] += w
            counts[dst] -= 1
            counts[src] += 1
            undone.append({"v": int(v), "to": int(src)})
        if trace is not None and undone:
            trace.append({"pass": pss, "rollback": undone})
        if best_cum <= cfg.min_gain:
            break

    for view in views.values():
        view.prune(assign)
    return assign


def _serial_exchange(live):
    """Exchange for the serial drivers: all parts live in this process, so
    the allgather is a list comprehension in live-rank order — the same
    order :meth:`SimComm.allgather` assembles its blocks in."""

    def exchange(local, rnd):
        return _Ready([local[part] for part in live])

    return exchange


# --------------------------------------------------------------------- #
# reference interpolation error indicator (one exact() call per edge)
# --------------------------------------------------------------------- #


def interpolation_error_indicator_reference(mesh, exact) -> np.ndarray:
    mesh = getattr(mesh, "mesh", mesh)
    verts = mesh.verts
    cells = mesh.leaf_cells()
    npc = cells.shape[1]
    uv = np.asarray(exact(verts))  # nodal values (vectorized over all verts)
    err = np.zeros(cells.shape[0])
    # edge midpoints
    for i in range(npc):
        for j in range(i + 1, npc):
            mid = 0.5 * (verts[cells[:, i]] + verts[cells[:, j]])
            interp = 0.5 * (uv[cells[:, i]] + uv[cells[:, j]])
            e = np.abs(np.asarray(exact(mid)) - interp)
            np.maximum(err, e, out=err)
    cent = verts[cells].mean(axis=1)
    interp_c = uv[cells].mean(axis=1)
    np.maximum(err, np.abs(np.asarray(exact(cent)) - interp_c), out=err)
    return err
