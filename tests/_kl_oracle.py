"""The numpy/Python oracle of the compiled multilevel core
(``src/repro/partition/_klcore.c``).

These are the implementations the package ran before the compiler became a
requirement, moved here verbatim: the heavy-edge matching's numpy
candidate edges and seeded tie order and its mutual-proposal rounds, the
numpy contraction, the pure-Python KL engine (vectorized prelude, heap
hill-climb, best-state tracking), greedy graph growing and the per-level
V-cycle (``build_hierarchy`` + ``v_cycle``).  The public functions at the bottom
mirror the package's entry points — same validation, same ``PERF`` spans
and counters — so ``tests/test_kl_native.py`` and
``tests/test_multilevel_native.py`` can require the compiled kernels to
match them array for array and counter for counter.

Change a kernel and its oracle together, never one alone.
"""

from __future__ import annotations

import collections
import heapq
import itertools
from typing import NamedTuple

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.partition import kl, multilevel
from repro.partition.kl import KLConfig
from repro.partition.metrics import (
    graph_cut,
    graph_imbalance,
    repartition_cost,
    validate_assignment,
)
from repro.partition.multilevel import coarsen_target
from repro.perf import PERF


# --------------------------------------------------------------------- #
# heavy-edge matching: the seeded tie order, then mutual-proposal rounds
# --------------------------------------------------------------------- #


def _candidate_edges(graph: WeightedGraph, constraint):
    """One row per undirected constraint-respecting edge: (src, dst, ewts)."""
    src = graph.edge_src
    dst = graph.adjncy
    keep = src < dst  # CSR stores each undirected edge twice
    if constraint is not None:
        constraint = np.asarray(constraint)
        keep &= constraint[src] == constraint[dst]
    return src[keep], dst[keep], graph.ewts[keep]


def _priority_order(graph: WeightedGraph, seed: int, constraint) -> tuple:
    """``(es, ed, order)``: the candidate edges and their order by
    ascending priority — heavier edges last, a seeded shuffle breaking
    ties.  ``tie`` is a permutation, so laying the edges out in tie order
    and stable-sorting by weight is ``np.lexsort((tie, ew))`` at half the
    cost."""
    es, ed, ew = _candidate_edges(graph, constraint)
    tie = np.random.default_rng(seed).permutation(es.size)
    by_tie = np.empty(es.size, dtype=np.int64)
    by_tie[tie] = np.arange(es.size, dtype=np.int64)
    return es, ed, by_tie[np.argsort(ew[by_tie], kind="stable")]


def _match_rounds(n: int, es, ed, rank) -> np.ndarray:
    """Mutual-proposal rounds over edges with unique priorities ``rank``.

    Invariant per round: an edge survives iff both endpoints are still
    unmatched, and each vertex proposes along its max-rank surviving edge.
    The max-rank surviving edge overall is mutual, so rounds always make
    progress; on exit no surviving edge remains, hence maximality.
    """
    match = np.full(n, -1, dtype=np.int64)
    if es.size:
        # Incidence view, pre-sorted once by (vertex, rank): after any
        # stable boolean compaction the *last* entry of a vertex's segment
        # is that vertex's best surviving edge.
        ends = np.concatenate([es, ed])
        other = np.concatenate([ed, es])
        erank = np.concatenate([rank, rank])
        order = np.lexsort((erank, ends))
        ends, other = ends[order], other[order]

        best_other = np.full(n, -1, dtype=np.int64)
        while ends.size:
            is_last = np.empty(ends.size, dtype=bool)
            is_last[:-1] = ends[:-1] != ends[1:]
            is_last[-1] = True
            prop_v = ends[is_last]
            prop_u = other[is_last]
            best_other[prop_v] = prop_u
            mutual = (best_other[prop_u] == prop_v) & (prop_v < prop_u)
            mv = prop_v[mutual]
            mu = prop_u[mutual]
            match[mv] = mu
            match[mu] = mv
            alive = (match[ends] == -1) & (match[other] == -1)
            ends, other = ends[alive], other[alive]

    unmatched = match == -1
    match[unmatched] = np.nonzero(unmatched)[0]
    return match


def heavy_edge_matching(
    graph: WeightedGraph,
    seed: int = 0,
    constraint=None,
) -> np.ndarray:
    """:func:`repro.graph.matching.heavy_edge_matching` in numpy: the edge
    filter and tie order of :func:`_priority_order`, then the rounds in
    place of the compiled greedy scan."""
    with PERF.span("matching.hem"):
        if constraint is not None and np.shape(constraint) != (graph.n_vertices,):
            raise ValueError("constraint must have one label per vertex")
        es, ed, order = _priority_order(graph, seed, constraint)
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size, dtype=np.int64)
        return _match_rounds(graph.n_vertices, es, ed, rank)


# --------------------------------------------------------------------- #
# contraction
# --------------------------------------------------------------------- #


def contract(graph: WeightedGraph, match: np.ndarray) -> tuple:
    """:func:`repro.graph.contract.contract` on the numpy path."""
    with PERF.span("contract"):
        match = np.ascontiguousarray(match, dtype=np.int64)
        if match.shape[0] != graph.n_vertices:
            raise ValueError("match must have one entry per vertex")
        return _contract_py(graph, match)


def _contract_py(graph: WeightedGraph, match: np.ndarray) -> tuple:
    """The numpy reference of :func:`contract` (and of ``_klcore.c:
    contract``, which must emit the same arrays bit for bit)."""
    n = graph.n_vertices
    # Assign coarse ids: the smaller endpoint of each matched pair owns
    # it, and ids are dealt in owner order — a cumsum over the owner
    # mask gives the same numbering the old sequential scan produced,
    # bit for bit.
    verts = np.arange(n, dtype=np.int64)
    is_owner = verts <= match
    cmap = np.cumsum(is_owner, dtype=np.int64) - 1
    cmap[~is_owner] = cmap[match[~is_owner]]
    nc = int(is_owner.sum())

    cvwts = np.bincount(cmap, weights=graph.vwts, minlength=nc)

    # Coarse edges: map endpoints, drop collapsed pairs, merge parallels.
    cu = cmap[graph.edge_src]
    cv = cmap[graph.adjncy]
    # each undirected fine edge appears twice in CSR; keep one direction
    # (which also drops the edges a matched pair collapsed)
    keep = cu < cv
    edges = np.column_stack([cu[keep], cv[keep]])
    wts = graph.ewts[keep]
    coarse = WeightedGraph.from_edges(nc, edges, wts, cvwts)
    return coarse, cmap


# --------------------------------------------------------------------- #
# KL refinement
# --------------------------------------------------------------------- #

#: candidates the Python engine deferred on the balance envelope and
#: revived, over every pass since the last ``clear()`` — tests read it to
#: show that a case reaches that bookkeeping
EVENTS = collections.Counter()


class _KLState:
    """Immutable-shape state shared by the passes of one kl_refine call."""

    __slots__ = (
        "graph", "p", "assign", "home", "cfg", "mean", "maxcap", "band",
        "xadj", "adjncy", "ewts", "vwts",
        "xadj_l", "adj_l", "ewt_l", "vw_l", "hom_l",
    )

    def __init__(self, graph, p, assign, home, cfg):
        self.graph = graph
        self.p = p
        self.assign = assign
        self.home = home
        self.cfg = cfg
        self.vwts = graph.vwts
        weights = np.bincount(assign, weights=graph.vwts, minlength=p)
        self.mean = float(weights.sum()) / p
        # The balance envelope cannot be tighter than the vertex-weight
        # granularity: with indivisible trees of weight up to w_max, subset
        # weights are only controllable to ~w_max/2.  Chasing a tighter
        # band would churn migration without ever converging.
        wmax = float(self.vwts.max()) if self.vwts.size else 0.0
        self.band = max(cfg.balance_tol * self.mean, 0.5 * wmax)
        self.maxcap = self.mean + self.band
        self.xadj = graph.xadj
        self.adjncy = graph.adjncy
        self.ewts = graph.ewts
        # Hot-loop list mirrors of the immutable arrays, built lazily on
        # the first pure-Python pass and shared by every later one
        # (tolist() per pass is measurable at bench scale: ~15% of a
        # converged pass; the compiled kernel never needs them).
        self.xadj_l = None
        self.adj_l = None
        self.ewt_l = None
        self.vw_l = None
        self.hom_l = None

    def _ensure_lists(self) -> None:
        if self.xadj_l is None:
            self.xadj_l = self.xadj.tolist()
            self.adj_l = self.adjncy.tolist()
            self.ewt_l = self.ewts.tolist()
            self.vw_l = self.vwts.tolist()
            self.hom_l = (
                self.home.tolist()
                if (self.home is not None and self.cfg.alpha)
                else None
            )

    def objective(self) -> float:
        """The full configured objective at the current assignment:
        ``C_cut + α·C_migrate + β·Σφ(W_i)`` with the active balance mode."""
        obj = graph_cut(self.graph, self.assign)
        if self.home is not None and self.cfg.alpha:
            moved = self.assign != self.home
            obj += self.cfg.alpha * float(self.vwts[moved].sum())
        if self.cfg.beta:
            w = np.bincount(self.assign, weights=self.vwts, minlength=self.p)
            if self.cfg.balance_mode == "deadband":
                over = np.maximum(w - self.maxcap, 0.0)
                under = np.maximum((self.mean - self.band) - w, 0.0)
                obj += self.cfg.beta * float((over * over + under * under).sum())
            else:
                d = w - self.mean
                obj += self.cfg.beta * float((d * d).sum())
        return float(obj)


def _kl_pass(state: _KLState) -> tuple:
    """One KL pass with rollback; returns ``(objective improvement kept,
    moves tried, moves kept)``.

    The vectorized prelude (connectivity, boundary seeding, initial
    candidates) runs here in numpy; the sequential hill-climb is
    :func:`_kl_pass_py`.  Together they are the reference of ``_klcore.c:
    kl_pass``, which builds the same candidates in the same order.
    """
    cfg = state.cfg
    n = state.graph.n_vertices
    p = state.p
    assign = state.assign
    home = state.home
    alpha = float(cfg.alpha) if home is not None else 0.0
    beta = float(cfg.beta)

    # Flat connectivity: conn2d[v, s] = edge weight from v into subset s,
    # built by one vectorized bincount over the CSR arrays.
    conn2d = np.bincount(
        state.graph.edge_src * p + assign[state.adjncy], weights=state.ewts,
        minlength=n * p,
    ).reshape(n, p)

    weights_np = np.bincount(assign, weights=state.vwts, minlength=p)

    # Boundary mask: positive external degree (edge weights are positive, so
    # "row sum minus internal degree" is exact, no np.unique pass needed).
    internal = conn2d[np.arange(n), assign]
    bmask = (conn2d.sum(axis=1) - internal) > 0.0
    # Under heavy imbalance the boundary alone may not free enough weight;
    # also seed every vertex of overweight subsets when beta is active.
    if beta:
        over = weights_np > state.maxcap
        if over.any():
            bmask |= over[assign]
    bidx = np.flatnonzero(bmask)

    # Vectorized initial candidates: every (boundary vertex, adjacent
    # subset) pair in one shot.  When the balance term is active, the
    # globally lightest subset is also offered, so starved or even *empty*
    # subsets (which no vertex is adjacent to) can be re-seeded — the
    # balance gain decides whether such a teleport is worth its cut cost.
    if bidx.size:
        cand = conn2d[bidx] > 0
        iv = assign[bidx]
        cand[np.arange(bidx.size), iv] = False
        if beta:
            light0 = int(np.argmin(weights_np))
            cand[:, light0] |= iv != light0
        r, c = np.nonzero(cand)
        vs = bidx[r]
        ivs = assign[vs]
        gs = conn2d[vs, c] - conn2d[vs, ivs]
        if alpha:
            hh = home[vs]
            gs = gs - alpha * state.vwts[vs] * (
                (c != hh).astype(np.float64) - (ivs != hh).astype(np.float64)
            )
    else:
        gs = np.empty(0, dtype=np.float64)
        vs = c = np.empty(0, dtype=np.int64)

    return _kl_pass_py(state, conn2d, weights_np, gs, vs, c)


def _kl_pass_py(state: _KLState, conn2d, weights_np, gs, vs, cs) -> tuple:
    """Pure-Python reference for the sequential half of one KL pass.

    ``gs``/``vs``/``cs`` are the prelude's initial candidates (gain,
    vertex, destination).  The compiled core mirrors this loop exactly;
    change them together (``tests/test_kl_native.py`` and
    ``tests/test_multilevel_native.py`` enforce parity).
    """
    cfg = state.cfg
    n = state.graph.n_vertices
    p = state.p
    assign = state.assign
    home = state.home
    alpha = float(cfg.alpha) if home is not None else 0.0
    beta = float(cfg.beta)
    mean = state.mean
    maxcap = state.maxcap
    floor_w = mean - state.band
    deadband = cfg.balance_mode == "deadband"
    min_gain = cfg.min_gain
    window_n = cfg.window
    state._ensure_lists()

    gen = [0] * (n * p)
    heap: list = []
    for k, (g, v, j) in enumerate(zip(gs.tolist(), vs.tolist(), cs.tolist())):
        gen[v * p + j] = 1
        heap.append((-g, k, v, j, 1))
    heapq.heapify(heap)

    # All hot-loop state is flat Python lists: every read/write below is a
    # scalar, no numpy scalar boxing on the per-move path.
    connf = conn2d.ravel().tolist()
    locked = [False] * n
    asg = assign.tolist()
    vw = state.vw_l
    wt = weights_np.tolist()
    hom = state.hom_l
    xadj_l = state.xadj_l
    adj_l = state.adj_l
    ewt_l = state.ewt_l

    counter = itertools.count(len(heap))
    nxt = counter.__next__
    heappush = heapq.heappush
    heappop = heapq.heappop

    def touch(u: int, ub: int, au: int, base: float, j: int, light: int) -> None:
        """Re-stamp destination ``j`` of ``u`` after its gain changed: push
        one fresh entry if it is (still) a candidate — connected, or the
        teleport target — else just invalidate the stale entry."""
        idx = ub + j
        cw = connf[idx]
        if cw > 0.0 or j == light:
            g = cw - base
            if alpha:
                hu = hom[u]
                g -= (alpha * vw[u] if j != hu else 0.0) - (
                    alpha * vw[u] if au != hu else 0.0
                )
            s = gen[idx] + 1
            gen[idx] = s
            heappush(heap, (-g, nxt(), u, j, s))
        elif gen[idx]:
            gen[idx] += 1  # candidate died; its stale entry is discarded on pop

    moves: list = []  # (v, from_subset)
    cum = 0.0
    best_cum = 0.0
    best_len = 0
    stall_limit = cfg.stall_limit
    in_band_tail = kl.IN_BAND_TAIL
    wbuf: list = []
    # Admissibility-blocked candidates, indexed by what would unblock them:
    # entry (v: i→j) re-enters the heap when subset j loses weight or subset
    # i gains weight — the only events that can flip its envelope check.
    defer_tgt: list = [[] for _ in range(p)]  # blocked on target j too heavy
    defer_src: list = [[] for _ in range(p)]  # blocked on own subset i too light

    def revive(e) -> None:
        lv = e[2]
        lj = e[3]
        idx = lv * p + lj
        if locked[lv] or gen[idx] != e[4]:
            return  # superseded meanwhile (also dedups the twin listing)
        s = gen[idx] + 1
        gen[idx] = s
        EVENTS["revived"] += 1
        heappush(heap, (e[0], nxt(), lv, lj, s))

    while heap:
        if stall_limit:
            tail = len(moves) - best_len
            if tail >= stall_limit or (
                tail >= in_band_tail
                and all(floor_w <= x <= maxcap for x in wt)
            ):
                break  # converged: the remaining tail would be rolled back
        # Look-ahead window: pop up to `window` valid entries, take the one
        # with the best *full* gain, push the rest back.  With beta == 0
        # the full gain *is* the static heap key, so the first valid pop
        # is already the best move — no window churn.
        del wbuf[:]
        while heap and len(wbuf) < window_n:
            e = heappop(heap)
            v = e[2]
            if locked[v]:
                continue
            j = e[3]
            if gen[v * p + j] != e[4]:
                continue  # stale: superseded by a fresher entry
            i = asg[v]
            w = vw[v]
            wj_after = wt[j] + w
            # Hard balance envelope (see KLConfig.balance_tol).  A blocked
            # candidate is *deferred*, not dropped: admissibility depends on
            # the live subset weights, so a later move can unblock it.
            if not (wj_after <= maxcap or wj_after <= wt[i]):
                EVENTS["deferred"] += 1
                defer_tgt[j].append(e)
                defer_src[i].append(e)
                continue
            full = -e[0]
            if not beta:
                wbuf.append((full, e))
                break
            if beta:
                Wi = wt[i]
                Wj = wt[j]
                if deadband:
                    bg = 0.0
                    d = Wi - maxcap
                    if d > 0.0:
                        bg += d * d
                    d = floor_w - Wi
                    if d > 0.0:
                        bg += d * d
                    d = Wj - maxcap
                    if d > 0.0:
                        bg += d * d
                    d = floor_w - Wj
                    if d > 0.0:
                        bg += d * d
                    Wi -= w
                    Wj += w
                    d = Wi - maxcap
                    if d > 0.0:
                        bg -= d * d
                    d = floor_w - Wi
                    if d > 0.0:
                        bg -= d * d
                    d = Wj - maxcap
                    if d > 0.0:
                        bg -= d * d
                    d = floor_w - Wj
                    if d > 0.0:
                        bg -= d * d
                else:
                    # Σ(W−W̄)² telescopes to the classic 2w(W_i − W_j − w)
                    bg = 2.0 * w * (Wi - Wj - w)
                full += beta * bg
            wbuf.append((full, e))
        if not wbuf:
            break
        best_t = 0
        if len(wbuf) > 1:
            bf = wbuf[0][0]
            for t in range(1, len(wbuf)):
                if wbuf[t][0] > bf:
                    bf = wbuf[t][0]
                    best_t = t
        full, e = wbuf[best_t]
        v = e[2]
        j = e[3]

        i = asg[v]
        w = vw[v]
        asg[v] = j
        wt[i] -= w
        wt[j] += w
        locked[v] = True
        moves.append((v, i))
        cum += full
        if cum > best_cum + min_gain:
            best_cum = cum
            best_len = len(moves)

        if beta:
            light = 0
            wl = wt[0]
            for s in range(1, p):
                if wt[s] < wl:
                    wl = wt[s]
                    light = s
        else:
            light = -1

        # Only v's neighborhood is touched: walk its xadj slice, shifting
        # each neighbor's connectivity from column i to column j and
        # re-stamping the affected candidate entries.
        for t in range(xadj_l[v], xadj_l[v + 1]):
            u = adj_l[t]
            w_uv = ewt_l[t]
            ub = u * p
            connf[ub + i] -= w_uv
            connf[ub + j] += w_uv
            if locked[u]:
                continue
            au = asg[u]
            base = connf[ub + au]
            if au == i or au == j:
                # u's internal degree changed: every destination shifted
                for d in range(p):
                    if d != au:
                        touch(u, ub, au, base, d, light)
            else:
                touch(u, ub, au, base, i, light)
                touch(u, ub, au, base, j, light)
                if light >= 0 and light != i and light != j:
                    touch(u, ub, au, base, light, light)

        # Re-seed the window leftovers — but only those the move's refreshes
        # did not already supersede (stamp still current).
        if len(wbuf) > 1:
            for t in range(len(wbuf)):
                if t == best_t:
                    continue
                le = wbuf[t][1]
                lv = le[2]
                if not locked[lv] and gen[lv * p + le[3]] == le[4]:
                    heappush(heap, le)
        # The move drained subset i and fed subset j: wake the blocked
        # candidates whose envelope check those two weight changes affect.
        if defer_tgt[i]:
            for le in defer_tgt[i]:
                revive(le)
            del defer_tgt[i][:]
        if defer_src[j]:
            for le in defer_src[j]:
                revive(le)
            del defer_src[j][:]

    # Roll back the suffix after the best prefix.
    for t in range(len(moves) - 1, best_len - 1, -1):
        v, i = moves[t]
        w = vw[v]
        wt[asg[v]] -= w
        wt[i] += w
        asg[v] = i
    assign[:] = asg
    return best_cum, len(moves), best_len


def kl_refine(
    graph: WeightedGraph,
    assignment,
    p: int,
    home=None,
    config: KLConfig = None,
) -> np.ndarray:
    """:func:`repro.partition.kl.kl_refine` on the Python engine."""
    cfg = config or KLConfig()
    assign = validate_assignment(graph, assignment, p).copy()
    if home is not None:
        home = validate_assignment(graph, home, p)
    with PERF.span("kl.refine"):
        return _kl_refine_py(_KLState(graph, p, assign, home, cfg))


def _kl_refine_py(state: _KLState) -> np.ndarray:
    """The pass loop of :func:`kl_refine` — the reference of ``_klcore.c:
    kl_refine`` and the path taken when no compiled core is available.
    Moves tried and kept over all passes are credited as the ``kl.moves``
    / ``kl.kept`` counters, as the compiled path does."""
    cfg = state.cfg
    moves = kept = 0
    # Track the best-seen partition under the *full* objective.  The
    # per-pass incremental gains telescope that objective exactly, but
    # guarding on the evaluated value makes refinement monotone-or-rollback
    # by construction: a pass whose bookkeeping drifts (or a later pass
    # that trades away an earlier gain) can never make the returned
    # partition worse than the best state ever reached — in particular
    # never worse than the input.
    best = state.assign.copy()
    best_obj = obj = state.objective()
    for _ in range(cfg.max_passes):
        with PERF.span("kl.pass"):
            improved, tried, kept_now = _kl_pass(state)
        moves += tried
        kept += kept_now
        obj = state.objective()
        if obj < best_obj - cfg.min_gain:
            best_obj = obj
            best[:] = state.assign
        if improved <= cfg.min_gain:
            break
    PERF.add("kl.moves", 0.0, calls=moves)
    PERF.add("kl.kept", 0.0, calls=kept)
    if obj > best_obj + cfg.min_gain:
        return best
    return state.assign


# --------------------------------------------------------------------- #
# greedy graph growing
# --------------------------------------------------------------------- #


def _pseudo_peripheral(graph: WeightedGraph, candidates: np.ndarray, rng) -> int:
    """A vertex far from a random start — two BFS sweeps restricted to
    ``candidates`` (unassigned vertices)."""
    cand = set(int(c) for c in candidates)
    start = int(candidates[rng.integers(candidates.size)])
    far = start
    for _ in range(2):
        seen = {far}
        frontier = [far]
        last = far
        while frontier:
            nxt = []
            for v in frontier:
                for u in graph.adjncy[graph.xadj[v] : graph.xadj[v + 1]]:
                    u = int(u)
                    if u in cand and u not in seen:
                        seen.add(u)
                        nxt.append(u)
            if nxt:
                last = nxt[0]
            frontier = nxt
        far = last
    return far


def greedy_graph_growing(
    graph: WeightedGraph,
    p: int,
    seed: int = 0,
    targets=None,
) -> np.ndarray:
    """:func:`repro.partition.greedy.greedy_graph_growing` in Python (the
    reference of ``_klcore.c: grow``): subsets 0 … p − 2 grown in turn,
    leftover stragglers to subset p − 1."""
    n = graph.n_vertices
    if p < 1:
        raise ValueError("p must be >= 1")
    assignment = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if p == 1:
        return np.zeros(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    total = graph.total_vweight
    if targets is None:
        targets = np.full(p, total / p)
    else:
        targets = np.asarray(targets, dtype=float)

    weights = np.zeros(p)
    for part in range(p - 1):
        remaining = np.nonzero(assignment == -1)[0]
        if remaining.size == 0:
            break
        seed_v = _pseudo_peripheral(graph, remaining, rng)
        heap = [(-0.0, seed_v)]
        gain = {seed_v: 0.0}
        while heap and weights[part] < targets[part]:
            _, v = heapq.heappop(heap)
            if assignment[v] != -1:
                continue
            # stop growing rather than badly overshoot on a heavy vertex
            if (
                weights[part] > 0
                and weights[part] + graph.vwts[v] > targets[part] * 1.25
            ):
                continue
            assignment[v] = part
            weights[part] += graph.vwts[v]
            for idx in range(graph.xadj[v], graph.xadj[v + 1]):
                u = int(graph.adjncy[idx])
                if assignment[u] == -1:
                    g = gain.get(u, 0.0) + graph.ewts[idx]
                    gain[u] = g
                    heapq.heappush(heap, (-g, u))
        if not np.any(assignment == part):
            # target too small for any vertex; place the seed anyway
            assignment[seed_v] = part
            weights[part] += graph.vwts[seed_v]

    rest = np.nonzero(assignment == -1)[0]
    assignment[rest] = p - 1
    weights[p - 1] += graph.vwts[rest].sum()
    return assignment


# --------------------------------------------------------------------- #
# the per-level V-cycle
# --------------------------------------------------------------------- #


class Hierarchy(NamedTuple):
    """A contraction hierarchy as a value: ``graphs[0]`` is the input,
    ``cmaps[j]`` maps ``graphs[j]`` vertices to ``graphs[j+1]``, and
    ``homes[j]`` is the home assignment projected to ``graphs[j]``
    (``None`` at every level when the hierarchy was built without one)."""

    graphs: list
    cmaps: list
    homes: list


def _project_down(assignment: np.ndarray, cmap: np.ndarray, vwts: np.ndarray, nc: int):
    """Coarse assignment induced by a fine one: the coarse vertex takes the
    subset of its heaviest constituent (exact when matching was constrained
    to same-subset pairs, a tie-broken majority vote otherwise).

    A coarse vertex has at most two constituents (contraction collapses a
    matching), so a stable sort by coarse id exposes each pair as a segment
    ``[f1, f2]`` with ``f1`` the lower-indexed fine vertex — ties go to
    ``f1``, matching the old sequential scan exactly."""
    order = np.argsort(cmap, kind="stable")
    cs = cmap[order]
    ids = np.arange(nc)
    f1 = order[np.searchsorted(cs, ids, side="left")]
    f2 = order[np.searchsorted(cs, ids, side="right") - 1]
    s1 = assignment[f1]
    s2 = assignment[f2]
    out = np.where((s2 != s1) & (vwts[f2] > vwts[f1]), s2, s1)
    return out.astype(np.int64)


def build_hierarchy(
    graph: WeightedGraph,
    coarsen_to: int,
    seed: int = 0,
    home=None,
    constrain: bool = True,
) -> Hierarchy:
    """Contraction phase by heavy-edge matching.

    ``home`` (an assignment on ``graph``) is projected down the hierarchy;
    with ``constrain`` it also restricts matching to same-subset pairs at
    every level, so all constituents of a coarse vertex agree on it.
    """
    graphs = [graph]
    cmaps = []
    homes = [None if home is None else np.asarray(home)]
    with PERF.span("multilevel.coarsen"):
        while graphs[-1].n_vertices > coarsen_to and len(cmaps) < multilevel.MAX_LEVELS:
            g, cur = graphs[-1], homes[-1]
            m = heavy_edge_matching(
                g, seed=seed + len(cmaps), constraint=cur if constrain else None
            )
            # every matched pair removes one vertex: decide before contracting
            n = g.n_vertices
            n_coarse = n - np.count_nonzero(m != np.arange(n)) // 2
            if n_coarse >= n * multilevel.MIN_SHRINK:
                break
            coarse, cmap = contract(g, m)
            graphs.append(coarse)
            cmaps.append(cmap)
            if cur is None:
                nxt = None
            elif constrain:
                nxt = np.empty(coarse.n_vertices, dtype=cur.dtype)
                nxt[cmap] = cur  # all constituents agree
            else:
                nxt = _project_down(cur, cmap, g.vwts, coarse.n_vertices)
            homes.append(nxt)
    return Hierarchy(graphs, cmaps, homes)


def project_up(coarse_assignment: np.ndarray, cmap: np.ndarray) -> np.ndarray:
    """Expand a coarse assignment to the finer level through ``cmap``."""
    return np.asarray(coarse_assignment)[cmap]


def v_cycle(hierarchy: Hierarchy, coarsest, refine) -> np.ndarray:
    """The one project-and-refine loop.  ``coarsest(graph, home)`` assigns
    the coarsest graph; ``refine(graph, assignment, home)`` improves the
    assignment at every level, coarsest first."""
    graphs, cmaps, homes = hierarchy
    assignment = coarsest(graphs[-1], homes[-1])
    with PERF.span("multilevel.refine"):
        assignment = refine(graphs[-1], assignment, homes[-1])
        for level in range(len(cmaps) - 1, -1, -1):
            assignment = refine(
                graphs[level], project_up(assignment, cmaps[level]), homes[level]
            )
    return assignment


def multilevel_partition(
    graph: WeightedGraph, p: int, seed: int = 0, balance_tol: float = 0.03
) -> np.ndarray:
    """:func:`repro.partition.multilevel.multilevel_partition` as the
    per-level V-cycle."""
    if p == 1:
        return np.zeros(graph.n_vertices, dtype=np.int64)
    rebalance_cfg = KLConfig(balance_tol=balance_tol, max_passes=3, beta=0.8, window=16)
    cut_cfg = KLConfig(balance_tol=balance_tol, max_passes=6, beta=0.0)

    def coarsest(g, _home):
        return greedy_graph_growing(g, p, seed=seed)

    def refine(g, assignment, _home):
        if graph_imbalance(g, assignment, p) > balance_tol:
            assignment = kl_refine(g, assignment, p, config=rebalance_cfg)
        return kl_refine(g, assignment, p, config=cut_cfg)

    return v_cycle(build_hierarchy(graph, coarsen_target(p), seed=seed), coarsest, refine)


def multilevel_repartition(graph: WeightedGraph, p: int, current, pnr) -> np.ndarray:
    """:func:`repro.partition.multilevel.multilevel_repartition` as the
    per-level V-cycle, with its identity guard in Python."""
    current = validate_assignment(graph, current, p)
    cfg = KLConfig(
        alpha=pnr.alpha,
        beta=pnr.beta,
        balance_tol=pnr.balance_tol,
        max_passes=8,
        window=16,
        balance_mode="deadband",
    )

    def coarsest(g, home):
        if pnr.repartition_coarsest:
            return greedy_graph_growing(g, p, seed=pnr.seed)
        return home.copy()

    new = v_cycle(
        build_hierarchy(
            graph, coarsen_target(p), seed=pnr.seed, home=current,
            constrain=pnr.constrain_matching,
        ),
        coarsest,
        lambda g, assignment, home: kl_refine(g, assignment, p, home=home, config=cfg),
    )
    if (
        repartition_cost(graph, current, new, p, pnr.alpha, pnr.beta).total
        > repartition_cost(graph, current, current, p, pnr.alpha, pnr.beta).total + 1e-9
    ):
        return current.copy()
    return new
