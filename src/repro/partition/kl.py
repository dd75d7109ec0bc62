"""p-way Kernighan–Lin refinement with pluggable repartitioning gains.

This single engine hosts both of the paper's KL variants:

* the *standard* multiprocessor KL used inside Multilevel-KL, whose gain
  measures the change in cut size while a hard envelope maintains balance
  (``alpha = 0``, no ``home``);
* PNR's *repartitioning* KL (Section 9), whose gain reflects the full
  objective of Equation 1,

  ``C_repartition(Π^t, Π̂^t, α, β) = C_cut(Π̂) + α·C_migrate(Π, Π̂) + β·C_balance(Π̂)``

  obtained by passing ``alpha``, ``beta`` and the current assignment as
  ``home``.

Implementation notes
--------------------
The paper maintains a square table of per-subset-pair priority queues of
moves, popping the best head.  We keep one global heap of candidate moves
with *stamped invalidation* over flat array state:

* per-vertex connectivity lives in a flat ``(n·p,)`` array filled by one
  vectorized ``bincount`` over the CSR arrays per pass — ``static_gain``
  is two O(1) array reads (external minus internal degree), never a
  per-call dict;
* moving a vertex updates only its neighborhood's connectivity, through
  one ``xadj`` slice (two fancy-indexed array ops per move);
* every heap entry carries a per-(vertex, destination) *generation stamp*.
  Refreshing a candidate bumps the stamp and pushes one new entry; stale
  entries are discarded O(1) on pop.  This keeps the live heap O(boundary)
  — the old engine re-pushed every destination of every neighbor on every
  move and paid a gain recomputation per stale pop;
* the boundary is seeded from an external-degree mask computed
  vectorized, not ``np.unique`` over the crossing-edge list.

The weight-dependent balance gain (which shifts with every move — the
"rebuilding priority queues" cost the paper notes) is added at pop time,
and a small look-ahead window re-ranks the top candidates by their *full*
gain so balance-driven moves surface even when their static gain is
modest.

Each pass performs KL hill-climbing with rollback: moves are applied even
when individually negative, cumulative gain is tracked, and at pass end the
suffix after the best prefix is undone.  Passes repeat while they improve
the composite objective.

Only *boundary* vertices (those with an edge into another subset) are
candidates, as in the paper ("n, the number of boundary elements in a
subdomain").  Moving a vertex can promote its neighbors to the boundary;
they are inserted on the fly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.partition import _klnative
from repro.partition.metrics import graph_cut, validate_assignment
from repro.perf import PERF

#: Non-improving moves a pass may run past its best prefix while every
#: subset weight is inside the balance band (``KLConfig.stall_limit`` bounds
#: the tail otherwise).  Measured: 16 fails the Section 8 migration bound,
#: a short tail out of band too lets the imbalance run away.
IN_BAND_TAIL = 32


@dataclass
class KLConfig:
    """Tuning knobs of the KL engine.

    Attributes
    ----------
    alpha:
        Weight of the migration term (Equation 1); requires ``home``.
    beta:
        Weight of the quadratic balance term.
    balance_tol:
        Hard envelope ε: a move into subset ``j`` is admissible only if it
        leaves ``W_j ≤ (1+ε)·W̄`` *or* strictly reduces the pairwise maximum
        (so rebalancing from a badly unbalanced start is always possible).
    max_passes:
        Upper bound on KL passes.
    window:
        Look-ahead width when re-ranking heap candidates by full gain.
    min_gain:
        A pass must improve the objective by more than this to continue.
    stall_limit:
        A pass ends after this many consecutive moves without a new best
        prefix — or after :data:`IN_BAND_TAIL` of them once every subset
        weight lies inside the balance band ``[W̄ − band, W̄ + band]`` —
        and 0 disables both bounds.  KL's hill-climbing tail — applying
        every remaining boundary move just to roll it back — is where
        converged passes spend their time; bounding the stall keeps a no-op
        pass O(stall_limit) instead of O(boundary · degree), and a balanced
        pass O(IN_BAND_TAIL).  Out of band the long tail stays: that is
        where a rebalancing pass climbs through a cut-raising valley.
    balance_mode:
        ``"quadratic"`` — the literal ``Σ(W_i − W̄)²`` of Equation 1;
        ``"deadband"`` — quadratic on the *excess outside* the
        ``(1±balance_tol)·W̄`` envelope, zero inside it.  The deadband form
        expresses the same constraint ("balanced within ε") without paying
        migration for micro-balancing churn between already-balanced
        subsets, which matters when ``alpha > 0``.
    """

    alpha: float = 0.0
    beta: float = 0.0
    balance_tol: float = 0.05
    max_passes: int = 10
    window: int = 8
    min_gain: float = 1e-9
    stall_limit: int = 256
    balance_mode: str = "quadratic"


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
    in_band_tail = IN_BAND_TAIL
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
    """Refine ``assignment`` in place-semantics-free fashion (a copy is
    returned) using p-way KL with the configured gain function.

    Parameters
    ----------
    graph:
        The (possibly contracted) dual graph.
    assignment:
        Current subset per vertex — the starting point of hill climbing.
    p:
        Number of subsets.
    home:
        The pre-repartitioning assignment ``Π^t`` used by the migration term
        (``None`` disables it regardless of ``alpha``).
    config:
        :class:`KLConfig`; defaults to the standard cut+hard-balance KL.
    """
    cfg = config or KLConfig()
    assign = validate_assignment(graph, assignment, p).copy()
    if home is not None:
        home = validate_assignment(graph, home, p)
    with PERF.span("kl.refine"):
        state = _KLState(graph, p, assign, home, cfg)
        out = _klnative.kl_refine(state, IN_BAND_TAIL)
        if out is None:
            out = _kl_refine_py(state)
    return out


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
