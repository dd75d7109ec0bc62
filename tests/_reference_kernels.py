"""Frozen kernels, kept verbatim as parity yardsticks.

The first section is the ``dkl`` round engine as it stood before the
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

import numpy as np

from repro.partition.distributed import (
    DKLConfig,
    PartView,
    _phi,
    edge_keys,
)
from repro.perf import PERF


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
    same post/``wait`` surface as the SPMD exchange had when this engine
    was frozen, so :func:`_refine_loop` is written once."""

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
