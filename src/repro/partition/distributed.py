"""Distributed boundary refinement — the ``dkl`` strategy.

The last serial stage of a PARED round was the coordinator's KL pass:
phases P2/P3 funnelled every weight report through ``P_C``, which then
refined the coarse partition alone while ``p - 1`` ranks idled.  This module
decentralizes that stage in the spirit of Sanders & Seemaier's
unconstrained distributed local search (arXiv:2406.03169):

1. **propose** — each rank scans the boundary roots of *its own part* on
   its halo view of ``G`` and evaluates, for every live destination part
   ``j``, the Equation-1 gain of moving root ``v`` from its part ``i``::

       gain(v, i->j) = [conn(v, j) - conn(v, i)]                  (cut)
                     - a*w(v)*[(j != home(v)) - (i != home(v))]   (migration)
                     + b*[phi(W_i) + phi(W_j)
                          - phi(W_i - w(v)) - phi(W_j + w(v))]    (balance)

   with the deadband potential ``phi`` of the KL engine (zero inside the
   balance envelope, quadratic on the excess outside — cut decides between
   already-balanced parts), and proposes its best strictly-positive move
   per root.  Only boundary moves (``conn(v, j) > 0``) are proposed here;
   teleports are the rebalance step's business.

2. **resolve** — proposals are allgathered and every rank replays the same
   deterministic tournament: sort by ``(-gain, (part + seed + round) mod
   p, vertex id)`` — highest gain wins, the seeded rank rotation breaks
   ties fairly across rounds, the vertex id makes the order total — then
   accept greedily under the KL balance envelope.  A mover is locked for
   the rest of the round (no root moves twice), and a candidate whose
   neighborhood was touched by an earlier acceptance has its gain
   recomputed exactly from the edge list its proposal carries — the
   classic adjacent-moves conflict that would invalidate both gains is
   resolved by accounting, not by exclusion, so a coherent front can
   cascade through a single round.  A move that would empty its source
   part is never accepted (every live part must keep at least one root).

3. **rebalance** — when some part exceeds the balance envelope, the
   overweight ranks propose bounded donations (least cut damage first,
   toward any strictly lighter live part so weight *diffuses* along part
   boundaries, teleporting only when no lighter neighbor exists) resolved
   by the same tournament rule, restoring the constraint the
   unconstrained pass may have stretched.

Rounds are grouped into KL-style **passes** (a vertex moves at most once
per pass), and the loop hill-climbs like the serial engine: when a round
accepts no positive move, an **escape** round offers each part's single
least-damaging move regardless of sign and the tournament accepts the best
one — every accepted gain is the *exact* objective delta, so all ranks
track the same cumulative objective and, at pass end, roll the suffix
after the best prefix back in lockstep.  Positive-only batch acceptance is
what made early distributed KL variants measurably worse than the serial
pass (it cannot cross objective ridges); the escape/rollback pair restores
that ability without a coordinator.

A round costs **one exchange and O(touched) scoring**.  Each part keeps a
persistent :class:`_PartState` — the adjacency and part-connectivity rows
of every root it knows — built once per call from its view and then only
patched: an accepted (or rolled-back) move changes the connectivity of the
mover's neighbors alone, so exactly those rows are recomputed, in the
summation order a from-scratch rebuild would use (bit-identical whatever
the weights), and scoring reads boundary rows only.  The escape offer is
scored with the regular proposal and rides in the same frame (an escape
round only ever resolves against the state that scoring saw), so a round
in which nothing moves still costs a single allgather.

Every rank executes the same resolve on the same allgathered inputs, so
the final assignment is replica-identical with **no coordinator
involvement** — in a ``dkl`` PARED round the only other collective is the
O(p) allgather of load sums behind the imbalance check.

:func:`dkl_refine_serial` drives the identical propose/resolve/rebalance
code from a single thread (a rank loop instead of an allgather).  It backs
the ``dkl`` registry strategy and is the reference the SPMD path
(:func:`dkl_refine_comm`) is tested bit-identical against.  There is one
engine, :func:`_refine_loop`; the two drivers differ in the one thing they
inject into it — the proposal ``exchange``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf import PERF

__all__ = [
    "DKLConfig",
    "PartView",
    "dkl_refine_serial",
    "dkl_refine_comm",
    "pack_proposal_frame",
    "unpack_proposal_frame",
]

#: allgather tag of the proposal rounds (propose and rebalance share it:
#: the wire is tag-matched FIFO, so alternating batches cannot cross)
PROPOSAL_TAG = 45


def edge_keys(a, b, n_roots: int) -> np.ndarray:
    """Pack edge endpoint arrays (``a < b`` elementwise) into scalar keys —
    the one packing rule of the weight reports (:mod:`repro.pared.weights`
    re-exports it) and of the halo views here."""
    return np.asarray(a, dtype=np.int64) * np.int64(n_roots) + np.asarray(
        b, dtype=np.int64
    )


def split_edge_keys(keys, n_roots: int):
    """Inverse of :func:`edge_keys`: ``(a, b)`` endpoint arrays."""
    keys = np.asarray(keys, dtype=np.int64)
    return keys // n_roots, keys % n_roots


@dataclass
class DKLConfig:
    """Knobs of the distributed refinement pass.  ``alpha``/``beta``/
    ``seed``/``balance_tol`` mirror the Equation-1 parameters of
    :class:`repro.core.pnr.PNR`; the rest bound the tournament."""

    alpha: float = 0.1
    beta: float = 0.8
    balance_tol: float = 0.02
    seed: int = 0
    #: propose/resolve/rebalance iterations per pass before giving up
    #: (each round accepts an independent set of moves, so heavy imbalance
    #: needs many; converged rounds exit early and cost one cheap exchange)
    max_rounds: int = 48
    #: most donations a single overweight part may propose per round —
    #: deliberately small: donating the whole excess in one batch at
    #: stale loads carves fragmented boundaries that refinement cannot
    #: repair, while bounded batches let the loads (and the proposals
    #: computed from them) refresh between donations
    rebalance_cap: int = 8
    #: KL-style passes: per pass every vertex moves at most once and the
    #: suffix after the best cumulative-objective prefix is rolled back
    max_passes: int = 3
    #: accepted moves without a new best prefix before the pass ends (the
    #: hill-climbing tail that would be rolled back anyway)
    stall: int = 32
    #: escape rounds per pass: each one costs a full exchange for a single
    #: accepted move, so the hill-climb budget is bounded separately from
    #: the batch rounds
    escape_cap: int = 8
    #: a pass must keep at least this much objective improvement for
    #: another pass to start
    min_gain: float = 1e-9


class PartView:
    """One part's halo knowledge of the weighted coarse graph ``G``.

    The mesh *structure* is replicated across ranks, but weights are
    distributed knowledge: a rank knows the vertex weights of the roots in
    its part plus the weight of every edge incident to them — its own
    canonical report (owner of ``a`` reports edge ``(a, b)``, ``a < b``)
    merged with the neighbor halo reports.  Stored flat: a dense
    vertex-weight vector (zero outside the known set) and sorted packed
    edge keys with aligned weights, same primitives as
    :mod:`repro.pared.weights`.
    """

    __slots__ = ("n", "part", "vwts", "e_keys", "e_wts")

    def __init__(self, n_roots, part, v_ids, v_wts, e_keys, e_wts):
        self.n = int(n_roots)
        self.part = int(part)
        self.vwts = np.zeros(self.n, dtype=np.float64)
        self.vwts[np.asarray(v_ids, dtype=np.int64)] = np.asarray(
            v_wts, dtype=np.float64
        )
        e_keys = np.asarray(e_keys, dtype=np.int64)
        e_wts = np.asarray(e_wts, dtype=np.float64)
        order = np.argsort(e_keys, kind="stable")
        self.e_keys = e_keys[order]
        self.e_wts = e_wts[order]

    @classmethod
    def from_reports(cls, n_roots, part, full, received) -> "PartView":
        """Assemble the view from this rank's canonical report plus the
        halo payloads received from its neighbors (disjoint key sets by
        the ownership rule)."""
        e_keys = np.concatenate(
            [full["e_keys"]] + [m["e_keys"] for m in received]
        )
        e_wts = np.concatenate([full["e_wts"]] + [m["e_wts"] for m in received])
        return cls(n_roots, part, full["v_ids"], full["v_wts"], e_keys, e_wts)

    @classmethod
    def from_graph(cls, graph, part, assign) -> "PartView":
        """The serial engine's view: ``G`` restricted to the edges incident
        to ``part`` — exactly what the halo exchange delivers, read
        directly from the graph."""
        assign = np.asarray(assign, dtype=np.int64)
        n = graph.n_vertices
        counts = np.diff(graph.xadj)
        src = np.repeat(np.arange(n, dtype=np.int64), counts)
        dst = graph.adjncy
        mask = (src < dst) & ((assign[src] == part) | (assign[dst] == part))
        v_ids = np.flatnonzero(assign == part)
        return cls(
            n,
            part,
            v_ids,
            graph.vwts[v_ids],
            edge_keys(src[mask], dst[mask], n),
            graph.ewts[mask],
        )

    def directed(self, assign):
        """``(src, dst, w)`` triplets with ``assign[src] == part``: every
        incident edge seen from the member side, sorted by (src, dst)."""
        a, b = split_edge_keys(self.e_keys, self.n)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        w = np.concatenate([self.e_wts, self.e_wts])
        keep = assign[src] == self.part
        src, dst, w = src[keep], dst[keep], w[keep]
        order = np.lexsort((dst, src))
        return src[order], dst[order], w[order]

    def absorb(self, v_ids, v_wts, e_keys, e_wts) -> None:
        """Merge roots won from other parts, with their incident edges.
        Keys already present re-report the same true weight, so the first
        occurrence wins harmlessly."""
        self.vwts[np.asarray(v_ids, dtype=np.int64)] = np.asarray(
            v_wts, dtype=np.float64
        )
        keys = np.concatenate([self.e_keys, np.asarray(e_keys, dtype=np.int64)])
        wts = np.concatenate([self.e_wts, np.asarray(e_wts, dtype=np.float64)])
        uniq, first = np.unique(keys, return_index=True)
        self.e_keys = uniq
        self.e_wts = wts[first]

    def prune(self, assign) -> None:
        """Drop edges with no endpoint left in the part and zero the
        weights of departed roots — the exact incident set again, so the
        honesty audit (:func:`repro.testing.check_halo_weights`) can
        compare against a brute-force recount."""
        a, b = split_edge_keys(self.e_keys, self.n)
        keep = (assign[a] == self.part) | (assign[b] == self.part)
        self.e_keys = self.e_keys[keep]
        self.e_wts = self.e_wts[keep]
        self.vwts[np.asarray(assign) != self.part] = 0.0


# ---------------------------------------------------------------------- #
# propose
# ---------------------------------------------------------------------- #


def _phi(W, maxcap: float, floor: float):
    """Deadband balance potential: zero inside the ``[floor, maxcap]``
    envelope, quadratic on the excess outside (the ``balance_mode=
    "deadband"`` form of :mod:`repro.partition.kl`).  Inside the band the
    balance gain vanishes, so cut and migration decide — refinement never
    pays cut for micro-balancing churn between already-balanced parts."""
    over = np.maximum(W - maxcap, 0.0)
    under = np.maximum(floor - W, 0.0)
    return over * over + under * under


def _phi_scalar(W: float, maxcap: float, floor: float) -> float:
    """:func:`_phi` on plain floats — the same IEEE operations without the
    ufunc dispatches, for the resolve's per-candidate balance terms."""
    over = max(W - maxcap, 0.0)
    under = max(floor - W, 0.0)
    return over * over + under * under


def _ranges(starts, lens):
    """Flat indices of the concatenated ranges ``[starts[k], starts[k] +
    lens[k])`` and their CSR offsets."""
    off = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    idx = np.repeat(starts - off[:-1], lens) + np.arange(off[-1], dtype=np.int64)
    return idx, off


def _room(arr, used: int, extra: int):
    """``arr`` with room for ``extra`` entries behind its first ``used``
    (amortized doubling; only the live prefix is carried over)."""
    need = used + extra
    if need <= arr.shape[0]:
        return arr
    out = np.empty(
        (max(need, 2 * arr.shape[0]),) + arr.shape[1:], dtype=arr.dtype
    )
    out[:used] = arr[:used]
    return out


class _PartState:
    """One part's round state, built once per :func:`_refine_loop` call
    from its :class:`PartView` and then only patched.

    It holds, for every root the part *knows* — its members at entry plus
    every root it adopted since, whose row arrives in the winning proposal
    — the adjacency row (neighbors ascending, as :meth:`PartView.directed`
    sorts them) and the part-connectivity row.  A move changes the
    connectivity of the mover's neighbors only, so :meth:`patch` recomputes
    exactly those rows, each as a ``bincount`` over the row in
    ascending-neighbor order — the order a whole-part ``bincount`` over the
    ``(src, dst)``-sorted edge list adds in, so the sums are bit-identical
    to a from-scratch rebuild whatever the weights.  Rows of roots that
    left stay known and current (a root may return, and the pass-end
    rollback returns many).

    Scoring reads boundary rows only (``bnd``: member with positive
    connectivity to another part — no other row can be proposed), in
    ascending root id, so ``argmax`` ties and the frame's row order are
    those of a full members x p gain matrix.
    """

    __slots__ = (
        "view", "part", "p", "slot", "start", "deg", "dst", "w", "n_edges",
        "conn", "n_rows", "adopted", "bnd",
    )

    def __init__(self, view: PartView, assign, p: int):
        self.view = view
        self.part = view.part
        self.p = p
        n = view.n
        mine = np.flatnonzero(assign == self.part)
        src, self.dst, self.w = view.directed(assign)
        self.n_edges = src.size
        self.n_rows = mine.size
        #: root id -> row of ``conn`` (-1: unknown), start and length of
        #: its adjacency row in the flat ``dst``/``w`` arrays
        self.slot = np.full(n, -1, dtype=np.int64)
        self.slot[mine] = np.arange(mine.size)
        bounds = np.searchsorted(src, np.append(mine, n))
        self.start = np.zeros(n, dtype=np.int64)
        self.start[mine] = bounds[:-1]
        self.deg = np.zeros(n, dtype=np.int64)
        self.deg[mine] = np.diff(bounds)
        # (an empty bincount comes back integer whatever the weights)
        self.conn = np.bincount(
            self.slot[src] * p + assign[self.dst],
            weights=self.w,
            minlength=mine.size * p,
        ).astype(np.float64, copy=False).reshape(mine.size, p)
        self.adopted = []
        self.bnd = np.zeros(n, dtype=bool)
        self._flag(mine, assign)

    def _flag(self, roots, assign) -> None:
        """Refresh the boundary flag of the known roots ``roots``."""
        off = self.conn[self.slot[roots]]
        off[:, self.part] = 0.0
        self.bnd[roots] = (assign[roots] == self.part) & (off > 0.0).any(axis=1)

    def patch(self, recs, assign) -> None:
        """Catch up with a batch of move records already applied to — or
        rolled back on — ``assign``: adopt the rows of roots this part won
        sight unseen (weight and incident edges ride in the record), then
        recompute the connectivity row of every known root next to a
        mover.  The movers themselves are redone too: a fresh adoptee has
        no row yet, and all of them need their boundary flag refreshed."""
        if not recs:
            return
        won = [
            r for r in recs
            if assign[r["v"]] == self.part and self.slot[r["v"]] < 0
        ]
        if won:
            self._adopt(won)
        touched = np.concatenate(
            [r["adj"] for r in recs]
            + [np.array([r["v"] for r in recs], dtype=np.int64)]
        )
        touched = touched[self.slot[touched] >= 0]
        if touched.size == 0:
            return  # the batch moved nothing next to a root we know
        lens = self.deg[touched]
        idx, _ = _ranges(self.start[touched], lens)
        row = np.repeat(np.arange(touched.size), lens)
        self.conn[self.slot[touched]] = np.bincount(
            row * self.p + assign[self.dst[idx]],
            weights=self.w[idx],
            minlength=touched.size * self.p,
        ).reshape(touched.size, self.p)
        self._flag(touched, assign)

    def _adopt(self, recs) -> None:
        v = np.array([r["v"] for r in recs], dtype=np.int64)
        lens = np.array([r["adj"].size for r in recs], dtype=np.int64)
        m = int(lens.sum())
        lo = self.n_edges
        self.conn = _room(self.conn, self.n_rows, v.size)
        self.dst = _room(self.dst, lo, m)
        self.w = _room(self.w, lo, m)
        self.dst[lo : lo + m] = np.concatenate([r["adj"] for r in recs])
        self.w[lo : lo + m] = np.concatenate([r["adj_w"] for r in recs])
        self.slot[v] = self.n_rows + np.arange(v.size)
        self.start[v] = lo + np.cumsum(lens) - lens
        self.deg[v] = lens
        self.n_rows += v.size
        self.n_edges += m
        # scoring reads the weight from the view; the edges follow in
        # flush(), once
        self.view.vwts[v] = [r["vw"] for r in recs]
        self.adopted.extend(v.tolist())

    def flush(self, assign) -> None:
        """Hand the view the incident edges of the adopted roots that
        stayed, in one :meth:`PartView.absorb` ahead of the final prune.
        Adoptees that left again need no trace: any edge of theirs that
        ends at a member is already in that member's row."""
        v = np.array(
            [u for u in self.adopted if assign[u] == self.part], dtype=np.int64
        )
        if v.size == 0:
            return
        idx, _ = _ranges(self.start[v], self.deg[v])
        a = np.repeat(v, self.deg[v])
        b = self.dst[idx]
        self.view.absorb(
            v,
            self.view.vwts[v],
            edge_keys(np.minimum(a, b), np.maximum(a, b), self.view.n),
            self.w[idx],
        )

    def _pack(self, v, dst, prio, static, vw, n_reg: int, esc: int):
        """The wire proposal for roots ``v``: struct-of-arrays plus each
        mover's adjacency row (CSR), so any rank can lock the neighbors
        and the winning part can adopt the root sight unseen.  The first
        ``n_reg`` rows are the regular offer; row ``esc`` (-1: none) is the
        escape offer — one of the regular rows, or the lone row of a
        proposal with no regular ones."""
        idx, e_off = _ranges(self.start[v], self.deg[v])
        return {
            "part": self.part,
            "v": v,
            "dst": dst,
            "prio": prio,
            "static": static,
            "vw": vw,
            "e_off": e_off,
            "adj": self.dst[idx],
            "adj_w": self.w[idx],
            "n_reg": int(n_reg),
            "esc": int(esc),
        }

    def propose(
        self, assign, home, loads, live, cfg: DKLConfig, maxcap, floor,
        locked, escape: bool,
    ):
        """Evaluate the Equation-1 gain of every unlocked boundary root
        toward every live part and propose the best strictly-positive move
        per root, or ``None``.  ``prio`` is the full gain at round-start
        loads (the tournament key); ``static`` is the cut+migration
        component — the balance term is recomputed against live loads at
        accept time.

        With ``escape`` the single best candidate regardless of sign rides
        along as the escape offer: the hill-climbing move the tournament
        falls back to when no positive move was accepted anywhere.  That
        fallback only ever runs on the state this scoring saw, so offering
        it up front costs no second scoring and no second exchange."""
        i, p = self.part, self.p
        mine = np.flatnonzero(self.bnd & ~locked)  # a root moves once a pass
        if mine.size == 0:
            return None
        conn = self.conn[self.slot[mine]]
        vw = self.view.vwts[mine]
        hm = home[mine]
        moved_now = (i != hm).astype(np.float64)
        moved_if = (np.arange(p)[None, :] != hm[:, None]).astype(np.float64)
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
        best = np.argmax(gain, axis=1)
        bg = gain[np.arange(mine.size), best]
        rows = np.flatnonzero(bg > 0.0)
        n_reg, esc = rows.size, -1
        if escape:
            top = int(np.argmax(bg))
            if np.isfinite(bg[top]):
                if n_reg:  # the maximum is positive: one of the rows
                    esc = int(np.searchsorted(rows, top))
                else:
                    rows = np.array([top], dtype=np.int64)
                    esc = 0
        if rows.size == 0:
            return None
        static = (
            conn[rows, best[rows]]
            - conn[rows, i]
            - cfg.alpha * vw[rows]
            * (moved_if[rows, best[rows]] - moved_now[rows])
        )
        return self._pack(
            mine[rows], best[rows], bg[rows], static, vw[rows], n_reg, esc
        )

    def propose_rebalance(
        self, assign, home, loads, live, cfg: DKLConfig, locked, maxcap
    ):
        """Donations from an overweight part: candidates ordered by least
        cut damage toward the lightest underweight live parts (teleports
        allowed, so every member is a candidate), cumulative weight just
        covering the excess, at most ``rebalance_cap``."""
        i = self.part
        if loads[i] <= maxcap:
            return None
        mine = np.flatnonzero(assign == i)
        if mine.size == 0:
            return None
        # any strictly lighter live part may receive: weight *diffuses*
        # along part boundaries toward the light end over successive rounds
        # instead of teleporting straight to the global minimum and leaving
        # islands
        under = [r for r in live if r != i and loads[r] < loads[i]]
        if not under:
            return None
        under = np.asarray(under, dtype=np.int64)
        # lightest-first, id-stable: argmax below prefers the
        # max-connectivity target, and on all-zero rows (no lighter
        # neighbor — the teleport fallback) the lightest lighter part
        under = under[np.lexsort((under, loads[under]))]
        conn = self.conn[self.slot[mine]]
        vw = self.view.vwts[mine]
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
        return self._pack(
            mine[cand], j[cand], static[cand], static[cand], vw[cand],
            cand.size, -1,
        )


def pack_proposal_frame(prop):
    """Pack one part's proposal into a struct-of-arrays frame
    ``(head, ints, floats)`` for the wire: the codec serializes three
    contiguous buffers instead of a dict of objects, and the integer
    payload rides as int32 whenever every id fits (the common case — root
    ids are bounded by the mesh size), which halves the index half of the
    frame.  ``None`` (no proposal) packs to empty arrays.

    Layout: ``head = [part, n_reg, m, int_width, esc]`` (int64;
    ``int_width`` is 4 or 8).  The frame carries ``n = max(n_reg, esc + 1)``
    rows: the ``n_reg`` regular ones, or — when there is none but an escape
    offer exists — that offer alone; ``esc`` is the escape offer's row
    (-1: none attached), so a round's regular and escape proposals share
    one head and, when the offer is one of the regular rows, its row.
    ``ints = v ++ dst ++ e_off(n+1) ++ adj`` at the declared width,
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
    head = np.array(
        [prop["part"], prop["n_reg"], adj.size, width, prop["esc"]],
        dtype=np.int64,
    )
    floats = np.concatenate(
        [np.asarray(prop["prio"], dtype=np.float64),
         np.asarray(prop["static"], dtype=np.float64),
         np.asarray(prop["vw"], dtype=np.float64),
         np.asarray(prop["adj_w"], dtype=np.float64)]
    )
    return head, ints, floats


def unpack_proposal_frame(frame):
    """Inverse of :func:`pack_proposal_frame` — bit-identical round trip
    (the int32 downcast is applied only when lossless, float64 payloads
    travel verbatim).  Empty frame -> ``None``."""
    head, ints, floats = frame
    head = np.asarray(head, dtype=np.int64)
    floats = np.asarray(floats, dtype=np.float64)
    if head.size == 0:
        return None
    part, n_reg, m, esc = int(head[0]), int(head[1]), int(head[2]), int(head[4])
    n = max(n_reg, esc + 1)
    ints = np.asarray(ints).astype(np.int64)
    o = 0
    v = ints[o : o + n]
    o += n
    dst = ints[o : o + n]
    o += n
    e_off = ints[o : o + n + 1]
    o += n + 1
    adj = ints[o : o + m]
    return {
        "part": part,
        "v": v,
        "dst": dst,
        "prio": floats[:n],
        "static": floats[n : 2 * n],
        "vw": floats[2 * n : 3 * n],
        "e_off": e_off,
        "adj": adj,
        "adj_w": floats[3 * n :],
        "n_reg": n_reg,
        "esc": esc,
    }


# ---------------------------------------------------------------------- #
# resolve
# ---------------------------------------------------------------------- #


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
    The candidates are each proposal's regular rows; with ``escape`` they
    are the escape offers instead, and exactly one admissible candidate is
    accepted regardless of the sign of its gain — the hill-climbing step;
    the pass-end rollback guarantees a bad escape can never survive into
    the result.

    Candidates are visited in ``(-prio, seeded part rotation, vertex id)``
    order.  A vertex moves at most once per round (``locked``), but its
    neighbors are *not* locked: when an earlier acceptance touched the
    neighborhood, the candidate's gain is recomputed exactly from the edge
    list its proposal carries — so a coherent front can cascade through a
    single round with no stale-gain accounting, instead of advancing one
    independent set per round."""
    picks = []  # (proposal, its candidate rows, their span of adj)
    for q in props:
        if q is None:
            continue
        lo, hi = (q["esc"], q["esc"] + 1) if escape else (0, q["n_reg"])
        if lo >= 0 and hi > lo:
            e_off = q["e_off"]
            picks.append((q, slice(lo, hi), slice(e_off[lo], e_off[hi])))
    if not picks:
        return []
    p = loads.size
    v = np.concatenate([q["v"][rows] for q, rows, _ in picks])
    dst = np.concatenate([q["dst"][rows] for q, rows, _ in picks])
    prio = np.concatenate([q["prio"][rows] for q, rows, _ in picks])
    static = np.concatenate([q["static"][rows] for q, rows, _ in picks])
    vw = np.concatenate([q["vw"][rows] for q, rows, _ in picks])
    part = np.concatenate(
        [np.full(rows.stop - rows.start, q["part"], dtype=np.int64)
         for q, rows, _ in picks]
    )
    adj = np.concatenate([q["adj"][edges] for q, _, edges in picks])
    adj_w = np.concatenate([q["adj_w"][edges] for q, _, edges in picks])
    widths = np.concatenate(
        [np.diff(q["e_off"][rows.start : rows.stop + 1]) for q, rows, _ in picks]
    )
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
        load_i, load_j = float(loads[i]), float(loads[j])
        after = load_j + w
        bal = (
            _phi_scalar(load_i, maxcap, floor)
            + _phi_scalar(load_j, maxcap, floor)
            - _phi_scalar(load_i - w, maxcap, floor)
            - _phi_scalar(after, maxcap, floor)
        )
        g = st + cfg.beta * bal
        if rebalance:
            if load_i <= maxcap:
                continue  # donor already back inside the envelope
            if after > maxcap and after > load_i - w:
                continue  # would just relocate the peak
        else:
            if after > maxcap and after > load_i:
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


# ---------------------------------------------------------------------- #
# the round loop (shared by the serial and SPMD drivers)
# ---------------------------------------------------------------------- #


def _refine_loop(views, assign, loads, live, cfg, wmax, exchange, trace=None):
    """The one engine: refine ``assign`` in place from the parts in ``views``
    (all of them in the serial driver, this rank's in the SPMD one);
    ``exchange`` is the only thing the drivers inject.  Migration is charged
    against the entry assignment."""
    n_roots, p, my_parts = assign.size, loads.size, list(views)
    home = assign.copy()
    live = sorted(int(r) for r in live)
    mean = float(loads[live].sum()) / len(live) if live else 0.0
    # vertex-granularity balance band, same rule as the KL engine: the
    # envelope can never be tighter than half the heaviest root
    band = max(cfg.balance_tol * mean, 0.5 * float(wmax))
    maxcap = mean + band
    floor = mean - band
    counts = np.bincount(assign, minlength=p).astype(np.int64)
    locked = np.zeros(n_roots, dtype=bool)
    with PERF.span("dkl.propose"):
        states = {part: _PartState(views[part], assign, p) for part in my_parts}
    grnd = 0

    def patch(recs):
        with PERF.span("dkl.propose"):
            for state in states.values():
                state.patch(recs, assign)

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
            # ``escapes`` is replicated state, so every part attaches its
            # escape offer — or none does
            offer = escapes < cfg.escape_cap
            with PERF.span("dkl.propose"):
                local = {
                    part: states[part].propose(
                        assign, home, loads, live, cfg, maxcap, floor,
                        locked, offer,
                    )
                    for part in my_parts
                }
            props = exchange(local, grnd)
            with PERF.span("dkl.resolve"):
                moved = _resolve(
                    props, assign, loads, counts, locked, maxcap, floor,
                    home, cfg, grnd, rebalance=False,
                )
                esc = []
                if not moved and offer:
                    escapes += 1
                    # no positive move anywhere: each part's single
                    # least-damaging move is already in the frames held
                    # — accept the best one, KL's hill-climb across
                    # objective ridges, batch edition
                    esc = _resolve(
                        props, assign, loads, counts, locked, maxcap, floor,
                        home, cfg, grnd, rebalance=False, escape=True,
                    )
            patch(moved or esc)

            rb = []
            if np.any(loads[live] > maxcap):
                with PERF.span("dkl.rebalance"):
                    local = {
                        part: states[part].propose_rebalance(
                            assign, home, loads, live, cfg, locked, maxcap
                        )
                        for part in my_parts
                    }
                props = exchange(local, grnd)
                with PERF.span("dkl.rebalance"):
                    rb = _resolve(
                        props, assign, loads, counts, locked, maxcap, floor,
                        home, cfg, grnd, rebalance=True,
                    )
                patch(rb)

            # accepted gains are exact objective deltas: track the best
            # prefix at single-move granularity, in application order
            for m in moved + esc + rb:
                cum += m["gain"]
                log.append(m)
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
        # on every rank); the records keep each mover's neighbor list, so
        # the states redo exactly the rows the rollback touches
        undone = log[best_len:][::-1]
        for m in undone:
            assign[m["v"]] = m["src"]
            loads[m["dst"]] -= m["vw"]
            loads[m["src"]] += m["vw"]
            counts[m["dst"]] -= 1
            counts[m["src"]] += 1
        patch(undone)
        if trace is not None and undone:
            trace.append(
                {
                    "pass": pss,
                    "rollback": [{"v": m["v"], "to": m["src"]} for m in undone],
                }
            )
        if best_cum <= cfg.min_gain:
            break

    # the views learn the adopted edges once and drop what left: the exact
    # incident set of the final assignment again
    for state in states.values():
        state.flush(assign)
    for view in views.values():
        view.prune(assign)
    return assign


# ---------------------------------------------------------------------- #
# the two drivers and the exchange each injects (rank loop vs allgather)
# ---------------------------------------------------------------------- #


def _serial_exchange(live):
    """Exchange for the serial driver: all parts live in this process, so
    the allgather is a list comprehension in live-rank order — the same
    order :meth:`SimComm.allgather` assembles its blocks in."""

    def exchange(local, rnd):
        return [local[part] for part in live]

    return exchange


def _comm_exchange(comm, live):
    """Exchange for the SPMD driver: pack this rank's proposal into the
    struct-of-arrays frame, allgather on :data:`PROPOSAL_TAG`, and account
    the posted bytes against the round (``dkl.proposals`` in
    :class:`~repro.runtime.stats.TrafficStats`)."""

    def exchange(local, rnd):
        with PERF.span("dkl.exchange"):
            req = comm.iallgather(
                pack_proposal_frame(local[comm.rank]),
                tag=PROPOSAL_TAG,
                ranks=live,
            )
            comm.stats.record_round("dkl.proposals", rnd, req.sent_bytes)
            frames = req.wait()
        return [unpack_proposal_frame(f) for f in frames]

    return exchange


def dkl_refine_serial(
    graph, p, current, cfg: DKLConfig = None, live=None, return_trace=False
):
    """Single-thread reference engine: every part's propose step runs in a
    rank loop instead of over messages, through the exact code the SPMD
    path runs — the two are bit-identical by construction (and by test).

    Returns the refined assignment, or ``(assignment, trace)`` with
    ``return_trace=True`` where ``trace[k]`` records round ``k``'s accepted
    moves and rebalance donations (the property-test surface).
    """
    cfg = cfg if cfg is not None else DKLConfig()
    assign = np.asarray(current, dtype=np.int64).copy()
    live = sorted(int(r) for r in (live if live is not None else range(p)))
    views = {part: PartView.from_graph(graph, part, assign) for part in live}
    loads = np.bincount(assign, weights=graph.vwts, minlength=p).astype(np.float64)
    wmax = float(graph.vwts.max()) if graph.n_vertices else 0.0
    trace = [] if return_trace else None
    _refine_loop(
        views, assign, loads, live, cfg, wmax, _serial_exchange(live), trace
    )
    return (assign, trace) if return_trace else assign


def dkl_refine_comm(comm, view: PartView, owner, loads, wmax, live, cfg):
    """SPMD distributed refinement: this rank proposes for its own part,
    proposals travel by allgather over the ``live`` ranks (tag
    :data:`PROPOSAL_TAG` — the only frames a call puts on the wire), and
    every rank replays the same resolve — the returned assignment is
    replica-identical without coordinator involvement.  Deterministic end
    to end: every collective input is replicated.

    ``view`` is this rank's halo view (from
    :meth:`~repro.pared.distmesh.DistributedMesh.exchange_halo_weights`);
    it is updated in place as roots change hands and pruned to the final
    assignment on return, ready for the honesty audit.  ``loads``/``wmax``
    come from the imbalance check's allgather.
    """
    assign = np.asarray(owner, dtype=np.int64).copy()
    loads = np.asarray(loads, dtype=np.float64).copy()
    return _refine_loop(
        {comm.rank: view}, assign, loads, live, cfg, wmax,
        _comm_exchange(comm, live),
    )
