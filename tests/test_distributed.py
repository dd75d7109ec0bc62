"""Property suite for the tournament refinement pass
(:mod:`repro.partition.distributed`, the ``dkl`` strategy).

The tournament's contract, stated as executable properties:

* **determinism** — same graph, start, and config give the same result on
  every run, for every seed;
* **single move per pass** — a vertex appears at most once in any
  pass's accepted set (refine + escape + rebalance combined);
* **gain honesty** — every accepted move's recorded gain (strictly
  positive for refine moves, any sign for escape and rebalance) equals
  the *true* Equation-1 objective delta, replayed move by move including
  the pass-end rollbacks (the recompute-at-accept rule makes stale-gain
  bookkeeping an error, not a tolerance);
* **priority monotonicity** — accepted refine moves come out in
  non-increasing proposal-priority order, because the tournament visits
  candidates sorted by priority;
* **validity** — the result is a valid assignment that never empties a
  live part and lands inside (or at least never worsens) the balance
  envelope.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import WeightedGraph
from repro.partition import validate_assignment
from repro.partition.distributed import (
    DKLConfig,
    PartView,
    _phi,
    dkl_refine_serial,
)
from repro.partition.metrics import graph_cut
from repro.partition.multilevel import multilevel_partition


def grid(n, vweights=None):
    edges = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            if i + 1 < n:
                edges.append((v, v + n))
            if j + 1 < n:
                edges.append((v, v + 1))
    return WeightedGraph.from_edges(n * n, edges, vweights=vweights)


def skewed_grid(n, seed, hot=4.0):
    """Grid with a randomly placed heavy box — the shape of a mesh after
    localized refinement, which is what triggers repartitioning."""
    rng = np.random.default_rng(seed)
    vw = np.ones(n * n)
    ci, cj = rng.integers(0, n, size=2)
    ij = np.indices((n, n)).reshape(2, -1).T
    box = (np.abs(ij[:, 0] - ci) <= n // 4) & (np.abs(ij[:, 1] - cj) <= n // 4)
    vw[box] = hot
    return grid(n, vweights=vw)


def start(graph, p, seed=0):
    return multilevel_partition(graph, p, seed=seed)


def objective(graph, assign, home, p, cfg, maxcap, floor):
    """The Equation-1 objective the tournament optimizes: cut + a*migration
    + b*deadband balance potential."""
    loads = np.bincount(assign, weights=graph.vwts, minlength=p)
    mig = float(graph.vwts[assign != home].sum())
    bal = float(sum(_phi(loads[i], maxcap, floor) for i in range(p)))
    return graph_cut(graph, assign) + cfg.alpha * mig + cfg.beta * bal


def envelope(graph, p, cfg):
    mean = float(graph.vwts.sum()) / p
    band = max(cfg.balance_tol * mean, 0.5 * float(graph.vwts.max()))
    return mean + band, mean - band


# --------------------------------------------------------------------- #
# the tie-break tournament: Hypothesis properties
# --------------------------------------------------------------------- #


class TestTournamentProperties:
    @given(seed=st.integers(0, 1000), p=st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_across_runs(self, seed, p):
        g = skewed_grid(8, seed=seed % 7)
        a0 = start(g, p)
        cfg = DKLConfig(seed=seed)
        r1 = dkl_refine_serial(g, p, a0, cfg)
        r2 = dkl_refine_serial(g, p, a0, cfg)
        assert np.array_equal(r1, r2)
        validate_assignment(g, r1, p)
        assert set(np.unique(r1)) == set(range(p))

    @given(seed=st.integers(0, 500), p=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_no_vertex_moves_twice_in_one_pass(self, seed, p):
        g = skewed_grid(8, seed=seed % 5)
        cfg = DKLConfig(seed=seed)
        _, trace = dkl_refine_serial(g, p, start(g, p), cfg, return_trace=True)
        per_pass: dict = {}
        for rec in trace:
            if "rollback" in rec:
                continue
            moved = per_pass.setdefault(rec["pass"], [])
            moved += [
                m["v"]
                for m in rec["moves"] + rec["escape"] + rec["rebalance"]
            ]
        for pss, moved in per_pass.items():
            assert len(moved) == len(set(moved)), (
                f"pass {pss} moved a vertex twice: {moved}"
            )

    @given(seed=st.integers(0, 500), p=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_accepted_gains_are_honest(self, seed, p):
        """Replaying the accepted moves one by one (including the pass-end
        rollbacks), each recorded gain equals the true objective
        improvement exactly — the recompute-at-accept rule leaves no room
        for stale accounting.  Refine gains must be strictly positive;
        escape and rebalance gains may have any sign but must still be
        honest."""
        g = skewed_grid(8, seed=seed % 5)
        a0 = start(g, p)
        cfg = DKLConfig(seed=seed)
        final, trace = dkl_refine_serial(g, p, a0, cfg, return_trace=True)
        maxcap, floor = envelope(g, p, cfg)
        assign = a0.copy()
        for rec in trace:
            if "rollback" in rec:
                for u in rec["rollback"]:
                    assign[u["v"]] = u["to"]
                continue
            for kind in ("moves", "escape", "rebalance"):
                for m in rec[kind]:
                    before = objective(g, assign, a0, p, cfg, maxcap, floor)
                    assert assign[m["v"]] == m["src"]
                    assign[m["v"]] = m["dst"]
                    after = objective(g, assign, a0, p, cfg, maxcap, floor)
                    if kind == "moves":
                        assert m["gain"] > 0.0
                    assert before - after == pytest.approx(
                        m["gain"], abs=1e-9
                    )
        assert np.array_equal(assign, final)

    @given(seed=st.integers(0, 500), p=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_accepted_priority_is_monotone_per_round(self, seed, p):
        """The tournament visits candidates in descending proposal
        priority, so the accepted refine set of any round comes out in
        non-increasing prio order."""
        g = skewed_grid(8, seed=seed % 5)
        cfg = DKLConfig(seed=seed)
        _, trace = dkl_refine_serial(g, p, start(g, p), cfg, return_trace=True)
        for rec in trace:
            if "rollback" in rec:
                continue
            prios = [m["prio"] for m in rec["moves"]]
            assert all(a >= b - 1e-12 for a, b in zip(prios, prios[1:]))

    @given(seed=st.integers(0, 500), p=st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_never_empties_a_live_part_and_respects_envelope(self, seed, p):
        g = skewed_grid(8, seed=seed % 5)
        cfg = DKLConfig(seed=seed)
        a0 = start(g, p)
        a1 = dkl_refine_serial(g, p, a0, cfg)
        assert set(np.unique(a1)) == set(range(p))
        maxcap, _ = envelope(g, p, cfg)
        loads0 = np.bincount(a0, weights=g.vwts, minlength=p)
        loads1 = np.bincount(a1, weights=g.vwts, minlength=p)
        # inside the envelope, or at least no worse than the start
        assert loads1.max() <= max(maxcap, loads0.max()) + 1e-9

    def test_seed_changes_tie_break_not_validity(self):
        g = skewed_grid(8, seed=1)
        p = 4
        a0 = start(g, p)
        outs = []
        for seed in range(4):
            a = dkl_refine_serial(g, p, a0, DKLConfig(seed=seed))
            validate_assignment(g, a, p)
            outs.append(a)
        # the seed rotates the tie-break; results may legitimately differ,
        # but each seed is individually reproducible
        for seed in range(4):
            again = dkl_refine_serial(g, p, a0, DKLConfig(seed=seed))
            assert np.array_equal(outs[seed], again)


# --------------------------------------------------------------------- #
# the part view
# --------------------------------------------------------------------- #


class TestPartView:
    def test_prune_keeps_exact_incident_set(self):
        g = skewed_grid(6, seed=0)
        p = 3
        owner = start(g, p)
        view = PartView.from_graph(g, 0, owner)
        # hand one boundary root to part 1 and prune
        assign = owner.copy()
        mine = np.flatnonzero(assign == 0)
        assign[mine[0]] = 1
        view.prune(assign)
        fresh = PartView.from_graph(g, 0, assign)
        assert np.array_equal(view.e_keys, fresh.e_keys)
        assert np.array_equal(view.vwts, fresh.vwts)

    def test_refine_updates_views_to_final_assignment(self):
        """After a serial refine, every part's view (pruned inside the
        loop) matches a fresh view of the final assignment."""
        g = skewed_grid(8, seed=3)
        p = 4
        a0 = start(g, p)
        cfg = DKLConfig()
        views = {r: PartView.from_graph(g, r, a0) for r in range(p)}
        # drive the shared loop exactly as dkl_refine_serial does, but
        # keep the views for inspection
        from repro.partition.distributed import _refine_loop, _serial_exchange

        assign = a0.copy()
        loads = np.bincount(assign, weights=g.vwts, minlength=p).astype(float)
        _refine_loop(
            views, assign, loads, list(range(p)), cfg, float(g.vwts.max()),
            _serial_exchange(list(range(p))),
        )
        for r in range(p):
            fresh = PartView.from_graph(g, r, assign)
            assert np.array_equal(views[r].e_keys, fresh.e_keys)
            assert np.array_equal(views[r].e_wts, fresh.e_wts)
            assert np.array_equal(views[r].vwts, fresh.vwts)
