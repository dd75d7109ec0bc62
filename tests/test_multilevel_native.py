"""Compiled ≡ oracle, array for array, for the whole multilevel V-cycle.

``_klcore.c`` compiles heavy-edge matching, contraction and the KL
refinement, and is the package's only implementation of them; each kernel
is held to its numpy/Python oracle in ``tests/_kl_oracle.py`` *bit for
bit* — including on non-integer weights, where only the order of float
additions separates them:

* ``hem_match``: one greedy scan in descending rank ≡ mutual-proposal rounds;
* ``contract``: cmap, coarse vertex weights and the merged CSR, parallel
  edges summed in ``np.add.reduceat``'s order;
* ``kl_refine``: prelude, hill-climb, best-state tracking and the
  monotone-or-rollback guard, reductions in numpy's pairwise order;
* ``grow``: greedy graph growing, with the port of numpy's
  ``Generator.integers`` behind its start vertices;
* the fused V-cycle (``coarsen`` + ``refine``, the routes of
  ``multilevel_partition`` / ``multilevel_repartition``) ≡ the oracle's
  ``build_hierarchy`` + ``v_cycle``, with the port of numpy's PCG64
  permutation behind the matchings' tie order, partitions and ``PERF``
  counters alike;
* end to end through ``multilevel_partition`` / ``multilevel_repartition``
  and a PARED run;
* a failed scratch allocation raises ``MemoryError`` and touches no input.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PNR
from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction
from repro.graph.contract import contract
from repro.graph.csr import WeightedGraph
from repro.graph.generators import grid_graph, star_graph
from repro.graph.matching import heavy_edge_matching
from repro.mesh import AdaptiveMesh, coarse_dual_graph
from repro.pared import ParedConfig, run_pared
from repro.partition import _klnative, multilevel, registry
from repro.partition.greedy import greedy_graph_growing
from repro.partition.kl import IN_BAND_TAIL, KLConfig, kl_refine
from repro.partition.multilevel import (
    MAX_LEVELS,
    MIN_SHRINK,
    coarsen_target,
    multilevel_partition,
    multilevel_repartition,
)
from repro.perf import PERF

from tests import _kl_oracle as oracle
from tests.conftest import kl_counted, kl_starts, kl_tail_arms

#: every public entry point of the core, and its oracle
ORACLE = {
    heavy_edge_matching: oracle.heavy_edge_matching,
    contract: oracle.contract,
    kl_refine: oracle.kl_refine,
    multilevel_partition: oracle.multilevel_partition,
    multilevel_repartition: oracle.multilevel_repartition,
}


def _rand_graph(n, avg_deg, rng, float_weights=True):
    edges = rng.integers(0, n, size=(max(1, n * avg_deg // 2), 2))
    m = len(edges)
    if float_weights:
        ewts, vwts = rng.uniform(0.5, 3.0, m), rng.uniform(0.5, 4.0, n)
    else:
        ewts, vwts = rng.integers(1, 4, m), rng.integers(1, 6, n)
    return WeightedGraph.from_edges(n, edges, ewts, vwts)


def _both(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` compiled, and on its oracle."""
    return fn(*args, **kwargs), ORACLE[fn](*args, **kwargs)


def _same_graph(a: WeightedGraph, b: WeightedGraph) -> None:
    for name in ("xadj", "adjncy", "ewts", "vwts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


# --------------------------------------------------------------------- #
# hem_match
# --------------------------------------------------------------------- #


class TestMatching:
    @pytest.mark.parametrize("fn", [heavy_edge_matching])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_random_graphs(self, fn, constrained):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(2, 250))
            g = _rand_graph(n, int(rng.integers(1, 8)), rng, trial % 2 == 0)
            constraint = rng.integers(0, 4, n) if constrained else None
            native, pure = _both(fn, g, seed=trial, constraint=constraint)
            assert native.dtype == pure.dtype
            assert np.array_equal(native, pure), f"trial {trial}"

    def test_empty_edge_set_and_isolated_vertices(self):
        lonely = WeightedGraph.from_edges(5, np.empty((0, 2), dtype=np.int64))
        native, pure = _both(heavy_edge_matching, lonely, seed=0)
        assert np.array_equal(native, np.arange(5))
        assert np.array_equal(pure, np.arange(5))
        # one edge among isolated vertices; a constraint that forbids it
        g = WeightedGraph.from_edges(6, np.array([[1, 4]]))
        native, pure = _both(heavy_edge_matching, g, seed=0)
        assert np.array_equal(native, [0, 4, 2, 3, 1, 5])
        assert np.array_equal(native, pure)
        labels = np.array([0, 0, 0, 0, 1, 1])
        native, pure = _both(heavy_edge_matching, g, seed=0, constraint=labels)
        assert np.array_equal(native, np.arange(6))
        assert np.array_equal(pure, np.arange(6))

    def test_all_equal_weights_only_the_seed_orders_edges(self):
        g = grid_graph(9)
        seen = set()
        for seed in range(6):
            native, pure = _both(heavy_edge_matching, g, seed=seed)
            assert np.array_equal(native, pure)
            seen.add(native.tobytes())
        assert len(seen) > 1, "the seeded tie-break must matter on unit weights"

    def test_star_matches_exactly_one_leaf(self):
        g = star_graph(30)
        native, pure = _both(heavy_edge_matching, g, seed=3)
        assert np.array_equal(native, pure)
        assert np.count_nonzero(native != np.arange(g.n_vertices)) == 2


def _greedy_scan(n, es, ed, rank):
    """Pure-Python statement of the scan: best-ranked edge first, match an
    edge iff both endpoints are still free."""
    match = np.full(n, -1, dtype=np.int64)
    for e in np.argsort(rank)[::-1]:
        a, b = int(es[e]), int(ed[e])
        if match[a] < 0 and match[b] < 0:
            match[a], match[b] = b, a
    free = match < 0
    match[free] = np.nonzero(free)[0]
    return match


@given(
    n=st.integers(1, 40),
    m=st.integers(0, 160),
    seed=st.integers(0, 10_000),
    nlabels=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_greedy_scan_equals_match_rounds(n, m, seed, nlabels):
    """The argument the compiled matching rests on: with unique ranks the
    greedy descending-rank scan and the mutual-proposal rounds build the
    same matching (multigraphs and constraint-filtered edge sets too)."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    labels = rng.integers(0, nlabels, n)
    keep = (edges[:, 0] != edges[:, 1]) & (labels[edges[:, 0]] == labels[edges[:, 1]])
    es, ed = edges[keep, 0], edges[keep, 1]
    rank = rng.permutation(es.size).astype(np.int64)
    expect = _greedy_scan(n, es, ed, rank)
    assert np.array_equal(oracle._match_rounds(n, es, ed, rank), expect)
    assert np.array_equal(_klnative.hem_match(n, es, ed, np.argsort(rank)), expect)


# --------------------------------------------------------------------- #
# contract
# --------------------------------------------------------------------- #


class TestContract:
    @pytest.mark.parametrize("float_weights", [False, True])
    def test_random_graphs(self, float_weights):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(2, 300))
            g = _rand_graph(n, int(rng.integers(1, 9)), rng, float_weights)
            constraint = rng.integers(0, 3, n) if trial % 3 == 0 else None
            match = heavy_edge_matching(g, seed=trial, constraint=constraint)
            (cn, mn), (cp, mp) = _both(contract, g, match)
            assert np.array_equal(mn, mp), f"trial {trial}: cmap"
            _same_graph(cn, cp)

    def test_identity_and_perfect_matchings(self):
        g = _rand_graph(40, 5, np.random.default_rng(2))
        for match in (np.arange(40), np.arange(40) ^ 1):
            (cn, mn), (cp, mp) = _both(contract, g, match)
            assert np.array_equal(mn, mp)
            _same_graph(cn, cp)

    def test_edgeless_graph(self):
        g = WeightedGraph.from_edges(4, np.empty((0, 2), dtype=np.int64))
        (cn, mn), (cp, mp) = _both(contract, g, np.array([1, 0, 2, 3]))
        assert np.array_equal(mn, mp)
        _same_graph(cn, cp)

    @pytest.mark.parametrize("copies", [3, 9, 20, 140, 300])
    def test_parallel_edges_sum_in_reduceat_order(self, copies):
        """A multigraph handed to the constructor directly: ``copies``
        parallel float-weight entries between two coarse vertices, enough
        to take numpy's pairwise summation through every one of its block
        shapes (< 8, ≤ 128, recursive)."""
        rng = np.random.default_rng(copies)
        # vertices 0-1 and 2-3 are matched; 0..1 × 2..3 carry the copies
        src = rng.integers(0, 2, copies)
        dst = rng.integers(2, 4, copies)
        w = rng.uniform(0.1, 3.0, copies)
        rows = np.concatenate([src, dst])
        cols = np.concatenate([dst, src])
        wts = np.concatenate([w, w])
        order = np.lexsort((rng.permutation(rows.size), rows))  # rows grouped, cols shuffled
        rows, cols, wts = rows[order], cols[order], wts[order]
        xadj = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=4))])
        g = WeightedGraph(xadj, cols, wts, rng.uniform(0.5, 2.0, 4))
        match = np.array([1, 0, 3, 2])
        (cn, mn), (cp, mp) = _both(contract, g, match)
        assert np.array_equal(mn, mp)
        _same_graph(cn, cp)
        assert cn.n_vertices == 2 and cn.n_edges == 1

    def test_non_involution_raises(self):
        g = _rand_graph(12, 4, np.random.default_rng(0))
        bad = np.arange(12)
        bad[0] = 5  # 5 does not point back
        with pytest.raises(ValueError, match="contract"):
            contract(g, bad)

    def test_hierarchy_identical_level_by_level(self, monkeypatch):
        """The oracle's per-level hierarchy, built once with the compiled
        matching and contraction and once with its own."""
        rng = np.random.default_rng(4)
        g = _rand_graph(600, 6, rng)
        constraint = rng.integers(0, 4, 600)
        for c in (None, constraint):
            gp, mp, hp = oracle.build_hierarchy(g, coarsen_to=20, seed=1, home=c)
            with monkeypatch.context() as m:
                m.setattr(oracle, "heavy_edge_matching", heavy_edge_matching)
                m.setattr(oracle, "contract", contract)
                gn, mn, hn = oracle.build_hierarchy(g, coarsen_to=20, seed=1, home=c)
            assert len(hn) == len(gn)
            for a, b in zip(hn, hp):
                assert (a is None and b is None) or np.array_equal(a, b)
            assert len(gn) == len(gp) > 2
            for a, b in zip(gn, gp):
                _same_graph(a, b)
            for a, b in zip(mn, mp):
                assert np.array_equal(a, b)


# --------------------------------------------------------------------- #
# kl_refine
# --------------------------------------------------------------------- #


def _kl_both(graph, asg, p, home, cfg):
    return _both(kl_refine, graph, asg, p, home=home, config=cfg)


class TestKLRefine:
    @pytest.mark.parametrize("p", [1, 2, 16])
    @pytest.mark.parametrize("with_home", [False, True])
    @pytest.mark.parametrize("mode", ["quadratic", "deadband"])
    def test_matrix(self, p, with_home, mode):
        """Balanced and unbalanced starts: at p ≥ 2 both tail bounds decide
        some calls (at p = 1 no move exists); native ≡ pure array for array
        and counter for counter."""
        rng = np.random.default_rng(1000 * p + 10 * with_home + (mode == "deadband"))
        fired = {"band": 0, "stall": 0}
        moves = 0
        for trial in range(25):
            n = int(rng.integers(20, 300))
            graph = _rand_graph(n, 6, rng, float_weights=trial % 3 != 0)
            asg = kl_starts(graph, p, rng)["balanced" if trial % 2 else "unbalanced"]
            home = rng.integers(0, p, n) if with_home else None
            cfg = KLConfig(
                alpha=float(rng.choice([0.0, 0.5, 2.0])),
                beta=float(rng.choice([0.0, 0.1, 1.0])),
                balance_mode=mode,
                balance_tol=float(rng.choice([0.02, 0.05, 0.3])),
                window=int(rng.choice([1, 4, 16])),
                stall_limit=int(rng.choice([0, 16, 64, 256])),
                max_passes=int(rng.choice([1, 3, 10])),
            )

            def run(c, refine=kl_refine):
                return refine(graph, asg, p, home=home, config=c)

            native, counts_native = kl_counted(lambda: run(cfg))
            pure, counts_pure = kl_counted(lambda: run(cfg, oracle.kl_refine))
            assert native.dtype == pure.dtype
            assert np.array_equal(native, pure), f"trial {trial}: {cfg}"
            assert counts_native == counts_pure, f"trial {trial}: {cfg}"
            moves += counts_native[1]
            for arm in kl_tail_arms(run, cfg):
                fired[arm] += 1
        if p == 1:
            assert moves == 0 and not any(fired.values())
        else:
            assert fired["band"] and fired["stall"], fired

    @pytest.mark.parametrize("mode", ["quadratic", "deadband"])
    def test_overweight_subset_seeds_interior_vertices(self, mode):
        # everything starts in subset 0: no boundary at all, so only the
        # overweight seeding (and the lightest-subset teleport) can move
        rng = np.random.default_rng(8)
        graph = _rand_graph(120, 6, rng)
        asg = np.zeros(120, dtype=np.int64)
        cfg = KLConfig(beta=1.0, balance_mode=mode, window=16)
        native, pure = _kl_both(graph, asg, 4, None, cfg)
        assert np.array_equal(native, pure)
        assert np.unique(native).size > 1, "rebalancing must have moved weight"

    def test_empty_part_is_reseeded_identically(self):
        rng = np.random.default_rng(9)
        graph = _rand_graph(150, 6, rng)
        asg = rng.integers(0, 3, 150)  # subset 3 of 4 is empty
        for beta in (0.0, 0.8):
            cfg = KLConfig(alpha=0.1, beta=beta, balance_mode="deadband", window=16)
            native, pure = _kl_both(graph, asg, 4, asg.copy(), cfg)
            assert np.array_equal(native, pure)

    def test_zero_passes_and_zero_window(self):
        rng = np.random.default_rng(10)
        graph = _rand_graph(60, 5, rng)
        asg = rng.integers(0, 3, 60)
        for cfg in (KLConfig(max_passes=0), KLConfig(window=0, beta=0.5)):
            native, pure = _kl_both(graph, asg, 3, None, cfg)
            assert np.array_equal(native, asg)
            assert np.array_equal(pure, asg)

    def test_large_row_sums_take_the_pairwise_branches(self):
        # p = 16 and p = 40 put the boundary test's row sum and the balance
        # term through numpy's 8-accumulator block; a long crossing-edge
        # list puts graph_cut through the recursive split
        rng = np.random.default_rng(12)
        for p in (16, 40):
            graph = _rand_graph(900, 8, rng)
            asg = rng.integers(0, p, 900)
            cfg = KLConfig(alpha=0.3, beta=0.7, window=8, max_passes=4)
            native, pure = _kl_both(graph, asg, p, asg.copy(), cfg)
            assert np.array_equal(native, pure)

    @pytest.mark.parametrize("mode", ["quadratic", "deadband"])
    def test_objective_reductions_follow_numpy_order(self, mode):
        """The guard compares objectives to 1e-9, so a reordered float sum
        almost never changes a decision — which is why the kernel's
        objective is checked here directly, bit for bit, against the
        oracle's ``_KLState.objective()`` on non-integer weights: the cut
        over 1 to ~4000 crossing edges, the migration term, and the
        balance term over p from 1 through numpy's unrolled and recursive
        blocks."""
        rng = np.random.default_rng(77)
        for p in (1, 2, 7, 8, 9, 16, 40, 130, 300):
            for n in (p, 3 * p + 5, 1200):
                graph = _rand_graph(n, 7, rng)
                asg = rng.integers(0, p, n)
                home = rng.integers(0, p, n)
                cfg = KLConfig(alpha=0.37, beta=0.81, balance_mode=mode, max_passes=0)
                state = oracle._KLState(graph, p, asg, home, cfg)
                out, stats = _klnative._kl_refine_stats(graph, asg, p, home, cfg, IN_BAND_TAIL)
                assert np.array_equal(out, asg)
                assert stats[2] == state.objective(), (p, n)

    @pytest.mark.parametrize("p", [16, 70])
    def test_equal_keys_and_revived_candidates(self, p):
        """What the 16-byte heap entries and the candidate table change,
        stressed: integer edge weights (many equal keys, ordered by the
        counter alone), heavy vertices under a tight band (deferred, then
        revived), at p = 16 and at p = 70."""
        rng = np.random.default_rng(p)
        oracle.EVENTS.clear()
        for trial in range(6):
            n = 600
            graph = _rand_graph(n, 6, rng, float_weights=False)
            heavy = rng.random(n) < 0.05
            graph = WeightedGraph(
                graph.xadj, graph.adjncy, graph.ewts,
                np.where(heavy, 25.0, graph.vwts),
            )
            asg = kl_starts(graph, p, rng)["balanced" if trial % 2 else "unbalanced"]
            home = asg.copy() if trial % 3 else None
            cfg = KLConfig(
                alpha=float(rng.choice([0.0, 0.5])),
                beta=float(rng.choice([0.5, 1.0])),
                balance_mode=("quadratic", "deadband")[trial % 2],
                balance_tol=0.02,
                window=int(rng.choice([4, 16])),
                max_passes=4,
            )

            def run(refine):
                return refine(graph, asg, p, home=home, config=cfg)

            native, counts_native = kl_counted(lambda: run(kl_refine))
            pure, counts_pure = kl_counted(lambda: run(oracle.kl_refine))
            assert np.array_equal(native, pure), f"trial {trial}: {cfg}"
            assert counts_native == counts_pure, f"trial {trial}: {cfg}"
        assert oracle.EVENTS["deferred"] and oracle.EVENTS["revived"], oracle.EVENTS

    def test_inputs_are_never_mutated(self):
        rng = np.random.default_rng(13)
        graph = _rand_graph(100, 6, rng)
        asg = rng.integers(0, 4, 100)
        home = rng.integers(0, 4, 100)
        keep = [a.copy() for a in (asg, home, graph.xadj, graph.adjncy, graph.ewts, graph.vwts)]
        kl_refine(graph, asg, 4, home=home, config=KLConfig(alpha=0.5, beta=0.5))
        for before, after in zip(
            keep, (asg, home, graph.xadj, graph.adjncy, graph.ewts, graph.vwts)
        ):
            assert np.array_equal(before, after)


# --------------------------------------------------------------------- #
# a failing allocation raises without touching caller state
# --------------------------------------------------------------------- #


class TestAllocationFailure:
    @staticmethod
    def _sweep(monkeypatch, name, run, check):
        """Make the k-th allocation inside the wrapper ``_klnative.<name>``
        fail, for every k until the kernel gets through: each time the
        public call ``run()`` must raise ``MemoryError`` and ``check(None)``
        must find the inputs untouched; then ``check`` must accept what the
        call returned.  Returns the number of failed calls."""
        lib = _klnative.load()
        real = getattr(_klnative, name)
        armed = [0]
        calls = [0]

        def spy(*args):
            calls[0] += 1
            lib.klcore_fail_after(armed[0])
            try:
                return real(*args)
            finally:
                lib.klcore_fail_after(-1)

        monkeypatch.setattr(_klnative, name, spy)
        for k in range(200):
            armed[0] = k
            before = calls[0]
            try:
                out = run()
            except MemoryError:
                assert calls[0] == before + 1, f"{name} was not called once"
                check(None)
                continue
            assert calls[0] == before + 1, f"{name} was not called once"
            check(out)
            return k
        pytest.fail("the kernel never got through")

    def test_kl_refine(self, monkeypatch):
        rng = np.random.default_rng(21)
        graph = _rand_graph(200, 6, rng)
        asg = rng.integers(0, 4, 200)
        asg0 = asg.copy()
        cfg = KLConfig(alpha=0.5, beta=0.8, balance_mode="deadband", window=16)
        expect = oracle.kl_refine(graph, asg, 4, home=asg, config=cfg)
        assert not np.array_equal(expect, asg), "the case must move something"

        def check(out):
            assert out is None or np.array_equal(out, expect)
            assert np.array_equal(asg, asg0), "caller's assignment touched"

        failures = self._sweep(
            monkeypatch, "kl_refine",
            lambda: kl_refine(graph, asg, 4, home=asg, config=cfg), check,
        )
        assert failures >= 7  # five workspace blocks, then the table and heap

    def test_kl_refine_table_growth(self, monkeypatch):
        """A call whose candidate table outgrows its first block and whose
        heap takes revived candidates: every one of those allocations
        failed in turn, too."""
        rng = np.random.default_rng(24)
        graph = _rand_graph(600, 6, rng, float_weights=False)
        graph = WeightedGraph(
            graph.xadj, graph.adjncy, graph.ewts,
            np.where(rng.random(600) < 0.05, 25.0, graph.vwts),
        )
        asg = kl_starts(graph, 16, rng)["unbalanced"]
        asg0 = asg.copy()
        cfg = KLConfig(alpha=0.5, beta=1.0, balance_tol=0.02, window=16, max_passes=2)
        oracle.EVENTS.clear()
        expect = oracle.kl_refine(graph, asg, 16, home=asg, config=cfg)
        assert oracle.EVENTS["revived"], "the case must revive candidates"

        def check(out):
            assert out is None or np.array_equal(out, expect)
            assert np.array_equal(asg, asg0), "caller's assignment touched"

        failures = self._sweep(
            monkeypatch, "kl_refine",
            lambda: kl_refine(graph, asg, 16, home=asg, config=cfg), check,
        )
        # five workspace blocks, the table, the heap, the deferral lists,
        # then growth
        assert failures >= 8

    def test_grow(self, monkeypatch):
        g = _rand_graph(300, 4, np.random.default_rng(25))
        targets = np.full(5, g.total_vweight / 6)
        expect = oracle.greedy_graph_growing(g, 5, seed=3, targets=targets)
        before = [a.copy() for a in (g.xadj, g.adjncy, g.ewts, g.vwts, targets)]

        def check(out):
            assert out is None or np.array_equal(out, expect)
            for a, b in zip(before, (g.xadj, g.adjncy, g.ewts, g.vwts, targets)):
                assert np.array_equal(a, b), "an input was touched"

        failures = self._sweep(
            monkeypatch, "grow",
            lambda: greedy_graph_growing(g, 5, seed=3, targets=targets), check,
        )
        assert failures == 3  # its three scratch blocks

    def test_contract(self, monkeypatch):
        g = _rand_graph(150, 6, np.random.default_rng(22))
        match = heavy_edge_matching(g, seed=0)
        coarse, cmap = oracle.contract(g, match)

        def check(out):
            if out is not None:
                assert np.array_equal(out[1], cmap)
                _same_graph(out[0], coarse)

        failures = self._sweep(monkeypatch, "contract", lambda: contract(g, match), check)
        assert failures == 2  # its two scratch blocks

    @pytest.mark.parametrize("name", ["coarsen", "refine"])
    @pytest.mark.parametrize("which", ["partition", "repartition"])
    def test_fused_entries(self, monkeypatch, name, which):
        """Every allocation of either fused entry, failed in turn: the
        public call raises ``MemoryError`` until it gets through, then
        returns the oracle's partition, and neither the graph nor
        ``current`` is ever touched."""
        rng = np.random.default_rng(23)
        g = _rand_graph(700, 6, rng)
        current = rng.integers(0, 4, 700)
        before = [a.copy() for a in (g.xadj, g.adjncy, g.ewts, g.vwts, current)]

        def run(fns=(multilevel_partition, multilevel_repartition)):
            if which == "partition":
                return fns[0](g, 4, seed=2)
            return fns[1](g, 4, current, PNR(seed=2))

        expect = run((oracle.multilevel_partition, oracle.multilevel_repartition))

        def check(out):
            assert out is None or np.array_equal(out, expect)
            for a, b in zip(before, (g.xadj, g.adjncy, g.ewts, g.vwts, current)):
                assert np.array_equal(a, b), "an input was touched"

        failures = self._sweep(monkeypatch, name, run, check)
        # coarsen: two scratch blocks, then contraction's two per level;
        # refine: the level offsets and five workspace blocks, then the
        # candidate table and the heap (and growing's three blocks)
        assert failures >= (6 if name == "coarsen" else 8)


# --------------------------------------------------------------------- #
# the fused V-cycle: coarsen + refine
# --------------------------------------------------------------------- #

#: the ``PERF`` names a V-cycle credits, compiled or on the oracle
_VCYCLE_COUNTERS = (
    "multilevel.coarsen", "multilevel.refine", "matching.hem", "contract",
    "kl.refine", "kl.pass", "kl.moves", "kl.kept",
)


def _counted(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the call counts it credited to
    ``_VCYCLE_COUNTERS``."""
    PERF.reset()
    out = fn(*args, **kwargs)
    snap = PERF.snapshot()
    return out, {name: snap.get(name, (0, 0.0))[0] for name in _VCYCLE_COUNTERS}


def _fused_equals_oracle(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` compiled and on its oracle agree array for
    array and counter for counter."""
    native, counts_native = _counted(fn, *args, **kwargs)
    pure, counts_pure = _counted(ORACLE[fn], *args, **kwargs)
    assert native.dtype == pure.dtype == np.int64
    assert np.array_equal(native, pure)
    assert counts_native == counts_pure
    return native, counts_native


@given(seed=st.integers(0, 2**40), m=st.integers(0, 10**5))
@settings(max_examples=60, deadline=None)
def test_permutation_port_equals_numpy(seed, m):
    """The tie order of every fused matching: the C draw is
    ``default_rng(seed).permutation(m)``, element for element."""
    expect = np.random.default_rng(seed).permutation(m)
    assert np.array_equal(_klnative.permutation(seed, m), expect)


@given(
    seed=st.integers(0, 2**40),
    highs=st.lists(st.integers(1, 2**32), max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_integers_port_equals_numpy(seed, highs):
    """The start vertices of greedy growing: the C draws are
    ``default_rng(seed).integers(h)`` for each ``h`` in turn, sharing the
    generator's buffered half-draw."""
    rng = np.random.default_rng(seed)
    expect = [int(rng.integers(h)) for h in highs]
    assert _klnative.integers(seed, highs).tolist() == expect


class TestGreedyGrowing:
    @staticmethod
    def _graph(rng, n, shape, weights):
        """A random graph on ``n`` vertices — ``"one"`` random edge set,
        or ``"pieces"``: two random halves and two isolated vertices —
        with ``weights`` ``"float"``, ``"zero"`` (half of them 0),
        ``"none"`` (all 0) or ``"heavy"`` (one in ten 40 times the rest)."""
        if shape == "pieces" and n >= 8:
            half = n // 2
            edges = np.concatenate([
                rng.integers(0, half, size=(2 * half, 2)),
                rng.integers(half, n - 2, size=(2 * (n - half), 2)),
            ])
        else:
            edges = rng.integers(0, n, size=(max(1, n * int(rng.integers(1, 5)) // 2), 2))
        ewts = rng.uniform(0.5, 3.0, len(edges)) if n % 2 else rng.integers(1, 4, len(edges))
        vwts = rng.uniform(0.5, 4.0, n)
        if weights == "zero":
            vwts[rng.random(n) < 0.5] = 0.0
        elif weights == "none":
            vwts[:] = 0.0
        elif weights == "heavy":
            vwts[rng.random(n) < 0.1] *= 40.0
        return WeightedGraph.from_edges(n, edges, ewts, vwts)

    def test_equals_oracle(self):
        """Connected and disconnected graphs, zero and heavy vertex
        weights, p > n, default and explicit targets (a zero one among
        them), several seeds: compiled growing ≡ the Python oracle."""
        rng = np.random.default_rng(17)
        for trial in range(80):
            if trial % 5 == 0:
                n, p = int(rng.integers(1, 8)), int(rng.choice([8, 16]))
            else:
                n, p = int(rng.integers(2, 250)), int(rng.choice([2, 3, 5, 16, 40]))
            g = self._graph(rng, n, ("one", "pieces")[trial % 2],
                            ("float", "zero", "none", "heavy")[trial // 2 % 4])
            targets = None
            if trial % 3 == 1:
                targets = rng.uniform(0.0, 2.0 * g.total_vweight / p, p)
                targets[int(rng.integers(p))] = 0.0
            for seed in (trial, 2**33 + 7 * trial):
                native = greedy_graph_growing(g, p, seed=seed, targets=targets)
                pure = oracle.greedy_graph_growing(g, p, seed=seed, targets=targets)
                assert native.dtype == pure.dtype == np.int64
                assert np.array_equal(native, pure), (trial, seed)

    def test_integers_self_check_mismatch_fails_the_load(self, monkeypatch):
        """A bounded draw that differs from numpy's fails the load-time
        self-check, naming ``Generator.integers`` and numpy's version."""
        real = _klnative.integers
        monkeypatch.setattr(
            _klnative, "integers", lambda seed, highs, lib=None: real(seed, highs, lib) ^ 1
        )
        monkeypatch.setattr(_klnative, "_LIB", None)
        with pytest.raises(ImportError, match=rf"numpy {np.__version__}'s Generator\.integers"):
            _klnative.load()
        assert _klnative._LIB is None


@given(
    n=st.integers(1, 600),
    deg=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p=st.sampled_from([1, 2, 3, 16]),
    float_weights=st.booleans(),
    constrain=st.booleans(),
    repartition_coarsest=st.booleans(),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fused_equals_reference(n, deg, seed, p, float_weights, constrain,
                                repartition_coarsest):
    """Random graphs — float weights (merge sort of the ranks) and integer
    weights (counting sort) — at every p the registry meets, both PNR
    ablation switches, unbalanced and empty-part starts, against the
    oracle's per-level V-cycle."""
    rng = np.random.default_rng(seed)
    g = _rand_graph(n, deg, rng, float_weights)
    _fused_equals_oracle(multilevel_partition, g, p, seed=seed)
    current = rng.integers(0, p, n)
    pnr = PNR(seed=seed, constrain_matching=constrain,
              repartition_coarsest=repartition_coarsest)
    _fused_equals_oracle(multilevel_repartition, g, p, current, pnr)


def _level_graph(levels, level: int) -> WeightedGraph:
    """The graph of ``level`` in a hierarchy ``_klnative.coarsen`` built
    (0: the input, then ever coarser)."""
    if level == 0:
        return levels.graph
    v0 = int(levels.nv[1:level].sum())
    e0 = int(levels.ne[1:level].sum())
    n, nnz = int(levels.nv[level]), int(levels.ne[level])
    x0 = v0 + level - 1
    return WeightedGraph(
        levels.cxadj[x0 : x0 + n + 1], levels.cadj[e0 : e0 + nnz],
        levels.cew[e0 : e0 + nnz], levels.cvw[v0 : v0 + n],
    )


def _level_home(levels, level: int):
    """The home projected to ``level`` (``None`` without a home)."""
    if levels.home is None or level == 0:
        return levels.home
    v0 = int(levels.nv[1:level].sum())
    return levels.chome[v0 : v0 + int(levels.nv[level])]


class TestFusedVCycle:
    @pytest.mark.parametrize("constrain", [False, True])
    def test_levels_equal_build_hierarchy(self, constrain):
        """``coarsen``'s level-concatenated arrays are the oracle
        ``build_hierarchy``'s graphs, contraction maps and projected homes,
        level for level."""
        rng = np.random.default_rng(4)
        g = _rand_graph(900, 6, rng, float_weights=False)
        home = rng.integers(0, 4, 900)
        for h in (None, home):
            levels = _klnative.coarsen(g, 20, 1, h, constrain, MAX_LEVELS, MIN_SHRINK)
            graphs, cmaps, homes = oracle.build_hierarchy(
                g, coarsen_to=20, seed=1, home=h, constrain=constrain
            )
            assert levels.nlev == len(graphs) > 3
            offset = 0
            for level in range(levels.nlev):
                _same_graph(_level_graph(levels, level), graphs[level])
                got = _level_home(levels, level)
                assert (got is None and homes[level] is None) or np.array_equal(
                    got, homes[level]
                )
                if level < len(cmaps):
                    n = graphs[level].n_vertices
                    assert np.array_equal(levels.cmap[offset : offset + n], cmaps[level])
                    offset += n

    def test_star_and_stalled_hierarchies(self):
        """A star loses one vertex a level; a path whose home alternates has
        no same-subset edge at all — both stop on MIN_SHRINK, and the
        stalled try is one more matching than levels built."""
        star = star_graph(300)
        path = WeightedGraph.from_edges(300, np.c_[np.arange(299), np.arange(1, 300)])
        alternating = np.arange(300) % 2
        for p in (2, 3):
            _, counts = _fused_equals_oracle(multilevel_partition, star, p, seed=1)
            assert counts["matching.hem"] == counts["contract"] + 1
            _fused_equals_oracle(multilevel_repartition, star, 2, alternating, PNR(seed=p))
        _, counts = _fused_equals_oracle(
            multilevel_repartition, path, 2, alternating, PNR(seed=1)
        )
        assert (counts["matching.hem"], counts["contract"]) == (1, 0)

    @pytest.mark.parametrize("max_levels", [0, 1, 2])
    def test_max_levels(self, monkeypatch, max_levels):
        monkeypatch.setattr(multilevel, "MAX_LEVELS", max_levels)
        g = grid_graph(30)
        current = (np.arange(900) // 225).astype(np.int64)
        _, counts = _fused_equals_oracle(multilevel_partition, g, 4, seed=3)
        assert counts["contract"] == max_levels
        _fused_equals_oracle(multilevel_repartition, g, 4, current, PNR(seed=3))

    def test_buffers_grow_until_every_level_fits(self, monkeypatch):
        """Room for one coarse vertex and one CSR entry: the kernel answers
        "grow" until the wrapper's buffers hold the hierarchy — never a
        truncated one."""
        lib = _klnative.load()
        calls = []
        real = lib.coarsen

        def spy(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(lib, "coarsen", spy)
        monkeypatch.setattr(_klnative, "_first_capacity", lambda n, nnz: (1, 1))
        g = _rand_graph(800, 6, np.random.default_rng(6))
        _fused_equals_oracle(multilevel_partition, g, 4, seed=0)
        assert calls[:-1] == [_klnative._GROW] * (len(calls) - 1) and len(calls) > 3

    @pytest.mark.parametrize("p", [2, 16])
    def test_perf_counts_match_the_reference(self, e2e_graphs, p):
        """``repro pared --phase-report`` reads the call counts the oracle
        credits: hierarchies, matchings tried, levels built, KL calls,
        passes, moves tried and kept."""
        g = e2e_graphs["2d"]
        current = multilevel_partition(g, p, seed=0)
        for args in (
            (multilevel_partition, g, p, 4),
            (multilevel_repartition, g, p, current, PNR(seed=4)),
            (multilevel_repartition, g, p, current, PNR(seed=4, constrain_matching=False)),
        ):
            _, counts = _fused_equals_oracle(*args)
            assert counts["multilevel.coarsen"] == counts["multilevel.refine"] == 1
            assert counts["matching.hem"] >= counts["contract"] >= 1
            assert counts["kl.pass"] >= counts["kl.refine"] > counts["contract"]

    def test_self_check_mismatch_fails_the_load(self, monkeypatch):
        """A C draw that differs from numpy's — here a generator started on
        another stream — fails the load-time self-check: the core refuses
        to load, naming numpy's version, rather than drift from numpy's tie
        order."""
        real = _klnative._pcg_state

        def other_stream(seed):
            s_hi, s_lo, inc_hi, inc_lo = real(seed)
            return s_hi, s_lo, inc_hi, inc_lo ^ 2

        monkeypatch.setattr(_klnative, "_pcg_state", other_stream)
        monkeypatch.setattr(_klnative, "_LIB", None)
        with pytest.raises(ImportError, match=f"numpy {np.__version__}"):
            _klnative.load()
        assert _klnative._LIB is None


def test_p1_partition_builds_no_hierarchy():
    """At p = 1 the V-cycle's answer is known: greedy growing returns all
    zeros and KL finds no boundary.  ``multilevel_partition`` returns it
    without building anything."""
    g = _rand_graph(900, 6, np.random.default_rng(9))
    out, counts = _counted(multilevel_partition, g, 1, seed=5)
    assert out.dtype == np.int64 and np.array_equal(out, np.zeros(900))
    assert not any(counts.values())
    # the V-cycle it skips (one part is never out of balance: no rebalance)
    cut_cfg = KLConfig(balance_tol=0.03, max_passes=6, beta=0.0)
    full = oracle.v_cycle(
        oracle.build_hierarchy(g, coarsen_target(1), seed=5),
        lambda h, _home: greedy_graph_growing(h, 1, seed=5),
        lambda h, a, _home: oracle.kl_refine(h, a, 1, config=cut_cfg),
    )
    assert np.array_equal(full, out)


# --------------------------------------------------------------------- #
# end to end
# --------------------------------------------------------------------- #


def _adapted_dual(amesh, rounds):
    prob = CornerLaplace2D()
    for _ in range(rounds):
        if amesh.mesh.dim == 2:
            ind = interpolation_error_indicator(amesh, prob.exact)
            amesh.refine(mark_top_fraction(amesh, ind, 0.2))
        else:
            amesh.refine_where(lambda c: c.sum(axis=1) > 1.6)
    return coarse_dual_graph(amesh.mesh)


@pytest.fixture(scope="module")
def e2e_graphs():
    rng = np.random.default_rng(31)
    return {
        "2d": _adapted_dual(AdaptiveMesh.unit_square(14), 3),
        "3d": _adapted_dual(AdaptiveMesh.unit_cube(5), 2),
        "random": _rand_graph(1500, 6, rng),
    }


class TestEndToEnd:
    @pytest.mark.parametrize("kind", ["2d", "3d", "random"])
    @pytest.mark.parametrize("p", [2, 16])
    def test_multilevel_partition(self, e2e_graphs, kind, p):
        g = e2e_graphs[kind]
        native, pure = _both(multilevel_partition, g, p, seed=3)
        assert np.array_equal(native, pure)

    @pytest.mark.parametrize("kind", ["2d", "3d", "random"])
    @pytest.mark.parametrize("p", [2, 16])
    def test_multilevel_repartition(self, e2e_graphs, kind, p):
        g = e2e_graphs[kind]
        rng = np.random.default_rng(p)
        current = multilevel_partition(g, p, seed=0)
        # unbalance it the way a refinement step would: weights drift
        drifted = WeightedGraph(
            g.xadj, g.adjncy, g.ewts, g.vwts * rng.choice([1.0, 1.0, 2.0, 4.0], g.n_vertices)
        )
        for kwargs in ({}, {"constrain_matching": False}, {"repartition_coarsest": True}):
            native, pure = _both(
                multilevel_repartition, drifted, p, current, PNR(seed=5, **kwargs)
            )
            assert np.array_equal(native, pure), kwargs

    def test_run_pared_histories(self, monkeypatch):
        """A threaded PARED run whose registry strategies call the oracle
        V-cycle makes the compiled run's history."""
        prob = CornerLaplace2D()

        def marker(amesh, rnd):
            ind = interpolation_error_indicator(amesh, prob.exact)
            return mark_top_fraction(amesh, ind, 0.2), []

        cfg = ParedConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=marker,
            rounds=3,
            pnr=PNR(seed=0),
            transport="thread",
        )
        hn, _ = run_pared(cfg)
        monkeypatch.setattr(registry, "multilevel_partition", oracle.multilevel_partition)
        monkeypatch.setattr(registry, "multilevel_repartition", oracle.multilevel_repartition)
        hp, _ = run_pared(cfg)
        for a, b in zip(hn[0], hp[0]):
            assert a["leaves"] == b["leaves"] and a["cut"] == b["cut"]
            assert np.array_equal(a["owner"], b["owner"])

    def test_phase_spans_cover_pnr_refinement(self):
        """`multilevel_repartition` reports its refinement like
        `multilevel_partition` does, and the kernel's pass counter feeds
        `kl.pass` on the compiled path."""
        from repro.perf import PERF

        g = _rand_graph(400, 6, np.random.default_rng(41))
        current = multilevel_partition(g, 4, seed=0)
        PERF.reset()
        multilevel_repartition(g, 4, current, PNR(seed=1))
        snap = PERF.snapshot()
        for name in ("multilevel.coarsen", "multilevel.refine", "matching.hem",
                     "contract", "kl.refine", "kl.pass"):
            assert snap[name][0] >= 1, name
        assert snap["multilevel.refine"][0] == 1
        assert snap["kl.pass"][0] >= snap["kl.refine"][0]
        assert snap["kl.pass"][1] <= snap["kl.refine"][1]
