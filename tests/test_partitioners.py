"""Tests for RSB, greedy growing, Multilevel-KL and the
named repartitioner registry (pnr / mlkl / sfc / dkl)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import WeightedGraph
from repro.partition import (
    available_partitioners,
    graph_cut,
    graph_imbalance,
    greedy_graph_growing,
    make_repartitioner,
    multilevel_partition,
    recursive_spectral_bisection,
    spectral_bisect,
    validate_assignment,
)


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


class TestSpectralBisect:
    def test_balanced_halves(self):
        g = grid(8)
        side = spectral_bisect(g)
        counts = np.bincount(side, minlength=2)
        assert abs(counts[0] - counts[1]) <= 2

    def test_grid_cut_near_optimal(self):
        # rectangular grid avoids the square grid's degenerate Fiedler pair
        from repro.graph.generators import grid_graph

        g = grid_graph(12, 7)
        side = spectral_bisect(g, refine=True)
        # optimal straight cut is 7
        assert graph_cut(g, side) <= 10

    def test_weighted_split_fraction(self):
        vw = np.ones(64)
        vw[:16] = 10.0
        g = grid(8, vweights=vw)
        side = spectral_bisect(g, frac=0.5)
        w = np.bincount(side, weights=vw, minlength=2)
        assert abs(w[0] - w[1]) <= 0.3 * vw.sum()

    def test_tiny_graphs(self):
        g1 = WeightedGraph.from_edges(1, np.empty((0, 2), dtype=np.int64))
        assert list(spectral_bisect(g1)) == [0]
        g2 = WeightedGraph.from_edges(2, [(0, 1)])
        assert sorted(spectral_bisect(g2)) == [0, 1]


class TestRSB:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_power_of_two(self, p):
        g = grid(8)
        a = recursive_spectral_bisection(g, p, seed=0)
        validate_assignment(g, a, p)
        counts = np.bincount(a, minlength=p)
        assert counts.min() > 0
        assert graph_imbalance(g, a, p) < 0.35

    def test_odd_p(self):
        g = grid(9)
        a = recursive_spectral_bisection(g, 3, seed=0)
        assert set(np.unique(a)) == {0, 1, 2}
        assert graph_imbalance(g, a, 3) < 0.35

    def test_p1_trivial(self, grid_graph):
        a = recursive_spectral_bisection(grid_graph, 1)
        assert np.all(a == 0)

    def test_deterministic(self):
        g = grid(8)
        a1 = recursive_spectral_bisection(g, 4, seed=5)
        a2 = recursive_spectral_bisection(g, 4, seed=5)
        assert np.array_equal(a1, a2)

    def test_refine_improves_or_equal(self):
        g = grid(8)
        raw = recursive_spectral_bisection(g, 4, seed=1, refine=False)
        pol = recursive_spectral_bisection(g, 4, seed=1, refine=True)
        assert graph_cut(g, pol) <= graph_cut(g, raw) + 2


class TestGreedy:
    def test_all_assigned(self, grid_graph):
        a = greedy_graph_growing(grid_graph, 4, seed=0)
        assert a.min() >= 0 and a.max() < 4
        assert np.bincount(a, minlength=4).min() > 0

    def test_rough_balance(self, grid_graph):
        a = greedy_graph_growing(grid_graph, 4, seed=0)
        assert graph_imbalance(grid_graph, a, 4) < 0.6

    def test_custom_targets(self, grid_graph):
        a = greedy_graph_growing(grid_graph, 2, seed=0, targets=[16, 48])
        counts = np.bincount(a, minlength=2)
        assert counts[0] < counts[1]

    def test_p1(self, grid_graph):
        assert np.all(greedy_graph_growing(grid_graph, 1) == 0)


class TestMultilevel:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_quality_and_balance(self, p):
        g = grid(16)
        a = multilevel_partition(g, p, seed=0)
        validate_assignment(g, a, p)
        assert graph_imbalance(g, a, p) < 0.15
        # straight cuts of a 16x16 grid: p=2 -> 16, p=4 -> 48, p=8 -> 80
        budget = {2: 28, 4: 75, 8: 130}[p]
        assert graph_cut(g, a) <= budget

    def test_weighted_graph(self):
        vw = np.ones(256)
        vw[:64] = 4.0
        g = grid(16, vweights=vw)
        a = multilevel_partition(g, 4, seed=0)
        assert graph_imbalance(g, a, 4) < 0.25

    def test_spectral_initial(self):
        g = grid(12)
        a = multilevel_partition(g, 4, seed=0, initial="spectral")
        assert graph_imbalance(g, a, 4) < 0.2

    def test_small_graph_no_contraction(self):
        g = grid(4)  # 16 vertices < default coarsen_to
        a = multilevel_partition(g, 2, seed=0)
        assert graph_imbalance(g, a, 2) < 0.3


@given(p=st.integers(2, 6), seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_rsb_covers_all_labels(p, seed):
    g = grid(8)
    a = recursive_spectral_bisection(g, p, seed=seed)
    assert set(np.unique(a)) == set(range(p))


# ---------------------------------------------------------------------- #
# the named repartitioner registry (pnr / mlkl / sfc / dkl)
# ---------------------------------------------------------------------- #


def grid_with_coords(n, vweights=None):
    """The ``grid`` graph plus the (i, j) centroid of every vertex — what
    the PARED coordinator hands a strategy: coarse dual graph + root
    centroids."""
    g = grid(n, vweights=vweights)
    ij = np.indices((n, n)).reshape(2, -1).T.astype(np.float64)
    return g, ij


class TestRegistry:
    P = 4

    def test_names(self):
        assert available_partitioners() == (
            "pnr", "mlkl", "sfc", "dkl", "dkl-ml",
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_repartitioner("metis")

    def test_pnr_repartition_coarsest_switch_rejected(self):
        """The registry strategies implement the default algorithm only; a
        ``PNR`` ablation switch must fail loudly, not be dropped."""
        from repro.core.pnr import PNR

        with pytest.raises(ValueError, match="PNR.repartition_coarsest=True"):
            make_repartitioner("pnr", pnr=PNR(repartition_coarsest=True))

    def test_pnr_constrain_matching_switch_rejected(self):
        from repro.core.pnr import PNR

        with pytest.raises(ValueError, match="PNR.constrain_matching=False"):
            make_repartitioner("dkl", pnr=PNR(constrain_matching=False))
        # the parameters the strategies do take still pass through
        r = make_repartitioner("pnr", pnr=PNR(alpha=0.3, seed=5))
        assert (r.alpha, r.seed) == (0.3, 5)

    @pytest.mark.parametrize("name", ("pnr", "mlkl", "sfc", "dkl", "dkl-ml"))
    def test_initial_conformance(self, name):
        g, coords = grid_with_coords(8)
        a = make_repartitioner(name).initial(g, self.P, coords=coords)
        validate_assignment(g, a, self.P)
        assert set(np.unique(a)) == set(range(self.P))
        assert graph_imbalance(g, a, self.P) < 0.35

    @pytest.mark.parametrize("name", ("pnr", "mlkl", "sfc", "dkl", "dkl-ml"))
    def test_repartition_conformance(self, name):
        # weights skewed toward one corner, as after local refinement
        vw = np.ones(64)
        vw[:16] = 5.0
        g, coords = grid_with_coords(8, vweights=vw)
        r = make_repartitioner(name)
        a0 = r.initial(g, self.P, coords=coords)
        a1 = r.repartition(g, self.P, a0, coords=coords)
        validate_assignment(g, a1, self.P)
        assert set(np.unique(a1)) == set(range(self.P))
        assert graph_imbalance(g, a1, self.P) < 0.35

    @pytest.mark.parametrize("name", ("pnr", "mlkl", "sfc", "dkl", "dkl-ml"))
    def test_deterministic(self, name):
        g, coords = grid_with_coords(8)
        runs = []
        for _ in range(2):
            r = make_repartitioner(name)
            a0 = r.initial(g, self.P, coords=coords)
            runs.append(r.repartition(g, self.P, a0, coords=coords))
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("curve", ("morton", "hilbert"))
    def test_sfc_curve_selection(self, curve):
        g, coords = grid_with_coords(8)
        r = make_repartitioner("sfc", curve=curve)
        a = r.initial(g, self.P, coords=coords)
        validate_assignment(g, a, self.P)

    def test_sfc_requires_coords(self):
        g, _ = grid_with_coords(8)
        with pytest.raises(ValueError, match="coords"):
            make_repartitioner("sfc").initial(g, self.P)

    def test_sfc_repartition_reuses_curve_order(self):
        """The curve is fitted once; a weight change only slides cuts, so
        most vertices keep their part between rounds."""
        g0, coords = grid_with_coords(8)
        r = make_repartitioner("sfc")
        a0 = r.initial(g0, self.P, coords=coords)
        vw = np.ones(64)
        vw[:8] = 4.0
        g1 = grid(8, vweights=vw)
        a1 = r.repartition(g1, self.P, a0, coords=coords)
        assert np.count_nonzero(a0 != a1) < 32

    def test_pnr_initial_matches_legacy_bootstrap(self):
        """The pnr strategy's first partition must be bit-identical to the
        historical direct ``multilevel_partition(graph, p, seed=seed)``
        call — the golden PARED metrics pin that path."""
        g, coords = grid_with_coords(8)
        a = make_repartitioner("pnr").initial(g, self.P, coords=coords)
        assert np.array_equal(a, multilevel_partition(g, self.P, seed=0))
