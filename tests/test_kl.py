"""Tests for the p-way KL refinement engine and its gain functions."""

import numpy as np
import pytest

from repro.graph.csr import WeightedGraph
from repro.partition.kl import IN_BAND_TAIL, KLConfig, kl_refine
from repro.partition.metrics import graph_cut, graph_imbalance, repartition_cost

from tests._kl_oracle import _kl_pass, _KLState


def grid(n=8, vweights=None):
    edges = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            if i + 1 < n:
                edges.append((v, v + n))
            if j + 1 < n:
                edges.append((v, v + 1))
    return WeightedGraph.from_edges(n * n, edges, vweights=vweights)


class TestCutRefinement:
    def test_improves_bad_bisection(self):
        g = grid(8)
        # interleaved columns: terrible cut; KL should find the straight split
        assignment = (np.arange(64) % 2).astype(np.int64)
        before = graph_cut(g, assignment)
        refined = kl_refine(g, assignment, 2, config=KLConfig(max_passes=10))
        after = graph_cut(g, refined)
        assert after < before
        assert graph_imbalance(g, refined, 2) <= graph_imbalance(g, assignment, 2) + 0.26

    def test_never_worsens_objective(self):
        g = grid(8)
        rng = np.random.default_rng(0)
        for trial in range(5):
            a = rng.integers(0, 4, 64)
            cfg = KLConfig(max_passes=4)
            refined = kl_refine(g, a, 4, config=cfg)
            assert graph_cut(g, refined) <= graph_cut(g, a)

    def test_optimal_partition_stable(self):
        g = grid(8)
        a = (np.arange(64) // 32).astype(np.int64)  # straight split, cut 8
        refined = kl_refine(g, a, 2, config=KLConfig(max_passes=5))
        assert graph_cut(g, refined) == graph_cut(g, a)

    def test_input_not_mutated(self):
        g = grid(4)
        a = (np.arange(16) % 2).astype(np.int64)
        snapshot = a.copy()
        kl_refine(g, a, 2)
        assert np.array_equal(a, snapshot)

    def test_hard_envelope_respected(self):
        g = grid(8)
        a = (np.arange(64) // 32).astype(np.int64)
        cfg = KLConfig(balance_tol=0.05, max_passes=6)
        refined = kl_refine(g, a, 2, config=cfg)
        assert graph_imbalance(g, refined, 2) <= 0.05 + 1e-9


class TestBalanceRefinement:
    def test_rebalances_from_skew(self):
        g = grid(8)
        a = np.zeros(64, dtype=np.int64)
        a[:8] = 1  # subset 1 tiny
        cfg = KLConfig(beta=0.8, balance_tol=0.05, max_passes=8)
        refined = kl_refine(g, a, 2, config=cfg)
        assert graph_imbalance(g, refined, 2) < graph_imbalance(g, a, 2)
        assert graph_imbalance(g, refined, 2) < 0.2

    def test_seeds_empty_subset(self):
        g = grid(8)
        a = np.zeros(64, dtype=np.int64)  # subset 1 empty
        cfg = KLConfig(beta=0.8, balance_tol=0.05, max_passes=8)
        refined = kl_refine(g, a, 2, config=cfg)
        counts = np.bincount(refined, minlength=2)
        assert counts.min() > 0, "teleport seeding must fill the empty subset"

    def test_deadband_stops_at_band(self):
        g = grid(8)
        a = np.zeros(64, dtype=np.int64)
        a[:16] = 1
        cfg = KLConfig(beta=0.8, balance_tol=0.1, max_passes=8, balance_mode="deadband")
        refined = kl_refine(g, a, 2, config=cfg)
        assert graph_imbalance(g, refined, 2) <= 0.15

    def test_granularity_respected(self):
        # one huge vertex: perfect balance impossible; KL must not thrash
        vw = np.ones(64)
        vw[0] = 30.0
        g = grid(8, vweights=vw)
        a = (np.arange(64) // 32).astype(np.int64)
        cfg = KLConfig(beta=0.8, balance_tol=0.02, max_passes=8, balance_mode="deadband")
        refined = kl_refine(g, a, 2, config=cfg)
        # band widens to w_max/2 = 15 over mean 47: imbalance up to ~0.32 OK
        assert graph_imbalance(g, refined, 2) < 0.45


class TestMigrationGain:
    def test_alpha_zero_ignores_home(self):
        g = grid(8)
        a = (np.arange(64) % 2).astype(np.int64)
        home = a.copy()
        r1 = kl_refine(g, a, 2, home=home, config=KLConfig(alpha=0.0, max_passes=4))
        r2 = kl_refine(g, a, 2, config=KLConfig(max_passes=4))
        assert np.array_equal(r1, r2)

    def test_huge_alpha_freezes(self):
        g = grid(8)
        a = (np.arange(64) % 2).astype(np.int64)
        home = a.copy()
        cfg = KLConfig(alpha=1e6, max_passes=4)
        refined = kl_refine(g, a, 2, home=home, config=cfg)
        assert np.array_equal(refined, a)

    def test_migration_traded_against_cut(self):
        g = grid(8)
        a = (np.arange(64) % 2).astype(np.int64)
        home = a.copy()
        moved = []
        for alpha in (0.0, 0.5, 5.0):
            cfg = KLConfig(alpha=alpha, max_passes=6)
            refined = kl_refine(g, a, 2, home=home, config=cfg)
            moved.append(int(np.count_nonzero(refined != home)))
        assert moved[0] >= moved[1] >= moved[2]

    def test_objective_decreases(self):
        """The composite Equation-1 objective never increases under refine."""
        g = grid(8)
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, 64)
        home = a.copy()
        cfg = KLConfig(alpha=0.1, beta=0.8, max_passes=6)
        refined = kl_refine(g, a, 4, home=home, config=cfg)
        before = repartition_cost(g, home, a, 4, 0.1, 0.8).total
        after = repartition_cost(g, home, refined, 4, 0.1, 0.8).total
        assert after <= before + 1e-9


class TestInBandTail:
    """Once every subset weight is inside the balance band a pass stops
    ``IN_BAND_TAIL`` non-improving moves past its best prefix."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("beta", [0.0, 0.8])
    def test_balanced_start_rolls_back_at_most_the_tail(self, alpha, beta):
        # two parts under the hard envelope: W_1 ≤ W̄ + band forces
        # W_0 ≥ W̄ − band, so a start inside the band stays inside it
        g = grid(10)
        rng = np.random.default_rng(int(10 * alpha + beta))
        longest = 0
        for _trial in range(4):
            a = (rng.permutation(100) % 2).astype(np.int64)
            home = a.copy()
            cfg = KLConfig(alpha=alpha, beta=beta, balance_mode="deadband")
            state = _KLState(g, 2, a.copy(), home, cfg)
            start_obj = state.objective()
            for _ in range(cfg.max_passes):
                improved, tried, kept = _kl_pass(state)
                assert tried - kept <= IN_BAND_TAIL
                longest = max(longest, tried - kept)
                w = np.bincount(state.assign, minlength=2)
                assert np.all(np.abs(w - state.mean) <= state.band)
                if improved <= cfg.min_gain:
                    break
            refined = kl_refine(g, a, 2, home=home, config=cfg)
            end = _KLState(g, 2, refined, home, cfg)
            assert end.objective() <= start_obj
        assert longest == IN_BAND_TAIL, "the in-band stop never decided a pass"


class TestValidation:
    def test_bad_assignment_shape(self):
        g = grid(4)
        with pytest.raises(ValueError):
            kl_refine(g, np.zeros(3, dtype=int), 2)

    def test_bad_labels(self):
        g = grid(4)
        with pytest.raises(ValueError):
            kl_refine(g, np.full(16, 7), 2)
