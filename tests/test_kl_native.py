"""Parity of the compiled KL refinement (:mod:`repro.partition._klnative`)
with its pure-Python oracle (``tests/_kl_oracle.py``; the whole-V-cycle
suite is ``tests/test_multilevel_native.py``).

The compiled kernel must be *decision-for-decision* identical: same heap pop
order (total order on ``(key, counter)``), same float arithmetic, same
deferral/revival bookkeeping — so refinement output matches bit-for-bit."""

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.partition.kl import KLConfig, kl_refine

from tests import _kl_oracle as oracle
from tests.conftest import kl_counted, kl_starts, kl_tail_arms


def _rand_graph(n, avg_deg, rng):
    edges = set()
    target = n * avg_deg // 2
    while len(edges) < target:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = np.array(sorted(edges), dtype=np.int64)
    ewts = rng.uniform(0.5, 3.0, len(edges))
    vwts = rng.uniform(0.5, 4.0, n)
    return WeightedGraph.from_edges(n, edges, ewts, vwts)


def _both_paths(graph, asg, p, home, cfg):
    out_native = kl_refine(graph, asg, p, home=home, config=cfg)
    out_pure = oracle.kl_refine(graph, asg, p, home=home, config=cfg)
    return out_native, out_pure


class TestNativeParity:
    def test_randomized_configs(self):
        """Balanced and unbalanced starts, so that both tail bounds decide
        some calls; native ≡ pure array for array and counter for counter."""
        rng = np.random.default_rng(42)
        fired = {"band": 0, "stall": 0}
        for trial in range(25):
            n = int(rng.integers(20, 300))
            p = int(rng.integers(2, 7))
            graph = _rand_graph(n, 6, rng)
            start = "balanced" if trial % 3 == 0 else "unbalanced"
            asg = kl_starts(graph, p, rng)[start]
            home = asg.copy() if trial % 2 else None
            cfg = KLConfig(
                alpha=float(rng.choice([0.0, 0.5, 2.0])),
                beta=float(rng.choice([0.0, 0.1, 1.0])),
                balance_mode=str(rng.choice(["quadratic", "deadband"])),
                window=int(rng.choice([1, 4, 8])),
                stall_limit=int(rng.choice([0, 64, 256])),
            )

            def run(c, refine=kl_refine):
                return refine(graph, asg, p, home=home, config=c)

            out_native, counts_native = kl_counted(lambda: run(cfg))
            out_pure, counts_pure = kl_counted(lambda: run(cfg, oracle.kl_refine))
            assert np.array_equal(out_native, out_pure), (
                f"trial {trial}: native/pure divergence with {cfg}"
            )
            assert counts_native == counts_pure, f"trial {trial}: {cfg}"
            for arm in kl_tail_arms(run, cfg):
                fired[arm] += 1
        assert fired["band"] and fired["stall"], fired

    def test_pnr_shaped_config(self):
        # the configuration the PARED rounds actually run: alpha + deadband
        rng = np.random.default_rng(3)
        graph = _rand_graph(500, 6, rng)
        asg = rng.integers(0, 4, 500)
        cfg = KLConfig(
            alpha=1.0, beta=0.5, balance_mode="deadband", balance_tol=0.05
        )
        out_native, out_pure = _both_paths(graph, asg, 4, asg.copy(), cfg)
        assert np.array_equal(out_native, out_pure)

    def test_empty_boundary_noop(self):
        # two disconnected cliques already split: no boundary, no moves
        edges = np.array(
            [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]], dtype=np.int64
        )
        graph = WeightedGraph.from_edges(6, edges, np.ones(6), np.ones(6))
        asg = np.array([0, 0, 0, 1, 1, 1])
        out_native, out_pure = _both_paths(graph, asg, 2, None, KLConfig())
        assert np.array_equal(out_native, asg)
        assert np.array_equal(out_pure, asg)
