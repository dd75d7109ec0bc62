"""Tests for RSB, greedy growing, Multilevel-KL and the
named repartitioner registry (pnr / mlkl / sfc / dkl)."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import PNR
from repro.fem import (
    CornerLaplace2D,
    CornerLaplace3D,
    interpolation_error_indicator,
    mark_top_fraction,
)
from repro.graph.csr import WeightedGraph
from repro.mesh import AdaptiveMesh
from repro.mesh.dualgraph import coarse_dual_graph, coarse_root_centroids
from repro.pared import ParedConfig, run_pared
from repro.pared.migrate import plan_recovery_assignment
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

    def test_same_bytes_in_fresh_interpreters(self):
        # 2048 vertices, so the sparse (Lanczos) path; the refined square's
        # dual graph has λ₂ ≈ λ₃, where a solver that lands anywhere in the
        # eigenspace gives each process its own partition
        script = (
            "import hashlib\n"
            "from repro.mesh import AdaptiveMesh\n"
            "from repro.mesh.dualgraph import coarse_dual_graph\n"
            "from repro.partition import recursive_spectral_bisection\n"
            "am = AdaptiveMesh.unit_square(32)\n"
            "am.refine(am.leaf_ids()[::7])\n"
            "a = recursive_spectral_bisection(coarse_dual_graph(am.mesh), 16)\n"
            "print(hashlib.sha256(a.tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        # one BLAS thread per child: the two run side by side, and threaded
        # BLAS on an oversubscribed host turns ~1 s into ~10 s
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        runs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outs = [r.communicate(timeout=60)[0] for r in runs]
        assert all(r.returncode == 0 for r in runs)
        assert outs[0] == outs[1]


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

    @pytest.mark.parametrize("targets", [[1], [1, 1], [2, 2, 2, 9]])
    def test_targets_need_one_entry_per_subset(self, targets):
        path = WeightedGraph.from_edges(6, np.c_[np.arange(5), np.arange(1, 6)])
        with pytest.raises(ValueError, match=f"{len(targets)} entries, p = 3"):
            greedy_graph_growing(path, 3, targets=targets)

    @pytest.mark.parametrize("seed", [None, np.random.SeedSequence(0), 1.5])
    def test_seed_must_be_an_integer(self, seed):
        path = WeightedGraph.from_edges(6, np.c_[np.arange(5), np.arange(1, 6)])
        with pytest.raises(ValueError, match="seed must be an integer"):
            greedy_graph_growing(path, 3, seed=seed)
        assert np.array_equal(
            greedy_graph_growing(path, 3, seed=np.int64(4)),
            greedy_graph_growing(path, 3, seed=4),
        )

    def test_leftovers_go_to_the_last_subset(self):
        """Stragglers go to subset p - 1 even when it is the heaviest: two
        4-vertex paths, the first two subsets stop at one vertex each."""
        edges = [[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [6, 7]]
        g = WeightedGraph.from_edges(8, np.array(edges))
        for seed in range(4):
            a = greedy_graph_growing(g, 3, seed=seed, targets=[1, 1, 1])
            assert np.bincount(a, minlength=3).tolist() == [1, 1, 6]


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
    a PARED rank hands a strategy: coarse dual graph + root
    centroids."""
    g = grid(n, vweights=vweights)
    ij = np.indices((n, n)).reshape(2, -1).T.astype(np.float64)
    return g, ij


class TestRegistry:
    P = 4

    def test_names(self):
        assert available_partitioners() == ("pnr", "mlkl", "sfc", "dkl")

    def test_unknown_name_rejected(self):
        """The multilevel dkl flavour was measured and removed — no alias,
        no shim: its old name (spelled in two pieces so a grep for it stays
        empty) fails like any name the registry never had."""
        for name in ("metis", "dkl" + "-ml"):
            with pytest.raises(ValueError, match="unknown partitioner"):
                make_repartitioner(name, pnr=PNR())

    def test_pnr_constrain_matching_switch_rejected(self):
        """Only ``pnr`` runs the V-cycle the ablation switches configure; a
        strategy that cannot honour one must fail loudly, not drop it."""
        for name in ("mlkl", "sfc", "dkl"):
            with pytest.raises(ValueError, match="constrain_matching=False"):
                make_repartitioner(name, pnr=PNR(constrain_matching=False))
            with pytest.raises(ValueError, match="repartition_coarsest=True"):
                make_repartitioner(name, pnr=PNR(repartition_coarsest=True))
        # the parameter object travels whole
        pnr = PNR(alpha=0.3, seed=5, constrain_matching=False)
        assert make_repartitioner("pnr", pnr=pnr).pnr is pnr

    @pytest.mark.parametrize("name", ("pnr", "mlkl", "sfc", "dkl"))
    def test_initial_conformance(self, name):
        g, coords = grid_with_coords(8)
        a = make_repartitioner(name, PNR()).initial(g, self.P, coords=coords)
        validate_assignment(g, a, self.P)
        assert set(np.unique(a)) == set(range(self.P))
        assert graph_imbalance(g, a, self.P) < 0.35

    @pytest.mark.parametrize("name", ("pnr", "mlkl", "sfc", "dkl"))
    def test_repartition_conformance(self, name):
        # weights skewed toward one corner, as after local refinement
        vw = np.ones(64)
        vw[:16] = 5.0
        g, coords = grid_with_coords(8, vweights=vw)
        r = make_repartitioner(name, PNR())
        a0 = r.initial(g, self.P, coords=coords)
        a1 = r.repartition(g, self.P, a0, coords=coords)
        validate_assignment(g, a1, self.P)
        assert set(np.unique(a1)) == set(range(self.P))
        assert graph_imbalance(g, a1, self.P) < 0.35

    @pytest.mark.parametrize("name", ("pnr", "mlkl", "sfc", "dkl"))
    def test_deterministic(self, name):
        g, coords = grid_with_coords(8)
        runs = []
        for _ in range(2):
            r = make_repartitioner(name, PNR())
            a0 = r.initial(g, self.P, coords=coords)
            runs.append(r.repartition(g, self.P, a0, coords=coords))
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("curve", ("morton", "hilbert"))
    def test_sfc_curve_selection(self, curve):
        g, coords = grid_with_coords(8)
        r = make_repartitioner("sfc", PNR(), curve=curve)
        a = r.initial(g, self.P, coords=coords)
        validate_assignment(g, a, self.P)

    def test_sfc_requires_coords(self):
        g, _ = grid_with_coords(8)
        with pytest.raises(ValueError, match="coords"):
            make_repartitioner("sfc", PNR()).initial(g, self.P)

    def test_sfc_repartition_reuses_curve_order(self):
        """The curve is fitted once; a weight change only slides cuts, so
        most vertices keep their part between rounds."""
        g0, coords = grid_with_coords(8)
        r = make_repartitioner("sfc", PNR())
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
        a = make_repartitioner("pnr", PNR()).initial(g, self.P, coords=coords)
        assert np.array_equal(a, multilevel_partition(g, self.P, seed=0))


# ---------------------------------------------------------------------- #
# one door: every route into repartitioning G is a registry strategy
# ---------------------------------------------------------------------- #


def _ladder(amesh, exact, rungs=4, fraction=0.15):
    """``G`` after each rung of a corner-refinement ladder, plus the root
    centroids — what a PARED run hands a strategy round after round."""
    coords = coarse_root_centroids(amesh.mesh)
    graphs = [coarse_dual_graph(amesh.mesh)]
    for _ in range(rungs - 1):
        ind = interpolation_error_indicator(amesh, exact)
        amesh.refine(mark_top_fraction(amesh, ind, fraction))
        graphs.append(coarse_dual_graph(amesh.mesh))
    return amesh, graphs, coords


@pytest.fixture(scope="module")
def ladders():
    return {
        "2d": _ladder(AdaptiveMesh.unit_square(14), CornerLaplace2D().exact),
        "3d": _ladder(AdaptiveMesh.unit_cube(4), CornerLaplace3D().exact),
    }


def _digest(arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.int64)).tobytes())
    return h.hexdigest()[:16]


def _bootstrap(graph, p=4):
    return make_repartitioner("pnr", PNR(seed=3)).initial(graph, p)


class TestPinnedStrategies:
    """Owner arrays of every route, captured at the commit *before* the
    routes were folded into the registry (two V-cycle loops, four dkl
    drivers, three ways into ``multilevel_repartition``): folding them may
    not move a single root.  Entries marked "in-band KL tail" were
    re-captured when a KL pass learned to stop 32 non-improving moves past
    its best prefix once every part is inside the balance band
    (``kl.IN_BAND_TAIL``) — a change of what KL computes; every other entry
    is the original capture."""

    REGISTRY = {
        "2d-dkl-2": "0cad10cd8d9b09b7",  # re-captured: in-band KL tail
        "2d-dkl-4": "1ff10d907553928d",
        "2d-dkl-8": "b6b5f311a0fe235d",
        "2d-mlkl-2": "b180cb52d7f934e7",  # re-captured: in-band KL tail
        "2d-mlkl-4": "1f65940c700d574b",
        "2d-mlkl-8": "c43db65eac55f606",  # re-captured: in-band KL tail
        "2d-pnr-2": "96a82c6712821973",  # re-captured: in-band KL tail
        "2d-pnr-4": "8e4c48c5095a0e07",
        "2d-pnr-8": "0465727d93cb2340",
        "2d-sfc-2": "e4063c2ed624bd5a",
        "2d-sfc-4": "a6324a288e2617e7",
        "2d-sfc-8": "527b651b8855a023",
        "3d-dkl-2": "81b88d97905185e3",
        "3d-dkl-4": "a6a27f76d2100d6e",
        "3d-dkl-8": "b2b1bf92485a2ea6",
        "3d-mlkl-2": "91b192419c1335e2",
        "3d-mlkl-4": "51d932da43a49e52",  # re-captured: in-band KL tail
        "3d-mlkl-8": "8bcfe1bcd7415033",
        "3d-pnr-2": "e158a53f1168f7b8",
        "3d-pnr-4": "ea771fd1eb715faf",
        "3d-pnr-8": "35f041c8f28d6589",
        "3d-sfc-2": "89cf8b1f3a82c297",
        "3d-sfc-4": "5a12093a4535eb50",
        "3d-sfc-8": "83579656807e9200",
    }

    ABLATION = {
        "2d-both": "bdab280c4088464f",  # re-captured: in-band KL tail
        "2d-default": "5d6eb9b1afd96bdb",
        "2d-repartition_coarsest": "0a8c679c9cb13ffc",
        "2d-unconstrained": "0e8e950c23fb05b3",
        "3d-both": "fb8e3156e04b7927",
        "3d-default": "93ba37827ef1444b",
        "3d-repartition_coarsest": "5f5888d13cf47669",
        "3d-unconstrained": "c0be4253fbd2f212",
    }

    RECOVERY = {
        "2d-live023": "df38e1a0740ece69",
        "2d-live13": "9377b65dc3a37b41",
        "3d-live023": "2454ab4350e98121",
        "3d-live13": "be778296806a7fb3",
    }

    ABLATIONS = {
        "default": {},
        "repartition_coarsest": {"repartition_coarsest": True},
        "unconstrained": {"constrain_matching": False},
        "both": {"repartition_coarsest": True, "constrain_matching": False},
    }

    @pytest.mark.parametrize("p", (2, 4, 8))
    @pytest.mark.parametrize("name", ("pnr", "mlkl", "sfc", "dkl"))
    @pytest.mark.parametrize("dim", ("2d", "3d"))
    def test_registry_walk(self, ladders, dim, name, p):
        _, graphs, coords = ladders[dim]
        repart = make_repartitioner(name, pnr=PNR(seed=3))
        owners = [repart.initial(graphs[0], p, coords=coords)]
        for g in graphs[1:]:
            owners.append(repart.repartition(g, p, owners[-1], coords=coords))
        assert _digest(owners) == self.REGISTRY[f"{dim}-{name}-{p}"]

    @pytest.mark.parametrize("label", sorted(ABLATIONS))
    @pytest.mark.parametrize("dim", ("2d", "3d"))
    def test_pnr_repartition_ablations(self, ladders, dim, label):
        amesh, graphs, _ = ladders[dim]
        pnr = PNR(seed=3, **self.ABLATIONS[label])
        new = pnr.repartition(amesh, 4, _bootstrap(graphs[0]))
        assert _digest([new]) == self.ABLATION[f"{dim}-{label}"]

    @pytest.mark.parametrize("live", ([0, 2, 3], [1, 3]))
    @pytest.mark.parametrize("dim", ("2d", "3d"))
    def test_recovery_assignment(self, ladders, dim, live):
        _, graphs, _ = ladders[dim]
        g = graphs[-1]
        owner = make_repartitioner("pnr", PNR(seed=3)).repartition(
            g, 4, _bootstrap(graphs[0])
        )
        pnr = PNR(alpha=0.2, beta=0.7, seed=3, balance_tol=0.04)
        new = plan_recovery_assignment(g, owner, live, pnr)
        key = f"{dim}-live{''.join(map(str, live))}"
        assert _digest([new]) == self.RECOVERY[key]


class TestOneDoor:
    def test_three_former_routes_agree(self, ladders):
        """``PNR.repartition`` on the mesh, the registry on
        ``coarse_dual_graph(mesh)`` and recovery's call (no rank dead: no
        orphan to adopt) are one call."""
        for dim, (amesh, graphs, _) in ladders.items():
            pnr = PNR(seed=3, alpha=0.2)
            current = _bootstrap(graphs[0])
            on_mesh = pnr.repartition(amesh, 4, current)
            on_graph = make_repartitioner("pnr", pnr).repartition(
                coarse_dual_graph(amesh.mesh), 4, current
            )
            recovery = plan_recovery_assignment(graphs[-1], current, range(4), pnr)
            assert np.array_equal(on_mesh, on_graph), dim
            assert np.array_equal(on_mesh, recovery), dim
            assert not np.array_equal(on_mesh, current), dim

    @pytest.mark.parametrize(
        "switch", ({"repartition_coarsest": True}, {"constrain_matching": False})
    )
    def test_ablation_switch_reaches_the_coordinator(self, switch):
        """``ParedConfig(pnr=PNR(<switch>))`` used to be rejected by the
        registry's guard (and, before that, silently dropped): now every
        rank's V-cycle runs the ablation, and returns what the
        mesh-level ``PNR.repartition`` returns."""
        exact = CornerLaplace2D().exact

        def marker(amesh, rnd):
            ind = interpolation_error_indicator(amesh, exact)
            return mark_top_fraction(amesh, ind, 0.3), []

        def run(pnr):
            cfg = ParedConfig(
                p=4, make_mesh=lambda: AdaptiveMesh.unit_square(14),
                marker=marker, rounds=1, pnr=pnr, transport="thread",
            )
            return run_pared(cfg)[0][0][0]

        ablated, default = PNR(seed=3, **switch), PNR(seed=3)
        rec = run(ablated)
        assert rec["imbalance_before"] > 0.05  # the repartition did run
        amesh = AdaptiveMesh.unit_square(14)
        owner0 = _bootstrap(coarse_dual_graph(amesh.mesh))
        assert np.array_equal(rec["old_owner"], owner0)
        amesh.refine(marker(amesh, 0)[0])
        assert np.array_equal(rec["owner"], ablated.repartition(amesh, 4, owner0))
        assert not np.array_equal(rec["owner"], run(default)["owner"])
