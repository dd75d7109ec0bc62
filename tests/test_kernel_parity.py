"""Objective-parity suite: vectorized kernels vs. the frozen references.

The flat-array KL engine and the array-round matchings
(:mod:`repro.partition.kl`, :mod:`repro.graph.matching`) are *not* required
to reproduce the old per-element implementations move for move — the heap
discipline intentionally changed (per-(vertex,dest) stamps instead of
duplicate entries), so the two engines explore different hill-climbing
trajectories.  KL is a chaotic local search: demanding per-instance
domination of one trajectory over another is not a meaningful spec.  What
the kernel-layer correctness bar *does* demand:

* **monotone-or-rollback** — on every instance the vectorized KL never
  returns a partition worse than its input (Equation-1 objective);
* **aggregate objective parity** — over a seeded panel of generator graphs
  (grid, torus, random geometric) × ``alpha``/``beta`` settings × starts,
  the vectorized KL is at least as good as the reference *on average*
  (mean objective ratio ≤ 1) and wins-or-ties on a clear majority of
  instances, with no single instance degrading beyond a loose cap;
* **matching parity** — vectorized HEM captures essentially the matched
  edge weight of sequential greedy HEM (mutual-proposal rounds can match
  one fewer *unit-weight* edge, hence the small tolerance; on weighted
  graphs it typically captures more);
* **structural identity** — ``contract`` and ``from_edges`` are
  *bit-identical* to the old code (same cmap numbering, same CSR), and both
  matchings keep the maximal-involution + constraint contract (checked as a
  Hypothesis property).

The references live in :mod:`tests._reference_kernels`, frozen verbatim.
All seeding is explicit — no ``hash()``-derived seeds, which vary per
process under ``PYTHONHASHSEED``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.contract import contract
from repro.graph.csr import WeightedGraph
from repro.graph.generators import (
    grid_graph,
    random_geometric_graph,
    torus_graph,
    weighted_refinement_profile,
)
from repro.graph.matching import heavy_edge_matching
from repro.partition.kl import KLConfig, kl_refine
from repro.partition.metrics import balance_cost, graph_cut, graph_migration

from tests._reference_kernels import (
    contract_reference,
    heavy_edge_matching_reference,
    kl_refine_reference,
)

#: fixed per-graph base seeds for start assignments (NOT hash()-derived)
_GRAPHS = [
    ("grid", lambda: grid_graph(12, vweights=weighted_refinement_profile(144, seed=3)), 11),
    ("torus", lambda: torus_graph(10), 12),
    ("rgg", lambda: random_geometric_graph(150, seed=5), 13),
]

_GAIN_SETTINGS = [
    ("cut", 0.0, 0.0),
    ("cut+mig", 0.5, 0.0),
    ("cut+bal", 0.0, 0.8),
    ("eq1", 0.1, 0.8),
]


def _equation1(graph, home, assignment, p, alpha, beta):
    obj = graph_cut(graph, assignment)
    if home is not None and alpha:
        obj += alpha * graph_migration(graph, home, assignment)
    if beta:
        obj += beta * balance_cost(graph, assignment, p)
    return obj


# --------------------------------------------------------------------- #
# KL: monotone per instance, parity with the reference in aggregate
# --------------------------------------------------------------------- #


def test_kl_objective_parity_aggregate():
    """Panel of 3 graphs × 4 gain settings × 5 seeded starts (60 instances).

    Per instance: the result is never worse than the input (the
    monotone-or-rollback guard) and never beyond 1.75× the reference's
    objective.  In aggregate: mean objective ratio ≤ 1 and win-or-tie on
    ≥ 60% of instances.  (Measured at the time of the rewrite: mean ratio
    ≈ 0.88, win-or-tie ≈ 79% — comfortably inside both bars.)
    """
    p = 4
    ratios = []
    wins = 0
    for name, make, base_seed in _GRAPHS:
        graph = make()
        n = graph.n_vertices
        for label, alpha, beta in _GAIN_SETTINGS:
            for s in range(5):
                rng = np.random.default_rng(base_seed * 1000 + s)
                a0 = rng.integers(0, p, n)
                home = rng.integers(0, p, n) if alpha else None
                cfg = KLConfig(alpha=alpha, beta=beta, balance_tol=0.05, max_passes=4)

                new = kl_refine(graph, a0, p, home=home, config=cfg)
                ref = kl_refine_reference(graph, a0, p, home=home, config=cfg)

                obj_new = _equation1(graph, home, new, p, alpha, beta)
                obj_ref = _equation1(graph, home, ref, p, alpha, beta)
                obj_start = _equation1(graph, home, a0, p, alpha, beta)

                assert obj_new <= obj_start + 1e-9, (
                    f"{name}/{label}/seed{s}: worse than input "
                    f"({obj_new} > {obj_start})"
                )
                ratio = obj_new / obj_ref if obj_ref > 0 else 1.0
                assert ratio <= 1.75, (
                    f"{name}/{label}/seed{s}: {obj_new} vs ref {obj_ref} "
                    f"(ratio {ratio:.2f} beyond per-instance cap)"
                )
                ratios.append(ratio)
                if obj_new <= obj_ref + 1e-9:
                    wins += 1
    mean_ratio = float(np.mean(ratios))
    win_rate = wins / len(ratios)
    assert mean_ratio <= 1.0, f"mean objective ratio {mean_ratio:.3f} > 1"
    assert win_rate >= 0.6, f"win-or-tie rate {win_rate:.2f} < 0.6"


def test_kl_deterministic():
    graph = random_geometric_graph(120, seed=9)
    p = 5
    a0 = np.random.default_rng(1).integers(0, p, graph.n_vertices)
    cfg = KLConfig(beta=0.8, balance_tol=0.05, max_passes=3)
    assert np.array_equal(
        kl_refine(graph, a0, p, config=cfg), kl_refine(graph, a0, p, config=cfg)
    )


# --------------------------------------------------------------------- #
# matching: weight parity + contract (involution, maximality, constraint)
# --------------------------------------------------------------------- #


def _matched_weight(graph, match):
    src = np.repeat(np.arange(graph.n_vertices), np.diff(graph.xadj))
    return float(graph.ewts[match[src] == graph.adjncy].sum()) / 2.0


@pytest.mark.parametrize("name,make,base_seed", _GRAPHS, ids=[g[0] for g in _GRAPHS])
def test_hem_weight_parity(name, make, base_seed):
    """Mutual-proposal HEM captures essentially the matched weight of the
    sequential greedy reference.  On weighted graphs it is typically
    *heavier* (locally-best-first); on unit-weight graphs the round
    structure can match one fewer edge, hence the 0.9 tolerance."""
    graph = make()
    for seed in range(3):
        w_new = _matched_weight(graph, heavy_edge_matching(graph, seed=seed))
        w_ref = _matched_weight(graph, heavy_edge_matching_reference(graph, seed=seed))
        assert w_new >= 0.9 * w_ref - 1e-9, f"{name} seed {seed}: {w_new} < 0.9×{w_ref}"


def test_hem_weight_parity_weighted_graph():
    """With distinct edge weights, locally-best-first mutual proposals beat
    (or tie) sequential greedy outright — no tolerance needed."""
    rng = np.random.default_rng(21)
    n = 200
    edges = rng.integers(0, n, size=(900, 2))
    keep = edges[:, 0] != edges[:, 1]
    g = WeightedGraph.from_edges(n, edges[keep], rng.random(int(keep.sum())) + 0.1)
    for seed in range(3):
        w_new = _matched_weight(g, heavy_edge_matching(g, seed=seed))
        w_ref = _matched_weight(g, heavy_edge_matching_reference(g, seed=seed))
        assert w_new >= w_ref - 1e-9, f"seed {seed}: {w_new} < {w_ref}"


@pytest.mark.parametrize(
    "new_fn,ref_fn",
    [(heavy_edge_matching, heavy_edge_matching_reference)],
    ids=["hem"],
)
def test_matching_contract_holds(new_fn, ref_fn):
    """The matching and its reference satisfy the same contract:
    involution, maximality, constraint respected, deterministic in seed."""
    graph = random_geometric_graph(130, seed=2)
    n = graph.n_vertices
    constraint = np.random.default_rng(4).integers(0, 3, n)
    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    for fn in (new_fn, ref_fn):
        m = fn(graph, seed=7, constraint=constraint)
        assert np.array_equal(m[m], np.arange(n)), "not an involution"
        paired = m != np.arange(n)
        assert np.all(constraint[m[paired]] == constraint[paired])
        un = m == np.arange(n)
        unmatchable = un[src] & un[graph.adjncy] & (constraint[src] == constraint[graph.adjncy])
        assert not unmatchable.any(), "matching not maximal"
        assert np.array_equal(m, fn(graph, seed=7, constraint=constraint))


@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 10_000),
    nlabels=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hem_maximal_involution_property(n, seed, nlabels):
    """Hypothesis: on random geometric graphs with a random constraint,
    vectorized HEM always returns a maximal involution that never matches
    across constraint labels."""
    graph = random_geometric_graph(n, seed=seed)
    constraint = np.random.default_rng(seed + 1).integers(0, nlabels, n)
    m = heavy_edge_matching(graph, seed=seed, constraint=constraint)
    assert np.array_equal(m[m], np.arange(n))
    paired = m != np.arange(n)
    assert np.all(constraint[m[paired]] == constraint[paired])
    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    un = m == np.arange(n)
    unmatchable = un[src] & un[graph.adjncy] & (constraint[src] == constraint[graph.adjncy])
    assert not unmatchable.any()


# --------------------------------------------------------------------- #
# contract / from_edges: bit-identical to the old construction
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("trial", range(8))
def test_contract_bit_parity(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(2, 200))
    edges = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
    g = WeightedGraph.from_edges(n, edges, rng.random(len(edges)) + 0.1, rng.random(n) + 0.5)
    match = heavy_edge_matching_reference(g, seed=trial)
    c1, m1 = contract(g, match)
    c2, m2 = contract_reference(g, match)
    assert np.array_equal(m1, m2)
    assert np.array_equal(c1.xadj, c2.xadj)
    assert np.array_equal(c1.adjncy, c2.adjncy)
    assert np.allclose(c1.ewts, c2.ewts)
    assert np.allclose(c1.vwts, c2.vwts)


@pytest.mark.parametrize("trial", range(8))
def test_from_edges_matches_scipy_roundtrip(trial):
    """The lexsort/reduceat construction must produce exactly the CSR the
    old scipy sum_duplicates round-trip produced (sorted indices per row)."""
    import scipy.sparse as sp

    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(1, 150))
    m = int(rng.integers(0, 5 * n))
    edges = rng.integers(0, n, size=(m, 2))
    wts = rng.random(m) + 0.1
    g = WeightedGraph.from_edges(n, edges, wts)
    keep = edges[:, 0] != edges[:, 1] if m else np.zeros(0, dtype=bool)
    e2, w2 = edges[keep], wts[keep]
    rows = np.concatenate([e2[:, 0], e2[:, 1]])
    cols = np.concatenate([e2[:, 1], e2[:, 0]])
    mat = sp.csr_matrix((np.concatenate([w2, w2]), (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    assert np.array_equal(g.xadj, mat.indptr)
    assert np.array_equal(g.adjncy, mat.indices)
    assert np.allclose(g.ewts, mat.data)
