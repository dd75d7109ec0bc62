"""Properties of the compiled multilevel kernels that the array-for-array
parity suites (``tests/test_kl_native.py``,
``tests/test_multilevel_native.py``) do not state, checked on seeded
generator graphs against the oracle in ``tests/_kl_oracle.py``:

* **monotone-or-rollback** — on every instance KL never returns a
  partition worse than its input (Equation-1 objective), and returns the
  oracle's partition;
* **matching parity** — heavy-edge matching is the oracle's matching on
  grid, torus, random geometric and distinct-weight graphs;
* **the matching contract** — a maximal involution that respects the
  constraint and is deterministic in the seed (also a Hypothesis
  property);
* **structural identity** — ``contract`` is *bit-identical* to the oracle
  (same cmap numbering, same CSR, same weights) and ``from_edges`` to the
  scipy ``sum_duplicates`` round-trip it replaced.

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

from tests import _kl_oracle as oracle

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
# KL: monotone per instance, the oracle's partition
# --------------------------------------------------------------------- #


def test_kl_objective_parity_aggregate():
    """Panel of 3 graphs × 4 gain settings × 5 seeded starts (60
    instances): the result is never worse than the input (the
    monotone-or-rollback guard) and is the oracle's, array for array."""
    p = 4
    improved = 0
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
                ref = oracle.kl_refine(graph, a0, p, home=home, config=cfg)
                assert np.array_equal(new, ref), f"{name}/{label}/seed{s}"

                obj_new = _equation1(graph, home, new, p, alpha, beta)
                obj_start = _equation1(graph, home, a0, p, alpha, beta)
                assert obj_new <= obj_start + 1e-9, (
                    f"{name}/{label}/seed{s}: worse than input "
                    f"({obj_new} > {obj_start})"
                )
                improved += obj_new < obj_start - 1e-9
    assert improved >= 50, f"only {improved} of 60 instances improved"


def test_kl_deterministic():
    graph = random_geometric_graph(120, seed=9)
    p = 5
    a0 = np.random.default_rng(1).integers(0, p, graph.n_vertices)
    cfg = KLConfig(beta=0.8, balance_tol=0.05, max_passes=3)
    assert np.array_equal(
        kl_refine(graph, a0, p, config=cfg), kl_refine(graph, a0, p, config=cfg)
    )


# --------------------------------------------------------------------- #
# matching: the oracle's matching + contract (involution, maximality,
# constraint)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name,make,base_seed", _GRAPHS, ids=[g[0] for g in _GRAPHS])
def test_hem_weight_parity(name, make, base_seed):
    """Unit and refinement-profile weights: many tied priorities, which
    only the seeded tie order separates."""
    graph = make()
    for seed in range(3):
        assert np.array_equal(
            heavy_edge_matching(graph, seed=seed),
            oracle.heavy_edge_matching(graph, seed=seed),
        ), f"{name} seed {seed}"


def test_hem_weight_parity_weighted_graph():
    """Distinct edge weights on a multigraph with self-loops dropped."""
    rng = np.random.default_rng(21)
    n = 200
    edges = rng.integers(0, n, size=(900, 2))
    keep = edges[:, 0] != edges[:, 1]
    g = WeightedGraph.from_edges(n, edges[keep], rng.random(int(keep.sum())) + 0.1)
    for seed in range(3):
        assert np.array_equal(
            heavy_edge_matching(g, seed=seed), oracle.heavy_edge_matching(g, seed=seed)
        ), f"seed {seed}"


@pytest.mark.parametrize(
    "new_fn,ref_fn",
    [(heavy_edge_matching, oracle.heavy_edge_matching)],
    ids=["hem"],
)
def test_matching_contract_holds(new_fn, ref_fn):
    """The matching and its oracle satisfy the same contract:
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
    HEM always returns a maximal involution that never matches across
    constraint labels."""
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
# contract / from_edges: bit-identical
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("trial", range(8))
def test_contract_bit_parity(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(2, 200))
    edges = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
    g = WeightedGraph.from_edges(n, edges, rng.random(len(edges)) + 0.1, rng.random(n) + 0.5)
    match = oracle.heavy_edge_matching(g, seed=trial)
    c1, m1 = contract(g, match)
    c2, m2 = oracle.contract(g, match)
    assert np.array_equal(m1, m2)
    for name in ("xadj", "adjncy", "ewts", "vwts"):
        assert np.array_equal(getattr(c1, name), getattr(c2, name)), name


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
