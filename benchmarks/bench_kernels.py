"""Kernel microbenchmarks: throughput of the library's hot paths.

Unlike the experiment benches (one pedantic round regenerating a paper
table), these measure the kernels with proper multi-round timing so
regressions in the refinement, dual-graph, partitioning, KL and assembly
code paths are visible — the "no optimization without measuring" rule the
project follows.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import PNR
from repro.fem import CornerLaplace2D, interpolation_error_indicator
from repro.fem.p1 import stiffness_matrix
from repro.graph import fiedler_vector
from repro.graph.contract import contract
from repro.graph.csr import WeightedGraph
from repro.graph.matching import heavy_edge_matching
from repro.mesh import AdaptiveMesh, coarse_dual_graph, fine_dual_graph
from repro.mesh.metrics import shared_vertex_count
from repro.partition import (
    KLConfig,
    kl_refine,
    multilevel_partition,
    multilevel_repartition,
)
from repro.runtime.envflags import effective_cpu_count


@pytest.fixture(autouse=True)
def _record_cores(request):
    """Every entry carries the cores the run could actually use (the
    committed baselines are only comparable between like hosts)."""
    if "benchmark" in request.fixturenames:
        bench = request.getfixturevalue("benchmark")
        bench.extra_info["effective_cpu_count"] = effective_cpu_count()
    yield


@pytest.fixture(scope="module")
def adapted():
    am = AdaptiveMesh.unit_square(20)
    prob = CornerLaplace2D()
    from repro.fem import mark_top_fraction

    for _ in range(3):
        ind = interpolation_error_indicator(am, prob.exact)
        am.refine(mark_top_fraction(am, ind, 0.2))
    return am


@pytest.fixture(scope="module")
def adapted_large():
    """10× the default bench mesh (8192 vs 800 coarse elements) — the
    scale at which the vectorized kernels are demonstrated."""
    am = AdaptiveMesh.unit_square(64)
    prob = CornerLaplace2D()
    from repro.fem import mark_top_fraction

    for _ in range(2):
        ind = interpolation_error_indicator(am, prob.exact)
        am.refine(mark_top_fraction(am, ind, 0.2))
    return am


def test_kernel_refinement(benchmark):
    """Uniform bisection throughput (elements created per call)."""

    def run():
        am = AdaptiveMesh.unit_square(12)
        am.uniform_refine(2)
        return am.n_leaves

    leaves = benchmark(run)
    assert leaves == 288 * 4


def _one_bisection_later(adapted):
    """Pedantic set-up for the dual-graph kernels: a copy of the fixture
    with one more leaf bisected.  On an unchanged mesh the leaf adjacency
    comes from the per-forest-version cache and the timed call never
    computes it; a round of PARED always follows a structural change, so
    each timed call here pays one too (the one-off ``M^0`` skeleton rides
    along in the copy, as it does across rounds)."""
    coarse_dual_graph(adapted.mesh)

    def setup():
        am = copy.deepcopy(adapted)
        am.refine(am.leaf_ids()[:1])
        return (am.mesh,), {}

    return setup


def test_kernel_coarse_dual_graph(benchmark, adapted):
    g = benchmark.pedantic(
        coarse_dual_graph, setup=_one_bisection_later(adapted), rounds=200
    )
    assert g.vwts.sum() > adapted.n_leaves


def test_kernel_fine_dual_graph(benchmark, adapted):
    g, _ = benchmark.pedantic(
        fine_dual_graph, setup=_one_bisection_later(adapted), rounds=200
    )
    assert g.n_vertices > adapted.n_leaves


def test_kernel_shared_vertices(benchmark, adapted):
    a = (np.arange(adapted.n_leaves) % 8).astype(np.int64)
    sv = benchmark(shared_vertex_count, adapted.mesh, a)
    assert sv > 0


def test_kernel_fiedler(benchmark, adapted):
    g = coarse_dual_graph(adapted.mesh)
    fv = benchmark(fiedler_vector, g, 0)
    assert np.all(np.isfinite(fv))


def test_kernel_multilevel_partition(benchmark, adapted):
    g = coarse_dual_graph(adapted.mesh)
    a = benchmark(multilevel_partition, g, 8, 0)
    assert len(np.unique(a)) == 8


def test_kernel_kl_refine(benchmark, adapted):
    g = coarse_dual_graph(adapted.mesh)
    rng = np.random.default_rng(0)
    a0 = rng.integers(0, 8, g.n_vertices)
    cfg = KLConfig(beta=0.8, balance_tol=0.05, max_passes=2)
    a = benchmark(kl_refine, g, a0, 8, None, cfg)
    assert a.shape == a0.shape


def test_kernel_heavy_edge_matching(benchmark, adapted):
    g = coarse_dual_graph(adapted.mesh)
    m = benchmark(heavy_edge_matching, g, 0)
    assert np.array_equal(m[m], np.arange(g.n_vertices))


def test_kernel_contract(benchmark, adapted):
    g = coarse_dual_graph(adapted.mesh)
    m = heavy_edge_matching(g, seed=0)
    coarse, cmap = benchmark(contract, g, m)
    assert coarse.vwts.sum() == pytest.approx(g.vwts.sum())
    assert cmap.shape == (g.n_vertices,)


def test_kernel_kl_refine_large(benchmark, adapted_large):
    g = coarse_dual_graph(adapted_large.mesh)
    rng = np.random.default_rng(0)
    a0 = rng.integers(0, 8, g.n_vertices)
    cfg = KLConfig(beta=0.8, balance_tol=0.05, max_passes=2)
    a = benchmark(kl_refine, g, a0, 8, None, cfg)
    assert a.shape == a0.shape


def test_kernel_multilevel_partition_large(benchmark, adapted_large):
    g = coarse_dual_graph(adapted_large.mesh)
    a = benchmark(multilevel_partition, g, 8, 0)
    assert len(np.unique(a)) == 8


def _drifted(graph, p):
    """A partition of ``graph`` and the same graph after a refinement-like
    weight drift — what one PNR repartitioning call is handed."""
    current = multilevel_partition(graph, p, 0)
    rng = np.random.default_rng(0)
    grown = graph.vwts * rng.choice([1.0, 1.0, 2.0, 4.0], graph.n_vertices)
    return WeightedGraph(graph.xadj, graph.adjncy, graph.ewts, grown), current


def test_kernel_multilevel_repartition(benchmark, adapted):
    """The paper's kernel (Section 9): constrained HEM hierarchy + KL with
    the Equation-1 gain, from the current partition."""
    g, current = _drifted(coarse_dual_graph(adapted.mesh), 8)
    a = benchmark(multilevel_repartition, g, 8, current, PNR())
    assert len(np.unique(a)) == 8


def test_kernel_multilevel_repartition_large(benchmark, adapted_large):
    g, current = _drifted(coarse_dual_graph(adapted_large.mesh), 8)
    a = benchmark(multilevel_repartition, g, 8, current, PNR())
    assert len(np.unique(a)) == 8


def test_kernel_multilevel_repartition_3d_k16(benchmark):
    """One rung of the repo benchmark's ladder: 10 368 tets, k = 16."""
    am = AdaptiveMesh.unit_cube(12)
    am.refine_where(lambda c: c.sum(axis=1) > 2.2)
    g, current = _drifted(coarse_dual_graph(am.mesh), 16)
    a = benchmark(multilevel_repartition, g, 16, current, PNR())
    assert len(np.unique(a)) == 16


def test_kernel_stiffness_assembly(benchmark, adapted):
    mesh = adapted.mesh
    A = benchmark(stiffness_matrix, mesh.verts, mesh.leaf_cells())
    assert A.shape[0] == mesh.n_verts


def test_kernel_error_indicator(benchmark, adapted):
    prob = CornerLaplace2D()
    ind = benchmark(interpolation_error_indicator, adapted, prob.exact)
    assert ind.shape[0] == adapted.n_leaves
