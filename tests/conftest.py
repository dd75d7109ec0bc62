"""Shared fixtures: small deterministic meshes and graphs used across the
test-suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.graph.csr import WeightedGraph
from repro.mesh.adapt import AdaptiveMesh
from repro.partition import kl
from repro.perf import PERF

# Tier-1 (`python -m pytest`) must be the same run every time and the same
# run as CI: the default profile derives each test's examples from the test
# itself (no fresh random seed, no example database).  A derandomized
# profile ignores `--hypothesis-seed`; the chaos profile below is not
# derandomized, so the nightly job's fresh seed still takes effect.
settings.register_profile("default", derandomize=True)
settings.load_profile("default")

# The scheduled chaos job runs the property suites wider and without a
# deadline (recovery runs block on real timeouts, so wall-clock per example
# is meaningless there): select with ``--hypothesis-profile=chaos`` and a
# fresh ``--hypothesis-seed`` (see .github/workflows/ci.yml).
settings.register_profile(
    "chaos",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def kl_counted(fn):
    """``fn()`` and the KL counters it credited to ``PERF``: ``(passes,
    moves tried, moves kept)``, read off ``kl.pass`` / ``kl.moves`` /
    ``kl.kept`` (the registry is reset first)."""
    PERF.reset()
    out = fn()
    snap = PERF.snapshot()
    names = ("kl.pass", "kl.moves", "kl.kept")
    return out, tuple(snap.get(name, (0, 0.0))[0] for name in names)


def kl_starts(graph: WeightedGraph, p: int, rng) -> dict:
    """Two starting assignments for a KL parity draw: ``"balanced"`` —
    heaviest vertex first onto the lightest part, so every part starts
    inside the balance band (and the cut is arbitrary) — and
    ``"unbalanced"`` — parts drawn with probabilities halving from one
    part to the next."""
    load = np.zeros(p)
    balanced = np.empty(graph.n_vertices, dtype=np.int64)
    for v in np.argsort(-graph.vwts, kind="stable"):
        j = int(np.argmin(load))
        balanced[v] = j
        load[j] += graph.vwts[v]
    skew = 0.5 ** np.arange(p)
    unbalanced = rng.choice(p, graph.n_vertices, p=skew / skew.sum())
    return {"balanced": balanced, "unbalanced": unbalanced}


_NEVER = 1 << 40  # a tail bound no pass reaches


def kl_tail_arms(run, cfg) -> set:
    """Which tail bounds decided ``run(cfg)``: ``"band"`` (the short tail
    inside the balance band, ``kl.IN_BAND_TAIL``) and/or ``"stall"``
    (``cfg.stall_limit``).  An arm *fired* iff lifting it alone changes
    the KL counters of the call."""
    base = kl_counted(lambda: run(cfg))[1]
    arms = set()
    saved = kl.IN_BAND_TAIL
    kl.IN_BAND_TAIL = _NEVER
    try:
        if kl_counted(lambda: run(cfg))[1] != base:
            arms.add("band")
    finally:
        kl.IN_BAND_TAIL = saved
    if cfg.stall_limit:
        lifted = replace(cfg, stall_limit=_NEVER)
        if kl_counted(lambda: run(lifted))[1] != base:
            arms.add("stall")
    return arms


def slot_frame(report: dict, graph: WeightedGraph) -> dict:
    """A key-form weight report as the P2 frame the delta protocol sends:
    four int32 arrays, each edge key ``a * n + b`` turned into its position
    among ``graph``'s forward slots (``a→b``, ``a < b``, CSR order) by a
    ``searchsorted`` — the oracle of
    :meth:`~repro.pared.protocols._WeightProtocol.weigh`'s slot-space cut.
    ``graph`` is ``M^0``'s skeleton or any graph weighed on it."""
    n = graph.n_vertices
    src, dst = graph.edge_src, graph.adjncy
    keys = (src * n + dst)[src < dst]
    assert np.isin(report["e_keys"], keys).all()
    return {
        "v_ids": report["v_ids"].astype(np.int32),
        "v_wts": report["v_wts"].astype(np.int32),
        "e_pos": np.searchsorted(keys, report["e_keys"]).astype(np.int32),
        "e_wts": report["e_wts"].astype(np.int32),
    }


def rank_deltas(graph: WeightedGraph, owner, prev: list) -> list:
    """Every rank's P2 frame of ``graph`` under ``owner``, cut against its
    baseline report in ``prev`` (one slot per rank, updated in place)."""
    from repro.pared.weights import diff_weight_report, full_weight_report

    out = []
    for r in range(len(prev)):
        full = full_weight_report(graph, owner, r)
        out.append(slot_frame(diff_weight_report(full, prev[r]), graph))
        prev[r] = full
    return out


@pytest.fixture()
def square8() -> AdaptiveMesh:
    """128-triangle square, unrefined."""
    return AdaptiveMesh.unit_square(8)


@pytest.fixture()
def cube3() -> AdaptiveMesh:
    """162-tet cube, unrefined."""
    return AdaptiveMesh.unit_cube(3)


@pytest.fixture()
def adapted_square() -> AdaptiveMesh:
    """Square refined three rounds toward the (1,1) corner."""
    am = AdaptiveMesh.unit_square(8)
    for _ in range(3):
        am.refine_where(lambda c: (c[:, 0] > 0.3) & (c[:, 1] > 0.3))
    return am


@pytest.fixture()
def adapted_cube() -> AdaptiveMesh:
    """Cube refined twice toward the (1,1,1) corner."""
    am = AdaptiveMesh.unit_cube(3)
    for _ in range(2):
        am.refine_where(lambda c: (c[:, 0] > 0) & (c[:, 1] > 0) & (c[:, 2] > 0))
    return am


@pytest.fixture()
def grid_graph() -> WeightedGraph:
    """8x8 unit-weight grid graph (64 vertices)."""
    n = 8
    edges = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            if i + 1 < n:
                edges.append((v, v + n))
            if j + 1 < n:
                edges.append((v, v + 1))
    return WeightedGraph.from_edges(n * n, np.array(edges))


@pytest.fixture()
def path_graph() -> WeightedGraph:
    """10-vertex path with increasing vertex weights 1..10."""
    edges = [(i, i + 1) for i in range(9)]
    return WeightedGraph.from_edges(10, np.array(edges), vweights=np.arange(1, 11))
