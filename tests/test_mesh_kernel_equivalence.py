"""The batched 2-D mesh kernel against the frozen per-element one.

``tests/_reference_kernels.py`` keeps the kernel this repository shipped
before the array adjacency (dict-of-sets edge map, stack-driven LEPP,
per-leaf coarsening sweep).  Element and vertex *ids* differ between the
two — the old kernel numbers children in discovery order, the batched one
in ascending-parent order per wave — so both sides are compared through
geometry: an element is the sorted tuple of its vertex coordinates, which
are bit-identical on both sides (same midpoint arithmetic).

Exact longest-edge ties are broken by vertex id, and vertex ids are part
of what changed, so on a mesh full of exact ties (``_tie_strip``) the two
kernels may legitimately pick different — equally valid — bisections.
That mesh is used where no reference is involved: the tie rule itself on
identical ids, and id-exact order independence.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import delaunay_square_mesh
from repro.geometry.generators import structured_tri_mesh
from repro.mesh.coarsen import coarsen
from repro.mesh.mesh2d import TriMesh
from repro.mesh.rivara2d import refine2d

from tests._reference_kernels import (
    RefTriMesh,
    coarsen_reference,
    refine2d_reference,
)


def _geo(mesh, ids) -> list:
    """Geometric identity of elements: sorted vertex-coordinate triples."""
    tri = mesh.verts[mesh.cells[np.asarray(ids, dtype=np.int64)]]
    return [tuple(sorted(map(tuple, t.tolist()))) for t in tri]


def _tie_strip(n: int = 5):
    """Zigzag strip of isosceles triangles whose two slanted edges are
    *exactly* equal and longest: every element exercises the tie rule."""
    bottom = [(float(i), 0.0) for i in range(n + 1)]
    top = [(i + 0.5, 2.0) for i in range(n)]
    cells = [(i, i + 1, n + 1 + i) for i in range(n)]
    cells += [(i + 1, n + 2 + i, n + 1 + i) for i in range(n - 1)]
    return np.array(bottom + top), np.array(cells)


def _pair(kind: str, seed: int):
    if kind == "structured":
        verts, cells = structured_tri_mesh(4, 3)
    elif kind == "ties":
        verts, cells = _tie_strip()
    else:
        verts, cells = delaunay_square_mesh(5, seed=seed)
    return TriMesh(verts, cells), RefTriMesh(verts, cells)


def _same_leaves(new, ref) -> dict:
    """Assert equal leaf geometry; returns ``geometry -> reference leaf id``."""
    ref_ids = ref.leaf_ids()
    ref_of = dict(zip(_geo(ref, ref_ids), ref_ids.tolist()))
    assert new.n_leaves == ref.n_leaves
    assert set(_geo(new, new.leaf_ids())) == set(ref_of)
    return ref_of


def _step(new, ref, rng, op: str, frac: float) -> None:
    """Apply one operation to geometrically identical target sets on both
    meshes and compare everything observable."""
    ref_of = _same_leaves(new, ref)
    leaves = new.leaf_ids()
    k = max(1, int(frac * leaves.size))
    marked = rng.choice(leaves, size=k, replace=False)
    ref_marked = [ref_of[g] for g in _geo(new, marked)]
    if op == "refine":
        done = refine2d(new, marked)
        ref_done = refine2d_reference(ref, ref_marked)
        assert len(done) == len(set(done)) == len(ref_done)
    else:
        done = coarsen(new, marked)
        ref_done = coarsen_reference(ref, ref_marked)
    assert set(_geo(new, done)) == set(_geo(ref, ref_done))
    _same_leaves(new, ref)
    assert new.n_elements == ref.n_elements  # reactivation, not re-creation
    assert new.n_verts == ref.n_verts
    new.check_adjacency()
    new.check_conformal()
    new.forest.validate()


@pytest.mark.parametrize("kind", ["structured", "delaunay"])
@given(
    seed=st.integers(0, 10_000),
    script=st.lists(
        st.tuples(st.sampled_from(["refine", "coarsen"]), st.floats(0.05, 0.7)),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_scripts_match_reference(kind, seed, script):
    rng = np.random.default_rng(seed)
    new, ref = _pair(kind, seed)
    for op, frac in script:
        _step(new, ref, rng, op, frac)


@pytest.mark.parametrize("kind", ["structured", "delaunay"])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_refine_coarsen_refine_reactivates_like_reference(kind, seed):
    """Refine twice, coarsen until nothing merges, refine again: the second
    refinement runs the reactivation path of ``split_many`` on both sides."""
    rng = np.random.default_rng(seed)
    new, ref = _pair(kind, seed)
    _step(new, ref, rng, "refine", 0.3)
    _step(new, ref, rng, "refine", 0.3)
    n_elements = new.n_elements
    while coarsen(new, new.leaf_ids()):
        coarsen_reference(ref, ref.leaf_ids())
    assert not coarsen_reference(ref, ref.leaf_ids())
    assert new.n_leaves == new.n_roots == ref.n_leaves
    new.check_adjacency()
    _step(new, ref, rng, "refine", 0.5)
    _step(new, ref, rng, "coarsen", 0.8)
    _step(new, ref, rng, "refine", 0.4)
    assert new.n_elements >= n_elements


@pytest.mark.parametrize("kind", ["structured", "delaunay", "ties"])
def test_vectorised_longest_edge_is_the_scalar_rule(kind):
    """Same cells, same vertex ids: the array tie rule (``1e-12`` band,
    smallest vertex pair) picks the edge the scalar scan picked."""
    new, ref = _pair(kind, 11)
    refine2d(new, new.leaf_ids())
    verts, cells = new.verts.copy(), new.cells.copy()
    new, ref = TriMesh(verts, cells), RefTriMesh(verts, cells)
    for e in range(new.n_elements):
        assert new.longest_edge(e) == ref.longest_edge(e)
    if kind == "ties":
        ends = verts[[ref.longest_edge(e) for e in range(2 * 5 - 1)]]
        assert np.all(ends[:, 0, 1] != ends[:, 1, 1])  # a slanted edge, not the base


def _state(mesh) -> tuple:
    f = mesh.forest
    return (
        mesh.cells.copy(),
        mesh.verts.copy(),
        f.parent_array.copy(),
        f.child0_array.copy(),
        f.child1_array.copy(),
        f.status_array.copy(),
        f.depth_array.copy(),
        dict(mesh._midpoint),
    )


def _assert_same_state(a, b) -> None:
    for x, y in zip(_state(a), _state(b)):
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


@pytest.mark.parametrize("kind", ["structured", "delaunay", "ties"])
@given(seed=st.integers(0, 10_000), rounds=st.integers(1, 3))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ids_independent_of_target_order(kind, seed, rounds):
    """``refine2d(m, T)`` and ``refine2d(m, any permutation of T, with
    repeats)`` build identical arrays."""
    rng = np.random.default_rng(seed)
    a, _ = _pair(kind, seed)
    b, _ = _pair(kind, seed)
    for _ in range(rounds):
        leaves = a.leaf_ids()
        marked = rng.choice(leaves, size=max(1, leaves.size // 3), replace=False)
        done = refine2d(a, np.sort(marked))
        shuffled = rng.permutation(np.concatenate([marked, marked[:2]]))
        done_b = refine2d(b, shuffled.tolist())
        assert sorted(done) == sorted(done_b)
        _assert_same_state(a, b)
        a.check_adjacency()
        a.check_conformal()


def test_extra_targets_on_the_path_change_nothing():
    """PARED's parallel refinement adds the remote elements of every LEPP
    to the target set; they would be bisected anyway, so ids must not
    move (parallel ≡ serial, id-exactly)."""
    a, _ = _pair("delaunay", 3)
    b, _ = _pair("delaunay", 3)
    for m in (a, b):
        refine2d(m, m.leaf_ids()[::3])
    targets = a.leaf_ids()[::5]
    path, cur = [], targets
    while cur.size:
        path.append(cur)
        nb, terminal = a.lepp_next(cur)
        cur = np.unique(nb[~terminal])
    refine2d(a, targets)
    refine2d(b, np.concatenate(path))
    _assert_same_state(a, b)
