"""The compiled mesh kernels against their numpy/Python oracle
(``tests/_mesh_oracle.py``) under random refine / coarsen scripts, and
the properties PARED relies on — in 2-D and, at the end, in 3-D.

``tests/test_mesh_native.py`` compares the two on fixed scripts; here
Hypothesis draws the scripts (operation, fraction of leaves), and both
meshes must agree id for id after every step — so the same marked ids hit
the same elements — and stay conformal, with a valid forest and a
current adjacency.  The longest-edge rule of every element, roots and
children, is checked against the scalar statement of the rule, exact ties
included (``_tie_strip``), and on drawn meshes whose tied edges differ by
less than the ``1e-12`` band, so that the band decides; element and
vertex ids must not depend on the order, multiplicity or redundancy of the
targets.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import delaunay_square_mesh
from repro.geometry.generators import structured_tet_mesh, structured_tri_mesh
from repro.geometry.primitives import tet_volumes
from repro.mesh.coarsen import coarsen
from repro.mesh.mesh2d import TriMesh
from repro.mesh.mesh3d import TetMesh
from repro.mesh.rivara import refine

from tests import _mesh_oracle as oracle


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
    return TriMesh(verts, cells), oracle.OracleTriMesh(verts, cells)


def _full_state(mesh) -> list:
    f = mesh.forest
    return [
        f.parent_array, f.child0_array, f.child1_array, f.root_array,
        f.depth_array, f.status_array, mesh.cells, mesh.verts,
        mesh._nbr.data, mesh._le.data,
        mesh._midpoint.keys_array, mesh._midpoint.values_array,
    ]


def _assert_same_state(a, b) -> None:
    for x, y in zip(_full_state(a), _full_state(b), strict=True):
        assert np.array_equal(x, y)


def _step(new, ref, rng, op: str, frac: float) -> None:
    """Apply one operation to the same target set on both meshes and
    compare everything observable."""
    leaves = new.leaf_ids()
    assert np.array_equal(leaves, ref.leaf_ids())
    k = max(1, int(frac * leaves.size))
    marked = rng.choice(leaves, size=k, replace=False)
    if op == "refine":
        refine_oracle = oracle.refine2d if new.dim == 2 else oracle.refine3d
        done, want = refine(new, marked), refine_oracle(ref, marked)
        assert done == want
        assert len(done) == len(set(done))
    else:
        assert coarsen(new, marked) == coarsen(ref, marked)
    _assert_same_state(new, ref)
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
        coarsen(ref, ref.leaf_ids())
    assert not coarsen(ref, ref.leaf_ids())
    assert new.n_leaves == new.n_roots == ref.n_leaves
    new.check_adjacency()
    _step(new, ref, rng, "refine", 0.5)
    _step(new, ref, rng, "coarsen", 0.8)
    _step(new, ref, rng, "refine", 0.4)
    assert new.n_elements >= n_elements


#: local edges in scan order: a triangle's opposite each vertex, a tet's
#: in ``combinations`` order
_SCAN = {3: ((1, 2), (2, 0), (0, 1)), 4: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}


def _scalar_longest_edge(verts, cell, band: float = 1e-12) -> tuple:
    """The rule stated one element at a time: scan the local edges in
    order; a later edge wins when longer by more than ``band`` relative,
    or within that band of the running best with a smaller vertex pair."""
    best, best_len = None, -1.0
    for i, j in _SCAN[len(cell)]:
        p, q = cell[i], cell[j]
        d = verts[p] - verts[q]
        ln = 0.0
        for dk in d:
            ln += float(dk * dk)
        key = (p, q) if p < q else (q, p)
        if ln > best_len * (1.0 + band):
            best, best_len = key, ln
        elif ln >= best_len * (1.0 - band) and key < best:
            best = key
    return best


def _is_the_scalar_rule(new, in_band: bool) -> None:
    """Refine every leaf of ``new``, then every other leaf: every element —
    roots and children alike, from the compiled rule — takes the edge the
    scalar scan takes.  On an input drawn ``in_band`` the ``1e-12`` band
    must decide some element (a scan without it takes another edge)."""
    refine(new, new.leaf_ids())
    refine(new, new.leaf_ids()[::2])
    assert new.n_elements > 3 * new.n_roots
    for e in range(new.n_elements):
        assert oracle.longest_edge(new, e) == _scalar_longest_edge(new.verts, new.cell(e))
    if in_band:
        assert any(
            _scalar_longest_edge(new.verts, c) != _scalar_longest_edge(new.verts, c, 0.0)
            for c in new.cells
        )


def _band_strip(shifts) -> tuple:
    """The tie strip with apex ``i`` moved ``shifts[i] * 1e-13`` along x
    (``|shifts| <= 15``, none zero): the two slanted edges of a triangle
    differ by at most 0.71e-12 relative, so where the later edge is the
    longer with a larger vertex pair, or the shorter with a smaller one,
    the band decides — in an upward triangle when its apex moved left, in
    a downward one when its two apexes moved right on balance."""
    verts, cells = _tie_strip(len(shifts))
    verts[len(shifts) + 1 :, 0] += np.array(shifts) * 1e-13
    return verts, cells


@pytest.mark.parametrize("kind", ["structured", "delaunay", "ties", "band"])
@given(data=st.data())
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_vectorised_longest_edge_is_the_scalar_rule(kind, data):
    """Every triangle takes the edge the scalar scan takes (``1e-12`` band,
    smallest vertex pair), on fixed meshes and on drawn strips whose
    slanted edges differ inside the band (only ``band`` draws)."""
    if kind == "band":
        shifts = st.lists(st.integers(-15, 15).filter(bool), min_size=2, max_size=8)
        new = TriMesh(*_band_strip(data.draw(shifts)))
    else:
        new, _ = _pair(kind, 11)
    _is_the_scalar_rule(new, kind == "band")
    if kind == "ties":
        ends = new.verts[[oracle.longest_edge(new, e) for e in range(2 * 5 - 1)]]
        assert np.all(ends[:, 0, 1] != ends[:, 1, 1])  # a slanted edge, not the base


@pytest.mark.parametrize("kind", ["structured", "delaunay", "ties"])
@given(seed=st.integers(0, 10_000), rounds=st.integers(1, 3))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ids_independent_of_target_order(kind, seed, rounds):
    """``refine(m, T)`` and ``refine(m, any permutation of T, with
    repeats)`` build identical arrays."""
    rng = np.random.default_rng(seed)
    a, _ = _pair(kind, seed)
    b, _ = _pair(kind, seed)
    for _ in range(rounds):
        leaves = a.leaf_ids()
        marked = rng.choice(leaves, size=max(1, leaves.size // 3), replace=False)
        done = refine(a, np.sort(marked))
        shuffled = rng.permutation(np.concatenate([marked, marked[:2]]))
        done_b = refine(b, shuffled.tolist())
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
        refine(m, m.leaf_ids()[::3])
    targets = a.leaf_ids()[::5]
    path = oracle.walk(a, targets)
    assert path.size > targets.size
    refine(a, targets)
    refine(b, path)
    _assert_same_state(a, b)


# ---------------------------------------------------------------------- #
# 3-D: the compiled refine against the Python waves
# ---------------------------------------------------------------------- #


def _cube(kind: str, seed: int) -> tuple:
    """A ``TetMesh`` and an ``OracleTetMesh`` of a 2 x 2 x 2 Kuhn cube,
    lattice or with the interior vertex jittered (fewer exact length
    ties)."""
    verts, cells = structured_tet_mesh(2, 2, 2)
    if kind == "jittered":
        verts = verts.copy()
        verts[np.all(verts == 0.0, axis=1)] += np.random.default_rng(seed).uniform(-0.2, 0.2, 3)
    return TetMesh(verts, cells), oracle.OracleTetMesh(verts, cells)


@pytest.mark.parametrize("kind", ["structured", "jittered"])
@given(
    seed=st.integers(0, 10_000),
    script=st.lists(
        st.tuples(st.sampled_from(["refine", "coarsen"]), st.floats(0.05, 0.5)),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_3d_random_scripts_match_the_python_waves(kind, seed, script):
    rng = np.random.default_rng(seed)
    new, ref = _cube(kind, seed)
    for op, frac in script:
        _step(new, ref, rng, op, frac)


def _five_tet_cubes(n: int, axis: int, stretch: float) -> tuple:
    """``n``^3 unit cubes, each cut into five tets — the one on its four
    corners of even coordinate sum and one around each other corner — so
    that every tet's longest edges are face diagonals tied exactly; then
    ``axis`` is stretched by ``1 + stretch``, which parts the diagonals
    across it from the others by ``stretch`` relative."""
    g = np.arange(n + 1)
    verts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3) * 1.0
    vid = lambda p: (p[0] * (n + 1) + p[1]) * (n + 1) + p[2]  # noqa: E731
    cells = []
    for cube in itertools.product(range(n), repeat=3):
        corners = [tuple(np.add(cube, c)) for c in itertools.product((0, 1), repeat=3)]
        even = [p for p in corners if sum(p) % 2 == 0]
        cells.append([vid(p) for p in even])
        for p in corners:
            if sum(p) % 2:
                near = [q for q in even if np.abs(np.subtract(p, q)).sum() == 1]
                cells.append([vid(p)] + [vid(q) for q in near])
    cells = np.array(cells)
    flip = tet_volumes(verts, cells) < 0
    cells[flip, 2:] = cells[flip, 3:1:-1]
    verts[:, axis] *= 1.0 + stretch
    return verts, cells


@pytest.mark.parametrize("kind", ["structured", "jittered", "band"])
@given(data=st.data())
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_3d_longest_edge_is_the_scalar_rule(kind, data):
    """Every tet takes the edge the scalar scan takes, on the Kuhn cubes
    and on drawn five-tet cubes whose tied diagonals a stretch of less than
    the band parts (only ``band`` draws)."""
    if kind == "band":
        n, axis = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 2))
        stretch = data.draw(st.integers(-80, 80).filter(bool)) * 1e-14
        new = TetMesh(*_five_tet_cubes(n, axis, stretch))
    else:
        new, _ = _cube(kind, 11)
    _is_the_scalar_rule(new, kind == "band")


@pytest.mark.parametrize("kind", ["structured", "jittered"])
@given(seed=st.integers(0, 10_000), rounds=st.integers(1, 3))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_3d_ids_independent_of_target_order(kind, seed, rounds):
    """``refine(m, T)`` and ``refine(m, any permutation of T, with
    repeats)`` build identical arrays."""
    rng = np.random.default_rng(seed)
    a, b = _cube(kind, seed)
    for _ in range(rounds):
        leaves = a.leaf_ids()
        marked = rng.choice(leaves, size=max(1, leaves.size // 3), replace=False)
        done = refine(a, np.sort(marked))
        shuffled = rng.permutation(np.concatenate([marked, marked[:2]]))
        assert sorted(done) == sorted(refine(b, shuffled.tolist()))
        _assert_same_state(a, b)
        a.check_adjacency()
        a.check_conformal()
