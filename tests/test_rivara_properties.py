"""Property-based tests of the adaptation invariants (hypothesis).

DESIGN.md's key invariants: conformality after any marking sequence, exact
tiling of the domain by the active leaves, forest structural integrity, and
bounded quality degradation of 2-D bisection (Rivara's theory bounds the
minimum angle of repeated longest-edge bisection).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import tet_volumes, tri_areas, tri_quality
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.coarsen import coarsen


@st.composite
def adapt_script(draw):
    """A short random script of refine/coarsen operations with fraction
    arguments — the space of adaptation histories."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["refine", "coarsen"]),
                st.floats(0.05, 0.6),
                st.integers(0, 2**31 - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return ops


@given(script=adapt_script())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_2d_adaptation_invariants(script):
    am = AdaptiveMesh.unit_square(4)
    for op, frac, seed in script:
        rng = np.random.default_rng(seed)
        leaves = am.leaf_ids()
        k = max(1, int(frac * len(leaves)))
        marked = leaves[rng.choice(len(leaves), size=k, replace=False)]
        if op == "refine":
            am.refine(marked)
        else:
            am.coarsen(marked)
        am.mesh.check_conformal()
        am.mesh.check_adjacency()
        am.mesh.forest.validate()
        assert tri_areas(am.mesh.verts, am.mesh.leaf_cells()).sum() == pytest.approx(4.0)
        # weights of the coarse dual graph always sum to the leaf count
        counts = am.mesh.forest.leaf_counts_by_root()
        assert counts.sum() == am.n_leaves
        assert counts.min() >= 0


@given(script=adapt_script())
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_3d_adaptation_invariants(script):
    am = AdaptiveMesh.unit_cube(2)
    for op, frac, seed in script[:4]:
        rng = np.random.default_rng(seed)
        leaves = am.leaf_ids()
        k = max(1, int(frac * len(leaves) * 0.3))
        marked = leaves[rng.choice(len(leaves), size=k, replace=False)]
        if op == "refine":
            am.refine(marked)
        else:
            am.coarsen(marked)
        am.mesh.check_conformal()
        am.mesh.check_adjacency()
        am.mesh.forest.validate()
        assert tet_volumes(am.mesh.verts, am.mesh.leaf_cells()).sum() == pytest.approx(8.0)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_2d_quality_bounded(seed):
    """Rivara bisection does not degrade triangle quality unboundedly: the
    minimum quality after repeated local refinement stays above a fixed
    fraction of the initial minimum quality."""
    am = AdaptiveMesh.unit_square(4)
    q0 = tri_quality(am.mesh.verts, am.leaf_cells()).min()
    rng = np.random.default_rng(seed)
    for _ in range(5):
        leaves = am.leaf_ids()
        marked = leaves[rng.choice(len(leaves), size=max(1, len(leaves) // 8), replace=False)]
        am.refine(marked)
    q = tri_quality(am.mesh.verts, am.leaf_cells()).min()
    assert q > 0.2 * q0


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_refine_coarsen_refine_idempotent_geometry(seed):
    """Refine -> full coarsen -> identical refine reproduces the same
    geometric leaf mesh (persistent trees)."""
    rng = np.random.default_rng(seed)
    am = AdaptiveMesh.unit_square(3)
    leaves = am.leaf_ids()
    marked = sorted(int(e) for e in leaves[rng.choice(len(leaves), size=4, replace=False)])
    am.refine(marked)

    def geo():
        return {
            tuple(sorted(map(tuple, np.round(am.mesh.verts[c], 12))))
            for c in am.leaf_cells()
        }

    snap = geo()
    n_elements = am.mesh.n_elements
    # coarsen fully (possibly multiple sweeps), then redo the same marking
    for _ in range(10):
        if not am.coarsen(am.leaf_ids()):
            break
    am.refine(marked)
    assert geo() == snap
    assert am.mesh.n_elements == n_elements
