"""Tests for the space-filling-curve partitioner (:mod:`repro.partition.sfc`).

Key properties (Hypothesis): Morton and Hilbert keys are injective on
distinct quantized centroids (both curves are grid bijections) and the key
*order* is invariant under coordinate translation and uniform scaling.
Splitter properties: non-empty weight-balanced segments whenever ``n >= p``,
index-order fallback on degenerate weights, and a re-split of a fitted
:class:`SFCPartitioner` is bit-identical to a fresh fit's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    SFCPartitioner,
    hilbert_keys_from_quantized,
    morton_keys_from_quantized,
    sfc_keys,
    weighted_curve_splits,
)

CURVES = ("morton", "hilbert")


def segment_sizes(splits, n):
    return np.diff(np.concatenate(([0], splits, [n])))


# ---------------------------------------------------------------------- #
# key properties
# ---------------------------------------------------------------------- #


def full_grid(bits, dim):
    side = 1 << bits
    axes = np.meshgrid(*[np.arange(side)] * dim, indexing="ij")
    return np.column_stack([a.ravel() for a in axes]).astype(np.int64)


@pytest.mark.parametrize("dim,bits", [(2, 4), (3, 3)])
def test_morton_bijective_on_grid(dim, bits):
    q = full_grid(bits, dim)
    keys = morton_keys_from_quantized(q, bits)
    assert np.unique(keys).size == q.shape[0]
    assert keys.min() == 0 and keys.max() == q.shape[0] - 1


@pytest.mark.parametrize("dim,bits", [(2, 4), (3, 3)])
def test_hilbert_bijective_on_grid(dim, bits):
    q = full_grid(bits, dim)
    keys = hilbert_keys_from_quantized(q, bits)
    assert np.unique(keys).size == q.shape[0]
    assert keys.min() == 0 and keys.max() == q.shape[0] - 1


def test_hilbert_curve_is_contiguous():
    """Walking the 2-D Hilbert curve in key order moves one grid step at a
    time — the locality property Morton does not have."""
    bits = 3
    q = full_grid(bits, 2)
    keys = hilbert_keys_from_quantized(q, bits)
    walk = q[np.argsort(keys)]
    steps = np.abs(np.diff(walk, axis=0)).sum(axis=1)
    assert np.all(steps == 1)


@given(
    pts=st.sets(
        st.tuples(st.integers(0, 255), st.integers(0, 255)),
        min_size=2,
        max_size=40,
    ),
    curve=st.sampled_from(CURVES),
)
@settings(max_examples=60, deadline=None)
def test_keys_injective_on_distinct_quantized_points(pts, curve):
    q = np.array(sorted(pts), dtype=np.int64)
    if curve == "morton":
        keys = morton_keys_from_quantized(q, 8)
    else:
        keys = hilbert_keys_from_quantized(q, 8)
    assert np.unique(keys).size == q.shape[0]


@given(
    pts=st.lists(
        st.tuples(st.integers(0, 64), st.integers(0, 64), st.integers(0, 64)),
        min_size=2,
        max_size=30,
        unique=True,
    ),
    shift=st.tuples(
        st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100)
    ),
    scale_pow=st.integers(-4, 6),
    curve=st.sampled_from(CURVES),
)
@settings(max_examples=60, deadline=None)
def test_keys_invariant_under_translation_and_uniform_scaling(
    pts, shift, scale_pow, curve
):
    """Integer points, integer shift, power-of-two scale: the min–max
    normalization cancels both exactly, so the keys (not just their order)
    are bit-identical."""
    coords = np.array(pts, dtype=np.float64)
    moved = coords * float(2.0**scale_pow) + np.array(shift, dtype=np.float64)
    k0 = sfc_keys(coords, curve=curve, bits=8)
    k1 = sfc_keys(moved, curve=curve, bits=8)
    assert np.array_equal(k0, k1)


def test_quantize_rejects_bad_shapes():
    from repro.partition.sfc import quantize_coords

    with pytest.raises(ValueError):
        quantize_coords(np.zeros(5))
    with pytest.raises(ValueError):
        quantize_coords(np.zeros((5, 4)))
    with pytest.raises(ValueError):
        quantize_coords(np.zeros((5, 3)), bits=32)  # 96 bits > int64


def test_unknown_curve_rejected():
    with pytest.raises(ValueError, match="unknown curve"):
        sfc_keys(np.zeros((3, 2)), curve="peano")


# ---------------------------------------------------------------------- #
# the weighted splitter
# ---------------------------------------------------------------------- #


@given(
    weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=120),
    p=st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_splitter_segments_partition_the_range(weights, p):
    w = np.array(weights)
    n = w.size
    splits = weighted_curve_splits(w, p)
    assert splits.shape == (p - 1,)
    sizes = segment_sizes(splits, n)
    assert sizes.sum() == n
    assert np.all(sizes >= 0)
    if n >= p:
        assert np.all(sizes >= 1)


def test_splitter_balances_unit_weights():
    w = np.ones(1000)
    splits = weighted_curve_splits(w, 7)
    sizes = segment_sizes(splits, 1000)
    assert sizes.max() - sizes.min() <= 1


def test_splitter_zero_weight_fallback_is_index_order():
    splits = weighted_curve_splits(np.zeros(12), 4)
    assert list(splits) == [3, 6, 9]
    splits = weighted_curve_splits(np.full(8, np.nan), 4)
    assert list(splits) == [2, 4, 6]


def test_splitter_one_giant_weight():
    w = np.ones(10)
    w[0] = 1e6
    sizes = segment_sizes(weighted_curve_splits(w, 5), 10)
    assert np.all(sizes >= 1)


# ---------------------------------------------------------------------- #
# partitioning
# ---------------------------------------------------------------------- #


def cloud(n=200, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (n, dim))


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("p", [2, 5, 8])
def test_partition_valid_and_balanced(curve, p):
    pts = cloud()
    w = np.random.default_rng(1).uniform(0.5, 2.0, pts.shape[0])
    a = SFCPartitioner(curve=curve).fit(pts).partition(w, p)
    assert set(np.unique(a)) == set(range(p))
    loads = np.bincount(a, weights=w, minlength=p)
    assert loads.max() / (w.sum() / p) - 1 < 0.25


def test_partition_deterministic():
    pts = cloud(seed=3)
    a1 = SFCPartitioner(curve="hilbert").fit(pts).partition(None, 6)
    a2 = SFCPartitioner(curve="hilbert").fit(pts).partition(None, 6)
    assert np.array_equal(a1, a2)


@pytest.mark.parametrize("curve", CURVES)
def test_incremental_matches_one_shot(curve):
    pts = cloud(n=300, dim=3, seed=5)
    w = np.random.default_rng(6).uniform(1.0, 4.0, 300)
    part = SFCPartitioner(curve=curve).fit(pts)
    part.partition(np.ones(300), 8)  # an earlier round's weights
    fresh = SFCPartitioner(curve=curve).fit(pts).partition(w, 8)
    assert np.array_equal(part.partition(w, 8), fresh)


def test_incremental_resplit_moves_few_elements():
    """A local weight bump slides cut points; most elements stay put."""
    pts = cloud(n=500, seed=7)
    w = np.ones(500)
    part = SFCPartitioner().fit(pts)
    before = part.partition(w, 4)
    w2 = w.copy()
    w2[:50] = 3.0  # refinement concentrated in one region
    after = part.partition(w2, 4)
    moved = np.count_nonzero(before != after)
    assert moved < 150  # cut points slid, the interior did not reshuffle


def test_partitioner_requires_fit():
    with pytest.raises(RuntimeError, match="fit"):
        SFCPartitioner().partition(np.ones(4), 2)


def test_partition_edge_cases():
    assert SFCPartitioner().fit(np.empty((0, 2))).partition(None, 3).size == 0
    part = SFCPartitioner().fit(cloud(10))
    assert np.all(part.partition(None, 1) == 0)
    with pytest.raises(ValueError):
        part.partition(None, 0)
    with pytest.raises(ValueError):
        part.partition(np.ones(9), 2)
