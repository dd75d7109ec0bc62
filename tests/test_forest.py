"""Tests for the refinement-history forest."""

import numpy as np
import pytest

from repro.mesh.forest import INACTIVE, INTERIOR, LEAF, RefinementForest


def split(f, e) -> tuple:
    """Refine one leaf: ``split_many([e])`` as ``(child0, child1, created)``."""
    c0, c1, created = f.split_many([e])
    return int(c0[0]), int(c1[0]), bool(created[0])


def merge(f, e) -> tuple:
    """Coarsen one parent: ``merge_many([e])`` as ``(child0, child1)``."""
    c0, c1 = f.merge_many([e])
    return int(c0[0]), int(c1[0])


@pytest.fixture()
def forest3():
    f = RefinementForest()
    f.add_roots(3)
    return f


class TestConstruction:
    def test_roots_are_leaves(self, forest3):
        assert forest3.n_roots == 3
        assert forest3.n_leaves == 3
        for r in range(3):
            assert forest3.status_array[r] == LEAF
            assert forest3.root_array[r] == r
            assert forest3.depth_array[r] == 0
            assert forest3.parent(r) == -1

    def test_split_creates_children(self, forest3):
        c0, c1, created = split(forest3, 0)
        assert created
        assert forest3.status_array[0] == INTERIOR
        assert forest3.status_array[c0] == LEAF and forest3.status_array[c1] == LEAF
        assert forest3.parent(c0) == 0 and forest3.parent(c1) == 0
        assert forest3.root_array[c0] == 0 and forest3.depth_array[c0] == 1
        assert forest3.n_leaves == 4

    def test_split_non_leaf_raises(self, forest3):
        split(forest3, 0)
        with pytest.raises(ValueError):
            split(forest3, 0)

    def test_deep_split_tracks_depth_and_root(self, forest3):
        c0, _, _ = split(forest3, 1)
        g0, g1, _ = split(forest3, c0)
        assert forest3.depth_array[g0] == 2
        assert forest3.root_array[g0] == 1
        assert forest3.parent(g0) == c0 and forest3.parent(c0) == 1


class TestMerge:
    def test_merge_roundtrip(self, forest3):
        c0, c1, _ = split(forest3, 0)
        back = merge(forest3, 0)
        assert back == (c0, c1)
        assert forest3.status_array[0] == LEAF
        assert forest3.status_array[c0] == INACTIVE
        assert forest3.n_leaves == 3

    def test_merge_requires_leaf_children(self, forest3):
        c0, c1, _ = split(forest3, 0)
        split(forest3, c0)
        with pytest.raises(ValueError):
            merge(forest3, 0)

    def test_merge_leaf_raises(self, forest3):
        with pytest.raises(ValueError):
            merge(forest3, 0)

    def test_resplit_reactivates_same_ids(self, forest3):
        c0, c1, created = split(forest3, 0)
        merge(forest3, 0)
        r0, r1, recreated = split(forest3, 0)
        assert (r0, r1) == (c0, c1)
        assert not recreated
        assert forest3.status_array[r0] == LEAF and forest3.status_array[r1] == LEAF

    def test_reactivation_keeps_grandchildren_inactive(self, forest3):
        c0, c1, _ = split(forest3, 0)
        g0, g1, _ = split(forest3, c0)
        merge(forest3, c0)
        merge(forest3, 0)
        split(forest3, 0)  # reactivate c0, c1
        assert forest3.status_array[g0] == INACTIVE
        assert forest3.status_array[c0] == LEAF
        forest3.validate()


class TestQueries:
    def test_leaves_sorted(self, forest3):
        split(forest3, 2)
        leaves = forest3.leaves()
        assert list(leaves) == sorted(leaves)
        assert forest3.n_leaves == len(leaves)

    def test_leaf_counts_by_root(self, forest3):
        c0, _, _ = split(forest3, 0)
        split(forest3, c0)
        counts = forest3.leaf_counts_by_root()
        assert list(counts) == [3, 1, 1]
        assert counts.sum() == forest3.n_leaves

    def test_subtree_leaves(self, forest3):
        c0, c1, _ = split(forest3, 0)
        g0, g1, _ = split(forest3, c0)
        assert sorted(forest3.subtree_leaves(0)) == sorted([c1, g0, g1])
        assert forest3.subtree_leaves(g0) == [g0]

    def test_subtree_leaves_skips_inactive(self, forest3):
        c0, c1, _ = split(forest3, 0)
        merge(forest3, 0)
        assert forest3.subtree_leaves(0) == [0]

    def test_children_none_when_never_split(self, forest3):
        assert forest3.children(1) is None

    def test_arrays_are_consistent(self, forest3):
        c0, _, _ = split(forest3, 0)
        assert forest3.status_array[c0] == LEAF
        assert forest3.root_array[c0] == 0
        assert forest3.parent_array[c0] == 0
        assert forest3.depth_array[c0] == 1

    def test_validate_passes_on_valid_forest(self, forest3):
        c0, _, _ = split(forest3, 0)
        split(forest3, c0)
        forest3.validate()


class TestInvariants:
    def test_random_split_merge_sequence(self):
        rng = np.random.default_rng(42)
        f = RefinementForest()
        f.add_roots(5)
        for _ in range(200):
            leaves = f.leaves()
            if rng.random() < 0.6:
                split(f, int(leaves[rng.integers(len(leaves))]))
            else:
                # merge a random mergeable parent
                cands = set()
                for leaf in leaves:
                    p = f.parent(int(leaf))
                    if p >= 0:
                        kids = f.children(p)
                        if np.all(f.status_array[list(kids)] == LEAF):
                            cands.add(p)
                if cands:
                    merge(f, sorted(cands)[0])
        f.validate()
        assert f.leaf_counts_by_root().sum() == f.n_leaves


def _arrays(f) -> list:
    return [
        f.parent_array.copy(), f.child0_array.copy(), f.child1_array.copy(),
        f.root_array.copy(), f.depth_array.copy(), f.status_array.copy(),
    ]


class TestBatchParity:
    """A ``split_many`` / ``merge_many`` batch is its one-element batches
    applied in ascending id order: same arrays, same ids, same errors."""

    def test_random_batches_match_scalar(self):
        rng = np.random.default_rng(7)
        batch, scalar = RefinementForest(), RefinementForest()
        for f in (batch, scalar):
            f.add_roots(6)
        for step in range(60):
            leaves = batch.leaves()
            if step % 3 != 2:
                pick = np.sort(rng.choice(leaves, size=max(1, leaves.size // 3),
                                          replace=False))
                c0, c1, created = batch.split_many(pick)
                got = [split(scalar, int(p)) for p in pick]
                assert [(int(a), int(b), bool(c)) for a, b, c in zip(c0, c1, created)] == got
            else:
                parents = np.unique(batch.parent_array[leaves])
                parents = parents[parents >= 0]
                ok = (batch.status_array[batch.child0_array[parents]] == LEAF) & (
                    batch.status_array[batch.child1_array[parents]] == LEAF
                )
                pick = parents[ok][::2]
                c0, c1 = batch.merge_many(pick)
                assert list(zip(c0.tolist(), c1.tolist())) == [
                    merge(scalar, int(p)) for p in pick
                ]
            assert batch.n_leaves == scalar.n_leaves
            for x, y in zip(_arrays(batch), _arrays(scalar)):
                assert np.array_equal(x, y)
            batch.validate()
        # the mix above must have exercised reactivation as well as creation
        assert (batch.status_array == INACTIVE).any()

    def test_empty_batches_are_noops(self, forest3):
        before = _arrays(forest3)
        c0, c1, created = forest3.split_many([])
        assert c0.size == c1.size == created.size == 0
        assert forest3.merge_many([])[0].size == 0
        for x, y in zip(before, _arrays(forest3)):
            assert np.array_equal(x, y)

    def test_split_many_error_paths(self, forest3):
        split(forest3, 0)
        with pytest.raises(ValueError, match="LEAF"):
            forest3.split_many([0, 1])  # 0 is INTERIOR, as split(0)
        with pytest.raises(ValueError, match="ascending"):
            forest3.split_many([2, 1])
        with pytest.raises(ValueError, match="ascending"):
            forest3.split_many([1, 1])
        # a rejected batch changes nothing
        assert forest3.n_leaves == 4 and np.all(forest3.status_array[1:] == LEAF)
        # corrupt memo: a LEAF whose remembered children are not INACTIVE
        c0, c1 = forest3.children(0)
        merge(forest3, 0)
        forest3.status_array[c0] = LEAF
        with pytest.raises(AssertionError, match="INACTIVE"):
            forest3.split_many([0])

    def test_merge_many_error_paths(self, forest3):
        c0, _, _ = split(forest3, 0)
        split(forest3, 1)
        with pytest.raises(ValueError, match="INTERIOR"):
            forest3.merge_many([1, 2])  # 2 is a LEAF, as merge(2)
        with pytest.raises(ValueError, match="ascending"):
            forest3.merge_many([1, 0])
        split(forest3, c0)
        with pytest.raises(ValueError, match="children must be LEAF"):
            forest3.merge_many([0, 1])  # 0 has an INTERIOR child
        assert forest3.status_array[0] == INTERIOR and forest3.status_array[1] == INTERIOR
        forest3.validate()
