"""Tests for the grow-in-place storage."""

import copy
import pickle

import numpy as np
import pytest

from repro.mesh.growable import GrowableMatrix, GrowableVector, IntMap


class TestGrowableMatrix:
    def test_append_returns_index(self):
        m = GrowableMatrix(3, np.int64, capacity=2)
        assert m.extend([1, 2, 3]) == 0
        assert m.extend([4, 5, 6]) == 1

    def test_growth_preserves_data(self):
        m = GrowableMatrix(2, float, capacity=1)
        for k in range(50):
            m.extend([k, k * 2.0])
        assert len(m) == 50
        assert np.allclose(m.data[:, 0], np.arange(50))

    def test_extend(self):
        m = GrowableMatrix(2, np.int64)
        first = m.extend(np.arange(10).reshape(5, 2))
        assert first == 0 and len(m) == 5
        second = m.extend([[100, 101]])
        assert second == 5
        assert tuple(m[5]) == (100, 101)

    def test_extend_1d_row(self):
        m = GrowableMatrix(3, np.int64)
        m.extend(np.array([7, 8, 9]))
        assert len(m) == 1 and tuple(m[0]) == (7, 8, 9)

    def test_setitem(self):
        """Rows written into ``data`` or past it into ``buffer`` (as the
        compiled kernel does, then ``commit``) are the stored rows."""
        m = GrowableMatrix(2, float)
        m.extend([1.0, 2.0])
        m.data[0] = [3.0, 4.0]
        m.reserve(1)
        m.buffer[1] = [5.0, 6.0]
        m.commit(2)
        assert m.data.tolist() == [[3.0, 4.0], [5.0, 6.0]]

    def test_data_is_view_of_live_rows(self):
        m = GrowableMatrix(2, float, capacity=100)
        m.extend([1.0, 2.0])
        assert m.data.shape == (1, 2)


class TestGrowableVector:
    def test_append_and_index(self):
        v = GrowableVector(np.int64, capacity=1)
        for k in range(20):
            assert v.extend([k * k]) == k
        assert v[7] == 49
        assert len(v) == 20

    def test_extend(self):
        v = GrowableVector(float)
        v.extend(np.ones(5))
        v.extend(np.zeros(3))
        assert len(v) == 8
        assert v.data.sum() == pytest.approx(5.0)

    def test_setitem(self):
        v = GrowableVector(np.int64)
        v.extend([1])
        v.data[0] = 42
        assert v[0] == 42

    def test_growth_many(self):
        v = GrowableVector(np.int64, capacity=1)
        v.extend(np.arange(1000))
        assert np.array_equal(v.data, np.arange(1000))


class TestIntMap:
    def test_behaves_like_a_dict(self):
        """Many small batches from capacity 1 (every rehash on the way)
        store what a dict stores, and ``lookup`` answers what ``dict.get``
        answers, ``-1`` for absent keys."""
        rng = np.random.default_rng(0)
        m, ref = IntMap(capacity=1), {}
        for _ in range(300):
            keys = np.unique(rng.integers(0, 1 << 40, 10))
            keys = keys[[k not in ref for k in keys.tolist()]]
            m.add_new(keys, len(ref) + np.arange(keys.size))
            ref.update(zip(keys.tolist(), range(len(ref), len(ref) + keys.size)))
        assert len(m) == len(ref)
        assert dict(zip(m.keys_array.tolist(), m.values_array.tolist())) == ref
        probe = np.concatenate([rng.integers(0, 1 << 40, 500), list(ref)[:500], [0]])
        assert m.lookup(probe).tolist() == [ref.get(k, -1) for k in probe.tolist()]

    def test_bulk_insert_and_lookup(self):
        keys = np.random.default_rng(1).choice(1 << 50, 5000, replace=False)
        m = IntMap()
        m.add_new(keys[:4000], np.arange(4000))
        got = m.lookup(keys)
        assert np.array_equal(got[:4000], np.arange(4000))
        assert np.all(got[4000:] == -1)
        # insertion order is kept, and the table stays at most half full
        assert np.array_equal(m.keys_array, keys[:4000])
        assert 2 * len(m) <= m._slot.shape[0]
        assert np.array_equal(m.values_array, np.arange(4000))


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


def _check_addresses(store) -> None:
    """Every address ``store`` recorded is its buffer's."""
    if isinstance(store, IntMap):
        assert store.slot_address == store._slot.ctypes.data
        _check_addresses(store._keys)
        _check_addresses(store._vals)
    else:
        assert store.address == store.buffer.ctypes.data


class TestRecordedAddresses:
    """The compiled mesh kernels read each buffer at the address recorded
    where it was allocated: it must be the buffer's after every operation,
    and a copy's the copy's own."""

    def test_vector_after_every_operation(self):
        v = GrowableMatrix(2, np.int64, capacity=1)
        _check_addresses(v)
        for k in range(1, 30):
            v.reserve(k)
            _check_addresses(v)
            v.extend(np.full((k, 2), k))
            _check_addresses(v)
            v.reserve(1)
            v.buffer[len(v)] = [-k, -k]
            v.commit(len(v) + 1)
            _check_addresses(v)
        assert v.data[-1].tolist() == [-29, -29]

    def test_intmap_after_every_operation(self):
        rng = np.random.default_rng(2)
        m = IntMap(capacity=1)
        _check_addresses(m)
        for k in range(1, 40):
            keys = np.setdiff1d(rng.choice(1 << 40, k, replace=False), m.keys_array)
            m.add_new(keys, np.arange(keys.size))
            _check_addresses(m)
            m.reserve(3 * k)
            _check_addresses(m)
            m._resize(4 * len(m))  # a rehash into a table of its own
            _check_addresses(m)
        assert np.array_equal(m.lookup(m.keys_array), m.values_array)

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
    def test_copies_record_their_own_buffers(self, duplicate):
        v = GrowableMatrix(3, float, capacity=5)
        v.extend(np.arange(12.0).reshape(4, 3))
        m = IntMap(capacity=3)
        keys = np.arange(0, 1 << 45, 1 << 38)
        m.add_new(keys, keys // 7)
        dv, dm = duplicate(v), duplicate(m)
        _check_addresses(dv)
        _check_addresses(dm)
        assert dv.address != v.address and dm.slot_address != m.slot_address
        assert dv.capacity == v.capacity and np.array_equal(dv.data, v.data)
        assert np.array_equal(dm.keys_array, m.keys_array)
        assert np.array_equal(dm.lookup(keys), keys // 7)
        # the copy grows on its own
        dv.extend(np.ones((9, 3)))
        dm.add_new(keys + 1, keys)
        _check_addresses(dv)
        _check_addresses(dm)
        assert len(v) == 4 and len(m) == keys.size
