"""Direct unit tests of the packed weight-report primitives
(:mod:`repro.pared.weights`) — previously exercised only indirectly
through the P2 protocol.  The focus is the edge cases a round can hit:
empty arrays, all-duplicate keys, and the no-aliasing guarantee the
coordinator's merge relies on (it mutates what these functions return).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pared import weights as W
from repro.pared.weights import (
    diff_weight_report,
    edge_keys,
    empty_report,
    in_sorted,
    keep_last,
    merge_fresh_values,
    split_edge_keys,
    split_report_by_owner,
)

I = np.int64
F = np.float64


class TestKeepLast:
    def test_later_occurrence_wins(self):
        keys = np.array([3, 1, 3, 2, 1], dtype=I)
        vals = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
        k, v = keep_last(keys, vals)
        assert k.tolist() == [1, 2, 3]
        assert v.tolist() == [14.0, 13.0, 12.0]

    def test_empty_input(self):
        k, v = keep_last(np.empty(0, dtype=I), np.empty(0, dtype=F))
        assert k.size == 0 and v.size == 0
        assert k.dtype == I and v.dtype == F

    def test_empty_returns_fresh_arrays_not_aliases(self):
        """The empty path must not hand back the caller's arrays (or the
        module-level shared empties): the coordinator mutates the result."""
        keys = np.empty(0, dtype=I)
        vals = np.empty(0, dtype=F)
        k, v = keep_last(keys, vals)
        assert k is not keys and v is not vals
        assert k is not W._EMPTY_I and v is not W._EMPTY_F
        k2, _ = keep_last(W._EMPTY_I, W._EMPTY_F)
        assert k2 is not W._EMPTY_I

    def test_empty_keys_coerced_to_int64(self):
        """An empty float array (np.concatenate of float sources) must come
        back as int64 keys, not leak the float dtype downstream."""
        k, v = keep_last(np.empty(0, dtype=F), np.empty(0, dtype=F))
        assert k.dtype == I

    def test_all_duplicate_keys_collapse_to_one(self):
        keys = np.full(7, 42, dtype=I)
        vals = np.arange(7, dtype=F)
        k, v = keep_last(keys, vals)
        assert k.tolist() == [42]
        assert v.tolist() == [6.0]

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.floats(0, 100)), max_size=30
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_insertion_semantics(self, pairs):
        keys = np.array([k for k, _ in pairs], dtype=I)
        vals = np.array([v for _, v in pairs], dtype=F)
        k, v = keep_last(keys, vals)
        want = dict(pairs)
        assert dict(zip(k.tolist(), v.tolist())) == want
        assert np.all(np.diff(k) > 0)  # sorted, duplicate-free


class TestMergeFreshValues:
    def test_overlay_overwrites_and_inserts(self):
        k, v = merge_fresh_values(
            np.array([1, 3, 5], dtype=I),
            np.array([1.0, 3.0, 5.0]),
            np.array([3, 4], dtype=I),
            np.array([30.0, 40.0]),
        )
        assert k.tolist() == [1, 3, 4, 5]
        assert v.tolist() == [1.0, 30.0, 40.0, 5.0]

    def test_empty_fresh_returns_copy_of_store(self):
        keys = np.array([1, 2], dtype=I)
        vals = np.array([1.0, 2.0])
        k, v = merge_fresh_values(
            keys, vals, np.empty(0, dtype=I), np.empty(0, dtype=F)
        )
        assert np.array_equal(k, keys) and np.array_equal(v, vals)
        assert k is not keys and v is not vals
        k[0] = 99  # mutating the result must not touch the store
        assert keys[0] == 1

    def test_both_empty(self):
        k, v = merge_fresh_values(
            np.empty(0, dtype=I),
            np.empty(0, dtype=F),
            np.empty(0, dtype=I),
            np.empty(0, dtype=F),
        )
        assert k.size == 0 and k.dtype == I

    def test_all_duplicate_fresh_keys_last_wins(self):
        k, v = merge_fresh_values(
            np.array([7], dtype=I),
            np.array([0.0]),
            np.array([7, 7, 7], dtype=I),
            np.array([1.0, 2.0, 3.0]),
        )
        assert k.tolist() == [7]
        assert v.tolist() == [3.0]


_SORTED_IDS = st.lists(st.integers(0, 60), unique=True, max_size=25).map(
    lambda ids: np.array(sorted(ids), dtype=I)
)


class TestSortedMembership:
    """The ``searchsorted`` membership behind the P2 diff and the
    coordinator's merge, against ``np.isin``."""

    @settings(max_examples=100, deadline=None)
    @given(haystack=_SORTED_IDS, ids=st.lists(st.integers(-5, 70), max_size=25))
    def test_matches_isin(self, haystack, ids):
        ids = np.array(ids, dtype=I)  # any order, repeats allowed
        assert np.array_equal(in_sorted(haystack, ids), np.isin(ids, haystack))

    @settings(max_examples=100, deadline=None)
    @given(prev=_SORTED_IDS, ids=_SORTED_IDS)
    def test_tombstones_are_the_set_difference(self, prev, ids):
        gone = W._gone(prev, ids)
        assert gone.dtype == I
        assert np.array_equal(gone, np.setdiff1d(prev, ids))

    @staticmethod
    def _report(v_ids, e_keys):
        return {
            **empty_report(),
            "v_ids": np.array(v_ids, dtype=I),
            "v_wts": np.ones(len(v_ids)),
            "e_keys": np.array(e_keys, dtype=I),
            "e_wts": np.ones(len(e_keys)),
        }

    def test_diff_with_empty_current_report_tombstones_everything(self):
        prev = self._report([1, 4], [14, 41])
        delta = diff_weight_report(self._report([], []), prev)
        assert delta["v_ids"].size == delta["e_keys"].size == 0
        assert delta["v_dead"].tolist() == [1, 4]
        assert delta["e_dead"].tolist() == [14, 41]

    def test_diff_against_empty_previous_report_sends_everything(self):
        full = self._report([1, 4], [14, 41])
        delta = diff_weight_report(full, self._report([], []))
        assert delta["v_ids"].tolist() == [1, 4]
        assert delta["e_keys"].tolist() == [14, 41]
        assert delta["v_dead"].size == delta["e_dead"].size == 0
        assert delta["v_dead"].dtype == delta["e_dead"].dtype == I

    def test_diff_with_disjoint_reports_all_gone_all_new(self):
        delta = diff_weight_report(
            self._report([2, 3], [23]), self._report([0, 1], [1, 10])
        )
        assert delta["v_ids"].tolist() == [2, 3]
        assert delta["v_dead"].tolist() == [0, 1]
        assert delta["e_keys"].tolist() == [23]
        assert delta["e_dead"].tolist() == [1, 10]


class TestEdgeKeyPacking:
    @given(
        st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=20)
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, pairs):
        a = np.array([min(x, y) for x, y in pairs], dtype=I)
        b = np.array([max(x, y) for x, y in pairs], dtype=I)
        keys = edge_keys(a, b, 20)
        ra, rb = split_edge_keys(keys, 20)
        assert np.array_equal(ra, a) and np.array_equal(rb, b)

    def test_partition_layer_packing_is_identical(self):
        """repro.partition.distributed keeps a local copy of the packing
        rule (to stay importable without the pared package) — the two must
        never drift apart."""
        from repro.partition import distributed as D

        a = np.array([0, 3, 5], dtype=I)
        b = np.array([2, 4, 9], dtype=I)
        assert np.array_equal(edge_keys(a, b, 10), D.edge_keys(a, b, 10))
        ka, kb = split_edge_keys(edge_keys(a, b, 10), 10)
        da, db = D.split_edge_keys(D.edge_keys(a, b, 10), 10)
        assert np.array_equal(ka, da) and np.array_equal(kb, db)


class TestSplitReportByOwner:
    def _report(self, edges, n):
        a = np.array([e[0] for e in edges], dtype=I)
        b = np.array([e[1] for e in edges], dtype=I)
        keys = edge_keys(a, b, n)
        order = np.argsort(keys)
        r = empty_report()
        r = dict(r)
        r["e_keys"] = keys[order]
        r["e_wts"] = np.array([e[2] for e in edges], dtype=F)[order]
        return r

    def test_partitions_by_other_endpoint_owner(self):
        n = 6
        owner = np.array([0, 0, 1, 1, 2, 2], dtype=I)
        # rank 0's canonical report: owner[a] == 0
        full = self._report([(0, 1, 1.0), (0, 2, 2.0), (1, 4, 3.0)], n)
        out = split_report_by_owner(full, owner, n, rank=0)
        assert sorted(out) == [1, 2]
        a1, b1 = split_edge_keys(out[1]["e_keys"], n)
        assert b1.tolist() == [2]  # root 2 is rank 1's
        assert out[1]["e_wts"].tolist() == [2.0]
        a2, b2 = split_edge_keys(out[2]["e_keys"], n)
        assert b2.tolist() == [4]
        assert out[2]["e_wts"].tolist() == [3.0]

    def test_internal_edges_ship_nowhere(self):
        n = 4
        owner = np.zeros(4, dtype=I)
        full = self._report([(0, 1, 1.0), (2, 3, 1.0)], n)
        assert split_report_by_owner(full, owner, n, rank=0) == {}

    def test_empty_report(self):
        owner = np.array([0, 1], dtype=I)
        assert split_report_by_owner(empty_report(), owner, 2, rank=0) == {}

    def test_send_recv_channels_are_symmetric(self):
        """Every payload rank r sends to rank t is exactly what t expects
        from r under the mirror rule (owner[b] == t, owner[a] == r) — the
        property exchange_halo_weights' handshake-free receive relies on."""
        rng = np.random.default_rng(3)
        n = 30
        owner = rng.integers(0, 4, size=n).astype(I)
        edges = set()
        while len(edges) < 60:
            a, b = sorted(rng.integers(0, n, size=2).tolist())
            if a != b:
                edges.add((a, b))
        for r in range(4):
            mine = [(a, b, 1.0) for a, b in sorted(edges) if owner[a] == r]
            if not mine:
                continue
            out = split_report_by_owner(self._report(mine, n), owner, n, r)
            for t, payload in out.items():
                a, b = split_edge_keys(payload["e_keys"], n)
                assert np.all(owner[a] == r) and np.all(owner[b] == t)
