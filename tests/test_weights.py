"""Direct unit tests of the packed weight-report primitives
(:mod:`repro.pared.weights`), of a rank's P1 delta
(:meth:`~repro.pared.protocols._WeightProtocol.weigh`) and of every rank's
merge of them (:class:`~repro.pared.protocols._MergedGraph`) — the P2
protocol without running one.  The focus is the edge cases a round can
hit: empty arrays, ownership handoffs, refinement and coarsening between
rounds, and frames that do not fit ``M^0``.  A delta travels as a slot
frame; the key-form report diff, turned into one by
:func:`tests.conftest.slot_frame`, is its oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from repro.core import PNR
from repro.mesh import AdaptiveMesh, coarse_dual_graph
from repro.pared import DistributedMesh
from repro.pared.protocols import _MergedGraph, _WeightProtocol
from repro.pared.weights import (
    diff_weight_report,
    edge_keys,
    full_weight_report,
    split_edge_keys,
    split_report_by_owner,
)
from repro.runtime.codec import encode
from tests.conftest import rank_deltas, slot_frame

I = np.int64
F = np.float64


def _report(v_ids=(), e_keys=(), v_wts=None, e_wts=None):
    return {
        "v_ids": np.array(v_ids, dtype=I),
        "v_wts": np.ones(len(v_ids)) if v_wts is None else np.asarray(v_wts, F),
        "e_keys": np.array(e_keys, dtype=I),
        "e_wts": np.ones(len(e_keys)) if e_wts is None else np.asarray(e_wts, F),
    }


_SORTED_IDS = st.lists(st.integers(0, 60), unique=True, max_size=25).map(
    lambda ids: np.array(sorted(ids), dtype=I)
)


class TestSortedMembership:
    """The ``searchsorted`` membership behind the P2 diff, against
    ``np.isin``."""

    @settings(max_examples=100, deadline=None)
    @given(prev=_SORTED_IDS, ids=_SORTED_IDS, data=st.data())
    def test_matches_isin(self, prev, ids, data):
        bumped = np.array(
            data.draw(st.lists(st.booleans(), min_size=ids.size, max_size=ids.size)),
            dtype=bool,
        )
        full = _report(ids, ids, v_wts=1.0 + bumped, e_wts=1.0 + bumped)
        delta = diff_weight_report(full, _report(prev, prev))
        want = ids[~np.isin(ids, prev) | bumped]
        assert np.array_equal(delta["v_ids"], want)
        assert np.array_equal(delta["e_keys"], want)

    def test_diff_with_empty_current_report_sends_nothing(self):
        delta = diff_weight_report(_report(), _report([1, 4], [14, 41]))
        assert delta["v_ids"].size == delta["e_keys"].size == 0

    def test_diff_against_empty_previous_report_sends_everything(self):
        full = _report([1, 4], [14, 41])
        delta = diff_weight_report(full, _report())
        assert delta["v_ids"].tolist() == [1, 4]
        assert delta["e_keys"].tolist() == [14, 41]

    def test_diff_with_disjoint_reports_all_gone_all_new(self):
        delta = diff_weight_report(_report([2, 3], [23]), _report([0, 1], [1, 10]))
        assert delta["v_ids"].tolist() == [2, 3]
        assert delta["e_keys"].tolist() == [23]


class _Ranks:
    """Every rank's delta protocol over one shared mesh, side by side with
    the oracle: its full report of the whole mesh's ``G`` diffed against
    the previous one and turned into a slot frame
    (``slot_frame(diff_weight_report(full_weight_report(...), prev))``)."""

    def __init__(self, amesh, p):
        self.amesh, self.p = amesh, p
        cfg = SimpleNamespace(partitioner="pnr", pnr=PNR(), sfc_curve="morton")
        self.protos = [_WeightProtocol(None, cfg, amesh) for _ in range(p)]
        self.prev = [None] * p

    def round(self, owner) -> list:
        """Each rank's ``(delta, oracle)`` under ``owner``, after checking
        that the two are the same arrays and encode to the same bytes."""
        graph = coarse_dual_graph(self.amesh.mesh)
        out = []
        for r, proto in enumerate(self.protos):
            dmesh = DistributedMesh(SimpleNamespace(rank=r, size=self.p), self.amesh, owner)
            got = proto.weigh(dmesh)
            full = full_weight_report(graph, owner, r)
            want = slot_frame(diff_weight_report(full, self.prev[r]), graph)
            self.prev[r] = full
            assert list(got) == list(want)
            for name in want:
                assert got[name].dtype == want[name].dtype, name
                assert np.array_equal(got[name], want[name]), name
            assert encode(got) == encode(want)
            out.append((got, want))
        return out


def _adapt(amesh, data):
    """One drawn refine/coarsen step: a few leaves bisected, then every
    leaf of a few drawn trees marked for coarsening."""
    leaves = amesh.leaf_ids()
    pick = data.draw(st.lists(st.integers(0, leaves.size - 1), max_size=6, unique=True))
    amesh.refine(leaves[pick].tolist())
    trees = data.draw(st.lists(st.integers(0, amesh.n_roots - 1), max_size=6))
    amesh.coarsen(amesh.leaf_ids()[np.isin(amesh.leaf_roots(), trees)].tolist())


class TestDenseDelta:
    """A rank's P1 delta, diffed slot by slot against its own last counts,
    is the sorted-report diff's slot frame byte for byte (four int32
    arrays): over 2-D and 3-D refine/coarsen scripts and any sequence of
    owner maps."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        make=st.sampled_from([lambda: AdaptiveMesh.unit_square(3),
                              lambda: AdaptiveMesh.unit_cube(2)]),
        p=st.sampled_from([1, 2, 3]),
        data=st.data(),
    )
    def test_equals_the_report_diff(self, make, p, data):
        amesh = make()
        ranks = _Ranks(amesh, p)
        for _ in range(4):
            _adapt(amesh, data)
            owner = np.array(
                data.draw(st.lists(st.integers(0, p - 1), min_size=amesh.n_roots,
                                   max_size=amesh.n_roots)),
                dtype=I,
            )
            ranks.round(owner)

    def test_returning_root_is_re_reported(self):
        """A root handed to rank 1 and back, unchanged in between, comes
        back with the very count rank 0 reported before it left: the old
        report lacks it, so the delta must carry it again."""
        amesh = AdaptiveMesh.unit_square(3)
        amesh.refine([0, 5])
        ranks = _Ranks(amesh, 2)
        owner = np.zeros(amesh.n_roots, dtype=I)
        ranks.round(owner)
        away = owner.copy()
        away[0] = 1
        (d0, _), (d1, _) = ranks.round(away)
        assert 0 not in d0["v_ids"] and d1["v_ids"].tolist() == [0]
        (d0, _), (d1, _) = ranks.round(owner)
        assert d0["v_ids"].tolist() == [0]
        assert d0["v_wts"].tolist() == [coarse_dual_graph(amesh.mesh).vwts[0]]
        assert d1["v_ids"].size == d1["e_pos"].size == 0

    def test_empty_owned_set(self):
        """A rank that owns no root sends an empty delta, in its first
        round and after it gave its roots away."""
        amesh = AdaptiveMesh.unit_cube(2)
        ranks = _Ranks(amesh, 3)
        owner = np.arange(amesh.n_roots, dtype=I) % 2  # rank 2 owns nothing
        for got, _ in (ranks.round(owner)[2], ranks.round(owner // 2 * 2)[1]):
            assert all(got[name].size == 0 for name in got)

    def test_first_round_is_the_full_report(self):
        """The zero baseline of a fresh protocol (a run's start, or a
        recovery) equals ``prev=None``: the full report travels."""
        amesh = AdaptiveMesh.unit_square(4)
        amesh.refine([1, 2, 3])
        owner = np.arange(amesh.n_roots, dtype=I) % 2
        graph = coarse_dual_graph(amesh.mesh)
        for r, (got, _) in enumerate(_Ranks(amesh, 2).round(owner)):
            full = full_weight_report(graph, owner, r)
            assert encode(got) == encode(slot_frame(full, graph))
            assert got["v_ids"].size and got["e_pos"].size
            assert all(got[name].dtype == np.int32 for name in got)


class TestCoordinatorMerge:
    """A rank's ``G`` from P2 deltas alone equals the mesh's
    :func:`coarse_dual_graph` every round, whoever owns what and in
    whatever order the deltas arrive."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(p=st.sampled_from([2, 3, 5]), data=st.data())
    def test_merged_deltas_equal_the_mesh_graph(self, p, data):
        amesh = AdaptiveMesh.unit_square(3)
        n = amesh.n_roots
        cg = _MergedGraph(amesh.mesh.coarse_skeleton())
        prev = [None] * p
        owner = None
        for _ in range(4):
            leaves = amesh.leaf_ids()
            pick = data.draw(
                st.lists(st.integers(0, leaves.size - 1), max_size=6, unique=True)
            )
            amesh.refine(leaves[pick].tolist())
            trees = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
            amesh.coarsen(amesh.leaf_ids()[np.isin(amesh.leaf_roots(), trees)].tolist())
            new = np.array(
                data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)),
                dtype=I,
            )
            if owner is not None and np.array_equal(new, owner):
                at = data.draw(st.integers(0, n - 1))
                new[at] = (new[at] + 1) % p  # hand at least one root over
            owner = new
            want = coarse_dual_graph(amesh.mesh)
            cg.merge(data.draw(st.permutations(rank_deltas(want, owner, prev))))
            got = cg.graph()
            for name in ("xadj", "adjncy", "ewts", "vwts"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize(
        "ids, wts, at",
        [
            ("v_ids", "v_wts", -1),  # numpy would write the last root
            ("v_ids", "v_wts", "n_roots"),
            ("e_pos", "e_wts", -1),
            ("e_pos", "e_wts", "n_fwd"),
        ],
        ids=["negative_root", "root_past_n", "negative_pos", "pos_past_fwd"],
    )
    def test_out_of_range_index_raises(self, ids, wts, at):
        """A root id outside ``[0, n_roots)`` or a position outside
        ``[0, len(fwd))`` is refused before anything is written."""
        amesh = AdaptiveMesh.unit_square(2)
        graph = coarse_dual_graph(amesh.mesh)
        cg = _MergedGraph(amesh.mesh.coarse_skeleton())
        full = slot_frame(
            full_weight_report(graph, np.zeros(amesh.n_roots, dtype=I), 0), graph
        )
        at = {"n_roots": amesh.n_roots, "n_fwd": cg.fwd.size}.get(at, at)
        bad = {name: arr[:0] for name, arr in full.items()}
        bad[ids] = np.array([at], dtype=np.int32)
        bad[wts] = np.array([99], dtype=np.int32)
        with pytest.raises(ValueError, match=f"{ids} entry {at} is outside"):
            cg.merge([full, bad])
        assert not cg.vwts.any() and not cg.ewts.any()

    def test_unfilled_slot_raises(self):
        amesh = AdaptiveMesh.unit_square(2)
        graph = coarse_dual_graph(amesh.mesh)
        owner = np.arange(amesh.n_roots, dtype=I) % 2
        cg = _MergedGraph(amesh.mesh.coarse_skeleton())
        # rank 1's frame never arrives
        with pytest.raises(ValueError, match="never reported"):
            cg.merge([slot_frame(full_weight_report(graph, owner, 0), graph)])


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


class TestSplitReportByOwner:
    def _report(self, edges, n):
        a = np.array([e[0] for e in edges], dtype=I)
        b = np.array([e[1] for e in edges], dtype=I)
        keys = edge_keys(a, b, n)
        order = np.argsort(keys)
        r = _report()
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
        assert split_report_by_owner(_report(), owner, 2, rank=0) == {}

    def test_send_recv_channels_are_symmetric(self):
        """Every payload rank r sends to rank t is exactly what t expects
        from r under the mirror rule (owner[b] == t, owner[a] == r): a
        receiver can name its senders from the structure alone."""
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
